"""Gaussian field representations: covariance eigenpairs and KL maps.

A Gaussian measure on the mesh is carried as a mean field plus the dominant
eigenpairs of its covariance operator, always stored with descending
eigenvalues and mass-orthonormal eigenvectors.  The KL map realizes field
samples from sparse coordinate vectors; the adaptive quadrature touches
coordinates lazily, so a full-dimensional truncation costs nothing up front.

Eigenpairs come either from closed forms or from a randomized matrix-free
solver for generalized problems ``A v = lambda B v`` given the action of
B^{-1}A and a banded (tridiagonal) B.  On a uniform mesh the nodal sine
modes sin(j*pi*x) are exact eigenvectors of the P1 Dirichlet pencil and the
nodal cosine modes cos(j*pi*x), j = 0, 1, ..., of the natural-boundary
(Neumann) pencil, both with the discrete Laplacian eigenvalue
``dirichlet_laplacian_eigenvalue``; they give the covariance of the linear
prior (-beta * Lap)^(-alpha) and of N(0, (-beta * Lap + gamma)^(-1)), from
which the Darcy benchmark draws its true field.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np
import scipy.linalg

from .fem1d import Mesh1D, TriDiagOperator, apply_A_alpha_inv, mass_operator


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based generator for a (seed, purpose) pair."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class EigenPairs:
    """Descending eigenvalues with B-orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.vectors.shape[1]:
            raise ValueError("values/vectors size mismatch")
        if np.any(np.diff(self.values) > 0):
            raise ValueError("eigenvalues must be in descending order")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class GaussianField:
    """Mean plus spectral covariance data; realizes m(xi) via the KL map."""

    mean: np.ndarray
    pairs: EigenPairs

    @cached_property
    def truncation(self) -> int:
        """Number of KL coordinates: one per eigenpair."""
        return len(self.pairs)

    @cached_property
    def sqrt_values(self) -> np.ndarray:
        """sqrt(lambda_j), the KL scale of each coordinate."""
        return np.sqrt(self.pairs.values)


def kl_map(field: GaussianField, xi: Mapping[int, float]) -> np.ndarray:
    """mean + sum_j sqrt(lambda_j) * psi_j * xi_j over the support of xi.

    Coordinates beyond the truncation signal an index-set/truncation mismatch
    and raise.
    """
    out = field.mean.copy()
    scales = field.sqrt_values
    vecs = field.pairs.vectors
    for j, x in xi.items():
        if not 1 <= j <= field.truncation:
            raise ValueError(
                f"coordinate dimension {j} outside truncation {field.truncation}"
            )
        out += scales[j - 1] * x * vecs[:, j - 1]
    return out


def dirichlet_sine_vector(mesh: Mesh1D, j: int) -> np.ndarray:
    """Interior nodal samples of sin(j*pi*x) with exact lattice zeros.

    Entries where j*i is a multiple of n_cells are exactly zero (e.g. the
    center node for even j), preserving the symmetries that make
    zero-contribution dimensions drop out of the quadrature exactly.
    """
    n = mesh.n_cells
    i = np.arange(1, n)
    prod = j * i
    vals = np.sin(np.pi * (prod % (2 * n)) / n)
    return np.where(prod % n == 0, 0.0, vals)


def neumann_cosine_vector(mesh: Mesh1D, j: int) -> np.ndarray:
    """Nodal samples of cos(j*pi*x) on all nodes with exact lattice values.

    The argument is reduced to j*i mod 2*n_cells before the cosine, so the
    entries are exactly 1 and -1 where it is 0 and n_cells, and exactly zero
    where it is n_cells/2 or 3*n_cells/2.  j = 0 is the constant mode.
    """
    n = mesh.n_cells
    arg = (j * np.arange(n + 1)) % (2 * n)
    vals = np.cos(np.pi * arg / n)
    return np.where((2 * arg) % (2 * n) == n, 0.0, vals)


def dirichlet_laplacian_eigenvalue(mesh: Mesh1D, j: int) -> float:
    """j-th eigenvalue of the discrete P1 Dirichlet Laplacian on (0, 1).

    The discrete generalized stiffness/mass pencil has the closed form
    3*(2 - 2*cos(j*pi*h)) / (h**2 * (2 + cos(j*pi*h))); the continuum value is
    (j*pi)**2.  The discrete form keeps prior, posterior, MAP, and reference
    formulas exactly consistent on the mesh.
    """
    theta = j * np.pi * mesh.h
    return float(3.0 * (2.0 - 2.0 * np.cos(theta)) / (mesh.h**2 * (2.0 + np.cos(theta))))


def prior_eigen_analytic(beta: float, alpha: int, J: int, mesh: Mesh1D) -> EigenPairs:
    """Closed-form eigenpairs of the prior covariance (-beta * Lap)^(-alpha).

    lambda_j = (beta * lap_j)**(-alpha) with lap_j the discrete Dirichlet
    Laplacian eigenvalue; eigenvectors are the sine modes, normalized to unit
    discrete mass norm, so mass-orthonormality holds to machine precision.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if not (isinstance(alpha, (int, np.integer)) and alpha >= 1):
        raise ValueError("alpha must be a positive integer")
    if J > mesh.n_interior:
        raise ValueError("J exceeds the interior node count")
    M = mass_operator(mesh, dirichlet=True)
    values = np.empty(J)
    vectors = np.empty((mesh.n_interior, J))
    for j in range(1, J + 1):
        lam = dirichlet_laplacian_eigenvalue(mesh, j)
        values[j - 1] = (beta * lam) ** (-alpha)
        v = dirichlet_sine_vector(mesh, j)
        vectors[:, j - 1] = v / np.sqrt(M.quadratic(v))
    return EigenPairs(values=values, vectors=vectors)


def neumann_eigen_analytic(beta: float, gamma: float, J: int, mesh: Mesh1D) -> EigenPairs:
    """Closed-form eigenpairs of the covariance (-beta * Lap + gamma * I)^(-1)
    with natural boundary conditions, on all nodes.

    lambda_j = 1 / (beta * lap_j + gamma) for j = 0, ..., J-1, with lap_j the
    discrete Laplacian eigenvalue (0 at j = 0); eigenvectors are the cosine
    modes, normalized to unit natural-boundary mass norm.
    """
    if beta <= 0 or gamma <= 0:
        raise ValueError("beta and gamma must be positive")
    if J > mesh.n_nodes:
        raise ValueError("J exceeds the node count")
    M = mass_operator(mesh, dirichlet=False)
    values = np.empty(J)
    vectors = np.empty((mesh.n_nodes, J))
    for j in range(J):
        values[j] = 1.0 / (beta * dirichlet_laplacian_eigenvalue(mesh, j) + gamma)
        v = neumann_cosine_vector(mesh, j)
        vectors[:, j] = v / np.sqrt(M.quadratic(v))
    return EigenPairs(values=values, vectors=vectors)


def _b_orthonormalize(Y: np.ndarray, B: TriDiagOperator) -> np.ndarray:
    """B-orthonormal basis of the columns of Y via the banded Cholesky factor
    B = U^T U: QR of U Y, then back-substitution.

    An unpivoted QR keeps every column when each |R_ii| exceeds 1e-12 of the
    largest.  Otherwise the sketch is numerically deficient (an empty sketch
    or a zero operator included), and a pivoted QR cuts the rank: its R
    puts the weak directions last, which the unpivoted one does not.  Rank
    decisions happen on the linear (not squared) spectrum, preserving
    small-eigenvalue directions.
    """
    U = scipy.linalg.cholesky_banded(B._banded(), lower=False)

    def u_times_y() -> np.ndarray:
        UY = U[1, :, None] * Y
        UY[:-1] += U[0, 1:, None] * Y[1:]
        return UY

    Q, R = scipy.linalg.qr(
        u_times_y(), mode="economic", overwrite_a=True, check_finite=False,
    )
    d = np.abs(np.diag(R))
    if not (d.size and np.all(d > d.max() * 1e-12)):
        Q, R, _ = scipy.linalg.qr(
            u_times_y(), mode="economic", pivoting=True, overwrite_a=True,
            check_finite=False,
        )
        d = np.abs(np.diag(R))
        Q = Q[:, :int(np.sum(d > d[0] * 1e-12)) if d.size else 0]
    return scipy.linalg.solve_banded(
        (0, 1), U, Q, overwrite_b=True, check_finite=False,
    )


def randomized_eigen(
    apply_op: Callable[[np.ndarray], np.ndarray],
    B: TriDiagOperator,
    J: int,
    oversampling: int = 10,
    power_iters: int = 1,
    rng: np.random.Generator | None = None,
    *,
    lu_steps: bool = False,
) -> EigenPairs:
    """Randomized solver for the generalized problem A v = lambda B v.

    ``apply_op`` must realize the action of B^{-1}A (a B-self-adjoint map)
    on blocks of column vectors.  ``B`` is the SPD B as a banded
    ``TriDiagOperator``; the final basis is B-orthonormalized through its
    Cholesky factor.  Range finding with the given oversampling and power
    iterations, then a Rayleigh-Ritz projection in the B-inner product.

    Each power step re-bases the sketch before the next apply.  By default
    the new basis is B-orthonormal.  With ``lu_steps`` it is the P L factor
    of a partially pivoted LU of the sketch instead (Halko, Martinsson &
    Tropp 2011, sec. 4.5): unit lower-trapezoidal up to a row permutation,
    so of full column rank, with entries of magnitude at most 1, at about a
    third of the cost of the QR.  It is not orthogonal, so rounding in the
    steps loses directions whose eigenvalues lie many decades below the
    largest; use it for operators whose wanted spectrum spans a few decades
    only.  Either way the final basis is B-orthonormalized, and it alone
    cuts the rank.

    Returns up to J dominant pairs, descending, B-orthonormal: fewer when the
    operator has fewer than J eigenvalues above about 1e-12 of its largest in
    magnitude, since the sketch resolves no direction below that (none for a
    zero operator).  When the sketch width reaches the space dimension the
    projection spans everything and the result is a dense-exact solve.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    rng = rng if rng is not None else rng_stream(0, 0)
    n = B.n_dof
    k = min(J + oversampling, n)
    if k >= n:
        power_iters = 0  # the sketch already spans the space; powering only
        # repeatedly damps small-eigenvalue directions below numerical rank
    Y = apply_op(rng.standard_normal((n, k)))
    for _ in range(power_iters):
        if lu_steps:
            Y = scipy.linalg.lu(Y, permute_l=True, overwrite_a=True,
                                check_finite=False)[0]
        else:
            Y = _b_orthonormalize(Y, B)
        Y = apply_op(Y)
    Q = _b_orthonormalize(Y, B)
    del Y  # free the sketch before the Rayleigh-Ritz apply allocates its own
    # The pairs outlive the Rayleigh-Ritz temporaries.  Taken before them,
    # in the space the sketch left, their memory lies beneath those
    # temporaries, so that freeing them leaves the top of the heap free and
    # the allocator can return it to the system.
    vectors = np.empty((n, min(J, Q.shape[1])))
    T = Q.T @ B.matvec(apply_op(Q))
    T = 0.5 * (T + T.T)
    theta, S = np.linalg.eigh(T)
    order = np.argsort(-theta, kind="stable")[:J]
    values = theta[order]
    np.matmul(Q, S[:, order], out=vectors)
    # each vector's entry of largest magnitude (the first, on ties) is positive
    cols = np.arange(vectors.shape[1])
    flip = vectors[np.argmax(np.abs(vectors), axis=0), cols] < 0
    vectors[:, flip] = -vectors[:, flip]
    return EigenPairs(values=values, vectors=vectors)


def prior_eigen_numeric(
    A: TriDiagOperator,
    M: TriDiagOperator,
    alpha: int,
    J: int,
    oversampling: int = 10,
    power_iters: int = 1,
    rng: np.random.Generator | None = None,
) -> EigenPairs:
    """Dominant eigenpairs of the prior covariance A^{-alpha}.

    Solves the generalized problem M A_alpha^{-1} M psi = lambda M psi
    matrix-free: the B^{-1}A action is A_alpha^{-1} M, realized by banded
    solves.  The power steps re-base the sketch by LU (``randomized_eigen``'s
    ``lu_steps``): the wanted part of a covariance spectrum spans a few
    decades only, and the final basis is still M-orthonormalized.
    """

    def op(X: np.ndarray) -> np.ndarray:
        return apply_A_alpha_inv(M.matvec(X), alpha, A, M)

    return randomized_eigen(
        op, M, J, oversampling=oversampling, power_iters=power_iters, rng=rng,
        lu_steps=True,
    )


def spectrum_to_csv(values: np.ndarray) -> str:
    """Spectrum as ``j,sqrt_lambda`` rows (the usual plot axes)."""
    buf = io.StringIO()
    buf.write("j,sqrt_lambda\n")
    for j, lam in enumerate(values, start=1):
        buf.write(f"{j},{np.sqrt(max(lam, 0.0)):.17g}\n")
    return buf.getvalue()
