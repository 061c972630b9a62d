"""Gaussian field representations: covariance eigenpairs and KL maps.

A Gaussian measure on the mesh is carried as a mean field plus the dominant
eigenpairs of its covariance operator, always stored with descending
eigenvalues and mass-orthonormal eigenvectors.  The KL map realizes field
samples from sparse coordinate vectors; the adaptive quadrature touches
coordinates lazily, so a full-dimensional truncation costs nothing up front.

Eigenpairs come either from closed forms (sine modes of the Dirichlet
Laplacian on a uniform mesh) or from a randomized matrix-free solver for
generalized problems ``A v = lambda B v`` given the action of B^{-1}A and a
banded (tridiagonal) B.
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


def _b_orthonormalize(Y: np.ndarray, B: TriDiagOperator) -> np.ndarray:
    """B-orthonormal basis via the banded Cholesky factor B = U^T U:
    pivoted QR of U Y, then back-substitution.  Rank decisions happen on the
    linear (not squared) spectrum, preserving small-eigenvalue directions."""
    U = scipy.linalg.cholesky_banded(B._banded(), lower=False)
    UY = U[1, :, None] * Y
    UY[:-1] += U[0, 1:, None] * Y[1:]
    Q, R, _ = scipy.linalg.qr(UY, mode="economic", pivoting=True)
    d = np.abs(np.diag(R))
    rank = int(np.sum(d > d[0] * 1e-12)) if len(d) else 0
    return scipy.linalg.solve_banded((0, 1), U, Q[:, :rank])


def randomized_eigen(
    apply_op: Callable[[np.ndarray], np.ndarray],
    B: TriDiagOperator,
    J: int,
    oversampling: int = 10,
    power_iters: int = 1,
    rng: np.random.Generator | None = None,
) -> EigenPairs:
    """Randomized solver for the generalized problem A v = lambda B v.

    ``apply_op`` must realize the action of B^{-1}A (a B-self-adjoint map)
    on blocks of column vectors.  ``B`` is the SPD B as a banded
    ``TriDiagOperator``; bases are B-orthonormalized through its Cholesky
    factor.  Range finding with the given oversampling and power iterations,
    then a Rayleigh-Ritz projection in the B-inner product.  Returns up to J
    dominant pairs, descending, B-orthonormal: fewer when the operator has
    fewer than J eigenvalues above about 1e-12 of its largest in magnitude,
    since the sketch resolves no direction below that (none for a zero
    operator).  When the sketch width reaches the space dimension the
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
        Y = apply_op(_b_orthonormalize(Y, B))
    Q = _b_orthonormalize(Y, B)
    T = Q.T @ B.matvec(apply_op(Q))
    T = 0.5 * (T + T.T)
    theta, S = np.linalg.eigh(T)
    order = np.argsort(-theta, kind="stable")[:J]
    values = theta[order]
    vectors = Q @ S[:, order]
    for col in range(vectors.shape[1]):
        i = np.argmax(np.abs(vectors[:, col]))
        if vectors[i, col] < 0:
            vectors[:, col] = -vectors[:, col]
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
    solves.
    """

    def op(X: np.ndarray) -> np.ndarray:
        return apply_A_alpha_inv(M.matvec(X), alpha, A, M)

    return randomized_eigen(
        op, M, J, oversampling=oversampling, power_iters=power_iters, rng=rng,
    )


def spectrum_to_csv(values: np.ndarray) -> str:
    """Spectrum as ``j,sqrt_lambda`` rows (the usual plot axes)."""
    buf = io.StringIO()
    buf.write("j,sqrt_lambda\n")
    for j, lam in enumerate(values, start=1):
        buf.write(f"{j},{np.sqrt(max(lam, 0.0)):.17g}\n")
    return buf.getvalue()
