"""Piecewise-linear finite elements on a uniform mesh of (0, 1).

Everything is symmetric tridiagonal: mass and stiffness matrices, the
elliptic operator A = -beta * Laplacian + gamma * I (plus optional weighted
mass terms), and the Darcy operator with a cell-midpoint coefficient.
Operators are immutable after assembly and cache their LAPACK tridiagonal
LDL^T factor (``dpttrf``), so repeated solves against the same operator are
cheap; the prior and the misfit-Hessian actions rely on that.

Dirichlet operators own the interior degrees of freedom only; their vectors
have length ``n_cells - 1``.  Natural (Neumann) operators own all
``n_cells + 1`` nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh with n_cells = 2**L cells on (0, 1)."""

    n_cells: int

    def __post_init__(self):
        if self.n_cells < 2 or (self.n_cells & (self.n_cells - 1)) != 0:
            raise ValueError("n_cells must be a power of two >= 2")

    @classmethod
    def from_exponent(cls, L: int) -> "Mesh1D":
        return cls(n_cells=2**L)

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def n_interior(self) -> int:
        return self.n_cells - 1

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_nodes)


@dataclass
class TriDiagOperator:
    """Symmetric tridiagonal SPD operator with a cached LDL^T factor."""

    mesh: Mesh1D
    diag: np.ndarray
    off: np.ndarray
    dirichlet: bool
    _factor: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def n_dof(self) -> int:
        return len(self.diag)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Apply to a vector or to a block of column vectors."""
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            out = self.diag * v
            out[:-1] += self.off * v[1:]
            out[1:] += self.off * v[:-1]
        else:
            out = self.diag[:, None] * v
            out[:-1] += self.off[:, None] * v[1:]
            out[1:] += self.off[:, None] * v[:-1]
        return out

    def quadratic(self, v: np.ndarray, w: np.ndarray | None = None) -> float:
        w = v if w is None else w
        return float(np.dot(v, self.matvec(w)))

    def _banded(self) -> np.ndarray:
        ab = np.zeros((2, self.n_dof))
        ab[0, 1:] = self.off
        ab[1, :] = self.diag
        return ab

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against a vector or a block of column vectors.

        Raises ``numpy.linalg.LinAlgError`` when the operator is not positive
        definite and ``ValueError`` when it has non-finite entries or the
        right-hand side has the wrong length.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n_dof:
            # dpttrs would solve the leading rows of a longer one silently
            raise ValueError(
                f"right-hand side has {rhs.shape[0]} rows, operator {self.n_dof}"
            )
        if self._factor is None:
            # the f2py wrapper wants a length-1 off-diagonal when n = 1
            off = self.off if self.n_dof > 1 else np.zeros(1)
            d, e, info = dpttrf(self.diag, off)
            if info > 0:
                raise np.linalg.LinAlgError(
                    f"operator is not positive definite (leading minor {info})"
                )
            if not np.isfinite(d).all():
                raise ValueError("operator has non-finite entries")
            self._factor = (d, e)
        x, _ = dpttrs(*self._factor, rhs)  # info < 0 only for bad arguments
        return x

    def dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        out += np.diag(self.off, 1) + np.diag(self.off, -1)
        return out

    def add(self, other: "TriDiagOperator", coeff: float = 1.0) -> "TriDiagOperator":
        """New operator self + coeff * other (same dof layout)."""
        if other.n_dof != self.n_dof or other.dirichlet != self.dirichlet:
            raise ValueError("operator layouts differ")
        return TriDiagOperator(
            mesh=self.mesh,
            diag=self.diag + coeff * other.diag,
            off=self.off + coeff * other.off,
            dirichlet=self.dirichlet,
        )


def mass_operator(mesh: Mesh1D, dirichlet: bool = False) -> TriDiagOperator:
    """P1 mass matrix; interior row stencil h * [1/6, 2/3, 1/6]."""
    h = mesh.h
    n = mesh.n_interior if dirichlet else mesh.n_nodes
    diag = np.full(n, 2.0 * h / 3.0)
    if not dirichlet:
        diag[0] = diag[-1] = h / 3.0
    off = np.full(n - 1, h / 6.0)
    return TriDiagOperator(mesh, diag, off, dirichlet)


def laplace_operator(mesh: Mesh1D, dirichlet: bool = True) -> TriDiagOperator:
    """P1 Laplacian stiffness; interior row stencil (1/h) * [-1, 2, -1]."""
    h = mesh.h
    n = mesh.n_interior if dirichlet else mesh.n_nodes
    diag = np.full(n, 2.0 / h)
    if not dirichlet:
        diag[0] = diag[-1] = 1.0 / h
    off = np.full(n - 1, -1.0 / h)
    return TriDiagOperator(mesh, diag, off, dirichlet)


def assemble(
    mesh: Mesh1D,
    beta: float = 1.0,
    gamma: float = 0.0,
    dirichlet: bool = False,
) -> TriDiagOperator:
    """Assemble the elliptic operator beta * (-Laplacian) + gamma * I.

    The operator is SPD for beta > 0 with either gamma > 0 or
    Dirichlet-eliminated boundary rows (gamma = 0 is the Dirichlet Laplacian
    of the linear benchmark).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if gamma < 0 or (gamma == 0 and not dirichlet):
        raise ValueError("gamma must be positive for a natural-boundary operator")
    lap = laplace_operator(mesh, dirichlet=dirichlet)
    scaled = TriDiagOperator(mesh, beta * lap.diag, beta * lap.off, dirichlet)
    return scaled.add(mass_operator(mesh, dirichlet=dirichlet), gamma)


_GAUSS4 = np.polynomial.legendre.leggauss(4)


def cell_gauss_rule(mesh: Mesh1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 4-point Gauss-Legendre rule on every cell.

    Returns the local coordinates t in [0, 1] (shape (4,)), which are also the
    values of the right hat function phi_r = t (phi_l = 1 - t), the points
    (shape (n_cells, 4)) and the weights (shape (1, 4)).
    """
    pts, wts = _GAUSS4
    t = 0.5 * (pts + 1.0)
    xq = mesh.nodes()[:-1, None] + mesh.h * t[None, :]
    wq = 0.5 * mesh.h * wts[None, :]
    return t, xq, wq


def weighted_mass_operator(
    mesh: Mesh1D, weight, dirichlet: bool = False
) -> TriDiagOperator:
    """Mass matrix weighted by a pointwise coefficient, <w * phi_j, phi_i>.

    Entries are integrated with a 4-point Gauss rule per cell, which resolves
    the mollifier bumps used by the measurement operator.
    """
    t, xq, wq = cell_gauss_rule(mesh)
    wx = np.asarray(weight(xq), dtype=float) * wq
    phi_l = 1.0 - t
    phi_r = t
    a_ll = (wx * phi_l**2).sum(axis=1)
    a_lr = (wx * phi_l * phi_r).sum(axis=1)
    a_rr = (wx * phi_r**2).sum(axis=1)
    diag = np.zeros(mesh.n_nodes)
    diag[:-1] += a_ll
    diag[1:] += a_rr
    off = a_lr.copy()
    if dirichlet:
        diag = diag[1:-1]
        off = off[1:-1]
    return TriDiagOperator(mesh, diag, off, dirichlet)


def apply_A_alpha(
    v: np.ndarray, alpha: int, A: TriDiagOperator, M: TriDiagOperator
) -> np.ndarray:
    """Apply A_alpha = (A M^{-1})^{alpha-1} A; alpha a positive integer."""
    if not (isinstance(alpha, (int, np.integer)) and alpha >= 1):
        raise ValueError("alpha must be a positive integer")
    out = A.matvec(v)
    for _ in range(alpha - 1):
        out = A.matvec(M.solve(out))
    return out


def apply_A_alpha_inv(
    v: np.ndarray, alpha: int, A: TriDiagOperator, M: TriDiagOperator
) -> np.ndarray:
    """Apply A_alpha^{-1} = A^{-1} (M A^{-1})^{alpha-1}."""
    if not (isinstance(alpha, (int, np.integer)) and alpha >= 1):
        raise ValueError("alpha must be a positive integer")
    out = A.solve(v)
    for _ in range(alpha - 1):
        out = A.solve(M.matvec(out))
    return out


def solve_poisson(m: np.ndarray, mesh: Mesh1D) -> np.ndarray:
    """Solve -u'' = m with homogeneous Dirichlet data; nodal in, nodal out.

    The load is the consistent P1 projection of the nodal source.
    """
    m = np.asarray(m, dtype=float)
    if len(m) != mesh.n_nodes:
        raise ValueError("source field length does not match the mesh")
    load = mass_operator(mesh).matvec(m)[1:-1]
    u = np.zeros(mesh.n_nodes)
    u[1:-1] = laplace_operator(mesh, dirichlet=True).solve(load)
    return u


def darcy_cell_coeffs(m: np.ndarray, mesh: Mesh1D) -> np.ndarray:
    """Coefficient exp(m) at cell midpoints (midpoint quadrature per cell)."""
    m = np.asarray(m, dtype=float)
    return np.exp(0.5 * (m[:-1] + m[1:]))


def darcy_stiffness(k_cells: np.ndarray, mesh: Mesh1D) -> TriDiagOperator:
    """Interior stiffness of -d/dx(k du/dx) with cell-constant coefficient."""
    a = k_cells / mesh.h
    diag = a[:-1] + a[1:]
    off = -a[1:-1]
    return TriDiagOperator(mesh, diag, off, dirichlet=True)


def cell_slopes(u: np.ndarray, mesh: Mesh1D) -> np.ndarray:
    """Per-cell derivative of a nodal field."""
    return np.diff(np.asarray(u, dtype=float)) / mesh.h


def scatter_mass(q_cells: np.ndarray, mesh: Mesh1D) -> np.ndarray:
    """Nodal vector of <q, phi_i> for cell-constant q: h/2 to each endpoint."""
    out = np.zeros(mesh.n_nodes)
    half = 0.5 * mesh.h * np.asarray(q_cells, dtype=float)
    out[:-1] += half
    out[1:] += half
    return out


def scatter_grad(q_cells: np.ndarray, mesh: Mesh1D) -> np.ndarray:
    """Nodal vector of <q, phi_i'> for cell-constant q: q_left - q_right."""
    q = np.asarray(q_cells, dtype=float)
    out = np.zeros(mesh.n_nodes)
    out[1:] += q
    out[:-1] -= q
    return out
