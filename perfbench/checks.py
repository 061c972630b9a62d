"""Output checks of the benchmark, each computed apart from the layer it checks.

Every check raises ``CheckFailed`` with a message naming what disagreed.

- The linear reference is a dense numpy solve of the discrete Gaussian
  posterior built from the problem's assembled tridiagonal operators; the
  program derives its own reference from closed-form spectral data.
- The convergence check refits the trailing-window rate from the adaptive
  trace against that dense reference, without the program's fitting code.
- The Darcy forward check compares the program's solves with the closed-form
  solution of the 1D P1 system, which is nodally exact for cell-constant
  conductivities.
- The Darcy Hessian-path quadrature is compared with self-normalised
  importance sampling under the Laplace proposal (Schillings, Sprungk &
  Wacker 2020), evaluated batch-wise with the closed-form solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Acceptance gate of the linear Q1 rate at alpha = 1 (criterion 1).
LINEAR_Q1_RATE = 0.5
LINEAR_Q1_RATE_TOL = 0.2
# The program's reference carries the error of its MAP point, whose Newton
# solve stops at 60 iterations short of its tolerance on some seeds (up to
# 1.3e-8 relative over seeds 0-39; the dense reference matches the exact
# spectral mean to 1e-11).  1e-7 is still three orders below the smallest
# checkpointed quadrature error, so the fitted rate cannot depend on it.
REFERENCE_RTOL = 1e-7
# The closed-form and the program's Darcy solutions agree to ~1e-13.
FORWARD_ATOL = 1e-10
# Sparse estimates must lie within this many importance-sampling standard
# errors.  The weights exp(-J1) are skewed, so the CLT error understates the
# spread of Z somewhat (z-scores over 40 draw sets had s.d. ~1.1, max 2.7);
# five keeps false alarms below 1e-4 per comparison and still rejects an
# estimate ten standard errors off.
IS_SIGMAS = 5.0


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def _tridiag_dense(op) -> np.ndarray:
    return np.diag(op.diag) + np.diag(op.off, 1) + np.diag(op.off, -1)


def _tridiag_apply(op, X: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal product along the last axis."""
    out = op.diag * X
    out[..., :-1] += op.off * X[..., 1:]
    out[..., 1:] += op.off * X[..., :-1]
    return out


# ---------------------------------------------------------------------------
# budget
# ---------------------------------------------------------------------------


def check_budget(n_points: int, stopped_on: str, budget: int) -> None:
    """The adaptive run must end on its point budget."""
    if stopped_on != "max_points" or n_points < budget:
        raise CheckFailed(
            f"run stopped on {stopped_on!r} at {n_points} points; "
            f"expected the point budget {budget}"
        )


# ---------------------------------------------------------------------------
# linear problem
# ---------------------------------------------------------------------------


def dense_linear_q1_reference(problem) -> float:
    """E[exp(m(0.5))] under the discrete Gaussian posterior, densely.

    Posterior precision H = G^T M G / sigma^2 + A_alpha with G = K^{-1} M,
    mean H^{-1} (G^T M y / sigma^2 + A_alpha m0), and the lognormal identity
    E[exp(X)] = exp(mean + var / 2) at the interior node x = 0.5.
    """
    K = _tridiag_dense(problem.K)
    M = _tridiag_dense(problem.M)
    A = _tridiag_dense(problem.A_prior)
    A_alpha = A
    for _ in range(problem.alpha - 1):
        A_alpha = A @ np.linalg.solve(M, A_alpha)
    G = np.linalg.solve(K, M)
    MG = M @ G
    s2 = problem.sigma**2
    H = G.T @ MG / s2 + A_alpha
    rhs = MG.T @ problem.y / s2 + A_alpha @ problem.prior_mean
    center = problem.mesh.n_cells // 2 - 1  # interior numbering
    e = np.zeros(len(rhs))
    e[center] = 1.0
    sol = np.linalg.solve(H, np.column_stack([rhs, e]))
    mean, var = sol[center, 0], sol[center, 1]
    return math.exp(mean + 0.5 * var)


def check_reference(program_reference: float, reference: float) -> None:
    rel = abs(program_reference - reference) / abs(reference)
    if not rel <= REFERENCE_RTOL:
        raise CheckFailed(
            f"program reference {program_reference!r} differs from the dense "
            f"reference {reference!r} by {rel:.3g} relative"
        )


def ladder_checkpoints(n_points: Sequence[int], budget: int) -> list[int]:
    """Trace positions at the 1-2-5 point ladder: for each budget b from 10
    up to ``budget``, the last trace entry with at most b points."""
    bounds = [a * 10**k for k in range(12) for a in (1, 2, 5)]
    bounds = [b for b in bounds if max(10, n_points[0]) <= b <= budget]
    if not bounds or bounds[-1] != budget:
        bounds.append(budget)
    picks: list[int] = []
    for b in bounds:
        pos = int(np.searchsorted(n_points, b, side="right")) - 1
        if pos >= 0 and (not picks or n_points[pos] != n_points[picks[-1]]):
            picks.append(pos)
    return picks


def trailing_rate(n: np.ndarray, err: np.ndarray) -> float:
    """-slope of log(err) against log(n) over the checkpoints at or above the
    geometric midpoint of the range (at least the last five)."""
    tail = n >= math.sqrt(n.min() * n.max())
    if tail.sum() < 5:
        tail = np.zeros(len(n), dtype=bool)
        tail[-5:] = True
    slope = np.polyfit(np.log(n[tail]), np.log(err[tail]), 1)[0]
    return float(-slope)


def check_linear_convergence(
    n_points: Sequence[int], values: Sequence[float], reference: float, budget: int
) -> float:
    """Trace-based convergence against an independent reference: the error
    falls from the first checkpoint to the last and the trailing-window rate
    lies inside the acceptance gate.  Returns the rate."""
    n_points = np.asarray(n_points)
    if n_points[-1] < budget:
        raise CheckFailed(f"trace ends at {n_points[-1]} points, before {budget}")
    picks = ladder_checkpoints(n_points, budget)
    n = n_points[picks].astype(float)
    err = np.abs(np.asarray(values, dtype=float)[picks] - reference)
    if len(n) < 5 or not np.all(err > 0):
        raise CheckFailed(f"cannot fit a rate to errors {err.tolist()}")
    if not err[-1] < err[0]:
        raise CheckFailed(f"error did not fall: {err[0]:.3g} -> {err[-1]:.3g}")
    rate = trailing_rate(n, err)
    if not abs(rate - LINEAR_Q1_RATE) <= LINEAR_Q1_RATE_TOL:
        raise CheckFailed(
            f"rate {rate:.4f} outside {LINEAR_Q1_RATE} +- {LINEAR_Q1_RATE_TOL}"
        )
    return rate


# ---------------------------------------------------------------------------
# Darcy problem
# ---------------------------------------------------------------------------


def darcy_closed_form(k_cells: np.ndarray) -> np.ndarray:
    """Nodal solution of -(k u')' = 0, u(0) = 1, u(1) = 0, for cell-constant
    k: u_i = 1 - sum_{c<i} 1/k_c / sum_c 1/k_c.  Batched over leading axes."""
    c = np.cumsum(1.0 / k_cells, axis=-1)
    u = np.empty(k_cells.shape[:-1] + (k_cells.shape[-1] + 1,))
    u[..., 0] = 1.0
    u[..., 1:] = 1.0 - c / c[..., -1:]
    return u


def cell_coefficients(m: np.ndarray) -> np.ndarray:
    """Midpoint conductivity exp(m) per cell, batched over leading axes."""
    return np.exp(0.5 * (m[..., :-1] + m[..., 1:]))


def check_darcy_forward(
    k_cells: np.ndarray, observed: np.ndarray, u_center: float, B: np.ndarray
) -> None:
    """The program's observations B u and centre value u(0.5) must equal the
    closed-form solution for the conductivities ``k_cells``."""
    u = darcy_closed_form(k_cells)
    center = len(k_cells) // 2
    obs_err = float(np.max(np.abs(B @ u - observed)))
    center_err = abs(u[center] - u_center)
    if not (obs_err <= FORWARD_ATOL and center_err <= FORWARD_ATOL):
        raise CheckFailed(
            f"forward solve differs from the closed form: observations by "
            f"{obs_err:.3g}, u(0.5) by {center_err:.3g}"
        )


def kl_sample(field, xi: np.ndarray) -> np.ndarray:
    """Rows of mean + sum_j sqrt(lambda_j) psi_j xi_j, one per row of xi."""
    J = xi.shape[-1]
    scale = np.sqrt(field.pairs.values[:J])
    return field.mean + (xi * scale) @ field.pairs.vectors[:, :J].T


@dataclass(frozen=True)
class ISEstimate:
    """Self-normalised importance-sampling estimates with CLT standard errors:
    Z = E[w] and E[u(0.5)] = E[w q] / E[w] (delta method)."""

    z: float
    z_se: float
    mean: float
    mean_se: float


def laplace_weights(
    problem, field, cost_at_map: float, xi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row w = exp(-J1(m(xi))) and q = u(0.5) for a batch of posterior
    KL coordinates, with J1 = J - J(m_MAP) - |xi|^2 / 2.

    Forward solutions come from the closed form and the prior term from the
    assembled precision A (alpha = 1), not from the program's integrand.
    """
    if problem.alpha != 1:
        raise ValueError("the Laplace weights support alpha = 1 only")
    m = kl_sample(field, xi)
    u = darcy_closed_form(cell_coefficients(m))
    r = u @ problem.B.T - problem.y
    phi = 0.5 / problem.sigma**2 * np.einsum("ij,ij->i", r, r)
    d = m - problem.prior_mean
    prior = 0.5 * np.einsum("ij,ij->i", d, _tridiag_apply(problem.A_prior, d))
    j1 = phi + prior - cost_at_map - 0.5 * np.einsum("ij,ij->i", xi, xi)
    return np.exp(-j1), u[:, problem.mesh.n_cells // 2]


def laplace_is_estimate(
    problem, field, cost_at_map: float, n_draws: int, rng: np.random.Generator,
    chunk: int = 250,
) -> ISEstimate:
    """Importance sampling under the Laplace proposal xi ~ N(0, I_J).  Draws
    are processed in chunks to keep the check's memory small."""
    ws, qs = [], []
    for start in range(0, n_draws, chunk):
        xi = rng.standard_normal((min(chunk, n_draws - start), field.truncation))
        w, q = laplace_weights(problem, field, cost_at_map, xi)
        ws.append(w)
        qs.append(q)
    return is_estimate(np.concatenate(ws), np.concatenate(qs))


def is_estimate(w: np.ndarray, q: np.ndarray) -> ISEstimate:
    n = len(w)
    mean = float(np.dot(w, q) / w.sum())
    return ISEstimate(
        z=float(w.mean()),
        z_se=float(w.std(ddof=1) / math.sqrt(n)),
        mean=mean,
        mean_se=float(math.sqrt(np.sum(w**2 * (q - mean) ** 2)) / w.sum()),
    )


def check_against_is(z: float, mean: float, ref: ISEstimate) -> None:
    """Sparse Z and E[u(0.5)] within IS_SIGMAS standard errors of IS."""
    dz = abs(z - ref.z) / ref.z_se
    dm = abs(mean - ref.mean) / ref.mean_se
    if not (dz <= IS_SIGMAS and dm <= IS_SIGMAS):
        raise CheckFailed(
            f"sparse (Z, E[u]) = ({z:.6f}, {mean:.6f}) vs IS "
            f"({ref.z:.6f} +- {ref.z_se:.2g}, {ref.mean:.6f} +- {ref.mean_se:.2g}): "
            f"{dz:.2f} and {dm:.2f} standard errors"
        )


def check_prior_bounds(z: float, mean: float) -> None:
    """0 < Z <= 1 because Phi >= 0; 0 <= E[u(0.5)] <= 1 by the maximum
    principle."""
    if not (0.0 < z <= 1.0 and 0.0 <= mean <= 1.0):
        raise CheckFailed(f"prior-path estimates out of bounds: Z={z!r}, E[u]={mean!r}")
