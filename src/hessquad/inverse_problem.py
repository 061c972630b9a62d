"""Bayesian inversion kernel for the 1D Poisson and Darcy benchmarks.

Both problems share the same structure: a Gaussian prior with covariance
given by a negative integer power of an assembled elliptic operator, a
least-squares data misfit with iid Gaussian noise, a MAP point found by
inexact Newton-CG with closed-form gradients and Hessian actions, a
Gaussian (Laplace) posterior carried as spectral data from a two-step
generalized eigendecomposition, and reweighted integrands that turn posterior
expectations into parametric integrals over iid standard Gaussian
coordinates, in which each quadrature point is evaluated without a solve.

The linear Poisson problem observes the full solution field and admits
closed forms for the MAP point and the posterior spectrum, which the generic
machinery is tested against.  The Darcy problem observes mollified local
averages of the pressure and is genuinely nonlinear in the log-conductivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np
from scipy.sparse import csr_array

from .fem1d import (
    Mesh1D,
    TriDiagOperator,
    apply_A_alpha,
    apply_A_alpha_inv,
    assemble,
    cell_gauss_rule,
    laplace_operator,
    mass_operator,
    weighted_mass_operator,
)
from .gaussian_measure import (
    EigenPairs,
    GaussianField,
    dirichlet_laplacian_eigenvalue,
    kl_map,  # unused here, kept for perfbench/tracing.py, which wraps it by name
    neumann_eigen_analytic,
    prior_eigen_analytic,
    prior_eigen_numeric,
    randomized_eigen,
    rng_stream,
)
from .sparse_quad import Integrand


def _bump(x, center, radius):
    """The Gaussian mollifier exp(-(x - c)^2 / (2 r^2))."""
    return np.exp(-((x - center) ** 2) / (2.0 * radius**2))


def assemble_observation_matrix(
    mesh: Mesh1D, centers: np.ndarray, radius: float
) -> np.ndarray:
    """Rows are <b_k, phi_i> with the bump b_k = ``_bump(x, c_k, radius)``,
    integrated with a 4-point Gauss rule per cell.

    Each row is normalized to unit mass (<b_k, 1> = 1), turning the
    functionals into mollified point evaluations with <b_k, u> of the size
    of u itself.  The raw mollifier mass sqrt(2*pi)*r is ~2.5e-3 at the
    benchmark radius, far below the noise level, so unnormalized
    observations would carry no information.
    """
    t, xq, wq = cell_gauss_rule(mesh)
    B = np.zeros((len(centers), mesh.n_nodes))
    phi_l = 1.0 - t
    phi_r = t
    for k, c in enumerate(centers):
        g = _bump(xq, c, radius) * wq
        B[k, :-1] += (g * phi_l).sum(axis=1)
        B[k, 1:] += (g * phi_r).sum(axis=1)
    B /= B.sum(axis=1, keepdims=True)
    return B


def _smoothness(alpha) -> int:
    """The prior's exponent alpha, refused unless it is a whole number >= 1
    (1.0 is taken as 1)."""
    if not (alpha >= 1 and float(alpha).is_integer()):
        raise ValueError(f"alpha must be an integer >= 1, got {alpha!r}")
    return int(alpha)


def _scaled_columns(field: GaussianField) -> np.ndarray:
    """W = V diag(sqrt(lambda)), whose columns the KL map adds, from a
    C-ordered copy of V: what is built from W by a matrix product then has
    the same bits whatever the memory layout of the field's vectors."""
    return np.ascontiguousarray(field.pairs.vectors) * field.sqrt_values


def functional_coefficients(
    field: GaussianField, functional: np.ndarray
) -> tuple[float, np.ndarray]:
    """Affine coefficients of l^T m(xi): base + sum_j coef_j xi_j."""
    base = float(np.dot(functional, field.mean))
    return base, field.sqrt_values * (functional @ field.pairs.vectors)


def _quadratic_form(
    x0: np.ndarray, X: np.ndarray, apply: Callable[[np.ndarray], np.ndarray]
) -> Callable[[Mapping[int, float]], tuple[float, float]]:
    """``terms(xi)``: (0.5 * sum_j xi_j^2, 0.5 ||x0 + X xi||^2_A) over the
    nonzero coordinates of xi alone, for the symmetric A that ``apply``
    applies: c0 + g.xi + 0.5 xi^T G xi with c0 = 0.5 x0^T A x0, g = X^T A x0
    and G = X^T A X, computed here, once.  G stays an array: as nested lists
    its entries would take about four times the memory."""
    A_x0 = apply(x0)
    c0 = 0.5 * float(np.dot(x0, A_x0))
    g, G_entry = (X.T @ A_x0).tolist(), (X.T @ apply(X)).item

    def terms(xi):
        sq = lin = quad = 0.0
        for j, x in xi.items():
            sq += x * x
            lin += g[j - 1] * x
            for k, z in xi.items():
                quad += G_entry(j - 1, k - 1) * x * z
        return 0.5 * sq, c0 + lin + 0.5 * quad

    return terms


@dataclass
class MapResult:
    """``stopped_on`` says why the Newton loop ended: "gradient" or
    "decrement" when it converged, "max_newton" or "line_search" (no
    acceptable trial point) when it did not."""

    map_point: np.ndarray
    cost_at_map: float
    newton_iters: int
    converged: bool
    stopped_on: str
    cost_history: list[float] = field(default_factory=list)


# Newton stops once -g.step <= this * max(1, |J(m)|): a smaller predicted
# decrease is lost in the rounding of J, so the Armijo test can only fail.
# The last useful decrement of the 2^-7 Darcy problem is 1.3e3 eps * |J|.
_DECREMENT_FLOOR = 100.0 * np.finfo(float).eps

# Newton iterations that use the Gauss-Newton Hessian before the full one.
_GAUSS_NEWTON_ITERS = 5
# CG iterations per Newton step.
_CG_MAX = 200
# Armijo sufficient-decrease constant and the halvings allowed per step.
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 30


@dataclass
class NewtonConfig:
    tol: float = 1e-8
    abs_tol: float = 1e-9
    max_newton: int = 50


class BayesProblem:
    """Shared cost/gradient/Hessian/MAP machinery over an abstract misfit.

    Subclasses provide ``_forward_state``, ``potential_of_state``,
    ``misfit_gradient_of_state``, ``misfit_hessian_action`` and
    ``_point_observer`` (the (Q, potential) of each point of a batch, in KL
    coordinates); everything here works in degree-of-freedom vectors.
    """

    mesh: Mesh1D
    alpha: int
    A_prior: TriDiagOperator
    M: TriDiagOperator
    prior_mean: np.ndarray

    # -- prior pairings -------------------------------------------------

    def apply_prior_precision(self, v: np.ndarray) -> np.ndarray:
        """C0^{-1} v = A_alpha v."""
        return apply_A_alpha(v, self.alpha, self.A_prior, self.M)

    def apply_prior_precision_inv(self, v: np.ndarray) -> np.ndarray:
        """A_alpha^{-1} v."""
        return apply_A_alpha_inv(v, self.alpha, self.A_prior, self.M)

    def prior_cost(self, m: np.ndarray) -> float:
        d = m - self.prior_mean
        return 0.5 * float(np.dot(d, self.apply_prior_precision(d)))

    # -- misfit interface (provided by subclasses) ----------------------

    def _forward_state(self, m: np.ndarray):
        raise NotImplementedError

    def potential_of_state(self, state) -> float:
        raise NotImplementedError

    def misfit_gradient_of_state(self, state) -> np.ndarray:
        raise NotImplementedError

    def misfit_hessian_action(
        self, state, mhat: np.ndarray, gauss_newton: bool = False
    ) -> np.ndarray:
        """The misfit Hessian at ``state`` applied to a vector or to a block
        of column vectors."""
        raise NotImplementedError

    # -- assembled quantities -------------------------------------------

    def potential(self, m: np.ndarray) -> float:
        """Data-misfit potential 0.5 * ||y - G(m)||^2 / sigma^2, from one
        forward state (one solve on the linear problem, one closed-form
        observation on the Darcy one)."""
        return self.potential_of_state(self._forward_state(m))

    def cost(self, m: np.ndarray, state=None) -> float:
        state = state if state is not None else self._forward_state(m)
        return self.potential_of_state(state) + self.prior_cost(m)

    def gradient(self, m: np.ndarray, state=None) -> np.ndarray:
        state = state if state is not None else self._forward_state(m)
        return self.misfit_gradient_of_state(state) + self.apply_prior_precision(
            m - self.prior_mean
        )

    def hessian_action(
        self, m: np.ndarray, mhat: np.ndarray, state=None, gauss_newton: bool = False
    ) -> np.ndarray:
        state = state if state is not None else self._forward_state(m)
        return self.misfit_hessian_action(
            state, mhat, gauss_newton=gauss_newton
        ) + self.apply_prior_precision(mhat)

    # -- MAP ------------------------------------------------------------

    def find_map(self, cfg: NewtonConfig | None = None) -> MapResult:
        """Inexact Newton-CG for the MAP point, started at the prior mean.

        Gauss-Newton Hessian for the first few iterations, then the full
        Hessian; CG inner solves preconditioned by the prior covariance with
        an Eisenstat-Walker forcing term and Steihaug termination on negative
        curvature; Armijo backtracking line search, in which a trial point
        that ``_forward_state`` refuses (a ValueError: on Darcy a non-finite
        parameter, on the linear problem none) fails the test like a point
        that does not decrease the cost enough (Nocedal & Wright 2006,
        sec. 3.5).  Terminates on the prior-preconditioned gradient norm, or
        when the Newton decrement -g.step falls to the roundoff floor of the
        cost; a step that fails ``_MAX_BACKTRACKS`` trials ends the solve
        unconverged at the last accepted point.  ``stopped_on`` of the result
        names which of these ended it, or ``max_newton``.
        """
        cfg = cfg if cfg is not None else NewtonConfig()
        m = self.prior_mean.copy()
        state = self._forward_state(m)
        cost_m = self.cost(m, state)
        history = [cost_m]
        g = self.gradient(m, state)
        g0_norm = math.sqrt(max(np.dot(g, self.apply_prior_precision_inv(g)), 0.0))
        g_norm = g0_norm
        converged = g_norm <= cfg.abs_tol
        stopped_on = "gradient" if converged else "max_newton"
        it = 0
        while not converged and it < cfg.max_newton:
            gauss_newton = it < _GAUSS_NEWTON_ITERS
            rtol = min(0.5, math.sqrt(g_norm / g0_norm)) if g0_norm > 0 else 0.5
            step = self._solve_newton_system(m, state, g, rtol, gauss_newton)
            g_dot_step = float(np.dot(g, step))
            if g_dot_step >= 0:  # not a descent direction; fall back to -precond grad
                step = -self.apply_prior_precision_inv(g)
                g_dot_step = float(np.dot(g, step))
            if -g_dot_step <= _DECREMENT_FLOOR * max(1.0, abs(cost_m)):
                # the predicted decrease is below the roundoff of J itself:
                # no line search can make progress from here
                converged, stopped_on = True, "decrement"
                break
            t = 1.0
            for _ in range(_MAX_BACKTRACKS):
                m_trial = m + t * step
                try:
                    trial_state = self._forward_state(m_trial)
                except ValueError:  # outside the domain: back off
                    t *= 0.5
                    continue
                trial_cost = self.cost(m_trial, trial_state)
                if trial_cost <= cost_m + _ARMIJO_C * t * g_dot_step:
                    break
                t *= 0.5
            else:  # no acceptable trial point: not converged
                stopped_on = "line_search"
                break
            m, state, cost_m = m_trial, trial_state, trial_cost
            history.append(cost_m)
            g = self.gradient(m, state)
            g_norm = math.sqrt(max(np.dot(g, self.apply_prior_precision_inv(g)), 0.0))
            it += 1
            converged = g_norm <= max(cfg.tol * g0_norm, cfg.abs_tol)
            if converged:
                stopped_on = "gradient"
        return MapResult(
            map_point=m,
            cost_at_map=cost_m,
            newton_iters=it,
            converged=converged,
            stopped_on=stopped_on,
            cost_history=history,
        )

    def _solve_newton_system(
        self, m: np.ndarray, state, g: np.ndarray, rtol: float, gauss_newton: bool
    ) -> np.ndarray:
        """Preconditioned CG on H step = -g, H the ``hessian_action`` at m,
        with Steihaug negative-curvature termination; preconditioner is the
        prior covariance."""
        x = np.zeros_like(g)
        r = -g.copy()
        z = self.apply_prior_precision_inv(r)
        rz = float(np.dot(r, z))
        rz0 = rz
        p = z.copy()
        for i in range(_CG_MAX):
            Hp = self.hessian_action(m, p, state=state, gauss_newton=gauss_newton)
            pHp = float(np.dot(p, Hp))
            if pHp <= 0:
                if i == 0:
                    x = z.copy()
                break
            a = rz / pHp
            x += a * p
            r -= a * Hp
            z = self.apply_prior_precision_inv(r)
            rz_new = float(np.dot(r, z))
            if math.sqrt(max(rz_new, 0.0)) <= rtol * math.sqrt(max(rz0, 1e-300)):
                break
            p = z + (rz_new / rz) * p
            rz = rz_new
        return x

    # -- posterior spectrum ----------------------------------------------

    def misfit_eigen(
        self,
        map_result: MapResult,
        j1: int = 64,
        oversampling: int = 10,
        power_iters: int = 1,
        rng: np.random.Generator | None = None,
    ) -> EigenPairs:
        """Prior-preconditioned misfit-Hessian spectrum at the MAP point:
        H_misfit psi = lambda A_alpha psi, A_alpha-orthonormal psi.

        Solved through psi = R phi with R = (A^{-1} M)^{floor(alpha/2)}:
        R^T A_alpha R is the banded B = A (odd alpha) or M (even alpha), so
        R^T H_misfit R phi = lambda B phi has the same eigenvalues and its
        B-orthonormal phi map to A_alpha-orthonormal psi.  At alpha = 1, R is
        the identity.
        """
        state = self._forward_state(map_result.map_point)
        A, M = self.A_prior, self.M
        B = A if self.alpha % 2 else M

        def R(X: np.ndarray) -> np.ndarray:
            for _ in range(self.alpha // 2):
                X = A.solve(M.matvec(X))
            return X

        def op(X: np.ndarray) -> np.ndarray:
            HX = self.misfit_hessian_action(state, R(X))
            for _ in range(self.alpha // 2):
                HX = M.matvec(A.solve(HX))  # R^T
            return B.solve(HX)

        pairs = randomized_eigen(
            op, B, j1, oversampling=oversampling, power_iters=power_iters, rng=rng,
        )
        return EigenPairs(pairs.values, R(pairs.vectors))

    def posterior_eigen(
        self,
        map_result: MapResult,
        J: int,
        j1: int = 64,
        cutoff: float = 1e-2,
        oversampling: int = 10,
        power_iters: int = 1,
        rng: np.random.Generator | None = None,
        include_negative: bool = False,
    ) -> EigenPairs:
        """Two-step eigendecomposition of the Gaussian posterior covariance.

        Step one solves the prior-preconditioned misfit-Hessian generalized
        problem for up to ``j1`` pairs (fewer when the misfit Hessian has
        fewer resolvable eigenvalues, see ``randomized_eigen``), and
        ``cutoff`` keeps those with eigenvalue above it (the directions most
        informed by the data).  Step two applies the low-rank
        posterior covariance  A_alpha^{-1} - Psi_J D_J Psi_J^T  with
        D_J = diag(lambda_j / (1 + lambda_j)) inside a second generalized
        problem against the mass matrix, returning descending,
        mass-orthonormal pairs.

        ``oversampling`` is step two's sketch margin only, so that step
        sketches ``J + oversampling`` columns.  Step one targets the fixed
        rank ``j1`` and sketches ``j1`` plus ``misfit_eigen``'s default
        margin of 10 (Halko, Martinsson & Tropp 2011); ``power_iters``
        applies to both steps.  Step one's power steps B-orthonormalize the
        sketch, because the misfit spectrum can span a dozen decades and an
        LU basis loses its lower decades in rounding.  Step two's re-base it
        by LU (``randomized_eigen``'s ``lu_steps``) at about a third of the
        cost, since the wanted part of a covariance spectrum spans a few
        decades.  Both steps' final bases are B-orthonormal.

        The full misfit Hessian is mildly indefinite at a finite-residual MAP
        point; by default only positive modes are retained, which keeps the
        posterior spectrum dominated by the prior spectrum.  With
        ``include_negative`` the modes below ``-cutoff`` are kept too, so the
        inverse of the result matches the full MAP Hessian itself (the exact
        quadratic model; posterior variance may then exceed the prior along
        negative-curvature directions).
        """
        rng = rng if rng is not None else rng_stream(0, 7)
        mis = self.misfit_eigen(map_result, j1=j1, power_iters=power_iters, rng=rng)
        keep = mis.values > cutoff
        if include_negative:
            keep |= mis.values < -cutoff
            if np.any(mis.values[keep] <= -0.9):
                raise ValueError(
                    "misfit Hessian has curvature below -0.9 of the prior "
                    "precision; the MAP point is not a reliable quadratic center"
                )
        psi = mis.vectors[:, keep]
        d = mis.values[keep] / (1.0 + mis.values[keep])

        def cov_action(X: np.ndarray) -> np.ndarray:
            return self.apply_prior_precision_inv(X) - psi @ (d[:, None] * (psi.T @ X))

        def op(X: np.ndarray) -> np.ndarray:
            return cov_action(self.M.matvec(X))

        return randomized_eigen(
            op, self.M, J, oversampling=oversampling, power_iters=power_iters,
            rng=rng, lu_steps=True,
        )


class LinearPoissonProblem(BayesProblem):
    """-u'' = m on (0,1), u = 0 at the ends, the full field observed.

    Prior N(0, (-beta * Lap)^{-alpha}); everything lives on the interior
    nodes (the parameter vanishes at the boundary).  The misfit Hessian is
    independent of the parameter, so Gauss-Newton equals full Newton.
    """

    def __init__(
        self,
        mesh: Mesh1D,
        alpha: int,
        beta: float,
        sigma: float,
        y: np.ndarray,
    ):
        self.mesh = mesh
        self.alpha = _smoothness(alpha)
        self.beta = float(beta)
        self.sigma = float(sigma)
        self.K = laplace_operator(mesh, dirichlet=True)
        self.M = mass_operator(mesh, dirichlet=True)
        self.A_prior = assemble(mesh, beta=beta, gamma=0.0, dirichlet=True)
        n = mesh.n_interior
        if len(y) != n:
            raise ValueError("y must be an interior nodal field")
        self.y = np.asarray(y, dtype=float)
        self.prior_mean = np.zeros(n)

    # forward map on interior fields: u = K^{-1} M m
    def forward(self, m: np.ndarray) -> np.ndarray:
        return self.K.solve(self.M.matvec(m))

    def _forward_state(self, m: np.ndarray):
        return self.forward(m)

    def potential_of_state(self, state) -> float:
        r = state - self.y
        return 0.5 / self.sigma**2 * float(np.dot(r, self.M.matvec(r)))

    def misfit_gradient_of_state(self, state) -> np.ndarray:
        r = state - self.y
        return self.M.matvec(self.K.solve(self.M.matvec(r))) / self.sigma**2

    def misfit_hessian_action(
        self, state, mhat: np.ndarray, gauss_newton: bool = False
    ) -> np.ndarray:
        u_hat = self.K.solve(self.M.matvec(mhat))
        return self.M.matvec(self.K.solve(self.M.matvec(u_hat))) / self.sigma**2

    def _point_observer(self, field, qoi):
        """``BayesProblem._point_observer`` with no solve per point: the
        residual at m(xi) = mean + W xi is r0 + Z xi, with r0 = K^{-1} M mean
        - y and Z = K^{-1} M W (one block solve, here), so the potential is
        the quadratic form 0.5 ||r0 + Z xi||^2_M / sigma^2, and Q comes from
        ``NodalFunctional.in_kl``.  ``qoi`` must be a ``NodalFunctional``
        (from ``qoi``); any other QoI is refused."""
        if not isinstance(qoi, NodalFunctional):
            raise ValueError("a linear quadrature point needs a QoI of l^T m "
                             f"(LinearPoissonProblem.qoi), got {qoi!r}")
        q = qoi.in_kl(field)
        terms = _quadratic_form(self.forward(field.mean) - self.y,
                                self.forward(_scaled_columns(field)),
                                lambda v: self.M.matvec(v) / self.sigma**2)
        return lambda points: [(q(xi), terms(xi)[1]) for xi in points]

    # -- closed forms ----------------------------------------------------

    @cached_property
    def _prior_pairs_all(self) -> EigenPairs:
        """Every closed-form prior pair, computed once, read-only."""
        pairs = prior_eigen_analytic(self.beta, self.alpha, self.mesh.n_interior, self.mesh)
        pairs.values.flags.writeable = pairs.vectors.flags.writeable = False
        return pairs

    def prior_pairs(self, J: int | None = None) -> EigenPairs:
        """The first J prior pairs (all by default): the read-only arrays
        computed once when J is all of them, contiguous copies otherwise."""
        J = J if J is not None else self.mesh.n_interior
        if J > self.mesh.n_interior:
            raise ValueError("J exceeds the interior node count")
        pairs = self._prior_pairs_all
        return EigenPairs(values=np.ascontiguousarray(pairs.values[:J]),
                          vectors=np.ascontiguousarray(pairs.vectors[:, :J]))

    def misfit_eigenvalue_analytic(self, j: int) -> float:
        """Prior-preconditioned misfit eigenvalue
        sigma^{-2} * beta^{-alpha} * lap_j^{-alpha-2}."""
        lam = dirichlet_laplacian_eigenvalue(self.mesh, j)
        return self.sigma ** (-2) * self.beta ** (-self.alpha) * lam ** (-self.alpha - 2)

    def posterior_pairs_analytic(self, J: int | None = None) -> EigenPairs:
        """Posterior spectrum (beta*lap_j)^{-alpha} / (1 + misfit_j),
        rearranged in descending order (the raw sequence is not monotone)."""
        J = J if J is not None else self.mesh.n_interior
        prior = self._prior_pairs_all
        tilde = np.array([self.misfit_eigenvalue_analytic(j) for j in range(1, J + 1)])
        lam1 = prior.values[:J] / (1.0 + tilde)
        order = np.argsort(-lam1, kind="stable")
        return EigenPairs(values=lam1[order], vectors=prior.vectors[:, order])

    # -- QoIs ------------------------------------------------------------

    def linear_functional(self, kind: str) -> np.ndarray:
        """The l of each QoI: Q1 = exp(l^T m) with l the indicator of the node
        x = 0.5, so Q1 = exp(m(0.5)); Q2 = (l^T m)^2 with l = M K^{-1} d, where
        d^T u = 10 * (u(0.5+h) - u(0.5-h)) / (2h), so Q2 = (10 u'(0.5))^2."""
        center = self.mesh.n_cells // 2 - 1  # interior index of x = 0.5
        l = np.zeros(self.mesh.n_interior)
        if kind == "q1":
            l[center] = 1.0
            return l
        if kind == "q2":
            scale = 10.0 / (2.0 * self.mesh.h)
            l[center + 1] = scale
            l[center - 1] = -scale
            return self.M.matvec(self.K.solve(l))
        raise ValueError(f"unknown QoI {kind!r}")

    def qoi(self, kind: str) -> "NodalFunctional":
        """The QoI as a ``NodalFunctional`` of ``linear_functional(kind)``:
        Q1 = exp(l^T m), Q2 = (l^T m)^2, where s ** 2 keeps the arithmetic of
        the type of s (np.float64 multiplies, a Python float calls pow)."""
        return NodalFunctional(self.linear_functional(kind),
                               math.exp if kind == "q1" else lambda s: float(s ** 2),
                               kind)


@dataclass(frozen=True, eq=False)
class NodalFunctional:
    """A linear-problem QoI Q(m) = outer(l^T m) that keeps its nodal
    functional l (``functional``) and its outer map, so that a quadrature
    point evaluates it in KL coordinates (``in_kl``).  An outer map that
    overflows is refused by a ValueError that names the QoI and l^T m."""

    functional: np.ndarray
    outer: Callable[[float], float]
    name: str

    def _value(self, s: float) -> float:
        try:
            return self.outer(s)
        except OverflowError:
            raise ValueError(f"QoI {self.name} overflows: l^T m is {s:.6g}") from None

    def __call__(self, m: np.ndarray) -> float:
        return self._value(float(np.dot(self.functional, m)))

    def in_kl(self, field: GaussianField) -> Callable[[Mapping[int, float]], float]:
        """``q(xi)`` = outer(s) at s = l^T m(xi) = base + sum_j coef_j xi_j
        (``functional_coefficients``), summed over the nonzero coordinates
        of xi in their order, so s is a float base plus np.float64 terms.  A
        coordinate outside the truncation is refused as ``kl_map`` refuses it."""
        base, coefs = functional_coefficients(field, self.functional)
        J, value = field.truncation, self._value

        def q(xi):
            s = base
            for j, x in xi.items():
                if not 1 <= j <= J:
                    raise ValueError(f"coordinate dimension {j} outside truncation {J}")
                s += coefs[j - 1] * x
            return value(s)

        return q


# a row of log r = -a whose largest entry lies within this bound of 0 is
# folded as it is: T <= n e^64 cannot overflow, and the largest r >= e^-64
# is a normal number; any other row is first shifted by its largest entry
_UNSHIFTED = 64.0


class DarcyProblem(BayesProblem):
    """-(exp(m) u')' = 0 on (0,1), u(0) = 1, u(1) = 0, observed through B.

    Prior N(prior_mean, A_prior^{-alpha}) on all nodes (``make_darcy_problem``
    builds the measurement-informed A_prior and prior mean of the benchmark);
    observations B u with iid N(0, sigma^2) noise.  With r_c = exp(-a_c) the
    reciprocal conductivity of cell c (a = P m, the midpoint average), the
    nodal P1 pressure is u_i = sum_{c>=i} r_c / T with T = sum_c r_c, so
    B u = F r / T with F = B S, S the upper-triangular ones matrix (``_F``,
    its subnormal entries set to 0), and a QoI l.u is (l S).r / T.  One
    product gives these for one parameter (``_forward_state``: the MAP
    solve, the eigensolves, the data) or for a batch of quadrature points
    (``_point_observer``), with no pressure formed, and the misfit's
    gradient and Hessian actions are closed forms in r and F
    (``misfit_gradient_of_state``).  The constructor refuses operators and
    data whose sizes do not match the mesh and B.
    """

    def __init__(
        self,
        mesh: Mesh1D,
        alpha: int,
        A_prior: TriDiagOperator,
        B: np.ndarray,
        sigma: float,
        y: np.ndarray,
        prior_mean: np.ndarray,
    ):
        n = mesh.n_nodes
        if B.ndim != 2 or B.shape[1] != n:
            raise ValueError(f"B must have one column per node ({n}), got {B.shape}")
        if len(y) != B.shape[0]:
            raise ValueError(f"y must have one entry per row of B ({B.shape[0]}), "
                             f"got {len(y)}")
        if len(prior_mean) != n:
            raise ValueError(f"prior_mean must be a nodal field ({n}), "
                             f"got {len(prior_mean)}")
        if A_prior.n_dof != n:
            raise ValueError(f"A_prior must act on the nodes ({n}), got {A_prior.n_dof}")
        self.mesh = mesh
        self.alpha = _smoothness(alpha)
        self.A_prior = A_prior
        self.B = B
        self.sigma = sigma
        self.y = np.asarray(y, dtype=float)
        self.M = mass_operator(mesh, dirichlet=False)
        self.prior_mean = np.asarray(prior_mean, dtype=float)
        # [F; 1^T], the operator of one forward state, with F = B S a view
        self._C = np.empty((B.shape[0] + 1, mesh.n_cells))
        self._F = self._C[:-1]
        self._F[:] = self._times_S(B)
        # a subnormal operand takes the CPU's slow path and adds nothing here
        self._F[np.abs(self._F) < np.finfo(float).tiny] = 0.0
        self._C[-1] = 1.0

    class _State:
        __slots__ = ("r", "T", "Bu")

        def __init__(self, r, T, Bu):
            self.r, self.T, self.Bu = r, T, Bu

    @staticmethod
    def _times_S(l: np.ndarray) -> np.ndarray:
        """l S, one entry per cell, for nodal rows l: the prefix sums of l
        over the nodes 0..n-2 (the last drops out, as u is 0 there)."""
        return np.cumsum(l[..., :-1], axis=-1)

    def _fold(self, R: np.ndarray, C_T: np.ndarray) -> np.ndarray:
        """R C^T after an in-place exp of R, whose rows are log r = -a for
        one parameter each; C's last row is 1^T, so the last column is T.
        A row whose max(-a) leaves [-_UNSHIFTED, _UNSHIFTED] is first
        shifted by it (the log-sum-exp shift): every number read from a
        fold is a ratio to T, which the shift leaves as it is, and the
        shifted row has T in [1, n], so no finite a is out of range."""
        top = R.max(axis=1)  # max(-a) of each row; nan stays nan
        far = np.abs(top) > _UNSHIFTED
        if far.any():
            # exp(-inf) = 0 is r's limit; a non-finite row gives nan values
            with np.errstate(over="ignore", invalid="ignore"):
                R[far] -= top[far, None]
        np.exp(R, out=R)
        return R @ C_T

    def _forward_state(self, m: np.ndarray) -> "DarcyProblem._State":
        """The forward state at ``m``, the one-point case of
        ``_point_observer``: r = exp(-a) at a = P m, and T and T B u = F r
        from one product r [F; 1^T]^T.  The state holds r, T and B u, which
        the gradient and Hessian actions read; both are r and T scaled by
        one factor when ``_fold`` shifts the row.  A non-finite a is
        refused."""
        m = np.asarray(m, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            a = 0.5 * (m[:-1] + m[1:])
        if not np.isfinite(a).all():
            raise ValueError("parameter field must be finite")
        R = -a[None]
        folded = self._fold(R, self._C.T)[0]
        return self._State(R[0], folded[-1], folded[:-1] / folded[-1])

    def _folded_operator(self, functional: np.ndarray) -> np.ndarray:
        """C = [B S; l S; 1^T] for the nodal functional l, one column per
        cell: r C^T = T (B u, l.u, 1) for the reciprocal conductivities r.
        B S is ``_F``.  The benchmark's B and l have no negative entries,
        and neither has r, so r C^T has no cancellation."""
        return np.insert(self._C, -1, self._times_S(functional), axis=0)

    def _point_observer(self, field, qoi):
        """``BayesProblem._point_observer`` with one sparse and one dense
        product per batch.

        The cell log-conductivities a are affine in xi.  The C-ordered
        ``basis`` holds them with their sign flipped, so that a point's row
        is log r = -a: row 0 is the cell mean -0.5 (mean[:-1] + mean[1:]),
        row j the cell column -0.5 (W[:-1] + W[1:]) of dimension j, with W
        from ``_scaled_columns``, so the bits do not depend on the field's
        layout.  A batch is one sparse X with a row per point, 1.0 in column
        0 and then the point's coordinates in its order, and R = X @ basis,
        which scipy fills as 0 + 1.0 mean and then one axpy x * column per
        coordinate, in order.  ``_fold`` takes exp of R in place and its
        product with the folded operator (``_folded_operator``), which gives
        every point's T B u, T Q and T.

        ``qoi`` must be a ``PressureFunctional`` (from ``qoi``), whose
        functional is folded into C; any other QoI is refused.  A coordinate
        outside the truncation is refused as ``kl_map`` refuses it.  Every
        finite a is in range (``_fold`` shifts a far row); a non-finite one
        gives nan values, which ``PointCache`` refuses by naming the point."""
        if not isinstance(qoi, PressureFunctional):
            raise ValueError("a Darcy quadrature point needs a QoI linear in the "
                             f"pressure (DarcyProblem.qoi), got {qoi!r}")
        J, n = field.truncation, self.mesh.n_nodes
        W = _scaled_columns(field)
        basis = np.empty((J + 1, n - 1))
        np.add(field.mean[:-1], field.mean[1:], out=basis[0])
        np.add(W[:-1].T, W[1:].T, out=basis[1:])
        basis *= -0.5
        C_T = self._folded_operator(qoi.functional).T
        scale = 0.5 / self.sigma**2

        def observe(points):
            indptr, indices, data = [0], [], []
            for xi in points:
                for j in xi:  # checked here: scipy does not check the indices
                    if not 1 <= j <= J:
                        raise ValueError(f"coordinate dimension {j} outside truncation {J}")
                indices.append(0)
                indices.extend(xi)
                data.append(1.0)
                data.extend(xi.values())
                indptr.append(len(indices))
            X = csr_array((data, indices, indptr), shape=(len(points), J + 1))
            folded = self._fold(X @ basis, C_T)
            T = folded[:, -1]
            r = self.y - folded[:, :-2] / T[:, None]
            potentials = scale * np.einsum("ij,ij->i", r, r)
            return list(zip((folded[:, -2] / T).tolist(), potentials.tolist()))

        return observe

    def forward(self, m: np.ndarray) -> np.ndarray:
        """Parameter-to-observable map G(m) = B u(m)."""
        return self._forward_state(m).Bu

    def potential_of_state(self, state) -> float:
        r = self.y - state.Bu
        return 0.5 / self.sigma**2 * float(np.dot(r, r))

    def _gradient_in_cells(self, state) -> np.ndarray:
        """s = r * e / T (entrywise) with the state's r and T, e = F^T res
        - res.d, res = y - d and d = B u = F r / T: the misfit gradient in
        the cell log-conductivities a is s / sigma^2."""
        res = self.y - state.Bu
        return state.r * (self._F.T @ res - res @ state.Bu) / state.T

    @staticmethod
    def _to_nodes(q: np.ndarray) -> np.ndarray:
        """P^T q for the cell average (P m)_c = (m_c + m_{c+1}) / 2, on a
        vector or a block of columns."""
        out = np.zeros((len(q) + 1,) + q.shape[1:])
        out[:-1] += 0.5 * q
        out[1:] += 0.5 * q
        return out

    def misfit_gradient_of_state(self, state) -> np.ndarray:
        return self._to_nodes(self._gradient_in_cells(state) / self.sigma**2)

    def misfit_hessian_action(
        self, state, mhat: np.ndarray, gauss_newton: bool = False
    ) -> np.ndarray:
        """P^T H_a P mhat / sigma^2 for a vector or a block mhat, with the
        misfit Hessian in the cell log-conductivities

            H_a = G^T G + (s r^T + r s^T) / T - diag(s),
            G = (F - d 1^T) diag(r) / T,

        (r, T, s and d as in ``_gradient_in_cells``), or its Gauss-Newton
        part G^T G alone."""
        mhat = np.asarray(mhat, dtype=float)
        X = 0.5 * (mhat[:-1] + mhat[1:])
        X = X.reshape(len(X), -1)  # a vector as one column
        r, T, d = state.r, state.T, state.Bu
        s = self._gradient_in_cells(state)
        Z = r[:, None] * X
        GX = (self._F @ Z - np.outer(d, Z.sum(axis=0))) / T
        HX = r[:, None] * (self._F.T @ GX - d @ GX) / T
        if not gauss_newton:
            HX += (np.outer(s, r @ X) + np.outer(r, s @ X)) / T - s[:, None] * X
        return self._to_nodes(HX / self.sigma**2).reshape(mhat.shape)

    def qoi(self, kind: str = "u_center") -> "PressureFunctional":
        """The QoI as a ``PressureFunctional`` with its nodal functional l:
        u_center is u(0.5), with l the indicator of the node x = 0.5.  An
        unknown kind is refused."""
        if kind != "u_center":
            raise ValueError(f"unknown QoI {kind!r}")
        l = np.zeros(self.mesh.n_nodes)
        l[self.mesh.n_cells // 2] = 1.0
        return PressureFunctional(self, l)

    def prior_pairs(
        self, J: int | None = None, rng: np.random.Generator | None = None,
        oversampling: int = 10, power_iters: int = 2,
    ) -> EigenPairs:
        J = J if J is not None else self.mesh.n_nodes
        return prior_eigen_numeric(
            self.A_prior, self.M, self.alpha, J,
            oversampling=oversampling, power_iters=power_iters, rng=rng,
        )


@dataclass(frozen=True, eq=False)
class PressureFunctional:
    """A Darcy QoI linear in the pressure, Q(m) = l.u(m), that keeps its
    nodal functional l (``functional``): the quadrature points fold l into
    their one observation product (``DarcyProblem._point_observer``).
    Called with a nodal m it is (l S).r / T at the forward state of m."""

    problem: DarcyProblem
    functional: np.ndarray

    def __call__(self, m: np.ndarray) -> float:
        state = self.problem._forward_state(m)
        return float(np.dot(self.problem._times_S(self.functional), state.r) / state.T)


# ---------------------------------------------------------------------------
# problem factories with seeded data generation
# ---------------------------------------------------------------------------


def make_linear_problem(
    alpha: int = 1,
    beta: float = 5e-2,
    sigma: float = 1e-2,
    mesh_exp: int = 10,
    seed: int = 0,
) -> LinearPoissonProblem:
    """Linear benchmark with seeded data: draw a prior sample, push it
    through the forward map, add iid nodal noise of size sigma."""
    mesh = Mesh1D.from_exponent(mesh_exp)
    n = mesh.n_interior
    problem = LinearPoissonProblem(mesh, alpha, beta, sigma, y=np.zeros(n))
    pairs = problem.prior_pairs()
    xi = rng_stream(seed, 1).standard_normal(n)
    m_sample = pairs.vectors @ (np.sqrt(pairs.values) * xi)
    noise = sigma * rng_stream(seed, 2).standard_normal(n)
    problem.y = problem.forward(m_sample) + noise
    return problem


_MEASUREMENTS = 5
_TRUE_FIELD_MODES = 200


def make_darcy_problem(
    alpha: int = 1,
    beta: float = 2.0,
    gamma: float = 1.0,
    kappa: float = 1e3,
    sigma: float = 5e-2,
    mesh_exp: int = 10,
    obs_count: int = 65,
    seed: int = 0,
) -> DarcyProblem:
    """Darcy benchmark with a measurement-informed prior and seeded data.

    A = -beta * Lap + gamma * I on all nodes, and Mw is the mass matrix
    weighted by the sum of ``_MEASUREMENTS`` equispaced bumps.  The prior
    operator is A + kappa*Mw.  The true field is a KL draw from N(0, A^{-1})
    truncated at its ``_TRUE_FIELD_MODES`` leading modes (all but the last
    on a mesh with fewer nodes), which are the closed-form cosine modes
    (``neumann_eigen_analytic``), so the field is a function of (seed, mesh)
    alone, with no eigensolve; its coefficients come from rng stream 2.  The
    prior mean solves the quadratic measurement-penalty problem
    (A + kappa*Mw) m0 = kappa * Mw m_true; observations are B u(m_true) plus
    iid noise (rng stream 3), with B the ``obs_count`` equispaced mollified
    point evaluations.  Measurement and observation bumps both have radius h.
    """
    mesh = Mesh1D.from_exponent(mesh_exp)
    radius = mesh.h
    meas_centers = np.linspace(0.0, 1.0, _MEASUREMENTS)
    A = assemble(mesh, beta=beta, gamma=gamma, dirichlet=False)
    Mw = weighted_mass_operator(
        mesh, lambda x: np.sum(_bump(x[..., None], meas_centers, radius), axis=-1)
    )
    A_prior = A.add(Mw, kappa)
    B = assemble_observation_matrix(mesh, np.linspace(0.0, 1.0, obs_count), radius)
    problem = DarcyProblem(
        mesh, alpha, A_prior, B, sigma, np.zeros(obs_count), np.zeros(mesh.n_nodes)
    )

    true_pairs = neumann_eigen_analytic(
        beta, gamma, min(_TRUE_FIELD_MODES, mesh.n_nodes - 1), mesh
    )
    xi = rng_stream(seed, 2).standard_normal(len(true_pairs))
    m_true = true_pairs.vectors @ (np.sqrt(true_pairs.values) * xi)

    problem.prior_mean = A_prior.solve(kappa * Mw.matvec(m_true))
    noise = sigma * rng_stream(seed, 3).standard_normal(obs_count)
    problem.y = problem.forward(m_true) + noise
    return problem


# ---------------------------------------------------------------------------
# reweighted integrands
# ---------------------------------------------------------------------------


def _reweighted_integrand(
    problem: BayesProblem,
    field: GaussianField,
    qoi: Callable[[np.ndarray], float],
    exponent: Callable[[float, Mapping[int, float]], float],
) -> Integrand:
    """xi -> (w, Q * w) with w = exp(-exponent(phi, xi)), the body of both
    reweighted paths.  The QoI Q and the potential phi of each point of a
    batch come from the problem's ``_point_observer``, built once with the
    integrand (``qoi`` must be the problem's own).  No derivatives."""
    observe = problem._point_observer(field, qoi)

    def fn(points):
        # a single mapping returns its one output: only perfbench/test_checks.py
        # (test_laplace_weights_match_the_program_integrand) passes one
        if isinstance(points, Mapping):
            return fn([points])[0]
        out = []
        for xi, (q, phi) in zip(points, observe(points)):
            w = math.exp(-exponent(phi, xi))
            out.append((w, q * w))
        return out

    return Integrand(fn=fn, n_outputs=2, dim_hint=field.truncation)


def prior_weighted_integrand(
    problem: BayesProblem,
    prior_field: GaussianField,
    qoi: Callable[[np.ndarray], float],
) -> Integrand:
    """Prior-based path: xi -> (exp(-Phi), Q * exp(-Phi)) at m0(xi); the
    posterior expectation is the ratio of the two integrals.  A point works
    in KL coordinates, with no KL map, pressure, assembly or solve
    (``_point_observer``)."""
    return _reweighted_integrand(problem, prior_field, qoi, lambda phi, xi: phi)


def _kl_quadratic_terms(
    problem: BayesProblem, field: GaussianField
) -> Callable[[Mapping[int, float]], tuple[float, float]]:
    """``terms(xi)``: (0.5 * sum_j xi_j^2, the prior cost at m(xi)), the
    ``_quadratic_form`` of m(xi) - m0 = (mean - m0) + W xi with A = A_alpha,
    whose c0 is ``problem.prior_cost(mean)`` bit for bit."""
    return _quadratic_form(field.mean - problem.prior_mean, _scaled_columns(field),
                           problem.apply_prior_precision)


def hessian_reweighted_integrand(
    problem: BayesProblem,
    posterior_field: GaussianField,
    cost_at_map: float,
    qoi: Callable[[np.ndarray], float],
) -> Integrand:
    """Hessian-based path: xi -> (exp(-J1), Q * exp(-J1)) at m1(xi), with
    J1(m) = J(m) - J(m1) - 0.5 * ||m - m1||^2_{C1}.  In KL coordinates the
    C1-norm is exactly sum_j xi_j^2 and the prior cost is a quadratic form
    (``_kl_quadratic_terms``); Q and the potential come as on
    ``prior_weighted_integrand`` (``_reweighted_integrand``)."""
    terms = _kl_quadratic_terms(problem, posterior_field)

    def j1(phi, xi):
        half_sq, prior = terms(xi)
        return phi + prior - cost_at_map - half_sq

    return _reweighted_integrand(problem, posterior_field, qoi, j1)
