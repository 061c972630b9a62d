"""Bayesian inversion kernel for the 1D Poisson and Darcy benchmarks.

Both problems share the same structure: a Gaussian prior with covariance
given by a negative integer power of an assembled elliptic operator, a
least-squares data misfit with iid Gaussian noise, a MAP point found by
inexact Newton-CG with adjoint-based gradients and Hessian actions, a
Gaussian (Laplace) posterior carried as spectral data from a two-step
generalized eigendecomposition, and reweighted integrands that turn posterior
expectations into parametric integrals over iid standard Gaussian
coordinates.

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

from .fem1d import (
    Mesh1D,
    TriDiagOperator,
    apply_A_alpha,
    apply_A_alpha_inv,
    assemble,
    cell_gauss_rule,
    cell_slopes,
    darcy_cell_coeffs,
    darcy_stiffness,
    laplace_operator,
    mass_operator,
    scatter_grad,
    scatter_mass,
    weighted_mass_operator,
)
from .gaussian_measure import (
    EigenPairs,
    GaussianField,
    dirichlet_laplacian_eigenvalue,
    kl_map,
    prior_eigen_analytic,
    prior_eigen_numeric,
    randomized_eigen,
    rng_stream,
)
from .sparse_quad import Integrand


@dataclass(frozen=True)
class ObservationSetup:
    """Mollified-integral observation functionals with iid Gaussian noise."""

    centers: np.ndarray
    radius: float
    noise_sigma: float

    def __post_init__(self):
        if len(self.centers) < 1:
            raise ValueError("need at least one observation functional")
        if self.noise_sigma <= 0:
            raise ValueError("noise sigma must be positive")


def assemble_observation_matrix(
    mesh: Mesh1D, centers: np.ndarray, radius: float, normalize: bool = True
) -> np.ndarray:
    """Rows are <b_k, phi_i> with b_k(x) = exp(-(x - c_k)^2 / (2 r^2)),
    integrated with a 4-point Gauss rule per cell.

    By default each row is normalized to unit mass (<b_k, 1> = 1), turning
    the functionals into mollified point evaluations with <b_k, u> of the
    size of u itself.  Without this the raw mollifier mass sqrt(2*pi)*r is
    ~2.5e-3 at the benchmark radius, i.e. far below the noise level, and the
    observations carry no information.
    """
    t, xq, wq = cell_gauss_rule(mesh)
    B = np.zeros((len(centers), mesh.n_nodes))
    phi_l = 1.0 - t
    phi_r = t
    for k, c in enumerate(centers):
        g = np.exp(-((xq - c) ** 2) / (2.0 * radius**2)) * wq
        B[k, :-1] += (g * phi_l).sum(axis=1)
        B[k, 1:] += (g * phi_r).sum(axis=1)
    if normalize:
        B /= B.sum(axis=1, keepdims=True)
    return B


def _smoothness(alpha) -> int:
    """The prior's exponent alpha, refused unless it is a whole number >= 1
    (1.0 from a JSON config is 1)."""
    if not (alpha >= 1 and float(alpha).is_integer()):
        raise ValueError(f"alpha must be an integer >= 1, got {alpha!r}")
    return int(alpha)


@dataclass
class MapResult:
    map_point: np.ndarray
    cost_at_map: float
    newton_iters: int
    converged: bool
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
    ``misfit_gradient_of_state`` and ``misfit_hessian_action``; everything
    here works in the problem's degree-of-freedom vectors.
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
        raise NotImplementedError

    # -- assembled quantities -------------------------------------------

    def potential(self, m: np.ndarray) -> float:
        """Data-misfit potential 0.5 * ||y - G(m)||^2 / sigma^2 (one solve)."""
        return self.potential_of_state(self._forward_state(m))

    def cost(self, m: np.ndarray) -> float:
        return self.potential(m) + self.prior_cost(m)

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
        curvature; Armijo backtracking line search.  Terminates on the
        prior-preconditioned gradient norm, or when the Newton decrement
        -g.step falls to the roundoff floor of the cost.
        """
        cfg = cfg if cfg is not None else NewtonConfig()
        m = self.prior_mean.copy()
        state = self._forward_state(m)
        cost_m = self.potential_of_state(state) + self.prior_cost(m)
        history = [cost_m]
        g = self.gradient(m, state)
        g0_norm = math.sqrt(max(np.dot(g, self.apply_prior_precision_inv(g)), 0.0))
        g_norm = g0_norm
        converged = g_norm <= cfg.abs_tol
        it = 0
        while not converged and it < cfg.max_newton:
            gauss_newton = it < _GAUSS_NEWTON_ITERS
            rtol = min(0.5, math.sqrt(g_norm / g0_norm)) if g0_norm > 0 else 0.5
            step = self._solve_newton_system(state, g, rtol, gauss_newton)
            g_dot_step = float(np.dot(g, step))
            if g_dot_step >= 0:  # not a descent direction; fall back to -precond grad
                step = -self.apply_prior_precision_inv(g)
                g_dot_step = float(np.dot(g, step))
            if -g_dot_step <= _DECREMENT_FLOOR * max(1.0, abs(cost_m)):
                # the predicted decrease is below the roundoff of J itself:
                # no line search can make progress from here
                converged = True
                break
            t = 1.0
            for _ in range(_MAX_BACKTRACKS):
                m_trial = m + t * step
                trial_state = self._forward_state(m_trial)
                trial_cost = self.potential_of_state(trial_state) + self.prior_cost(m_trial)
                if trial_cost <= cost_m + _ARMIJO_C * t * g_dot_step:
                    break
                t *= 0.5
            m, state, cost_m = m_trial, trial_state, trial_cost
            history.append(cost_m)
            g = self.gradient(m, state)
            g_norm = math.sqrt(max(np.dot(g, self.apply_prior_precision_inv(g)), 0.0))
            it += 1
            converged = g_norm <= max(cfg.tol * g0_norm, cfg.abs_tol)
        return MapResult(
            map_point=m,
            cost_at_map=cost_m,
            newton_iters=it,
            converged=converged,
            cost_history=history,
        )

    def _solve_newton_system(
        self, state, g: np.ndarray, rtol: float, gauss_newton: bool
    ) -> np.ndarray:
        """Preconditioned CG on H step = -g with Steihaug negative-curvature
        termination; preconditioner is the prior covariance."""
        x = np.zeros_like(g)
        r = -g.copy()
        z = self.apply_prior_precision_inv(r)
        rz = float(np.dot(r, z))
        rz0 = rz
        p = z.copy()
        for i in range(_CG_MAX):
            Hp = self.misfit_hessian_action(
                state, p, gauss_newton=gauss_newton
            ) + self.apply_prior_precision(p)
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
            X = R(X)
            out = np.empty_like(X)
            for k in range(X.shape[1]):
                hx = self.misfit_hessian_action(state, X[:, k])
                for _ in range(self.alpha // 2):
                    hx = M.matvec(A.solve(hx))  # R^T
                out[:, k] = B.solve(hx)
            return out

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

        The full misfit Hessian is mildly indefinite at a finite-residual MAP
        point; by default only positive modes are retained, which keeps the
        posterior spectrum dominated by the prior spectrum.  With
        ``include_negative`` the modes below ``-cutoff`` are kept too, so the
        inverse of the result matches the full MAP Hessian itself (the exact
        quadratic model; posterior variance may then exceed the prior along
        negative-curvature directions).
        """
        rng = rng if rng is not None else rng_stream(0, 7)
        mis = self.misfit_eigen(
            map_result, j1=j1, oversampling=oversampling,
            power_iters=power_iters, rng=rng,
        )
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
            rng=rng,
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

    def qoi(self, kind: str) -> Callable[..., float]:
        """``qoi(m, state=None)`` from ``linear_functional(kind)``; both QoIs
        read ``m`` alone."""
        l = self.linear_functional(kind)
        if kind == "q1":
            return lambda m, state=None: math.exp(float(np.dot(l, m)))
        return lambda m, state=None: float(np.dot(l, m)) ** 2


class DarcyProblem(BayesProblem):
    """-(exp(m) u')' = 0 on (0,1), u(0) = 1, u(1) = 0, mollified observations.

    Prior N(m0, (A + kappa*Mw)^{-alpha}) with A = -beta * Lap + gamma * I on
    all nodes and Mw the mollified measurement operator.  Gradients and
    Hessian actions come from the Lagrangian: one adjoint solve for the
    gradient, incremental state and adjoint solves for each Hessian action.
    """

    def __init__(
        self,
        mesh: Mesh1D,
        alpha: int,
        beta: float,
        gamma: float,
        kappa: float,
        obs: ObservationSetup,
        y: np.ndarray,
        prior_mean: np.ndarray,
        measurement_centers: np.ndarray,
        measurement_radius: float,
    ):
        self.mesh = mesh
        self.alpha = _smoothness(alpha)
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.kappa = float(kappa)
        self.sigma = obs.noise_sigma
        self.y = np.asarray(y, dtype=float)
        self.M = mass_operator(mesh, dirichlet=False)
        self.A_bare = assemble(mesh, beta=beta, gamma=gamma, dirichlet=False)
        self.Mw = measurement_operator(mesh, measurement_centers, measurement_radius)
        self.A_prior = self.A_bare.add(self.Mw, kappa)
        self.B = assemble_observation_matrix(mesh, obs.centers, obs.radius)
        self.prior_mean = np.asarray(prior_mean, dtype=float)

    class _State:
        __slots__ = ("k", "op", "u", "Bu", "du", "dp")

        def __init__(self, k, op, u, Bu):
            self.k, self.op, self.u, self.Bu = k, op, u, Bu
            self.du = self.dp = None  # set by _slopes

    def _forward_state(self, m: np.ndarray) -> "DarcyProblem._State":
        """Forward state at ``m``: the cell coefficients, the operator and its
        factor, u and B u, from one tridiagonal factor-and-solve.  This is all
        a quadrature point reads; the slopes of u and the adjoint are left to
        ``_slopes``, which only gradient and Hessian actions call."""
        m = np.asarray(m, dtype=float)
        if not np.isfinite(m).all():
            raise ValueError("parameter field must be finite")
        k = darcy_cell_coeffs(m)
        op = darcy_stiffness(k, self.mesh)
        rhs = np.zeros(self.mesh.n_interior)
        rhs[0] = k[0] / self.mesh.h  # u(0) = 1 lifting; u(1) = 0
        u = np.empty(self.mesh.n_nodes)
        u[0], u[-1] = 1.0, 0.0
        u[1:-1] = op.solve(rhs)
        return self._State(k, op, u, self.B @ u)

    def forward(self, m: np.ndarray) -> np.ndarray:
        """Parameter-to-observable map G(m) = B u(m)."""
        return self._forward_state(m).Bu

    def potential_of_state(self, state) -> float:
        r = self.y - state.Bu
        return 0.5 / self.sigma**2 * float(np.dot(r, r))

    def _slopes(self, state) -> tuple[np.ndarray, np.ndarray]:
        """Cell slopes of the state and of its adjoint (one adjoint solve),
        computed once per state when a gradient or Hessian action first
        needs them."""
        if state.dp is None:
            rhs = (self.B.T @ (self.y - state.Bu)) / self.sigma**2
            p = np.zeros(self.mesh.n_nodes)
            p[1:-1] = state.op.solve(rhs[1:-1])
            state.du = cell_slopes(state.u, self.mesh)
            state.dp = cell_slopes(p, self.mesh)
        return state.du, state.dp

    def misfit_gradient_of_state(self, state) -> np.ndarray:
        du, dp = self._slopes(state)
        return scatter_mass(state.k * du * dp, self.mesh)

    def misfit_hessian_action(
        self, state, mhat: np.ndarray, gauss_newton: bool = False
    ) -> np.ndarray:
        du, dp = self._slopes(state)
        mhat_c = 0.5 * (mhat[:-1] + mhat[1:])
        # incremental state
        rhs_u = -scatter_grad(mhat_c * state.k * du, self.mesh)
        u_hat = np.zeros(self.mesh.n_nodes)
        u_hat[1:-1] = state.op.solve(rhs_u[1:-1])
        du_hat = cell_slopes(u_hat, self.mesh)
        # incremental adjoint
        rhs_p = -(self.B.T @ (self.B @ u_hat)) / self.sigma**2
        if not gauss_newton:
            rhs_p -= scatter_grad(mhat_c * state.k * dp, self.mesh)
        p_hat = np.zeros(self.mesh.n_nodes)
        p_hat[1:-1] = state.op.solve(rhs_p[1:-1])
        dp_hat = cell_slopes(p_hat, self.mesh)
        q = state.k * du * dp_hat
        if not gauss_newton:
            q += state.k * du_hat * dp + mhat_c * state.k * du * dp
        return scatter_mass(q, self.mesh)

    def qoi(self, kind: str = "u_center") -> Callable[..., float]:
        """``qoi(m, state=None)``: u(0.5) read off the forward state at ``m``,
        solved for when not given."""
        if kind != "u_center":
            raise ValueError(f"unknown QoI {kind!r}")
        idx = self.mesh.n_cells // 2

        def q(m: np.ndarray, state=None) -> float:
            state = state if state is not None else self._forward_state(m)
            return float(state.u[idx])

        return q

    def prior_pairs(
        self, J: int | None = None, rng: np.random.Generator | None = None,
        oversampling: int = 10, power_iters: int = 2,
    ) -> EigenPairs:
        J = J if J is not None else self.mesh.n_nodes
        return prior_eigen_numeric(
            self.A_prior, self.M, self.alpha, J,
            oversampling=oversampling, power_iters=power_iters, rng=rng,
        )


def measurement_operator(
    mesh: Mesh1D, centers: np.ndarray, radius: float
) -> TriDiagOperator:
    """The mollified measurement operator sum_l eps_l * I as a weighted mass
    matrix, eps_l(x) = exp(-(x - x_l)^2 / (2 r^2))."""
    centers = np.asarray(centers, dtype=float)

    def weight(x):
        return np.sum(
            np.exp(-((x[..., None] - centers) ** 2) / (2.0 * radius**2)), axis=-1
        )

    return weighted_mass_operator(mesh, weight)


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
    """Darcy benchmark with seeded data generation.

    The true field is a KL draw from N(0, A^{-1}) truncated at
    ``_TRUE_FIELD_MODES`` modes; the prior mean solves the quadratic
    measurement-penalty problem (A + kappa*Mw) m0 = kappa * Mw m_true with
    ``_MEASUREMENTS`` equispaced measurements; observations are B u(m_true)
    plus iid noise.  Measurement and observation mollifiers both use radius h.
    """
    mesh = Mesh1D.from_exponent(mesh_exp)
    radius = mesh.h
    meas_centers = np.linspace(0.0, 1.0, _MEASUREMENTS)
    obs_centers = np.linspace(0.0, 1.0, obs_count)
    obs = ObservationSetup(centers=obs_centers, radius=radius, noise_sigma=sigma)
    problem = DarcyProblem(
        mesh, alpha, beta, gamma, kappa, obs, np.zeros(obs_count),
        np.zeros(mesh.n_nodes), meas_centers, radius,
    )

    j_true = min(_TRUE_FIELD_MODES, mesh.n_nodes - 1)
    true_pairs = prior_eigen_numeric(
        problem.A_bare, problem.M, 1, j_true, oversampling=10, power_iters=2,
        rng=rng_stream(seed, 1),
    )
    xi = rng_stream(seed, 2).standard_normal(len(true_pairs))
    m_true = true_pairs.vectors @ (np.sqrt(np.maximum(true_pairs.values, 0.0)) * xi)

    # A_prior = A + kappa * Mw
    problem.prior_mean = problem.A_prior.solve(kappa * problem.Mw.matvec(m_true))
    noise = sigma * rng_stream(seed, 3).standard_normal(obs_count)
    problem.y = problem.forward(m_true) + noise
    return problem


# ---------------------------------------------------------------------------
# reweighted integrands
# ---------------------------------------------------------------------------


def prior_weighted_integrand(
    problem: BayesProblem,
    prior_field: GaussianField,
    qoi: Callable[..., float],
) -> Integrand:
    """Prior-based path: xi -> (exp(-Phi), Q * exp(-Phi)) at m0(xi); the
    posterior expectation is the ratio of the two integrals.  Each point
    computes the KL map and one forward state (one factor-and-solve and
    ``B @ u`` on the Darcy problem), which the potential and
    ``qoi(m, state)`` read; no slopes or adjoints."""

    def fn(xi: Mapping[int, float]):
        m = kl_map(prior_field, xi)
        state = problem._forward_state(m)
        w = math.exp(-problem.potential_of_state(state))
        return (w, qoi(m, state) * w)

    return Integrand(fn=fn, n_outputs=2, dim_hint=prior_field.truncation)


def hessian_reweighted_integrand(
    problem: BayesProblem,
    posterior_field: GaussianField,
    cost_at_map: float,
    qoi: Callable[..., float],
) -> Integrand:
    """Hessian-based path: xi -> (exp(-J1), Q * exp(-J1)) at m1(xi), with
    J1(m) = J(m) - J(m1) - 0.5 * ||m - m1||^2_{C1}.

    The C1-norm is evaluated spectrally: in KL coordinates it is exactly
    sum_j xi_j^2.  Each point computes the KL map, one forward state (one
    factor-and-solve and ``B @ u`` on the Darcy problem), the potential, the
    prior cost and ``qoi(m, state)``; no slopes or adjoints.
    """

    def fn(xi: Mapping[int, float]):
        m = kl_map(posterior_field, xi)
        state = problem._forward_state(m)
        half_sq = 0.5 * sum(x * x for x in xi.values())
        cost = problem.potential_of_state(state) + problem.prior_cost(m)
        j1 = cost - cost_at_map - half_sq
        w = math.exp(-j1)
        return (w, qoi(m, state) * w)

    return Integrand(fn=fn, n_outputs=2, dim_hint=posterior_field.truncation)

