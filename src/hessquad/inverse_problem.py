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


@dataclass
class MapResult:
    map_point: np.ndarray
    cost_at_map: float
    newton_iters: int
    final_gradient_norm: float
    converged: bool
    cost_history: list[float] = field(default_factory=list)


# Newton stops once -g.step <= this * max(1, |J(m)|): a smaller predicted
# decrease is lost in the rounding of J, so the Armijo test can only fail.
# The last useful decrement of the 2^-7 Darcy problem is 1.3e3 eps * |J|.
_DECREMENT_FLOOR = 100.0 * np.finfo(float).eps


@dataclass
class NewtonConfig:
    tol: float = 1e-8
    abs_tol: float = 1e-9
    max_newton: int = 50
    gn_iters: int = 5
    cg_max: int = 200
    armijo_c: float = 1e-4
    max_backtracks: int = 30


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

    def find_map(
        self, m_init: np.ndarray | None = None, cfg: NewtonConfig | None = None
    ) -> MapResult:
        """Inexact Newton-CG for the MAP point.

        Gauss-Newton Hessian for the first few iterations, then the full
        Hessian; CG inner solves preconditioned by the prior covariance with
        an Eisenstat-Walker forcing term and Steihaug termination on negative
        curvature; Armijo backtracking line search.  Terminates on the
        prior-preconditioned gradient norm, or when the Newton decrement
        -g.step falls to the roundoff floor of the cost.
        """
        cfg = cfg if cfg is not None else NewtonConfig()
        m = (m_init if m_init is not None else self.prior_mean).astype(float).copy()
        state = self._forward_state(m)
        cost_m = self.potential_of_state(state) + self.prior_cost(m)
        history = [cost_m]
        g = self.gradient(m, state)
        g0_norm = math.sqrt(max(np.dot(g, self.apply_prior_precision_inv(g)), 0.0))
        g_norm = g0_norm
        converged = g_norm <= cfg.abs_tol
        it = 0
        while not converged and it < cfg.max_newton:
            gauss_newton = it < cfg.gn_iters
            rtol = min(0.5, math.sqrt(g_norm / g0_norm)) if g0_norm > 0 else 0.5
            step = self._solve_newton_system(m, state, g, rtol, cfg, gauss_newton)
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
            for _ in range(cfg.max_backtracks):
                m_trial = m + t * step
                trial_state = self._forward_state(m_trial)
                trial_cost = self.potential_of_state(trial_state) + self.prior_cost(m_trial)
                if trial_cost <= cost_m + cfg.armijo_c * t * g_dot_step:
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
            final_gradient_norm=g_norm,
            converged=converged,
            cost_history=history,
        )

    def _solve_newton_system(
        self,
        m: np.ndarray,
        state,
        g: np.ndarray,
        rtol: float,
        cfg: NewtonConfig,
        gauss_newton: bool,
    ) -> np.ndarray:
        """Preconditioned CG on H step = -g with Steihaug negative-curvature
        termination; preconditioner is the prior covariance."""
        x = np.zeros_like(g)
        r = -g.copy()
        z = self.apply_prior_precision_inv(r)
        rz = float(np.dot(r, z))
        rz0 = rz
        p = z.copy()
        for i in range(cfg.cg_max):
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
        gauss_newton: bool = False,
    ) -> EigenPairs:
        """Prior-preconditioned misfit-Hessian spectrum at the MAP point:
        H_misfit psi = lambda A_alpha psi, A_alpha-orthonormal psi."""
        state = self._forward_state(map_result.map_point)

        def op(X: np.ndarray) -> np.ndarray:
            out = np.empty_like(X)
            for k in range(X.shape[1]):
                out[:, k] = self.apply_prior_precision_inv(
                    self.misfit_hessian_action(state, X[:, k], gauss_newton=gauss_newton)
                )
            return out

        b_op = self.A_prior if self.alpha == 1 else None
        return randomized_eigen(
            op, self.apply_prior_precision, len(map_result.map_point), j1,
            oversampling=oversampling, power_iters=power_iters, rng=rng,
            b_operator=b_op,
        )

    def posterior_eigen(
        self,
        map_result: MapResult,
        J: int,
        j1: int = 64,
        cutoff: float = 1e-2,
        oversampling: int = 10,
        power_iters: int = 1,
        rng: np.random.Generator | None = None,
        gauss_newton: bool = False,
        include_negative: bool = False,
    ) -> EigenPairs:
        """Two-step eigendecomposition of the Gaussian posterior covariance.

        Step one solves the prior-preconditioned misfit-Hessian generalized
        problem and retains the pairs with eigenvalue above ``cutoff`` (the
        directions most informed by the data).  Step two applies the low-rank
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
            power_iters=power_iters, rng=rng, gauss_newton=gauss_newton,
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
            op, self.M.matvec, len(map_result.map_point), J,
            oversampling=oversampling, power_iters=power_iters, rng=rng,
            b_operator=self.M,
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
        prior_mean: np.ndarray | None = None,
    ):
        self.mesh = mesh
        self.alpha = int(alpha)
        self.beta = float(beta)
        self.sigma = float(sigma)
        self.K = laplace_operator(mesh, dirichlet=True)
        self.M = mass_operator(mesh, dirichlet=True)
        self.A_prior = assemble(mesh, beta=beta, gamma=0.0, dirichlet=True)
        n = mesh.n_interior
        if len(y) != n:
            raise ValueError("y must be an interior nodal field")
        self.y = np.asarray(y, dtype=float)
        self.prior_mean = (
            np.zeros(n) if prior_mean is None else np.asarray(prior_mean, dtype=float)
        )

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

    def prior_pairs(self, J: int | None = None) -> EigenPairs:
        J = J if J is not None else self.mesh.n_interior
        return prior_eigen_analytic(self.beta, self.alpha, J, self.mesh)

    def misfit_eigenvalue_analytic(self, j: int) -> float:
        """Prior-preconditioned misfit eigenvalue
        sigma^{-2} * beta^{-alpha} * lap_j^{-alpha-2}."""
        lam = dirichlet_laplacian_eigenvalue(self.mesh, j)
        return self.sigma ** (-2) * self.beta ** (-self.alpha) * lam ** (-self.alpha - 2)

    def posterior_pairs_analytic(self, J: int | None = None) -> EigenPairs:
        """Posterior spectrum (beta*lap_j)^{-alpha} / (1 + misfit_j),
        rearranged in descending order (the raw sequence is not monotone)."""
        J = J if J is not None else self.mesh.n_interior
        prior = self.prior_pairs(J)
        tilde = np.array([self.misfit_eigenvalue_analytic(j) for j in range(1, J + 1)])
        lam1 = prior.values / (1.0 + tilde)
        order = np.argsort(-lam1, kind="stable")
        return EigenPairs(values=lam1[order], vectors=prior.vectors[:, order])

    def map_point_closed_form(self) -> np.ndarray:
        """Dense solve of the discrete normal equations
        (H_misfit + A_alpha) m1 = sigma^{-2} M K^{-1} M y + A_alpha m0."""
        n = self.mesh.n_interior
        I = np.eye(n)
        Md = self.M.matvec(I)
        Kinv_M = self.K.solve(Md)
        H_mis = Md @ Kinv_M @ Kinv_M / self.sigma**2
        A_alpha = np.column_stack(
            [self.apply_prior_precision(I[:, k]) for k in range(n)]
        )
        rhs = Md @ self.K.solve(self.M.matvec(self.y)) / self.sigma**2
        rhs += A_alpha @ self.prior_mean
        return np.linalg.solve(H_mis + A_alpha, rhs)

    # -- QoI functionals ---------------------------------------------------

    @property
    def center_index(self) -> int:
        """Interior index of the node at x = 0.5."""
        return self.mesh.n_cells // 2 - 1

    def center_vector(self) -> np.ndarray:
        e = np.zeros(self.mesh.n_interior)
        e[self.center_index] = 1.0
        return e

    def derivative_vector(self) -> np.ndarray:
        """d with d^T u = 10 * (u(0.5+h) - u(0.5-h)) / (2h)."""
        d = np.zeros(self.mesh.n_interior)
        scale = 10.0 / (2.0 * self.mesh.h)
        d[self.center_index + 1] = scale
        d[self.center_index - 1] = -scale
        return d

    def q2_weight_vector(self) -> np.ndarray:
        """w = M K^{-1} d, so that Q2(m) = (w^T m)^2."""
        return self.M.matvec(self.K.solve(self.derivative_vector()))

    def qoi(self, kind: str) -> Callable[[np.ndarray], float]:
        if kind == "q1":
            idx = self.center_index
            return lambda m: float(np.exp(m[idx]))
        if kind == "q2":
            w = self.q2_weight_vector()
            return lambda m: float(np.dot(w, m) ** 2)
        raise ValueError(f"unknown QoI {kind!r}")

    def linear_functional(self, kind: str) -> np.ndarray:
        """The linear functional underlying each QoI: Q1 = exp(l^T m),
        Q2 = (l^T m)^2."""
        if kind == "q1":
            return self.center_vector()
        if kind == "q2":
            return self.q2_weight_vector()
        raise ValueError(f"unknown QoI {kind!r}")


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
        self.alpha = int(alpha)
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.kappa = float(kappa)
        self.obs = obs
        self.sigma = obs.noise_sigma
        self.y = np.asarray(y, dtype=float)
        self.M = mass_operator(mesh, dirichlet=False)
        self.A_bare = assemble(mesh, beta=beta, gamma=gamma, dirichlet=False)
        self.Mw = measurement_operator(mesh, measurement_centers, measurement_radius)
        self.A_prior = self.A_bare.add(self.Mw, kappa)
        self.B = assemble_observation_matrix(mesh, obs.centers, obs.radius)
        self.prior_mean = np.asarray(prior_mean, dtype=float)
        self._last_state: DarcyProblem._State | None = None

    class _State:
        __slots__ = ("m", "k", "op", "u", "du", "Bu", "_p", "_dp")

        def __init__(self, m, k, op, u, du, Bu):
            self.m, self.k, self.op, self.u, self.du, self.Bu = m, k, op, u, du, Bu
            self._p = None
            self._dp = None

    def _forward_state(self, m: np.ndarray) -> "DarcyProblem._State":
        """Forward state at ``m``: one tridiagonal factor-and-solve.

        The last state is memoized on the values of ``m`` (the state keeps a
        private copy), so the potential and the QoI of one quadrature point
        share a single solve, and a caller that mutates ``m`` in place still
        gets a fresh one.
        """
        m = np.asarray(m, dtype=float)
        last = self._last_state
        if last is not None and np.array_equal(m, last.m):
            return last
        if not np.all(np.isfinite(m)):
            raise ValueError("parameter field must be finite")
        k = darcy_cell_coeffs(m, self.mesh)
        op = darcy_stiffness(k, self.mesh)
        rhs = np.zeros(self.mesh.n_interior)
        rhs[0] += k[0] / self.mesh.h  # u(0) = 1 lifting; u(1) = 0
        u = np.empty(self.mesh.n_nodes)
        u[0], u[-1] = 1.0, 0.0
        u[1:-1] = op.solve(rhs)
        du = cell_slopes(u, self.mesh)
        state = self._State(m.copy(), k, op, u, du, self.B @ u)
        self._last_state = state
        return state

    def forward(self, m: np.ndarray) -> np.ndarray:
        """Parameter-to-observable map G(m) = B u(m)."""
        return self._forward_state(m).Bu

    def potential_of_state(self, state) -> float:
        r = self.y - state.Bu
        return 0.5 / self.sigma**2 * float(np.dot(r, r))

    def _adjoint(self, state) -> tuple[np.ndarray, np.ndarray]:
        if state._p is None:
            rhs = (self.B.T @ (self.y - state.Bu)) / self.sigma**2
            p = np.zeros(self.mesh.n_nodes)
            p[1:-1] = state.op.solve(rhs[1:-1])
            state._p = p
            state._dp = cell_slopes(p, self.mesh)
        return state._p, state._dp

    def misfit_gradient_of_state(self, state) -> np.ndarray:
        _, dp = self._adjoint(state)
        return scatter_mass(state.k * state.du * dp, self.mesh)

    def misfit_hessian_action(
        self, state, mhat: np.ndarray, gauss_newton: bool = False
    ) -> np.ndarray:
        _, dp = self._adjoint(state)
        mhat_c = 0.5 * (mhat[:-1] + mhat[1:])
        # incremental state
        rhs_u = -scatter_grad(mhat_c * state.k * state.du, self.mesh)
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
        q = state.k * state.du * dp_hat
        if not gauss_newton:
            q += state.k * du_hat * dp + mhat_c * state.k * state.du * dp
        return scatter_mass(q, self.mesh)

    @property
    def center_node(self) -> int:
        return self.mesh.n_cells // 2

    def qoi(self, kind: str = "u_center") -> Callable[[np.ndarray], float]:
        if kind != "u_center":
            raise ValueError(f"unknown QoI {kind!r}")
        idx = self.center_node
        return lambda m: float(self._forward_state(m).u[idx])

    def prior_pairs(
        self, J: int | None = None, rng: np.random.Generator | None = None,
        oversampling: int = 10, power_iters: int = 2,
    ) -> EigenPairs:
        J = J if J is not None else self.mesh.n_nodes
        return prior_eigen_numeric(
            self.mesh, self.A_prior, self.M, self.alpha, J,
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

    return weighted_mass_operator(mesh, weight, dirichlet=False)


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
    stub = LinearPoissonProblem(mesh, alpha, beta, sigma, y=np.zeros(n))
    pairs = stub.prior_pairs()
    xi = rng_stream(seed, 1).standard_normal(n)
    m_sample = pairs.vectors @ (np.sqrt(pairs.values) * xi)
    u_sample = stub.forward(m_sample)
    noise = sigma * rng_stream(seed, 2).standard_normal(n)
    return LinearPoissonProblem(mesh, alpha, beta, sigma, y=u_sample + noise)


def make_darcy_problem(
    alpha: int = 1,
    beta: float = 2.0,
    gamma: float = 1.0,
    kappa: float = 1e3,
    sigma: float = 5e-2,
    mesh_exp: int = 10,
    obs_count: int = 65,
    n_measurements: int = 5,
    seed: int = 0,
    j_true: int = 200,
) -> DarcyProblem:
    """Darcy benchmark with seeded data generation.

    The true field is a truncated KL draw from N(0, A^{-1}); the prior mean
    solves the quadratic measurement-penalty problem
    (A + kappa*Mw) m0 = kappa * Mw m_true; observations are B u(m_true) plus
    iid noise.  Measurement and observation mollifiers both use radius h.
    """
    mesh = Mesh1D.from_exponent(mesh_exp)
    radius = mesh.h
    meas_centers = np.linspace(0.0, 1.0, n_measurements)
    obs_centers = np.linspace(0.0, 1.0, obs_count)
    obs = ObservationSetup(centers=obs_centers, radius=radius, noise_sigma=sigma)

    M = mass_operator(mesh, dirichlet=False)
    A_bare = assemble(mesh, beta=beta, gamma=gamma, dirichlet=False)
    j_true = min(j_true, mesh.n_nodes - 1)
    true_pairs = prior_eigen_numeric(
        mesh, A_bare, M, 1, j_true, oversampling=10, power_iters=2,
        rng=rng_stream(seed, 1),
    )
    xi = rng_stream(seed, 2).standard_normal(len(true_pairs))
    m_true = true_pairs.vectors @ (np.sqrt(np.maximum(true_pairs.values, 0.0)) * xi)

    Mw = measurement_operator(mesh, meas_centers, radius)
    A_post = A_bare.add(Mw, kappa)
    m0 = A_post.solve(kappa * Mw.matvec(m_true))

    problem = DarcyProblem(
        mesh, alpha, beta, gamma, kappa, obs, np.zeros(obs_count), m0,
        meas_centers, radius,
    )
    noise = sigma * rng_stream(seed, 3).standard_normal(obs_count)
    problem.y = problem.forward(m_true) + noise
    problem.m_true = m_true
    return problem


# ---------------------------------------------------------------------------
# reweighted integrands
# ---------------------------------------------------------------------------


def gaussian_qoi_integrand(
    field: GaussianField, qoi: Callable[[np.ndarray], float]
) -> Integrand:
    """Plain xi -> Q(m(xi)) for integration against an exact Gaussian
    parametrization (the linear problem's pure-Gaussian path)."""

    def fn(xi: Mapping[int, float]):
        return qoi(kl_map(field, xi))

    return Integrand(fn=fn, n_outputs=1, dim_hint=field.truncation)


def prior_weighted_integrand(
    problem: BayesProblem,
    prior_field: GaussianField,
    qoi: Callable[[np.ndarray], float],
) -> Integrand:
    """Prior-based path: xi -> (exp(-Phi), Q * exp(-Phi)) at m0(xi); the
    posterior expectation is the ratio of the two integrals."""

    def fn(xi: Mapping[int, float]):
        m = kl_map(prior_field, xi)
        w = math.exp(-problem.potential(m))
        return (w, qoi(m) * w)

    return Integrand(fn=fn, n_outputs=2, dim_hint=prior_field.truncation)


def hessian_reweighted_integrand(
    problem: BayesProblem,
    posterior_field: GaussianField,
    cost_at_map: float,
    qoi: Callable[[np.ndarray], float],
) -> Integrand:
    """Hessian-based path: xi -> (exp(-J1), Q * exp(-J1)) at m1(xi), with
    J1(m) = J(m) - J(m1) - 0.5 * ||m - m1||^2_{C1}.

    The C1-norm is evaluated spectrally: in KL coordinates it is exactly
    sum_j xi_j^2.
    """

    def fn(xi: Mapping[int, float]):
        m = kl_map(posterior_field, xi)
        half_sq = 0.5 * sum(x * x for x in xi.values())
        j1 = problem.cost(m) - cost_at_map - half_sq
        w = math.exp(-j1)
        return (w, qoi(m) * w)

    return Integrand(fn=fn, n_outputs=2, dim_hint=posterior_field.truncation)

