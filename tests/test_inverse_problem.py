import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from hessquad import fem1d, gaussian_measure, inverse_problem
from hessquad.experiments import (
    ExperimentConfig,
    Setup,
    darcy_setup,
    linear_setup,
    run_darcy,
)
from hessquad.fem1d import Mesh1D
from hessquad.gaussian_measure import GaussianField, kl_map, prior_eigen_analytic, rng_stream
from hessquad.inverse_problem import (
    LinearPoissonProblem,
    NewtonConfig,
    assemble_observation_matrix,
    hessian_reweighted_integrand,
    make_darcy_problem,
    make_linear_problem,
    prior_weighted_integrand,
)
from hessquad.quad1d import hermite_rule
from hessquad.sparse_quad import (
    AdaptConfig,
    Construction,
    Integrand,
    IntegrandError,
    PointCache,
    adapt,
)


@pytest.fixture(scope="module")
def linear6():
    return make_linear_problem(alpha=1, beta=5e-2, sigma=1e-2, mesh_exp=6, seed=0)


@pytest.fixture(scope="module")
def darcy6():
    return make_darcy_problem(mesh_exp=6, seed=3)


class TestObservationMatrix:
    def test_rows_normalized_to_unit_mass(self):
        mesh = Mesh1D.from_exponent(6)
        B = assemble_observation_matrix(mesh, np.array([0.25, 0.5]), mesh.h)
        np.testing.assert_allclose(B.sum(axis=1), [1.0, 1.0], rtol=1e-12)
        # mollified point evaluation: acting on u(x) = x gives ~ the center
        u = mesh.nodes()
        np.testing.assert_allclose(B @ u, [0.25, 0.5], atol=1e-3)

    def test_unnormalized_mass_is_mollifier_integral(self):
        # the cell Gauss rule the rows are integrated with resolves the bump:
        # its raw mass is the mollifier integral sqrt(2*pi)*r
        mesh = Mesh1D.from_exponent(8)
        r = 4 * mesh.h
        _, xq, wq = fem1d.cell_gauss_rule(mesh)
        mass = float((np.exp(-((xq - 0.5) ** 2) / (2.0 * r**2)) * wq).sum())
        assert mass == pytest.approx(math.sqrt(2 * math.pi) * r, rel=1e-6)

    def test_locality(self):
        mesh = Mesh1D.from_exponent(6)
        B = assemble_observation_matrix(mesh, np.array([0.5]), mesh.h)
        x = mesh.nodes()
        assert np.all(np.abs(B[0, np.abs(x - 0.5) > 10 * mesh.h]) < 1e-12)


class TestPotential:
    def test_zero_misfit(self, linear6):
        p = linear6
        rng = rng_stream(5, 0)
        m = rng.standard_normal(p.mesh.n_interior)
        q = LinearPoissonProblem(
            p.mesh, p.alpha, p.beta, p.sigma, y=p.forward(m)
        )
        assert q.potential(m) == pytest.approx(0.0, abs=1e-18)

    def test_sigma_scaling(self, linear6):
        p = linear6
        m = np.zeros(p.mesh.n_interior)
        base = p.potential(m)
        doubled = LinearPoissonProblem(p.mesh, p.alpha, p.beta, 2 * p.sigma, y=p.y)
        assert doubled.potential(m) == pytest.approx(base / 4.0)

    def test_single_observation_scalar_formula(self):
        # one mollified functional: potential = r^2 / (2 sigma^2)
        p = make_darcy_problem(mesh_exp=5, obs_count=1, seed=1)
        m = np.zeros(p.mesh.n_nodes)
        resid = p.y - p.forward(m)
        assert p.potential(m) == pytest.approx(
            float(resid @ resid) / (2 * p.sigma**2)
        )


class TestDerivatives:
    def test_gradient_zero_at_consistent_data(self, linear6):
        p = linear6
        m0 = np.zeros(p.mesh.n_interior)
        q = LinearPoissonProblem(p.mesh, p.alpha, p.beta, p.sigma,
                                 y=p.forward(m0))
        assert q.cost(m0) == pytest.approx(0.0, abs=1e-18)
        assert np.max(np.abs(q.gradient(m0))) <= 1e-14

    @pytest.mark.parametrize("problem_fixture", ["linear6", "darcy6"])
    def test_gradient_matches_finite_differences(self, problem_fixture, request):
        # criterion tolerance: < 1e-5 relative, finite-difference step tuned
        # by sweep, checked at several random points and directions
        p = request.getfixturevalue(problem_fixture)
        n = len(p.prior_mean)
        rng = rng_stream(11, 1)
        for point in range(5):
            m = 0.2 * rng.standard_normal(n)
            g = p.gradient(m)
            for _ in range(2):
                d = rng.standard_normal(n)
                d /= np.linalg.norm(d)
                an = float(g @ d)
                best = math.inf
                for h in (1e-3, 1e-4, 1e-5, 1e-6):
                    fd = (p.cost(m + h * d) - p.cost(m - h * d)) / (2 * h)
                    best = min(best, abs(fd - an) / max(abs(an), 1e-30))
                assert best < 1e-5

    @pytest.mark.parametrize("problem_fixture", ["linear6", "darcy6"])
    def test_hessian_action_matches_gradient_differences(
        self, problem_fixture, request
    ):
        p = request.getfixturevalue(problem_fixture)
        n = len(p.prior_mean)
        rng = rng_stream(12, 1)
        for point in range(5):
            m = 0.2 * rng.standard_normal(n)
            state = p._forward_state(m)
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            Hd = p.hessian_action(m, d, state=state)
            best = math.inf
            for h in (1e-4, 1e-5, 1e-6):
                fd = (p.gradient(m + h * d) - p.gradient(m - h * d)) / (2 * h)
                best = min(
                    best, np.linalg.norm(fd - Hd) / max(np.linalg.norm(Hd), 1e-30)
                )
            assert best < 1e-4

    def test_gauss_newton_equals_full_for_linear(self, linear6):
        p = linear6
        rng = rng_stream(13, 1)
        m = rng.standard_normal(p.mesh.n_interior)
        d = rng.standard_normal(p.mesh.n_interior)
        state = p._forward_state(m)
        np.testing.assert_allclose(
            p.hessian_action(m, d, state=state, gauss_newton=True),
            p.hessian_action(m, d, state=state, gauss_newton=False),
        )

    def test_gauss_newton_psd_for_darcy(self, darcy6):
        p = darcy6
        rng = rng_stream(14, 1)
        m = 0.3 * rng.standard_normal(p.mesh.n_nodes)
        state = p._forward_state(m)
        for _ in range(5):
            d = rng.standard_normal(p.mesh.n_nodes)
            quad = float(d @ p.misfit_hessian_action(state, d, gauss_newton=True))
            assert quad >= -1e-12


class TestFindMap:
    def test_linear_matches_dense_normal_equations(self, linear6):
        # oracle: dense solve of (H_misfit + A_alpha) m = rhs built from the
        # dense operator matrices, independent of the Newton-CG path
        p = linear6
        n = p.mesh.n_interior
        Kd = p.K.dense()
        Md = p.M.dense()
        H_mis = Md @ np.linalg.solve(Kd, Md @ np.linalg.solve(Kd, Md)) / p.sigma**2
        A_alpha = np.column_stack(
            [p.apply_prior_precision(np.eye(n)[:, k]) for k in range(n)]
        )
        rhs = Md @ np.linalg.solve(Kd, Md @ p.y) / p.sigma**2
        oracle = np.linalg.solve(H_mis + A_alpha, rhs)
        res = p.find_map(cfg=NewtonConfig(tol=1e-12))
        assert res.converged
        rel = np.linalg.norm(res.map_point - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-6

    def test_exact_data_fixed_point(self, linear6):
        p = linear6
        m_true = np.zeros(p.mesh.n_interior)  # the prior mean
        q = LinearPoissonProblem(p.mesh, p.alpha, p.beta, p.sigma,
                                 y=p.forward(m_true))
        res = q.find_map()
        assert res.converged
        assert np.max(np.abs(res.map_point - m_true)) <= 1e-8

    def test_darcy_converges_within_budget(self, darcy6):
        res = darcy6.find_map()
        assert res.converged and res.stopped_on in ("gradient", "decrement")
        assert res.newton_iters <= 30
        # Newton decrease: accepted steps strictly reduce the cost
        costs = res.cost_history
        assert all(b < a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_linear_data_seeds_converge(self):
        # the configuration of experiments.linear_setup
        cfg = NewtonConfig(tol=1e-12, max_newton=60)
        for seed in range(40):
            res = make_linear_problem(seed=seed).find_map(cfg=cfg)
            assert res.converged, f"seed {seed}"
            if seed == 0:
                assert res.newton_iters == 5

    def test_darcy_data_seeds_converge(self):
        # 7, 8, 27 and 32 reach the roundoff floor of the cost above the
        # gradient tolerance, so only the Newton-decrement test stops them
        for seed in (0, 7, 8, 10, 27, 32):
            res = make_darcy_problem(seed=seed).find_map()
            assert res.converged, f"seed {seed}"
            if seed == 0:
                assert res.newton_iters == 6


class _Refusing(LinearPoissonProblem):
    """A linear problem whose forward state is refused, as the Darcy one
    refuses a non-finite parameter, at any m farther than ``radius``
    from 0; it records the norm of every m it is asked for, and with
    ``penalty`` it adds that to the potential of every m but 0."""

    def __init__(self, base, radius, penalty=0.0):
        super().__init__(base.mesh, base.alpha, base.beta, base.sigma, y=base.y)
        self.radius, self.penalty, self.norms = radius, penalty, []

    def _forward_state(self, m):
        self.norms.append(float(np.linalg.norm(m)))
        if self.norms[-1] > self.radius:
            raise ValueError("parameter field must be finite")
        return super()._forward_state(m)

    def potential_of_state(self, state):
        return super().potential_of_state(state) + self.penalty * bool(state.any())


class TestLineSearch:
    def test_a_refused_trial_point_halves_the_step(self, linear6):
        # the first Newton step from 0 leaves the ball where the forward
        # state is defined: the solve backs off into it, never raises, and
        # accepts only points inside it
        radius = 0.6 * np.linalg.norm(linear6.find_map().map_point)
        p = _Refusing(linear6, radius)
        res = p.find_map(NewtonConfig(max_newton=3))
        assert p.norms[0] == 0.0 and p.norms[1] > radius
        assert p.norms[2] == pytest.approx(p.norms[1] / 2, rel=1e-14)
        assert res.newton_iters == 3 and not res.converged
        assert res.stopped_on == "max_newton"
        assert np.linalg.norm(res.map_point) <= radius
        costs = res.cost_history
        assert all(b < a for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("radius, penalty", [(0.0, 0.0), (math.inf, 1e6)],
                             ids=["refused", "no-decrease"])
    def test_a_step_with_no_acceptable_trial_ends_the_solve(self, linear6, radius,
                                                            penalty):
        # every trial point is refused, or raises the cost: after
        # _MAX_BACKTRACKS halvings the solve stops unconverged at its last
        # accepted point, not at the last trial point, and a setup says so
        p = _Refusing(linear6, radius, penalty)
        res = p.find_map()
        trials = p.norms[1:]
        assert len(trials) == inverse_problem._MAX_BACKTRACKS
        np.testing.assert_allclose(trials[1:], np.array(trials[:-1]) / 2, rtol=1e-14)
        assert not res.converged and res.newton_iters == 0
        assert res.stopped_on == "line_search"
        assert not res.map_point.any() and res.cost_history == [res.cost_at_map]
        setup = Setup(p, solve_map=lambda: res, prior_pairs=None, posterior_pairs=None)
        with pytest.raises(RuntimeError, match="^MAP solve did not converge: stopped "
                                               "on line_search at Newton iteration 0$"):
            setup.map_result


class TestDarcyData:
    def test_true_field_needs_no_eigensolve(self, monkeypatch):
        # the true field is drawn from the closed-form cosine modes
        def refuse(*args, **kwargs):
            raise AssertionError("make_darcy_problem ran an eigensolve")

        for module in (gaussian_measure, inverse_problem):
            monkeypatch.setattr(module, "randomized_eigen", refuse)
        p = make_darcy_problem(mesh_exp=6, seed=0)
        assert np.isfinite(p.y).all() and np.isfinite(p.prior_mean).all()

    @pytest.mark.parametrize("mode", ["hessian", "prior"])
    def test_runs_do_not_depend_on_the_qr_path(self, mode, monkeypatch):
        # forcing every B-orthonormalization down the pivoted fallback (an
        # unpivoted R with a zero diagonal reads as deficient) leaves the data
        # bit for bit, and the small runs choose the same indices with values
        # that move only in their last bits.  The covariance sketches' power
        # steps re-base by LU, not QR, so the fallback is forced on each
        # eigensolve's final basis and on the misfit step's power steps
        cfg = ExperimentConfig.darcy_default(mesh_exp=6, seed=0, kl_dims=20,
                                             max_points=600, mode=mode)
        fast = run_darcy(cfg, darcy_setup(cfg))
        qr = scipy.linalg.qr

        def deficient(a, *args, pivoting=False, **kwargs):
            out = qr(a, *args, pivoting=pivoting, **kwargs)
            return out if pivoting else (out[0], 0.0 * out[1])

        monkeypatch.setattr(scipy.linalg, "qr", deficient)
        setup = darcy_setup(cfg)
        pivoted = run_darcy(cfg, setup)
        reference = make_darcy_problem(mesh_exp=6, seed=0)
        assert setup.problem.y.tobytes() == reference.y.tobytes()
        assert setup.problem.prior_mean.tobytes() == reference.prior_mean.tobytes()
        for a, b in itertools.zip_longest(fast.quadrature.trace, pivoted.quadrature.trace):
            assert (a.chosen, a.n_points) == (b.chosen, b.n_points)
            np.testing.assert_allclose(a.value, b.value, rtol=1e-9)


@pytest.fixture(scope="module")
def darcy6_setup():
    cfg = ExperimentConfig.darcy_default(mesh_exp=6, seed=0, kl_dims=12)
    return darcy_setup(cfg)


@pytest.mark.parametrize("path", ["hessian", "prior"])
def test_quadrature_points_factor_nothing(darcy6_setup, path, monkeypatch):
    setup = darcy6_setup
    problem = make_darcy_problem(mesh_exp=6, seed=0)  # has solved nothing yet
    if path == "hessian":
        g = hessian_reweighted_integrand(
            problem, setup.posterior_field, setup.map_result.cost_at_map,
            problem.qoi(),
        )
    else:
        g = prior_weighted_integrand(problem, setup.prior_field, problem.qoi())
    counts = {}

    def counted(owner, name, label=None):
        fn = getattr(owner, name)
        label = label or name
        counts[label] = 0

        def wrapper(*args):
            counts[label] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    # a point works in KL coordinates: no KL map and no prior operator (the
    # Hessian path's prior cost is a quadratic form in xi); a step's points
    # are observed with one product, so no point makes a forward state; and
    # no factorization or solve
    counted(fem1d, "dpttrf")
    counted(fem1d.TriDiagOperator, "solve")
    counted(inverse_problem, "kl_map")
    counted(inverse_problem.BayesProblem, "prior_cost")
    counted(inverse_problem.DarcyProblem, "_forward_state")
    counted(inverse_problem.DarcyProblem._State, "__init__", label="_State")
    res = adapt(g, Construction.APOSTERIORI, AdaptConfig(max_points=300))
    assert res.n_points >= 300
    assert counts == {"dpttrf": 0, "solve": 0, "kl_map": 0, "prior_cost": 0,
                      "_forward_state": 0, "_State": 0}


def _stiffness(k, mesh):
    """Diagonal and off-diagonal of the interior P1 stiffness of -(k u')'
    for the cell coefficients ``k``."""
    a = k / mesh.h
    return a[:-1] + a[1:], -a[1:-1]


def _parent_forward_state(problem, m):
    """Oracle for ``DarcyProblem._forward_state``: the forward state from a
    tridiagonal LDL^T factor-and-solve of the assembled stiffness, as every
    point computed it before the closed form, returning u, B u and the
    stiffness operator."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("parameter field must be finite")
    mesh = problem.mesh
    k = np.exp(0.5 * (m[:-1] + m[1:]))
    op = fem1d.TriDiagOperator(*_stiffness(k, mesh))
    rhs = np.zeros(mesh.n_interior)
    rhs[0] += k[0] / mesh.h
    u = np.empty(mesh.n_nodes)
    u[0], u[-1] = 1.0, 0.0
    u[1:-1] = op.solve(rhs)
    return u, problem.B @ u, op


def _lagrangian_derivatives(problem, m, mhat, gauss_newton):
    """Oracle for the Darcy misfit gradient and Hessian action at ``m``:
    the Lagrangian path, with one adjoint solve, and incremental state and
    adjoint solves for the action on the vector ``mhat``, all against the
    LDL^T factor of the stiffness."""
    mesh, sigma2 = problem.mesh, problem.sigma**2
    k = np.exp(0.5 * (m[:-1] + m[1:]))
    u, Bu, op = _parent_forward_state(problem, m)

    def solve(rhs):  # homogeneous Dirichlet values at both ends
        out = np.zeros(mesh.n_nodes)
        out[1:-1] = op.solve(rhs[1:-1])
        return out

    def mass(q):  # <q, phi_i> for cell-constant q
        out = np.zeros(mesh.n_nodes)
        out[:-1] += 0.5 * mesh.h * q
        out[1:] += 0.5 * mesh.h * q
        return out

    def grad(q):  # <q, phi_i'> for cell-constant q
        out = np.zeros(mesh.n_nodes)
        out[1:] += q
        out[:-1] -= q
        return out

    du = np.diff(u) / mesh.h
    dp = np.diff(solve(problem.B.T @ (problem.y - Bu) / sigma2)) / mesh.h
    mhat_c = 0.5 * (mhat[:-1] + mhat[1:])
    u_hat = solve(-grad(mhat_c * k * du))
    du_hat = np.diff(u_hat) / mesh.h
    rhs_p = -(problem.B.T @ (problem.B @ u_hat)) / sigma2
    if not gauss_newton:
        rhs_p -= grad(mhat_c * k * dp)
    q = k * du * np.diff(solve(rhs_p)) / mesh.h
    if not gauss_newton:
        q += k * du_hat * dp + mhat_c * k * du * dp
    return mass(k * du * dp), mass(q)


# Largest difference between the closed-form forward map and the LDL^T
# solve, by mesh exponent: the rounding of the LDL^T path, which grows with
# the mesh (measured on the fields of test_closed_form_pressure_matches_ldlt,
# on B u and on u(0.5): 1.3e-14 and 1.2e-14 at 2^6, 6.8e-13 and 6.6e-13 at
# 2^10).
_LDLT_ATOL = {6: 5e-14, 10: 2e-12}


def _extended_precision_pressure(k, mesh):
    """Oracle: the P1 Darcy system for cell coefficients ``k`` assembled and
    solved by Thomas elimination in ``np.longdouble``."""
    k = k.astype(np.longdouble)
    d, e = _stiffness(k, mesh)
    b = np.zeros(len(d), dtype=np.longdouble)
    b[0] = k[0] / mesh.h  # u(0) = 1 lifting
    for i in range(1, len(d)):
        w = e[i - 1] / d[i - 1]
        d[i] -= w * e[i - 1]
        b[i] -= w * b[i - 1]
    u = np.zeros(mesh.n_nodes, dtype=np.longdouble)
    u[0] = 1
    u[-2] = b[-1] / d[-1]
    for i in range(len(d) - 2, -1, -1):
        u[i + 1] = (b[i] - e[i] * u[i + 2]) / d[i]
    return u


def _rough_fields(mesh_exp, count=10):
    """``count`` white-noise log-conductivities of unit amplitude: cell
    coefficients that jump by factors up to ~e^3 from cell to cell."""
    rng = rng_stream(mesh_exp, 1)
    return [rng.standard_normal(2**mesh_exp + 1) for _ in range(count)]


class TestDarcyForward:
    @pytest.mark.parametrize("mesh_exp", [6, 10])
    def test_closed_form_pressure_matches_ldlt(self, mesh_exp):
        # the LDL^T solve of the assembled stiffness is the oracle, at its
        # own rounding, for the observations B u = F r / T and the QoI
        # u(0.5) = (l S).r / T; the boundary values hold to rounding
        problem = make_darcy_problem(mesh_exp=mesh_exp, seed=0)
        n, mid = problem.mesh.n_nodes, problem.mesh.n_cells // 2
        at_0, at_1 = (inverse_problem.PressureFunctional(problem, np.eye(n)[i])
                      for i in (0, -1))
        for m in _rough_fields(mesh_exp):
            u, Bu, _ = _parent_forward_state(problem, m)
            np.testing.assert_allclose(problem.forward(m), Bu,
                                       rtol=0, atol=_LDLT_ATOL[mesh_exp])
            assert abs(problem.qoi()(m) - u[mid]) <= _LDLT_ATOL[mesh_exp]
            assert at_0(m) == pytest.approx(1.0, rel=1e-15) and at_1(m) == 0.0

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble has no extra precision here")
    @pytest.mark.parametrize("mesh_exp", [6, 10])
    def test_closed_form_pressure_is_exact_to_rounding(self, mesh_exp):
        # against an extended-precision solve of the same system the closed
        # form errs by a few ulps (measured on B u and u(0.5): 4.3e-16 and
        # 1.8e-16 at 2^6, 1.1e-15 and 5.7e-16 at 2^10), where the LDL^T
        # solve errs by up to 1.3e-14 and 6.8e-13
        problem = make_darcy_problem(mesh_exp=mesh_exp, seed=0)
        B, mid = problem.B.astype(np.longdouble), problem.mesh.n_cells // 2
        for m in _rough_fields(mesh_exp):
            k = np.exp(0.5 * (m[:-1] + m[1:]))
            u = _extended_precision_pressure(k, problem.mesh)
            assert np.max(np.abs(problem.forward(m) - B @ u)) <= 1e-14
            assert abs(problem.qoi()(m) - u[mid]) <= 1e-14

    @pytest.mark.parametrize("mesh_exp", [6, 10])
    def test_forward_is_scale_free(self, mesh_exp):
        # B u = F r / T and u(0.5) = (l S).r / T do not change when r =
        # exp(-a) is scaled, so adding c to m changes nothing, however far
        # exp(c) leaves float range.  On a 2^-30 grid m + c and its cell
        # averages are exact, so every c past the window shifts to the same
        # row, which peaks at r = 1, and gives the same bits; against m,
        # whose row is not shifted, only rounding moves (measured: 5.6e-16
        # at 2^6, 1.6e-15 at 2^10).  Unshifted, exp(-a) at c = 720 is
        # subnormal and B u erred by 1.7e-12 at 2^6
        problem = make_darcy_problem(mesh_exp=mesh_exp, seed=0)
        qoi = problem.qoi()
        for m in _rough_fields(mesh_exp):
            m = np.round(m * 2**30) / 2**30
            far = problem.forward(m + 720.0)
            assert abs(far - problem.forward(m)).max() <= 1e-14
            for c in (720.0, -720.0, 800.0, -800.0, 5000.0, -5000.0):
                assert problem._forward_state(m + c).r.max() == 1.0
                assert np.array_equal(problem.forward(m + c), far)
                assert abs(qoi(m + c) - qoi(m)) <= 1e-14

    def test_forward_is_continuous_across_the_window_edge(self, darcy6):
        # a row whose max(-a) lies just inside the window is folded as it
        # is, one just outside is shifted to peak at r = 1: the two agree to
        # rounding (measured: 4.4e-16)
        m = darcy6.prior_mean + 0.3 * rng_stream(10, 4).standard_normal(darcy6.mesh.n_nodes)
        top = (-0.5 * (m[:-1] + m[1:])).max()
        for edge in (inverse_problem._UNSHIFTED, -inverse_problem._UNSHIFTED):
            step = math.copysign(2.0**-20, edge)
            inside = darcy6._forward_state(m + (top - edge + step))
            outside = darcy6._forward_state(m + (top - edge - step))
            assert inside.r.max() != 1.0 and outside.r.max() == 1.0
            assert abs(inside.Bu - outside.Bu).max() <= 1e-14

    def test_derivatives_read_a_shifted_state(self, darcy6):
        # the gradient and Hessian actions read r and T of the state, which
        # a shift scales by one factor: past the window they equal their
        # values at m (measured: 7.2e-15 relative on the gradient, 1.9e-15
        # on the actions)
        def close(a, b):
            return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

        problem, rng = darcy6, rng_stream(10, 2)
        n = problem.mesh.n_nodes
        for _ in range(3):
            m = problem.prior_mean + 0.3 * rng.standard_normal(n)
            m = np.round(m * 2**30) / 2**30  # m + c exact, as above
            X = rng.standard_normal((n, 4))
            at_m = problem._forward_state(m)
            for c in (720.0, -720.0, 5000.0, -5000.0):
                state = problem._forward_state(m + c)
                assert state.r.max() == 1.0
                assert close(problem.misfit_gradient_of_state(state),
                             problem.misfit_gradient_of_state(at_m))
                for gauss_newton in (False, True):
                    assert close(problem.misfit_hessian_action(state, X, gauss_newton),
                                 problem.misfit_hessian_action(at_m, X, gauss_newton))

    @pytest.mark.parametrize("value, refused", [
        (800.0, "overflows"),
        (-800.0, "underflows"),
        (720.0, "overflows"),
        (-720.0, "underflows"),
    ])
    def test_refuses_a_conductivity_out_of_range(self, darcy6, value, refused):
        # exp(m) is out of range for any float only at m = +-inf, which is
        # refused by name: alone, next to its opposite (inf next to -inf
        # averages to nan) or everywhere, as is a nan.  A finite m whose
        # exp(m) merely overflows, or at |m| = 720 is subnormal, is evaluated,
        # as the fold is scale-free: a constant m gives the values at 0, and a
        # spike of 2 value at one node those of a spike of +-80, whose
        # exp(-+40) moves nothing past rounding (measured: 1.1e-16)
        n = darcy6.mesh.n_nodes
        qoi = darcy6.qoi()

        def spike(height):
            return np.r_[np.zeros(n // 2), height, np.zeros(n // 2)]

        for m, like in ((np.full(n, value), np.zeros(n)),
                        (spike(2 * value), spike(math.copysign(80.0, value)))):
            assert abs(darcy6.forward(m) - darcy6.forward(like)).max() <= 1e-14
            assert abs(qoi(m) - qoi(like)) <= 1e-14
        bad = {"overflows": math.inf, "underflows": -math.inf}[refused]
        for m in (spike(bad), np.r_[bad, -bad, np.zeros(n - 2)], np.full(n, bad),
                  spike(np.nan)):
            for evaluate in (darcy6.forward, qoi):
                with pytest.raises(ValueError, match="parameter field must be finite"):
                    evaluate(m)

    @pytest.mark.parametrize("x, refused", [
        (2.0, "overflows"), (-2.0, "underflows"),
        (1.8, "overflows"), (-1.8, "underflows"),
    ])
    def test_refused_conductivity_names_the_point(self, darcy6, x, refused):
        # m(xi) = m0 + 400 xi_1: at |xi_1| = 2 exp(-a) leaves float range,
        # and at 1.8 it is subnormal, points that are evaluated as the fold is
        # scale-free: a batch that holds one, and one 6.25 times as far, gives
        # each point's values on its own (measured: 2.6e-16) and, as a
        # constant added to m changes nothing, the values at xi = 0.  Only
        # xi_1 = +-inf puts exp(m) out of range for any float: in the middle
        # of a batch the point named is that one, not the batch's first
        n = darcy6.mesh.n_nodes
        m0 = np.round(_rough_fields(6)[0] * 2**30) / 2**30
        field = GaussianField(m0, gaussian_measure.EigenPairs(
            np.array([400.0**2]), np.ones((n, 1))))
        observe = darcy6._point_observer(field, darcy6.qoi())
        points = [{}, {1: x / 4}, {1: x}, {1: 6.25 * x}]
        batch = observe(points)
        np.testing.assert_allclose(batch, [observe([xi])[0] for xi in points],
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(batch, [batch[0]] * len(points), rtol=1e-12, atol=0)
        g = prior_weighted_integrand(darcy6, field, darcy6.qoi())
        keys = [tuple(xi.items()) for xi in points]
        cache = PointCache(g)
        cache.fill(keys)
        assert all(math.isfinite(v) for key in keys for v in cache.value(key))
        beyond = {"overflows": math.inf, "underflows": -math.inf}[refused]
        with pytest.raises(IntegrandError, match="non-finite value") as err:
            PointCache(g).fill(keys[:3] + [((1, beyond),)])
        assert err.value.point == {1: beyond}

    @pytest.mark.parametrize("field, make_bad, message", [
        pytest.param("B", lambda p: p.B[:, :-1], "B must have one column per node",
                     id="B"),
        pytest.param("y", lambda p: p.y[:-1], "y must have one entry per row of B",
                     id="y"),
        pytest.param("prior_mean", lambda p: p.prior_mean[1:],
                     "prior_mean must be a nodal field", id="prior_mean"),
        pytest.param("A_prior",
                     lambda p: fem1d.assemble(Mesh1D(p.mesh.n_cells // 2), beta=2.0,
                                              gamma=1.0),
                     "A_prior must act on the nodes", id="A_prior"),
    ])
    def test_constructor_refuses_mismatched_shapes(self, darcy6, field, make_bad, message):
        p = darcy6
        args = dict(mesh=p.mesh, alpha=p.alpha, A_prior=p.A_prior, B=p.B,
                    sigma=p.sigma, y=p.y, prior_mean=p.prior_mean)
        inverse_problem.DarcyProblem(**args)
        args[field] = make_bad(p)
        with pytest.raises(ValueError, match=message):
            inverse_problem.DarcyProblem(**args)


def _parent_darcy_point(problem, field, xi, cost_at_map=None):
    """Oracle for one point of the Darcy integrands: the parent evaluation,
    with the LDL^T forward state, the KL sum over ``field``'s eigenvectors
    in C order and the prior cost through a matvec that allocates both
    couplings.  Prior path without ``cost_at_map``, Hessian path with it."""
    assert problem.alpha == 1
    scales = np.sqrt(field.pairs.values)
    vectors = np.ascontiguousarray(field.pairs.vectors)
    m = field.mean.copy()
    for j, x in xi.items():
        m += scales[j - 1] * x * vectors[:, j - 1]
    u, Bu, _ = _parent_forward_state(problem, m)
    r = problem.y - Bu
    cost = 0.5 / problem.sigma**2 * float(np.dot(r, r))
    if cost_at_map is not None:
        A, d = problem.A_prior, m - problem.prior_mean
        Ad = A.diag * d
        Ad[:-1] += A.off * d[1:]
        Ad[1:] += A.off * d[:-1]
        cost += 0.5 * float(np.dot(d, Ad))
        cost = cost - cost_at_map - 0.5 * sum(x * x for x in xi.values())
    w = math.exp(-cost)
    return (w, float(u[problem.mesh.n_cells // 2]) * w)


def _sparse_points(rng, dims, count, nonzeros=(1, 4)):
    """``count`` KL coordinate dicts with ``nonzeros`` (least, most) nonzero
    coordinates each."""
    points = []
    for _ in range(count):
        k = rng.integers(nonzeros[0], nonzeros[1] + 1)
        support = rng.choice(np.arange(1, dims + 1), k, replace=False)
        points.append({int(j): float(2.0 * rng.standard_normal()) for j in support})
    return points


def _darcy_integrand(setup, path, field=None):
    """The ``path`` integrand of a Darcy setup, over ``field`` when given and
    over the setup's field of that path otherwise."""
    problem = setup.problem
    if path == "hessian":
        field = field if field is not None else setup.posterior_field
        return hessian_reweighted_integrand(problem, field, setup.map_result.cost_at_map,
                                            problem.qoi())
    field = field if field is not None else setup.prior_field
    return prior_weighted_integrand(problem, field, problem.qoi())


@pytest.mark.parametrize("path", ["hessian", "prior"])
def test_lean_darcy_point_matches_parent_evaluation(darcy6_setup, path):
    # every point returns the same tuple over a Fortran-order and a C-order
    # copy of the field, and the tuple the parent's LDL^T evaluation returns
    # up to that solve's rounding: u agrees to _LDLT_ATOL[6], which the
    # potential (1/sigma^2 = 400, Phi up to ~300 on the prior path)
    # amplifies to at most 1.7e-11 relative in exp(-Phi) (measured)
    setup, problem = darcy6_setup, darcy6_setup.problem
    built = setup.posterior_field if path == "hessian" else setup.prior_field
    f_order, c_order = (
        GaussianField(built.mean, replace(built.pairs, vectors=layout(built.pairs.vectors)))
        for layout in (np.asfortranarray, np.ascontiguousarray)
    )
    cost_at_map = setup.map_result.cost_at_map if path == "hessian" else None
    points = [{}] + _sparse_points(rng_stream(10, 1), built.truncation, 500)
    values = {}
    for name, field in (("f_order", f_order), ("c_order", c_order)):
        g = _darcy_integrand(setup, path, field)
        values[name] = [g.fn([xi])[0] for xi in points]
    assert values["f_order"] == values["c_order"]
    expected = [_parent_darcy_point(problem, built, xi, cost_at_map) for xi in points]
    np.testing.assert_allclose(values["f_order"], expected, rtol=5e-11, atol=0)


@pytest.mark.parametrize("path", ["hessian", "prior"])
@pytest.mark.parametrize("dim", [0, 13])
def test_darcy_point_refuses_a_coordinate_outside_the_truncation(darcy6_setup, path, dim):
    # the cell log-conductivities are read off the field's cell columns,
    # which refuse what kl_map refused: the point named is the refused one,
    # not the batch's first, with the refusal chained
    assert darcy6_setup.field(path).truncation == 12
    g = _darcy_integrand(darcy6_setup, path)
    with pytest.raises(IntegrandError,
                       match=rf"coordinate dimension {dim} outside truncation 12") as err:
        PointCache(g).fill([(), ((12, 0.5),), ((dim, 0.5),)])
    assert err.value.point == {dim: 0.5}
    assert isinstance(err.value.__cause__, ValueError)


def _longdouble_prior_cost(problem, field, xi):
    """Oracle: the prior cost at m(xi) for alpha = 1, with the KL sum, m -
    m0 and the tridiagonal product in ``np.longdouble`` over the same
    float data."""
    assert problem.alpha == 1
    ld = np.longdouble
    scales = np.sqrt(field.pairs.values)
    m = field.mean.astype(ld)
    for j, x in xi.items():
        m += ld(scales[j - 1]) * ld(x) * field.pairs.vectors[:, j - 1].astype(ld)
    d = m - problem.prior_mean.astype(ld)
    A = problem.A_prior
    Ad = A.diag.astype(ld) * d
    Ad[:-1] += A.off.astype(ld) * d[1:]
    Ad[1:] += A.off.astype(ld) * d[:-1]
    return 0.5 * np.dot(d, Ad)


@pytest.fixture(scope="module")
def darcy10_setup():
    """The benchmark's Darcy setup: mesh 2^10, 200 KL dimensions."""
    return darcy_setup(ExperimentConfig.darcy_default(mesh_exp=10, seed=0, kl_dims=200))


class TestPriorCostInKLCoordinates:
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_matches_the_nodal_prior_cost(self, alpha):
        # c0 + g.xi + 0.5 xi^T G xi over the nonzero coordinates is the prior
        # cost of kl_map(field, xi), for sparse points and for a dense one
        # (all coordinates nonzero), at both smoothness exponents, and it is
        # the nodal value bit for bit at xi = 0.  The field is centred on a
        # prior draw, so that c0 (7.4) and the xi terms are of one size
        # (measured: at most 1.4e-14 relative apart, at alpha = 2)
        problem = make_darcy_problem(alpha=alpha, mesh_exp=6, seed=0)
        J = 16
        pairs = problem.prior_pairs(J, rng=rng_stream(0, 10), oversampling=J,
                                    power_iters=3)
        zeta = rng_stream(0, 11).standard_normal(J)
        mean = problem.prior_mean + pairs.vectors @ (np.sqrt(pairs.values) * zeta)
        field = GaussianField(mean, pairs)
        terms = inverse_problem._kl_quadratic_terms(problem, field)
        assert terms({}) == (0.0, problem.prior_cost(mean))
        rng = rng_stream(10, 5)
        dense = {j: float(rng.standard_normal()) for j in range(1, J + 1)}
        for xi in _sparse_points(rng, J, 100) + [dense]:
            half_sq, prior = terms(xi)
            assert half_sq == 0.5 * sum(x * x for x in xi.values())
            assert prior == pytest.approx(problem.prior_cost(kl_map(field, xi)),
                                          rel=1e-12, abs=0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble has no extra precision here")
    def test_is_as_accurate_as_the_nodal_form(self, darcy10_setup):
        # on the posterior field of the benchmark (mesh 2^10, 200 dims) the
        # quadratic form errs no more than the nodal prior cost against an
        # extended-precision evaluation (measured: at most 4.1e-13 against
        # 5.2e-13 relative)
        problem, field = darcy10_setup.problem, darcy10_setup.posterior_field
        terms = inverse_problem._kl_quadratic_terms(problem, field)
        kl_err = nodal_err = 0.0
        for xi in _sparse_points(rng_stream(10, 0), 200, 300):
            ref = _longdouble_prior_cost(problem, field, xi)
            kl_err = max(kl_err, float(abs(terms(xi)[1] / ref - 1)))
            nodal = problem.prior_cost(kl_map(field, xi))
            nodal_err = max(nodal_err, float(abs(nodal / ref - 1)))
        assert kl_err <= nodal_err


@pytest.mark.parametrize("path", ["hessian", "prior"])
def test_darcy_batch_matches_pointwise(darcy6_setup, path):
    # a point's row of log r does not depend on its batch (one sparse
    # product, row by row), but the batch's r rows meet C in one dense
    # product R C^T where a single point is a batch of one, and the two
    # products may sum in another order: only their last bits may move,
    # which the potential (up to ~300 on the prior path) amplifies in
    # exp(-Phi) (measured on these points: at most 1.1e-13 relative on the
    # Hessian path and 3.6e-13 on the prior path; 2.0e-13 and 7.3e-13 at
    # mesh 2^10)
    setup = darcy6_setup
    g = _darcy_integrand(setup, path)
    points = [{}] + _sparse_points(rng_stream(10, 3), setup.field(path).truncation, 200)
    batch = g.fn(points)
    assert type(batch) is list and len(batch) == len(points)
    np.testing.assert_allclose(batch, [g.fn([xi])[0] for xi in points], rtol=1e-12, atol=0)


@pytest.mark.parametrize("path", ["hessian", "prior"])
def test_darcy_batch_rows_are_the_per_point_axpys(darcy6_setup, path):
    # the sparse product X @ basis fills each row as 0 + 1.0 * mean and
    # then adds x * column per coordinate, in the point's order, so a batch
    # gives bit for bit what one block filled point by point with those
    # axpys gives: the guarantee that the traces did not move when the
    # rows stopped being filled in Python.  A scipy build that contracts
    # the sparse axpy into a fused multiply-add fails here
    setup, problem = darcy6_setup, darcy6_setup.problem
    field = setup.field(path)
    qoi = problem.qoi()
    points = _sparse_points(rng_stream(10, 7), field.truncation, 300, nonzeros=(0, 5))
    W = np.ascontiguousarray(field.pairs.vectors) * field.sqrt_values
    cell_mean = -0.5 * (field.mean[:-1] + field.mean[1:])
    cell_cols = -0.5 * (W[:-1] + W[1:])
    R = np.empty((len(points), problem.mesh.n_cells))
    for xi, row in zip(points, R):
        row[:] = cell_mean
        for j, x in xi.items():
            row += x * cell_cols[:, j - 1]
    np.exp(R, out=R)
    folded = R @ problem._folded_operator(qoi.functional).T
    T = folded[:, -1]
    res = problem.y - folded[:, :-2] / T[:, None]
    potentials = 0.5 / problem.sigma**2 * np.einsum("ij,ij->i", res, res)
    expected = np.column_stack([folded[:, -2] / T, potentials])
    got = np.array(problem._point_observer(field, qoi)(points))
    assert np.array_equal(got, expected)


class TestFoldedObservation:
    def test_holds_no_subnormal_entry(self, darcy6, darcy10_setup):
        # the underflowed Gaussian tails of the observation bumps leave
        # subnormal entries in B (52 at mesh 2^6, 124 at 2^10); F = B S and
        # so C hold none, because a product with a subnormal operand takes
        # the CPU's slow path, while it adds nothing to a sum of normal terms
        tiny = np.finfo(float).tiny

        def subnormal(A):
            return int(((A != 0) & (np.abs(A) < tiny)).sum())

        for problem, in_B in ((darcy6, 52), (darcy10_setup.problem, 124)):
            assert subnormal(problem.B) == in_B
            assert subnormal(problem._F) == 0
            assert subnormal(problem._folded_operator(problem.qoi().functional)) == 0

    def test_refuses_a_qoi_it_cannot_fold(self, darcy6_setup):
        # the points fold the QoI's nodal functional into their one product,
        # so a QoI that carries none is refused when the integrand is built,
        # and an unknown kind by name
        setup = darcy6_setup
        problem = setup.problem
        with pytest.raises(ValueError, match="unknown QoI 'q1'"):
            problem.qoi("q1")
        for build in (
            lambda q: prior_weighted_integrand(problem, setup.prior_field, q),
            lambda q: hessian_reweighted_integrand(
                problem, setup.posterior_field, setup.map_result.cost_at_map, q),
        ):
            with pytest.raises(ValueError, match="QoI linear in the pressure"):
                build(lambda m: problem.qoi()(m))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble has no extra precision here")
    def test_is_as_accurate_as_the_pressure_form(self, darcy10_setup):
        # on the benchmark posterior field, the batch's exp(-a) C^T and the
        # nodal forward state (forward, the QoI and the state's T) give B u,
        # u(0.5) and T = sum exp(-a) no less accurately than the deleted
        # pressure form (a reversed cumulative sum of 1/k, then B @ u) did,
        # against an extended-precision evaluation of the same rows:
        # ``pressure_form`` holds its largest relative errors over these 300
        # points, measured before it was deleted.  Measured now, batch and
        # nodal: B u 1.8e-15 and 2.0e-15, u(0.5) 1.2e-15 and 1.6e-15, T
        # 1.1e-15 and 1.6e-15
        pressure_form = {"Bu": 2.78e-15, "q": 2.53e-15, "T": 2.48e-15}
        problem, field = darcy10_setup.problem, darcy10_setup.posterior_field
        mid = problem.mesh.n_cells // 2
        qoi = problem.qoi()
        C = problem._folded_operator(qoi.functional)
        B = problem.B.astype(np.longdouble)
        points = _sparse_points(rng_stream(10, 0), 200, 300)
        fields = [kl_map(field, xi) for xi in points]
        rows = np.array([0.5 * (m[:-1] + m[1:]) for m in fields])
        folded = np.exp(-rows) @ C.T
        worst = {}
        for m, a, (*TBu, TQ, T) in zip(fields, rows, folded):
            r = np.exp(-a.astype(np.longdouble))
            u = np.zeros(len(a) + 1, dtype=np.longdouble)
            u[:-1] = r[::-1].cumsum()[::-1] / r.sum()
            for form, got in (
                ("batch", (np.array(TBu) / T, TQ / T, T)),
                ("nodal", (problem.forward(m), qoi(m), problem._forward_state(m).T)),
            ):
                for name, x, ref in zip(("Bu", "q", "T"), got, (B @ u, u[mid], r.sum())):
                    err = float(np.max(np.abs(x - ref) / np.abs(ref)))
                    worst[form, name] = max(worst.get((form, name), 0.0), err)
        for (form, name), err in worst.items():
            assert err <= pressure_form[name], (form, name, err)


def test_closed_form_darcy_derivatives_match_the_lagrangian(darcy6):
    # the closed-form gradient and the full and Gauss-Newton Hessian actions
    # on a block agree with the adjoint path of the Lagrangian, and a block
    # action is the column-by-column action (measured, largest difference
    # over the largest entry: 2.8e-13 on the gradient, 9.0e-14 on the
    # actions, 8.8e-16 between a block and its columns)
    def close(a, b, tol):
        return np.abs(a - b).max() <= tol * np.abs(b).max()

    problem = darcy6
    rng = rng_stream(10, 2)
    n = problem.mesh.n_nodes
    for _ in range(5):
        m = problem.prior_mean + 0.3 * rng.standard_normal(n)
        X = rng.standard_normal((n, 4))
        state = problem._forward_state(m)
        grad = problem.misfit_gradient_of_state(state)
        for gauss_newton in (False, True):
            oracle = [_lagrangian_derivatives(problem, m, x, gauss_newton) for x in X.T]
            assert close(grad, oracle[0][0], 1e-11)
            HX = problem.misfit_hessian_action(state, X, gauss_newton=gauss_newton)
            assert close(HX, np.column_stack([hx for _, hx in oracle]), 1e-11)
            columns = [problem.misfit_hessian_action(state, x, gauss_newton=gauss_newton)
                       for x in X.T]
            assert close(HX, np.column_stack(columns), 1e-13)


def test_linear_prior_points_solve_nothing(monkeypatch):
    # the linear potential is a quadratic form in xi whose coefficients are
    # built with the integrand (one block solve), so once it is built a
    # point makes no solve, no KL map and no nodal potential
    cfg = ExperimentConfig.linear_default(mesh_exp=6, seed=0, mode="prior", max_points=300)
    setup = linear_setup(cfg)
    problem = setup.problem
    g = prior_weighted_integrand(problem, setup.prior_field, problem.qoi("q1"))
    counts = {}
    for owner, name in ((fem1d.TriDiagOperator, "solve"), (inverse_problem, "kl_map"),
                        (inverse_problem.BayesProblem, "potential")):
        counts[name] = 0
        fn = getattr(owner, name)

        def wrapper(*args, fn=fn, name=name):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)
    res = adapt(g, Construction.APOSTERIORI, cfg.adapt_config())
    assert res.n_points >= 300
    assert counts == {"solve": 0, "kl_map": 0, "potential": 0}


def _linear_fields(alpha, J=20):
    """A mesh 2^6 linear problem of smoothness ``alpha`` with its prior and
    posterior fields, truncated at J."""
    problem = make_linear_problem(alpha=alpha, mesh_exp=6, seed=0)
    res = problem.find_map(cfg=NewtonConfig(tol=1e-12))
    return problem, {
        "prior": GaussianField(problem.prior_mean, problem.prior_pairs(J)),
        "posterior": GaussianField(res.map_point, problem.posterior_pairs_analytic(J)),
    }


class TestLinearPointObserver:
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_matches_the_nodal_evaluation(self, alpha):
        # the quadratic-form potential and Q1 agree with the potential and
        # the QoI of kl_map(field, xi) on sparse points and on a dense one
        # (all coordinates nonzero), on the prior and the posterior fields;
        # Q2 is the square of the affine l^T m(xi), whose value on the
        # points of odd modes alone is rounding noise (Q2's functional is
        # orthogonal to them, and so are their coefficients), so it is
        # checked against the size of the products l_i W_ij xi_j it sums
        problem, fields = _linear_fields(alpha)
        rng = rng_stream(10, 8)
        for name, field in fields.items():
            J = field.truncation
            points = _sparse_points(rng, J, 60) + [
                {j: float(rng.standard_normal()) for j in range(1, J + 1)}]
            nodal = [kl_map(field, xi) for xi in points]
            q1 = problem._point_observer(field, problem.qoi("q1"))(points)
            for (q, phi), m in zip(q1, nodal):
                assert phi == pytest.approx(problem.potential(m), rel=1e-12, abs=0)
                assert q == pytest.approx(problem.qoi("q1")(m), rel=1e-12, abs=0)
            l = problem.linear_functional("q2")
            s = inverse_problem.NodalFunctional(l, lambda s: s, "l^T m").in_kl(field)
            W = np.abs(field.pairs.vectors * field.sqrt_values)
            q2 = problem._point_observer(field, problem.qoi("q2"))(points)
            for xi, m, (q, _) in zip(points, nodal, q2):
                terms = np.abs(field.mean) + sum(abs(x) * W[:, j - 1] for j, x in xi.items())
                assert abs(s(xi) - float(l @ m)) <= 1e-13 * float(np.abs(l) @ terms)
                assert q == float(s(xi) ** 2)

    @pytest.mark.parametrize("dim", [0, 21])
    def test_refuses_a_coordinate_outside_the_truncation(self, dim):
        # as kl_map refuses it: dimension 0 must not read the coefficients
        # of dimension 20
        problem, fields = _linear_fields(1)
        observe = problem._point_observer(fields["prior"], problem.qoi("q1"))
        for evaluate in (observe, lambda points: kl_map(fields["prior"], points[0])):
            with pytest.raises(ValueError,
                               match=f"coordinate dimension {dim} outside truncation 20"):
                evaluate([{dim: 1.0}])

    def test_refuses_an_overflowing_qoi_by_name(self, linear6):
        # Q1 = exp(l^T m) overflows past l^T m = log(DBL_MAX) = 709.78: a
        # nodal call and a point in KL coordinates both raise a ValueError
        # that names the QoI and l^T m, not a bare math range error, and a
        # value below the edge keeps the bits of math.exp
        n = linear6.mesh.n_interior
        qoi = linear6.qoi("q1")
        center = n // 2  # the node x = 0.5, where l is 1
        field = GaussianField(np.zeros(n), gaussian_measure.EigenPairs(
            np.array([100.0**2]), np.eye(n)[:, [center]]))
        q = qoi.in_kl(field)
        for evaluate, at in ((qoi, lambda s: np.eye(n)[center] * s),
                             (q, lambda s: {1: s / 100.0})):
            assert evaluate(at(709.0)) == math.exp(709.0)
            with pytest.raises(ValueError, match=r"^QoI q1 overflows: l\^T m is 710$"):
                evaluate(at(710.0))

    def test_refuses_a_qoi_it_cannot_expand(self, linear6):
        # the points evaluate the QoI's functional in KL coordinates, so a QoI
        # that carries none is refused when the integrand is built
        field = GaussianField(linear6.prior_mean, linear6.prior_pairs(8))
        with pytest.raises(ValueError, match="QoI of l\\^T m"):
            prior_weighted_integrand(linear6, field, lambda m: linear6.qoi("q1")(m))


def test_linear_prior_pairs_are_read_off_one_spectrum(linear6):
    # the spectrum is computed once per problem; any leading J pairs equal a
    # direct J-pair computation bit for bit, as contiguous arrays
    p = linear6
    for J in (5, p.mesh.n_interior):
        pairs = p.prior_pairs(J)
        direct = prior_eigen_analytic(p.beta, p.alpha, J, p.mesh)
        np.testing.assert_array_equal(pairs.values, direct.values)
        np.testing.assert_array_equal(pairs.vectors, direct.vectors)
        assert pairs.vectors.flags.c_contiguous
    with pytest.raises(ValueError, match="J exceeds"):
        p.prior_pairs(p.mesh.n_interior + 1)


class TestPosteriorEigen:
    def test_zero_misfit_returns_prior(self, linear6):
        p = linear6

        class NoData(LinearPoissonProblem):
            def misfit_hessian_action(self, state, mhat, gauss_newton=False):
                return np.zeros_like(mhat)

        q = NoData(p.mesh, p.alpha, p.beta, p.sigma, y=p.y)
        res = q.find_map()
        pairs = q.posterior_eigen(res, 10, j1=16, rng=rng_stream(0, 1),
                                  oversampling=20, power_iters=6)
        prior = q.prior_pairs(10)
        np.testing.assert_allclose(pairs.values, prior.values, rtol=1e-7)

    def test_two_step_matches_analytic(self, linear6):
        p = linear6
        res = p.find_map(cfg=NewtonConfig(tol=1e-12))
        num = p.posterior_eigen(
            res, 20, j1=40, cutoff=1e-7, oversampling=40, power_iters=3,
            rng=rng_stream(0, 2),
        )
        ana = p.posterior_pairs_analytic(20)
        np.testing.assert_allclose(num.values, ana.values, rtol=1e-3)

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_misfit_spectrum_complete(self, alpha):
        # every requested pair of H psi = lambda A_alpha psi comes back, at
        # the closed-form values, A_alpha-orthonormal; even alpha included
        p = make_linear_problem(alpha=alpha, mesh_exp=6, seed=0)
        res = p.find_map()
        mis = p.misfit_eigen(res, j1=20, oversampling=20, power_iters=3,
                             rng=rng_stream(0, 5))
        assert len(mis) == 20
        n = p.mesh.n_interior
        ana = np.sort([p.misfit_eigenvalue_analytic(j) for j in range(1, n + 1)])
        np.testing.assert_allclose(mis.values, ana[::-1][:20], rtol=1e-8)
        gram = mis.vectors.T @ p.apply_prior_precision(mis.vectors)
        np.testing.assert_allclose(gram, np.eye(20), atol=1e-10)

    def test_misfit_spectrum_stops_at_the_resolvable_rank(self):
        # criterion 7's alpha = 2 call asks for 48 pairs of a spectrum with
        # only 31 eigenvalues above 1e-12 of the largest: exactly those come
        # back, without a warning, and the ones a 1e-7 cutoff keeps are the
        # closed-form values
        p = make_linear_problem(alpha=2, beta=5e-2, sigma=1e-2, mesh_exp=8, seed=0)
        res = p.find_map(cfg=NewtonConfig(tol=1e-12))
        mis = p.misfit_eigen(res, j1=48, oversampling=40, power_iters=3,
                             rng=rng_stream(0, 5))
        n = p.mesh.n_interior
        ana = np.sort([p.misfit_eigenvalue_analytic(j) for j in range(1, n + 1)])[::-1]
        assert len(mis) == np.sum(ana > 1e-12 * ana[0]) == 31
        kept = mis.values > 1e-7
        np.testing.assert_allclose(mis.values[kept], ana[: kept.sum()], rtol=1e-10)

    def test_eigenvalue_reduction_linear(self, linear6):
        # Lemma: lambda_j^1 <= lambda_j^0 under matched pre-rearrangement
        # indexing, and the ratio tends to 1
        p = linear6
        J = p.mesh.n_interior
        prior = p.prior_pairs(J)
        tilde = np.array([p.misfit_eigenvalue_analytic(j) for j in range(1, J + 1)])
        lam1 = prior.values / (1.0 + tilde)
        assert np.all(lam1 <= prior.values)
        tail = slice(int(0.9 * J), J)
        assert np.all(lam1[tail] / prior.values[tail] > 0.99)

    def test_darcy_prior_sqrt_decay(self):
        # sqrt(lambda_j) of the benchmark prior decays ~ 1/j asymptotically
        p = make_darcy_problem(mesh_exp=8, seed=0)
        pairs = p.prior_pairs(150, oversampling=150, power_iters=3,
                              rng=rng_stream(0, 8))
        j = np.arange(20, 151)
        slope = np.polyfit(np.log(j), np.log(np.sqrt(pairs.values[19:150])), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)

    @pytest.mark.parametrize("oversampling", [10, 60])
    def test_misfit_step_sketches_j1_plus_ten(self, oversampling, monkeypatch):
        # the misfit step targets the fixed rank j1 with its own margin of 10
        # whatever the posterior step's oversampling: the misfit Hessian is
        # applied to j1 + 10 columns per sketch pass, and power_iters + 2
        # passes (the range, each power iteration, the Rayleigh-Ritz
        # projection)
        p = make_darcy_problem(mesh_exp=7, seed=0)
        res = p.find_map()
        j1, J, power_iters = 24, 30, 2
        applies = 0
        hessian_action = p.misfit_hessian_action

        def counted(state, mhat):
            nonlocal applies
            applies += mhat.shape[1]
            return hessian_action(state, mhat)

        monkeypatch.setattr(p, "misfit_hessian_action", counted)
        widths = []  # the first sketch block of each randomized eigensolve
        eigen = inverse_problem.randomized_eigen

        def spy(apply_op, *args, **kwargs):
            blocks = []

            def op(X):
                blocks.append(X.shape[1])
                return apply_op(X)

            out = eigen(op, *args, **kwargs)
            widths.append(blocks[0])
            return out

        monkeypatch.setattr(inverse_problem, "randomized_eigen", spy)
        p.posterior_eigen(res, J, j1=j1, oversampling=oversampling,
                          power_iters=power_iters, rng=rng_stream(0, 3))
        assert applies == (j1 + 10) * (power_iters + 2)
        assert widths == [j1 + 10, J + oversampling]

    def test_eigenvalue_reduction_darcy(self, darcy6):
        p = darcy6
        res = p.find_map()
        post = p.posterior_eigen(res, 30, j1=40, oversampling=40,
                                 power_iters=3, rng=rng_stream(0, 3))
        prior = p.prior_pairs(30, oversampling=40, power_iters=3,
                              rng=rng_stream(0, 4))
        k = min(len(post), len(prior))
        assert np.all(post.values[:k] <= prior.values[:k] * (1 + 1e-7))


class TestCovarianceSketchSteps:
    """The two covariance sketches (the prior's and the posterior step's)
    re-base their power steps by LU; the misfit step B-orthonormalizes."""

    def test_only_the_covariance_sketches_take_lu_steps(self, darcy6, monkeypatch):
        calls = []
        lu = scipy.linalg.lu

        def counted(*args, **kwargs):
            calls.append(1)
            return lu(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu", counted)
        res = darcy6.find_map()
        darcy6.misfit_eigen(res, j1=16, power_iters=3, rng=rng_stream(0, 1))
        assert len(calls) == 0
        darcy6.prior_pairs(10, rng=rng_stream(0, 2), oversampling=10, power_iters=3)
        assert len(calls) == 3
        # a sketch as wide as the space (65 nodes) takes no power step
        darcy6.prior_pairs(40, rng=rng_stream(0, 2), oversampling=40, power_iters=3)
        assert len(calls) == 3

        per_call = []  # LU calls made inside each of the two eigensolves
        eigen = inverse_problem.randomized_eigen

        def spy(*args, **kwargs):
            before = len(calls)
            out = eigen(*args, **kwargs)
            per_call.append(len(calls) - before)
            return out

        monkeypatch.setattr(inverse_problem, "randomized_eigen", spy)
        darcy6.posterior_eigen(res, 10, j1=16, oversampling=10, power_iters=3,
                               rng=rng_stream(0, 3))
        assert per_call == [0, 3]

    def test_lu_steps_are_as_accurate_as_b_orthonormal_ones(self):
        # the benchmark's prior eigensolve (mesh 2^10, J = 200, oversampling
        # 200, 3 power steps, the setup's rng stream) against a dense
        # generalized eigh.  In exact arithmetic both step kinds give the same
        # span, so the errors agree up to rounding.  Measured (one BLAS
        # thread), LU against B-orthonormal steps: 9.8e-15 against 1.0e-14 on
        # modes 1-10, and 4.4598488203e-6 against 4.4598488262e-6 on modes
        # 191-200, where the randomized range finder's error dominates
        p = make_darcy_problem(mesh_exp=10, seed=0)
        A, M, alpha = p.A_prior, p.M, p.alpha
        Md = M.dense()
        K = Md @ fem1d.apply_A_alpha_inv(Md, alpha, A, M)
        n = K.shape[0]
        dense = scipy.linalg.eigh(0.5 * (K + K.T), Md, eigvals_only=True,
                                  subset_by_index=[n - 200, n - 1])[::-1]

        def op(X):
            return fem1d.apply_A_alpha_inv(M.matvec(X), alpha, A, M)

        errors = {}
        for lu_steps in (True, False):
            pairs = gaussian_measure.randomized_eigen(
                op, M, 200, oversampling=200, power_iters=3,
                rng=rng_stream(0, 10), lu_steps=lu_steps,
            )
            err = np.abs(pairs.values - dense) / dense
            errors[lu_steps] = (err[:10].max(), err[190:].max())
        for lu_err, qr_err in zip(errors[True], errors[False]):
            # no larger, up to rounding in the errors themselves
            assert lu_err <= qr_err * (1 + 1e-6) + 1e-13
        assert errors[True][0] < 1e-12 and errors[True][1] < 1e-5


class TestReweightedIntegrands:
    def test_weight_is_one_at_map(self, darcy6):
        p = darcy6
        res = p.find_map()
        pairs = p.posterior_eigen(res, 10, rng=rng_stream(0, 5))
        fld = GaussianField(res.map_point, pairs)
        g = hessian_reweighted_integrand(p, fld, res.cost_at_map, p.qoi())
        ((w, qw),) = g.fn([{}])
        assert w == pytest.approx(1.0, abs=1e-12)
        assert qw == pytest.approx(p.qoi()(res.map_point), rel=1e-12)

    def test_linear_reweighting_identically_one(self, linear6):
        p = linear6
        res = p.find_map(cfg=NewtonConfig(tol=1e-12))
        fld = GaussianField(
            res.map_point, p.posterior_pairs_analytic(p.mesh.n_interior)
        )
        g = hessian_reweighted_integrand(
            p, fld, res.cost_at_map, p.qoi("q1")
        )
        rng = rng_stream(1, 6)
        for _ in range(10):
            xi = {int(j): float(rng.standard_normal())
                  for j in rng.integers(1, 40, 3)}
            ((w, _),) = g.fn([xi])
            assert abs(w - 1.0) <= 1e-10

    def test_q2_at_map_matches_derivative_stencil(self, linear6):
        p = linear6
        res = p.find_map()
        q2 = p.qoi("q2")
        u = p.forward(res.map_point)  # interior nodes
        h = p.mesh.h
        i = p.mesh.n_cells // 2 - 1  # interior index of x = 0.5
        stencil = (10.0 * (u[i + 1] - u[i - 1]) / (2 * h)) ** 2
        assert q2(res.map_point) == pytest.approx(stencil, rel=1e-12)


def dense_tensor_expectation(integrand, dims, level):
    """Oracle: full tensor Gauss-Hermite quadrature of a vector integrand."""
    rule = hermite_rule(level)
    total = None
    for combo in itertools.product(range(len(rule.nodes)), repeat=dims):
        w = 1.0
        xi = {}
        for j, k in enumerate(combo, start=1):
            w *= rule.weights[k]
            x = rule.nodes[k]
            if x != 0.0:
                xi[j] = x
        val = w * np.atleast_1d(np.asarray(integrand.fn([xi])[0], dtype=float))
        total = val if total is None else total + val
    return total


class TestPriorHessianAgreement:
    def test_three_dimensional_toy(self):
        # the whole parameter space has three dimensions, so the prior-based
        # ratio and the Hessian-based Gaussian path integrate the same
        # posterior; dense tensor quadrature is the oracle for both
        mesh = Mesh1D(4)
        sigma = 0.3
        stub = LinearPoissonProblem(mesh, 1, 5e-2, sigma, y=np.zeros(3))
        pairs = stub.prior_pairs(3)
        xi = rng_stream(21, 1).standard_normal(3)
        m_s = pairs.vectors @ (np.sqrt(pairs.values) * xi)
        y = stub.forward(m_s) + sigma * 0.3 * rng_stream(21, 2).standard_normal(3)
        p = LinearPoissonProblem(mesh, 1, 5e-2, sigma, y=y)
        res = p.find_map(cfg=NewtonConfig(tol=1e-13))
        prior_fld = GaussianField(p.prior_mean, p.prior_pairs(3))
        post_fld = GaussianField(
            res.map_point, p.posterior_pairs_analytic(3)
        )
        qoi = p.qoi("q1")
        g_prior = prior_weighted_integrand(p, prior_fld, qoi)
        g_gauss = Integrand(fn=lambda points: [qoi(kl_map(post_fld, xi)) for xi in points])
        prior_vals = dense_tensor_expectation(g_prior, 3, 18)
        prior_est = prior_vals[1] / prior_vals[0]
        gauss_est = dense_tensor_expectation(g_gauss, 3, 18)[0]
        assert prior_est == pytest.approx(gauss_est, rel=1e-7)
        # and both match the closed-form lognormal reference
        e = p.linear_functional("q1")
        ref = math.exp(
            float(res.map_point @ e)
            + 0.5 * float(np.sum(post_fld.pairs.values * (e @ post_fld.pairs.vectors) ** 2))
        )
        assert gauss_est == pytest.approx(ref, rel=1e-9)
