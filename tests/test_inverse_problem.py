import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from hessquad import fem1d, inverse_problem
from hessquad.experiments import ExperimentConfig, darcy_setup, linear_setup, run_linear
from hessquad.fem1d import Mesh1D
from hessquad.gaussian_measure import GaussianField, kl_map, prior_eigen_analytic, rng_stream
from hessquad.inverse_problem import (
    LinearPoissonProblem,
    NewtonConfig,
    ObservationSetup,
    assemble_observation_matrix,
    hessian_reweighted_integrand,
    make_darcy_problem,
    make_linear_problem,
    prior_weighted_integrand,
)
from hessquad.quad1d import hermite_rule
from hessquad.sparse_quad import AdaptConfig, Construction, Integrand, adapt


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
        mesh = Mesh1D.from_exponent(8)
        r = 4 * mesh.h
        B = assemble_observation_matrix(
            mesh, np.array([0.5]), r, normalize=False
        )
        assert B.sum() == pytest.approx(math.sqrt(2 * math.pi) * r, rel=1e-6)

    def test_locality(self):
        mesh = Mesh1D.from_exponent(6)
        B = assemble_observation_matrix(mesh, np.array([0.5]), mesh.h)
        x = mesh.nodes()
        assert np.all(np.abs(B[0, np.abs(x - 0.5) > 10 * mesh.h]) < 1e-12)

    def test_setup_validation(self):
        with pytest.raises(ValueError):
            ObservationSetup(centers=np.array([]), radius=0.1, noise_sigma=1.0)
        with pytest.raises(ValueError):
            ObservationSetup(centers=np.array([0.5]), radius=0.1, noise_sigma=0.0)


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
        assert res.converged
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


@pytest.fixture(scope="module")
def darcy6_setup():
    cfg = ExperimentConfig.darcy_default(mesh_exp=6, seed=0, kl_dims=12)
    return darcy_setup(cfg)


@pytest.mark.parametrize("path", ["hessian", "prior"])
def test_one_factorization_per_quadrature_point(darcy6_setup, path, monkeypatch):
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

    def counted(owner, name):
        fn = getattr(owner, name)
        counts[name] = 0

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    # one factorization, one solve and one KL map per point, and no slopes:
    # only gradient and Hessian actions read them
    counted(fem1d, "dpttrf")
    counted(fem1d.TriDiagOperator, "solve")
    counted(inverse_problem, "kl_map")
    counted(inverse_problem, "cell_slopes")
    res = adapt(g, Construction.APOSTERIORI, AdaptConfig(max_points=300))
    assert res.n_points >= 300
    assert counts == {"dpttrf": res.n_points, "solve": res.n_points,
                      "kl_map": res.n_points, "cell_slopes": 0}


def _parent_forward_state(problem, m):
    """Oracle for ``DarcyProblem._forward_state``: the forward state as it
    was built for every point before the slopes became lazy, returning u, B u
    and the slopes of u."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("parameter field must be finite")
    mesh = problem.mesh
    k = fem1d.darcy_cell_coeffs(m)
    op = fem1d.darcy_stiffness(k, mesh)
    rhs = np.zeros(mesh.n_interior)
    rhs[0] += k[0] / mesh.h
    u = np.empty(mesh.n_nodes)
    u[0], u[-1] = 1.0, 0.0
    u[1:-1] = op.solve(rhs)
    return u, problem.B @ u, fem1d.cell_slopes(u, mesh)


def _parent_darcy_point(problem, field, xi, cost_at_map=None):
    """Oracle for one point of the Darcy integrands: the parent evaluation,
    with the KL sum over ``field``'s eigenvectors in C order and the prior
    cost through a matvec that allocates both couplings.  Prior path without
    ``cost_at_map``, Hessian path with it."""
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


def _sparse_points(rng, dims, count):
    """``count`` KL coordinate dicts with 1-4 nonzero coordinates each."""
    points = []
    for _ in range(count):
        support = rng.choice(np.arange(1, dims + 1), rng.integers(1, 5), replace=False)
        points.append({int(j): float(2.0 * rng.standard_normal()) for j in support})
    return points


@pytest.mark.parametrize("path", ["hessian", "prior"])
def test_lean_darcy_point_matches_parent_evaluation(darcy6_setup, path):
    # every point returns the tuple the parent evaluation returns, over the
    # Fortran-order field DarcySetup builds and over the C-order field the
    # eigensolvers return
    setup, problem = darcy6_setup, darcy6_setup.problem
    built = setup.posterior_field if path == "hessian" else setup.prior_field
    assert built.pairs.vectors.flags.f_contiguous
    c_order = GaussianField(built.mean, replace(
        built.pairs, vectors=np.ascontiguousarray(built.pairs.vectors)))
    cost_at_map = setup.map_result.cost_at_map if path == "hessian" else None
    points = [{}] + _sparse_points(rng_stream(10, 1), setup.kl_dims, 500)
    expected = [_parent_darcy_point(problem, built, xi, cost_at_map) for xi in points]
    for field in (built, c_order):
        if path == "hessian":
            g = hessian_reweighted_integrand(problem, field, cost_at_map, problem.qoi())
        else:
            g = prior_weighted_integrand(problem, field, problem.qoi())
        assert [g.fn(xi) for xi in points] == expected


def test_darcy_derivatives_do_not_depend_on_what_read_the_state_first(darcy6_setup):
    # the slopes are computed when a gradient or Hessian action first needs
    # them; both actions are the same whether the state is fresh or was first
    # read by the potential alone, and the slopes of u are the parent's
    problem = darcy6_setup.problem
    rng = rng_stream(10, 2)
    n = problem.mesh.n_nodes
    for _ in range(5):
        m = darcy6_setup.map_result.map_point + 0.3 * rng.standard_normal(n)
        mhat = rng.standard_normal(n)
        fresh = problem._forward_state(m)
        grad = problem.misfit_gradient_of_state(fresh)
        hess = [problem.misfit_hessian_action(fresh, mhat, gauss_newton=gn)
                for gn in (False, True)]
        read = problem._forward_state(m)
        problem.potential_of_state(read)
        assert read.du is None and read.dp is None
        hess_read = [problem.misfit_hessian_action(read, mhat, gauss_newton=gn)
                     for gn in (False, True)]
        np.testing.assert_array_equal(problem.misfit_gradient_of_state(read), grad)
        for a, b in zip(hess_read, hess):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(read.du, _parent_forward_state(problem, m)[2])


def test_linear_prior_run_solves_once_per_quadrature_point(monkeypatch):
    # the cost unit of the paper: the linear prior path solves the forward
    # problem at each point (Q1's functional and reference solve nothing)
    cfg = ExperimentConfig.linear_default(mesh_exp=6, seed=0, mode="prior", max_points=300)
    setup = linear_setup(cfg)
    calls = []
    solve = fem1d.dpttrs
    monkeypatch.setattr(fem1d, "dpttrs", lambda *a: calls.append(1) or solve(*a))
    res = run_linear(cfg, setup).quadrature
    assert res.n_points >= 300
    assert len(calls) == res.n_points


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

    def test_eigenvalue_reduction_darcy(self, darcy6):
        p = darcy6
        res = p.find_map()
        post = p.posterior_eigen(res, 30, j1=40, oversampling=40,
                                 power_iters=3, rng=rng_stream(0, 3))
        prior = p.prior_pairs(30, oversampling=40, power_iters=3,
                              rng=rng_stream(0, 4))
        k = min(len(post), len(prior))
        assert np.all(post.values[:k] <= prior.values[:k] * (1 + 1e-7))


class TestReweightedIntegrands:
    def test_weight_is_one_at_map(self, darcy6):
        p = darcy6
        res = p.find_map()
        pairs = p.posterior_eigen(res, 10, rng=rng_stream(0, 5))
        fld = GaussianField(res.map_point, pairs)
        g = hessian_reweighted_integrand(p, fld, res.cost_at_map, p.qoi())
        w, qw = g.fn({})
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
            w, _ = g.fn(xi)
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
        val = w * np.atleast_1d(np.asarray(integrand.fn(xi), dtype=float))
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
        g_gauss = Integrand(fn=lambda xi: qoi(kl_map(post_fld, xi)), n_outputs=1)
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
