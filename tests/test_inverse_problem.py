import itertools
import math
import warnings

import numpy as np
import pytest

from hessquad import fem1d
from hessquad.experiments import ExperimentConfig, darcy_setup
from hessquad.fem1d import Mesh1D, solve_poisson
from hessquad.gaussian_measure import GaussianField, rng_stream
from hessquad.inverse_problem import (
    LinearPoissonProblem,
    NewtonConfig,
    ObservationSetup,
    assemble_observation_matrix,
    gaussian_qoi_integrand,
    hessian_reweighted_integrand,
    make_darcy_problem,
    make_linear_problem,
    prior_weighted_integrand,
)
from hessquad.quad1d import hermite_rule
from hessquad.sparse_quad import AdaptConfig, Construction, adapt


@pytest.fixture(scope="module")
def linear6():
    return make_linear_problem(alpha=1, beta=5e-2, sigma=1e-2, mesh_exp=6, seed=0)


@pytest.fixture(scope="module")
def darcy6():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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
        np.testing.assert_allclose(
            p.map_point_closed_form(), oracle, rtol=1e-10, atol=1e-12
        )

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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for seed in (0, 7, 8, 10, 27, 32):
                res = make_darcy_problem(seed=seed).find_map()
                assert res.converged, f"seed {seed}"
                if seed == 0:
                    assert res.newton_iters == 6


class TestForwardState:
    def test_memo_follows_in_place_mutation(self, darcy6):
        p = darcy6
        m = p.prior_mean.copy()
        first = p._forward_state(m)
        u_first = first.u.copy()
        assert p._forward_state(m.copy()) is first  # equal values, no solve
        m += 0.3 * np.sin(np.pi * p.mesh.nodes())
        second = p._forward_state(m)
        assert second is not first
        np.testing.assert_array_equal(first.u, u_first)
        assert not np.array_equal(second.u, u_first)
        p._forward_state(p.prior_mean)
        np.testing.assert_array_equal(p._forward_state(m).u, second.u)


@pytest.fixture(scope="module")
def darcy6_setup():
    cfg = ExperimentConfig.darcy_default(mesh_exp=6, seed=0, kl_dims=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
    calls = []
    factor = fem1d.dpttrf
    monkeypatch.setattr(fem1d, "dpttrf", lambda *a: calls.append(1) or factor(*a))
    res = adapt(g, Construction.APOSTERIORI, AdaptConfig(max_points=300))
    assert res.n_points >= 300
    assert len(calls) == res.n_points


class TestPosteriorEigen:
    def test_zero_misfit_returns_prior(self, linear6):
        p = linear6

        class NoData(LinearPoissonProblem):
            def misfit_hessian_action(self, state, mhat, gauss_newton=False):
                return np.zeros_like(mhat)

        q = NoData(p.mesh, p.alpha, p.beta, p.sigma, y=p.y)
        res = q.find_map()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pairs = q.posterior_eigen(res, 10, j1=16, rng=rng_stream(0, 1),
                                      oversampling=20, power_iters=6)
        prior = q.prior_pairs(10)
        np.testing.assert_allclose(pairs.values, prior.values, rtol=1e-7)

    def test_two_step_matches_analytic(self, linear6):
        p = linear6
        res = p.find_map(cfg=NewtonConfig(tol=1e-12))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            num = p.posterior_eigen(
                res, 20, j1=40, cutoff=1e-7, oversampling=40, power_iters=3,
                rng=rng_stream(0, 2),
            )
        ana = p.posterior_pairs_analytic(20)
        np.testing.assert_allclose(num.values, ana.values, rtol=1e-3)

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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = make_darcy_problem(mesh_exp=8, seed=0)
            pairs = p.prior_pairs(150, oversampling=150, power_iters=3,
                                  rng=rng_stream(0, 8))
        j = np.arange(20, 151)
        slope = np.polyfit(np.log(j), np.log(np.sqrt(pairs.values[19:150])), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)

    def test_eigenvalue_reduction_darcy(self, darcy6):
        p = darcy6
        res = p.find_map()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pairs = p.posterior_eigen(res, 10, rng=rng_stream(0, 5))
        fld = GaussianField.from_pairs(res.map_point, pairs)
        g = hessian_reweighted_integrand(p, fld, res.cost_at_map, p.qoi())
        w, qw = g.fn({})
        assert w == pytest.approx(1.0, abs=1e-12)
        assert qw == pytest.approx(p.qoi()(res.map_point), rel=1e-12)

    def test_linear_reweighting_identically_one(self, linear6):
        p = linear6
        res = p.find_map(cfg=NewtonConfig(tol=1e-12))
        fld = GaussianField.from_pairs(
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
        m_full = np.zeros(p.mesh.n_nodes)
        m_full[1:-1] = res.map_point
        u = solve_poisson(m_full, p.mesh)
        h = p.mesh.h
        i = p.mesh.n_cells // 2
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
        prior_fld = GaussianField.from_pairs(p.prior_mean, p.prior_pairs(3))
        post_fld = GaussianField.from_pairs(
            res.map_point, p.posterior_pairs_analytic(3)
        )
        qoi = p.qoi("q1")
        g_prior = prior_weighted_integrand(p, prior_fld, qoi)
        g_gauss = gaussian_qoi_integrand(post_fld, qoi)
        prior_vals = dense_tensor_expectation(g_prior, 3, 18)
        prior_est = prior_vals[1] / prior_vals[0]
        gauss_est = dense_tensor_expectation(g_gauss, 3, 18)[0]
        assert prior_est == pytest.approx(gauss_est, rel=1e-7)
        # and both match the closed-form lognormal reference
        e = p.center_vector()
        ref = math.exp(
            float(res.map_point @ e)
            + 0.5 * float(np.sum(post_fld.pairs.values * (e @ post_fld.pairs.vectors) ** 2))
        )
        assert gauss_est == pytest.approx(ref, rel=1e-9)
