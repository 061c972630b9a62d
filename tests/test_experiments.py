import csv
import io
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hessquad import sparse_quad
from hessquad.experiments import (
    Checkpoint,
    ConvergenceRecord,
    ExperimentConfig,
    _checkpoints_from_trace,
    _convergence_record,
    darcy_setup,
    estimate_rate,
    functional_coefficients,
    linear_gaussian_integrand,
    linear_reference,
    linear_setup,
    mc_baseline,
    point_ladder,
    run_convergence,
    run_darcy,
    run_linear,
    trailing_window,
)
from hessquad.gaussian_measure import EigenPairs, kl_map, rng_stream
from hessquad.inverse_problem import BayesProblem, DarcyProblem
from hessquad.quad1d import hermite_rule


class TestEstimateRate:
    def test_exact_power_law(self):
        n = np.array([10, 30, 100, 300, 1000], dtype=float)
        assert estimate_rate(n, 5.0 / n) == pytest.approx(1.0, abs=1e-6)

    def test_noisy_half_rate(self):
        rng = rng_stream(0, 1)
        n = np.logspace(1, 4, 12)
        errors = 3.0 * n**-0.5 * (1.0 + 0.05 * rng.standard_normal(len(n)))
        assert estimate_rate(n, errors) == pytest.approx(0.5, abs=0.1)

    def test_flat_errors(self):
        n = np.logspace(1, 3, 8)
        assert estimate_rate(n, np.full(len(n), 0.2)) == pytest.approx(0.0, abs=1e-9)

    def test_insufficient_checkpoints(self):
        with pytest.raises(ValueError):
            estimate_rate([10, 100, 1000], [1, 0.1, 0.01])

    def test_insufficient_span(self):
        with pytest.raises(ValueError):
            estimate_rate([10, 12, 14, 16, 18], [1, 1, 1, 1, 1])

    def test_zero_errors_have_no_rate(self):
        n = np.logspace(1, 3, 6)
        with pytest.raises(ValueError, match="every error is 0"):
            estimate_rate(n, np.zeros(len(n)))
        with pytest.raises(ValueError, match="only 1 of the 6 errors is positive"):
            estimate_rate(n, np.r_[1e-3, np.zeros(len(n) - 1)])

    def test_non_finite_errors_have_no_rate(self):
        n = np.logspace(1, 3, 6)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="2 of the 6 errors are not finite"):
                estimate_rate(n, np.r_[1.0, 0.5, 0.2, 0.1, bad, bad])

    def test_trailing_window_log_midpoint(self):
        n = np.logspace(1, 3, 9)
        mask = trailing_window(n)
        assert mask.sum() == 5
        assert np.all(n[mask] >= 100.0 - 1e-9)


def test_point_ladder():
    assert point_ladder(10, 100) == [10, 20, 50, 100]
    assert point_ladder(10, 130) == [10, 20, 50, 100, 130]
    assert point_ladder(30, 2000) == [50, 100, 200, 500, 1000, 2000]


class TestConfig:
    def test_json_roundtrip(self):
        cfg = ExperimentConfig.darcy_default(seed=3, max_points=777)
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg
        keys = json.loads(cfg.to_json())
        for name in ("alpha", "beta", "gamma", "kappa", "sigma", "mesh_exp",
                     "obs_count", "seed"):
            assert name in keys

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(problem="heat")
        with pytest.raises(ValueError):
            ExperimentConfig(mode="map")
        with pytest.raises(ValueError):
            ExperimentConfig(construction="greedy")
        with pytest.raises(ValueError):
            ExperimentConfig(sigma=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(alpha=3)
        with pytest.raises(ValueError):
            ExperimentConfig(mesh_exp=2)
        for budget in (0, -5):
            with pytest.raises(ValueError, match="max_points"):
                ExperimentConfig(max_points=budget)
            with pytest.raises(ValueError, match="max_indices"):
                ExperimentConfig(max_indices=budget)
        with pytest.raises(ValueError, match="max_indices"):
            ExperimentConfig.from_json('{"problem": "linear", "max_indices": 0}')
        for text, kind in (("[]", "list"), ("null", "NoneType"), ("3", "int"), ('"x"', "str")):
            with pytest.raises(ValueError, match=f"must be a JSON object, not {kind}$"):
                ExperimentConfig.from_json(text)
        for dims in (0, -3):
            with pytest.raises(ValueError, match="kl_dims"):
                ExperimentConfig(kl_dims=dims)
        # kl_dims up to the parameter dimension: the 7 interior nodes of a
        # linear mesh_exp 3 mesh, all 9 of its nodes for Darcy
        assert ExperimentConfig(mesh_exp=3, kl_dims=7).kl_dims == 7
        assert ExperimentConfig.darcy_default(mesh_exp=3, kl_dims=9).kl_dims == 9
        with pytest.raises(ValueError, match="kl_dims must be in 1..7"):
            ExperimentConfig(mesh_exp=3, kl_dims=8)
        with pytest.raises(ValueError, match="kl_dims must be in 1..9"):
            ExperimentConfig.darcy_default(mesh_exp=3, kl_dims=10)
        with pytest.raises(ValueError, match="kl_dims"):
            ExperimentConfig.from_json('{"problem": "darcy", "mesh_exp": 3, "kl_dims": 10}')
        # a linear config refuses the fields only the Darcy problem reads, and
        # the defaults to_json writes still load
        for name, val in (("gamma", 7.0), ("kappa", 3.0), ("obs_count", 2)):
            with pytest.raises(ValueError, match=f"{name} applies to the darcy problem only"):
                ExperimentConfig(**{name: val})
            with pytest.raises(ValueError, match=name):
                ExperimentConfig.from_json(json.dumps({"problem": "linear", name: val}))
        linear = ExperimentConfig.linear_default(seed=4)
        assert ExperimentConfig.from_json(linear.to_json()) == linear
        assert ExperimentConfig.darcy_default(obs_count=2).obs_count == 2
        # out-of-range and non-integer values are refused by name
        for name, val in (("obs_count", 0), ("kappa", -1), ("mesh_exp", 6.5),
                          ("seed", -1), ("max_indices", 50.5)):
            with pytest.raises(ValueError, match=name):
                ExperimentConfig.darcy_default(**{name: val})
        with pytest.raises(ValueError, match="max_indices must be a whole number"):
            ExperimentConfig.from_json('{"problem": "linear", "max_indices": 50.5}')
        # float fields must be finite real numbers (booleans refused), beta
        # positive, and tolerance null or positive
        for text, name in (('{"sigma": "0.1"}', "sigma"), ('{"kappa": "5"}', "kappa"),
                           ('{"beta": "2"}', "beta"), ('{"beta": true}', "beta"),
                           ('{"sigma": NaN}', "sigma"), ('{"seed": true}', "seed"),
                           ('{"tolerance": "x"}', "tolerance"),
                           ('{"tolerance": -1}', "tolerance"), ('{"tolerance": 0}', "tolerance"),
                           ('{"beta": 0}', "beta"), ('{"beta": -2}', "beta")):
            with pytest.raises(ValueError, match=name):
                ExperimentConfig.from_json(text, "darcy")
        with pytest.raises(ValueError, match="beta"):
            ExperimentConfig(beta=0.0)
        # whole-valued JSON numbers load as floats in float fields
        cfg = ExperimentConfig.from_json('{"beta": 2, "sigma": 1, "tolerance": 1}', "darcy")
        assert (cfg.beta, cfg.sigma, cfg.tolerance) == (2.0, 1.0, 1.0)
        assert type(cfg.beta) is float and type(cfg.tolerance) is float
        # whole-valued JSON floats load as ints
        cfg = ExperimentConfig.from_json('{"mesh_exp": 6.0, "kl_dims": 20.0}', "darcy")
        assert (cfg.mesh_exp, cfg.kl_dims) == (6, 20)
        assert type(cfg.mesh_exp) is int and type(cfg.kl_dims) is int
        # each problem takes only the QoIs it defines
        assert ExperimentConfig.darcy_default().qoi == "u_center"
        for problem, qoi in (("linear", "u_center"), ("darcy", "q1"), ("darcy", "q2")):
            with pytest.raises(ValueError, match="qoi"):
                ExperimentConfig.from_json(json.dumps({"problem": problem, "qoi": qoi}))

    def test_darcy_json_takes_darcy_defaults(self):
        cfg = ExperimentConfig.from_json('{"problem": "darcy", "mesh_exp": 4, "kl_dims": 5}')
        assert cfg == ExperimentConfig.darcy_default(mesh_exp=4, kl_dims=5)
        darcy = ExperimentConfig.from_json('{"kl_dims": 5}', "darcy")
        assert darcy == ExperimentConfig.darcy_default(kl_dims=5)
        assert ExperimentConfig.from_json('{"kl_dims": 5}') == ExperimentConfig(kl_dims=5)


def test_convergence_record_csv_roundtrip():
    rec = ConvergenceRecord(
        checkpoints=[
            Checkpoint(10, 3, (1.5, 2.5), (0.1, 0.2), (0.05, 0.08)),
            Checkpoint(100, 9, (1.55, 2.45), (0.01, 0.02), (0.005, 0.008)),
        ],
        rates=(1.0, 1.0),
        reference=(1.56, 2.43),
    )
    rows = list(csv.DictReader(io.StringIO(rec.to_csv())))
    back = [
        Checkpoint(
            int(row["n_points"]), int(row["n_indices"]),
            *(tuple(float(row[f"{col}_{i}"]) for i in range(2))
              for col in ("value", "abs_error", "rel_error")),
        )
        for row in rows
    ]
    assert back == rec.checkpoints


def _reference_setup(problem, map_point, pairs):
    """The parts of a linear ``Setup`` that ``linear_reference`` reads."""
    return SimpleNamespace(
        problem=problem,
        map_result=SimpleNamespace(map_point=map_point),
        posterior_field=SimpleNamespace(pairs=pairs),
    )


class TestReferences:
    def test_q1_lognormal_half_factor_oracle(self):
        # single-mode 1D Gaussian-integral oracle resolves the half factor:
        # E[exp(b + sqrt(v) xi)] = exp(b + v/2)
        class FakeProblem:
            def linear_functional(self, kind):
                e = np.zeros(4)
                e[1] = 1.0
                return e

        vecs = np.zeros((4, 1))
        vecs[1, 0] = 0.8
        pairs = EigenPairs(values=np.array([0.5]), vectors=vecs)
        m1 = np.array([0.0, 0.3, 0.0, 0.0])
        got = linear_reference(_reference_setup(FakeProblem(), m1, pairs), "q1")
        rule = hermite_rule(40)
        v = 0.5 * 0.8**2
        oracle = float(
            np.dot(rule.weights, np.exp(0.3 + math.sqrt(v) * rule.nodes))
        )
        assert oracle == pytest.approx(math.exp(0.3 + v / 2), rel=1e-12)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_q1_overflow_is_refused_by_name(self):
        # exp(mean + var/2) overflows past log(DBL_MAX) = 709.78: the
        # reference is refused with its exponent, not a bare math range error
        class FakeProblem:
            def linear_functional(self, kind):
                return np.ones(1)

        pairs = EigenPairs(values=np.array([1400.0]), vectors=np.ones((1, 1)))
        setup = _reference_setup(FakeProblem(), np.array([10.0]), pairs)
        with pytest.raises(ValueError, match=r"Q1 reference .* exponent is 710$"):
            linear_reference(setup, "q1")
        assert linear_reference(setup, "q2") == 1500.0

    def test_q2_degenerate_covariance(self):
        # C1 = 0: the symmetric constant-load solution has u'(0.5) = 0
        from hessquad.inverse_problem import LinearPoissonProblem
        from hessquad.fem1d import Mesh1D

        mesh = Mesh1D.from_exponent(5)
        p = LinearPoissonProblem(mesh, 1, 5e-2, 1e-2,
                                 y=np.zeros(mesh.n_interior))
        pairs = EigenPairs(values=np.zeros(1),
                           vectors=np.zeros((mesh.n_interior, 1)))
        m1 = np.ones(mesh.n_interior)  # constant source: u = x(1-x)/2
        setup = _reference_setup(p, m1, pairs)
        assert linear_reference(setup, "q2") == pytest.approx(0.0, abs=1e-18)

    def test_q2_psd_lower_bound(self):
        from hessquad.inverse_problem import LinearPoissonProblem
        from hessquad.fem1d import Mesh1D

        mesh = Mesh1D.from_exponent(5)
        p = LinearPoissonProblem(mesh, 1, 5e-2, 1e-2,
                                 y=np.zeros(mesh.n_interior))
        pairs = p.prior_pairs(8)
        rng = rng_stream(2, 2)
        m1 = rng.standard_normal(mesh.n_interior)
        w = p.linear_functional("q2")
        assert linear_reference(_reference_setup(p, m1, pairs), "q2") >= float(w @ m1) ** 2


@pytest.fixture(scope="module")
def small_linear_setup():
    return linear_setup(ExperimentConfig.linear_default(mesh_exp=6, seed=0))


class TestLinearIntegrands:
    def test_fast_paths_match_generic(self, small_linear_setup):
        # the Hessian path's closed form against the QoI at the KL map
        s = small_linear_setup
        rng = rng_stream(4, 4)
        for qoi in ("q1", "q2"):
            fast_g = linear_gaussian_integrand(s, qoi)
            q = s.problem.qoi(qoi)
            for _ in range(15):
                xi = {int(j): float(rng.standard_normal())
                      for j in rng.integers(1, 30, 3)}
                (a,), b = fast_g.fn([xi]), q(kl_map(s.posterior_field, xi))
                assert type(a) is float
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_one_call_per_step_that_adds_points(self, small_linear_setup, monkeypatch):
        # the linear Hessian-path integrand takes each tensor_deltas' missing
        # points in one call, like the Darcy ones
        g = linear_gaussian_integrand(small_linear_setup, "q1")
        calls, fills = [], []

        def fn(points):
            calls.append(len(points))
            return g.fn(points)

        tensor_deltas = sparse_quad.tensor_deltas

        def counted(nus, cache):
            points, n_calls = cache.n_points, len(calls)
            out = tensor_deltas(nus, cache)
            fills.append((cache.n_points - points, len(calls) - n_calls))
            return out

        monkeypatch.setattr(sparse_quad, "tensor_deltas", counted)
        res = sparse_quad.adapt(replace(g, fn=fn), cfg=sparse_quad.AdaptConfig(max_points=400))
        assert len(fills) > 10 and sum(calls) == res.n_points
        assert all(n_calls == (added > 0) for added, n_calls in fills)

    @pytest.mark.parametrize("qoi", ["q1", "q2"])
    @pytest.mark.parametrize("dim", [0, 9])
    def test_refuses_a_coordinate_outside_the_truncation(self, qoi, dim):
        # as kl_map refuses it: dimension 0 must not read coefs[-1], the
        # coefficient of dimension 8, and dimension 9 must not index past it
        s = linear_setup(ExperimentConfig.linear_default(mesh_exp=5, seed=0, kl_dims=8))
        g = linear_gaussian_integrand(s, qoi)
        with pytest.raises(ValueError, match=f"coordinate dimension {dim} outside truncation 8"):
            g.fn([{8: 1.0}, {dim: 1.0}])

    def test_functional_coefficients_affine(self, small_linear_setup):
        s = small_linear_setup
        w = s.problem.linear_functional("q2")
        base, coefs = functional_coefficients(s.posterior_field, w)
        xi = {2: 0.7, 5: -1.1}
        direct = float(w @ kl_map(s.posterior_field, xi))
        affine = base + coefs[1] * 0.7 + coefs[4] * (-1.1)
        assert affine == pytest.approx(direct, rel=1e-10)


class TestRunLinear:
    def test_small_end_to_end(self):
        cfg = ExperimentConfig.linear_default(
            mesh_exp=6, seed=0, max_points=2000, qoi="q1"
        )
        out = run_linear(cfg)
        rec = out.record
        assert len(rec.checkpoints) >= 5
        assert rec.checkpoints[-1].abs_error[0] < rec.checkpoints[0].abs_error[0]
        assert out.summary["stopped_on"] in ("max_points", "max_indices")
        assert math.isfinite(rec.rates[0])

    def test_bit_reproducible(self):
        cfg = ExperimentConfig.linear_default(mesh_exp=6, seed=5, max_points=800)
        a, b = run_linear(cfg), run_linear(cfg)
        assert a.reference == b.reference
        assert a.estimate == b.estimate
        assert [r.value for r in a.quadrature.trace] == [
            r.value for r in b.quadrature.trace
        ]

    def test_prior_mode_worse_than_hessian(self):
        base = dict(mesh_exp=6, seed=0, max_points=2000, qoi="q1")
        hess = run_linear(ExperimentConfig.linear_default(mode="hessian", **base))
        prior = run_linear(ExperimentConfig.linear_default(mode="prior", **base))
        assert (
            prior.record.checkpoints[-1].abs_error[0]
            > hess.record.checkpoints[-1].abs_error[0]
        )

    def test_underflowed_weight_integral_says_why_there_is_no_rate(self):
        # at this sigma the prior path's weight integral underflows to 0, so
        # every estimate Zq/Z, and so every error, is inf
        cfg = ExperimentConfig.linear_default(
            mesh_exp=6, seed=0, max_points=2000, mode="prior", sigma=1e-4
        )
        out = run_linear(cfg)
        assert all(math.isinf(c.abs_error[0]) for c in out.record.checkpoints)
        assert out.summary["rates"] == [None]
        assert "errors are not finite" in out.summary["rate_notes"][0]

    def test_dispatch(self):
        cfg = ExperimentConfig.linear_default(mesh_exp=6, seed=0, max_points=300)
        out = run_convergence(cfg)
        assert out.record.label.startswith("linear")

    def test_apriori_construction_converges_too(self):
        # the closed-form priority coefficient drives a data-independent but
        # still convergent set (weaker than the indicator-driven one)
        cfg = ExperimentConfig.linear_default(
            mesh_exp=7, seed=0, max_points=5000, qoi="q1",
            construction="apriori",
        )
        setup = linear_setup(cfg)
        out = run_linear(cfg, setup)
        post = run_linear(
            ExperimentConfig.linear_default(
                mesh_exp=7, seed=0, max_points=5000, qoi="q1",
                construction="aposteriori",
            ),
            setup,
        )
        assert out.record.rates[0] > 0.2
        errs = [c.abs_error[0] for c in out.record.checkpoints]
        assert errs[-1] < 0.2 * errs[0]
        # a posteriori reaches at least comparable accuracy at equal budget
        assert post.record.checkpoints[-1].abs_error[0] <= 3 * errs[-1]

    def test_zero_coupling_dimensions_stay_at_level_zero(self):
        # Q1 does not depend on KL modes whose eigenvector vanishes at the
        # center node; those dimensions are pended but never enriched
        cfg = ExperimentConfig.linear_default(
            mesh_exp=7, seed=0, max_points=4000, qoi="q1"
        )
        setup = linear_setup(cfg)
        out = run_linear(cfg, setup)
        base, coefs = functional_coefficients(
            setup.posterior_field, setup.problem.linear_functional("q1")
        )
        levels = {}
        for nu in out.quadrature.index_set:
            for j, v in nu.entries:
                levels[j] = max(levels.get(j, 0), v)
        dead = [j for j, c in enumerate(coefs, start=1) if c == 0.0]
        assert dead, "expected zero-coupling dimensions in the rearrangement"
        assert all(levels.get(j, 0) == 0 for j in dead)
        live_enriched = [j for j, lv in levels.items() if lv >= 2]
        assert live_enriched, "informative dimensions should be refined deeper"


class TestRunDarcy:
    def test_small_end_to_end(self):
        cfg = ExperimentConfig.darcy_default(
            mesh_exp=6, seed=0, max_points=3000, kl_dims=40
        )
        out = run_darcy(cfg)
        rec = out.record
        assert len(rec.checkpoints) >= 5
        assert all(math.isfinite(v) for v in out.reference)
        assert out.summary["posterior_mean_qoi"] == pytest.approx(
            out.reference[1] / out.reference[0]
        )
        # self-convergence protocol: checkpoints stop at a tenth of the budget
        assert rec.checkpoints[-1].n_points <= cfg.max_points // 10

    def test_bit_reproducible(self):
        cfg = ExperimentConfig.darcy_default(
            mesh_exp=6, seed=2, max_points=1500, kl_dims=30
        )
        a, b = run_darcy(cfg), run_darcy(cfg)
        assert a.reference == b.reference
        np.testing.assert_array_equal(a.spectrum, b.spectrum)


class TestDarcySetup:
    def test_setup_computes_only_the_spectrum_its_mode_reads(self, monkeypatch):
        calls = []
        for owner, name in ((DarcyProblem, "prior_pairs"),
                            (BayesProblem, "posterior_eigen"),
                            (BayesProblem, "find_map")):
            def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        def setup(mode):
            cfg = ExperimentConfig.darcy_default(mesh_exp=6, seed=0, kl_dims=12, mode=mode)
            return darcy_setup(cfg)

        prior = setup("prior")
        assert calls == ["prior_pairs"]  # no MAP solve
        hessian = setup("hessian")
        assert calls == ["prior_pairs", "find_map", "posterior_eigen"]
        # the other field is computed on first read, once, and equals the
        # one the other mode computes in its setup; the prior setup solves
        # its MAP point then, once, to the same bits
        lazy_posterior = prior.posterior_field
        lazy_prior = hessian.prior_field
        assert prior.posterior_field is lazy_posterior
        assert hessian.prior_field is lazy_prior
        assert prior.map_result is prior.map_result
        assert calls == ["prior_pairs", "find_map", "posterior_eigen",
                         "find_map", "posterior_eigen", "prior_pairs"]
        assert prior.map_result.cost_at_map == hessian.map_result.cost_at_map
        np.testing.assert_array_equal(prior.map_result.map_point,
                                      hessian.map_result.map_point)
        for a, b in ((lazy_posterior, hessian.posterior_field),
                     (lazy_prior, prior.prior_field)):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.pairs.values, b.pairs.values)
            np.testing.assert_array_equal(a.pairs.vectors, b.pairs.vectors)

    @staticmethod
    def _unconverged_map(monkeypatch):
        find_map = BayesProblem.find_map
        monkeypatch.setattr(BayesProblem, "find_map", lambda self, *args, **kwargs:
                            replace(find_map(self, *args, **kwargs), converged=False))

    def test_a_prior_setup_does_not_depend_on_the_map_solve(self, monkeypatch):
        # a prior-mode run reads no MAP point, so a MAP solve that does not
        # converge refuses only the reads that need it
        self._unconverged_map(monkeypatch)
        setup = darcy_setup(
            ExperimentConfig.darcy_default(mesh_exp=6, seed=0, kl_dims=12, mode="prior")
        )
        for name in ("map_result", "posterior_field"):
            with pytest.raises(RuntimeError, match="MAP solve did not converge"):
                getattr(setup, name)

    def test_a_map_solve_that_does_not_converge_raises_on_first_read(self, monkeypatch):
        self._unconverged_map(monkeypatch)
        with pytest.raises(RuntimeError, match="MAP solve did not converge"):
            darcy_setup(ExperimentConfig.darcy_default(mesh_exp=6, seed=0, kl_dims=12))

    def test_a_map_solve_that_leaves_the_domain_does_not_converge(self):
        # at this config the Newton steps run out of the range of exp(m)
        # (19 of 97 trial points refused, measured): the solve backs off
        # from them and ends unconverged, which the setup reports by phase
        cfg = ExperimentConfig.darcy_default(mesh_exp=6, sigma=3.8e-5, beta=1.6e-4,
                                             seed=0, obs_count=48, kl_dims=12)
        with pytest.raises(RuntimeError, match="^MAP solve did not converge$"):
            darcy_setup(cfg)

    @pytest.mark.parametrize("mode, owner, name, phase", [
        ("hessian", BayesProblem, "find_map", "MAP solve"),
        ("prior", DarcyProblem, "prior_pairs", "prior eigensolve"),
        ("hessian", BayesProblem, "posterior_eigen", "posterior eigensolve"),
    ])
    def test_a_setup_error_names_its_phase(self, monkeypatch, mode, owner, name, phase):
        # the error is raised again with its type, the phase leading its
        # message and the original chained
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("operator is not positive definite")

        monkeypatch.setattr(owner, name, fail)
        cfg = ExperimentConfig.darcy_default(mesh_exp=6, seed=0, kl_dims=12, mode=mode)
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"^{phase}: operator is not positive definite$") as err:
            darcy_setup(cfg)
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


class TestMcBaseline:
    def test_rate_and_reproducibility(self):
        cfg = ExperimentConfig.linear_default(
            mesh_exp=6, seed=0, max_points=10_000, qoi="q1"
        )
        setup = linear_setup(cfg)
        rec = mc_baseline(cfg, n_trials=40, setup=setup)
        assert rec.rates[0] == pytest.approx(0.5, abs=0.15)
        rec2 = mc_baseline(cfg, n_trials=40, setup=setup)
        assert rec.checkpoints == rec2.checkpoints

    def test_errors_positive_and_shrinking(self):
        cfg = ExperimentConfig.linear_default(
            mesh_exp=6, seed=1, max_points=10_000, qoi="q2"
        )
        rec = mc_baseline(cfg, n_trials=30)
        errs = np.array([c.abs_error[0] for c in rec.checkpoints])
        assert np.all(errs > 0)
        assert errs[-1] < errs[0]

    def test_rejects_darcy(self):
        with pytest.raises(ValueError):
            mc_baseline(ExperimentConfig.darcy_default(mesh_exp=6))


class TestAnchoredMarginals:
    def test_prior_parametrization_identities(self, small_linear_setup):
        from hessquad.experiments import anchored_marginal_csv, anchored_marginal_grid

        s = small_linear_setup
        coords = np.linspace(-3, 3, 13)
        grid = anchored_marginal_grid(s.problem, s.prior_field, (1,), coords)
        # under the prior parametrization the prior density IS the reference
        # Gaussian (KL coordinates are whitened)
        np.testing.assert_allclose(grid["prior"], grid["reference"], atol=1e-10)
        assert grid["posterior"].max() == pytest.approx(1.0)
        text = anchored_marginal_csv(s.problem, s.prior_field, (1,), coords)
        assert text.splitlines()[0] == "xi_1,reference,prior,posterior"
        assert len(text.strip().splitlines()) == 14

    def test_hessian_parametrization_posterior_is_gaussian(self, small_linear_setup):
        from hessquad.experiments import anchored_marginal_grid

        s = small_linear_setup
        coords = np.linspace(-3, 3, 9)
        grid = anchored_marginal_grid(
            s.problem, s.posterior_field, (2,), coords
        )
        # exact posterior parametrization on a linear problem: the posterior
        # marginal is the reference Gaussian itself
        np.testing.assert_allclose(grid["posterior"], grid["reference"],
                                   atol=1e-9)

    def test_two_dimensional_grid(self, small_linear_setup):
        from hessquad.experiments import anchored_marginal_grid

        s = small_linear_setup
        coords = np.linspace(-2, 2, 5)
        grid = anchored_marginal_grid(s.problem, s.prior_field, (1, 2), coords)
        assert len(grid["posterior"]) == 25
        assert set(grid) == {"xi_1", "xi_2", "reference", "prior", "posterior"}
        with pytest.raises(ValueError):
            anchored_marginal_grid(s.problem, s.prior_field, (1, 2, 3), coords)


@pytest.mark.parametrize("counts, cap, expected", [
    # budgets 10, 20, 30: the last step at each repeated count
    ([1, 5, 5, 12, 12, 12, 30], 30, [(5, 2), (12, 5), (30, 6)]),
    # budgets 10, 20, 25: budget 20 picks step 2 again and adds nothing
    ([1, 5, 5, 25], 25, [(5, 2), (25, 3)]),
])
def test_checkpoints_at_repeated_point_counts(counts, cap, expected):
    trace = [sparse_quad.TraceRecord(step, None, 0.0, step, n, (float(step),))
             for step, n in enumerate(counts)]
    cps = _checkpoints_from_trace(trace, [rec.value for rec in trace], (0.0,), cap)
    assert [(c.n_points, c.n_indices) for c in cps] == expected
    assert [c.value for c in cps] == [(float(step),) for _, step in expected]


def test_fitted_rate_uses_trailing_window():
    cps = [
        Checkpoint(int(n), 1, (0.0,), (float(e),), (float(e),))
        for n, e in zip(
            np.logspace(1, 4, 10), np.r_[np.full(5, 1.0), np.logspace(0, -2, 5)]
        )
    ]
    rec = _convergence_record(cps, (0.0,), "")
    assert rec.rates[0] > 0.5
    assert rec.rate_notes == (None,)


def test_unfitted_rate_is_nan_with_its_reason():
    # a run whose estimate equals its reference at every checkpoint (the
    # Darcy prior path's self-reference) and a run too short to fit
    flat = [Checkpoint(n, 1, (0.0, 0.0), (0.0, 1.0 / n), (0.0, 0.0))
            for n in (10, 20, 50, 100, 200, 500, 1000)]
    rec = _convergence_record(flat, (0.0, 0.0), "")
    assert math.isnan(rec.rates[0])
    assert rec.rate_notes[0].startswith("every error is 0")
    assert rec.rates[1] == pytest.approx(1.0) and rec.rate_notes[1] is None
    # one positive error, then exact zeros (the Darcy prior path stalling
    # after its first checkpoint in the window): flooring would fit a flat line
    stalled = [Checkpoint(n, 1, (0.0,), (1.4e-19 if n == 100 else 0.0,), (0.0,))
               for n in (10, 20, 50, 100, 200, 500, 1000)]
    rec = _convergence_record(stalled, (0.0,), "")
    assert math.isnan(rec.rates[0])
    assert rec.rate_notes[0].startswith("only 1 of the 5 errors is positive")
    short = _convergence_record(flat[:3], (0.0, 0.0), "")
    assert all(math.isnan(r) for r in short.rates)
    assert all("at least 5 checkpoints" in note for note in short.rate_notes)
