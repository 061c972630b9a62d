import csv
import gc
import io
import itertools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessquad import experiments, sparse_quad
from hessquad.experiments import ExperimentConfig, run_darcy, run_linear
from hessquad.multiindex import ZERO_INDEX, BNuConfig, IndexSet, MultiIndex
from hessquad.quad1d import MAX_LEVEL, difference_rule, hermite_rule
from hessquad.sparse_quad import (
    TIE_FLOOR,
    AdaptConfig,
    Construction,
    Integrand,
    IntegrandError,
    PointCache,
    _Candidates,
    _Frontier,
    _indicator,
    adapt,
    evaluate,
    tensor_deltas,
    trace_to_csv,
)

DATA = Path(__file__).parent / "data"


def idx(*pairs):
    return MultiIndex(pairs)


def integrand(fn, n_outputs=1, dim_hint=None, calls=None):
    """The integrand of ``fn``, which maps one point to its output: a list
    of points maps to the list of their values, and each list is recorded
    in ``calls`` when given."""

    def batch_fn(points):
        if calls is not None:
            calls.append([dict(p) for p in points])
        return [fn(p) for p in points]

    return Integrand(fn=batch_fn, n_outputs=n_outputs, dim_hint=dim_hint)


def grid_size(nu):
    """Number of nodes of the tensor difference grid of ``nu``."""
    n = 1
    for _, level in nu.entries:
        n *= len(difference_rule(level).nodes)
    return n


def tensor_rule_oracle(levels, g):
    """Oracle: direct tensor Gauss-Hermite rule over the given levels."""
    rules = [hermite_rule(l) for l in levels]
    total = 0.0
    for combo in itertools.product(*(range(len(r.nodes)) for r in rules)):
        w = 1.0
        x = []
        for r, k in zip(rules, combo):
            w *= r.weights[k]
            x.append(r.nodes[k])
        total += w * g(x)
    return total


def delta_oracle(levels, g):
    """Oracle: expand the tensor difference as the signed sum of tensor
    rules over all lower-level corners (inclusion-exclusion)."""
    total = 0.0
    for drops in itertools.product(*((0, 1) for _ in levels)):
        sub = [l - d for l, d in zip(levels, drops)]
        if any(s < -1 for s in sub):
            continue
        if any(s == -1 for s in sub):
            continue  # Q_{-1} = 0 contributes nothing
        total += (-1) ** sum(drops) * tensor_rule_oracle(sub, g)
    return total


class TestTensorDelta:
    def test_zero_index_constant(self):
        g = integrand(lambda xi: 3.5)
        out = tensor_deltas([ZERO_INDEX], PointCache(g))[0]
        assert out[0] == pytest.approx(3.5)

    def test_product_bilinear_vanishes(self):
        # Delta_1 applied to the identity is 0 in each factor, so the
        # product xi1 * xi2 integrates to exactly 0 (oracle agrees)
        g_fn = lambda xi: xi.get(1, 0.0) * xi.get(2, 0.0)
        g = integrand(g_fn)
        out = tensor_deltas([idx((1, 1), (2, 1))], PointCache(g))[0]
        oracle = delta_oracle([1, 1], lambda x: x[0] * x[1])
        assert oracle == pytest.approx(0.0, abs=1e-14)
        assert out[0] == pytest.approx(oracle, abs=1e-14)

    def test_product_of_squares(self):
        # (Delta_1 xi^2)^2 = 1: the separable square product
        g_fn = lambda xi: (xi.get(1, 0.0) ** 2) * (xi.get(2, 0.0) ** 2)
        g = integrand(g_fn)
        out = tensor_deltas([idx((1, 1), (2, 1))], PointCache(g))[0]
        oracle = delta_oracle([1, 1], lambda x: x[0] ** 2 * x[1] ** 2)
        assert oracle == pytest.approx(1.0)
        assert out[0] == pytest.approx(oracle)

    def test_telescoping_square(self):
        g = integrand(lambda xi: xi.get(1, 0.0) ** 2)
        out = tensor_deltas([idx((1, 2))], PointCache(g))[0]
        assert abs(out[0]) <= 1e-13

    @pytest.mark.parametrize("levels", [(2,), (1, 2), (2, 1, 1)])
    def test_matches_inclusion_exclusion_oracle(self, levels):
        rng = np.random.default_rng(42)
        coef = rng.standard_normal((len(levels), 4))

        def poly(x):
            return float(
                np.prod([sum(c * xi**k for k, c in enumerate(row))
                         for row, xi in zip(coef, x)])
            )

        g = integrand(lambda xi: poly([xi.get(j + 1, 0.0) for j in range(len(levels))]))
        nu = MultiIndex([(j + 1, l) for j, l in enumerate(levels)])
        out = tensor_deltas([nu], PointCache(g))[0]
        assert out[0] == pytest.approx(delta_oracle(list(levels), poly), abs=1e-12)

    def test_grid_size(self):
        assert grid_size(ZERO_INDEX) == 1
        assert grid_size(idx((1, 2))) == 5
        assert grid_size(idx((1, 1), (3, 2))) == 15


def full_box(levels_per_dim):
    members = []
    ranges = [range(l + 1) for l in levels_per_dim]
    for combo in itertools.product(*ranges):
        members.append(MultiIndex([(j + 1, l) for j, l in enumerate(combo) if l]))
    return IndexSet(members)


class TestEvaluate:
    def test_constant(self):
        g = integrand(lambda xi: 2.25)
        res = evaluate(IndexSet(), g)
        assert res.value[0] == pytest.approx(2.25)
        assert res.n_points == 1

    @pytest.mark.parametrize("levels", [(3,), (2, 2), (4, 3), (2, 2, 2)])
    def test_full_box_equals_tensor_rule(self, levels):
        # sparse-tensor equivalence on random polynomials of exactly
        # integrable degree
        rng = np.random.default_rng(5)
        coef = [rng.standard_normal(2 * l + 2) for l in levels]

        def poly(x):
            return float(
                np.prod([sum(c * xi**k for k, c in enumerate(cs))
                         for cs, xi in zip(coef, x)])
            )

        g = integrand(lambda xi: poly([xi.get(j + 1, 0.0) for j in range(len(levels))]))
        res = evaluate(full_box(levels), g)
        oracle = tensor_rule_oracle(list(levels), poly)
        assert res.value[0] == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_total_degree_simplex(self):
        members = [
            MultiIndex([(j + 1, l) for j, l in enumerate(ls) if l])
            for ls in itertools.product(range(3), repeat=3)
            if sum(ls) <= 2
        ]
        g = integrand(
            lambda xi: xi.get(1, 0.0) ** 2 + xi.get(2, 0.0) * xi.get(3, 0.0)
        )
        res = evaluate(IndexSet(members), g)
        # E[xi1^2] = 1, E[xi2 xi3] = 0; brute-force sum of deltas agrees
        brute = sum(
            delta_oracle(
                [nu.level(1), nu.level(2), nu.level(3)],
                lambda x: x[0] ** 2 + x[1] * x[2],
            )
            for nu in members
        )
        assert brute == pytest.approx(1.0, abs=1e-13)
        assert res.value[0] == pytest.approx(1.0, abs=1e-12)

    def test_order_invariance(self):
        rng = np.random.default_rng(11)
        members = list(full_box((2, 2)))
        g_fn = lambda xi: math.exp(
            0.3 * xi.get(1, 0.0) - 0.2 * xi.get(2, 0.0)
        )
        vals = []
        for _ in range(3):
            rng.shuffle(members)
            res = evaluate(IndexSet(members), integrand(g_fn))
            vals.append(res.value[0])
        assert vals[0] == vals[1] == vals[2]

    def test_cache_coherence(self):
        calls = []

        def g_fn(xi):
            calls.append(dict(xi))
            return xi.get(1, 0.0) + xi.get(2, 0.0)

        g = integrand(g_fn)
        res = evaluate(full_box((3, 3)), g)
        assert len(calls) == res.n_points


class TestAdapt:
    def test_square_terminates_after_level_one(self):
        g = integrand(lambda xi: xi.get(1, 0.0) ** 2)
        res = adapt(g, Construction.APOSTERIORI, AdaptConfig(tolerance=1e-12))
        assert res.value[0] == pytest.approx(1.0)
        assert res.converged
        members = res.index_set.sorted_members()
        assert members == [ZERO_INDEX, idx((1, 1))]

    def test_constant_stops_after_first_sweep(self):
        g = integrand(lambda xi: -1.75)
        res = adapt(g, Construction.APOSTERIORI, AdaptConfig(tolerance=1e-12))
        assert res.value[0] == pytest.approx(-1.75)
        assert res.index_set.sorted_members() == [ZERO_INDEX]
        assert res.n_points == 3  # zero index plus the level-1 sweep in dim 1

    @pytest.mark.parametrize("mode", [Construction.APOSTERIORI, Construction.APRIORI])
    def test_separable_exponential(self, mode):
        cs = [0.8, 0.5, 0.3]
        g = integrand(
            lambda xi: math.exp(sum(cs[j - 1] * x for j, x in xi.items())),
            dim_hint=3,
        )
        truth = math.exp(sum(c * c / 2 for c in cs))
        res = adapt(g, mode, AdaptConfig(tolerance=1e-10))
        assert res.converged
        assert res.value[0] == pytest.approx(truth, abs=5e-9)

    def test_budget_stop_not_converged_with_tolerance(self):
        g = integrand(lambda xi: math.exp(xi.get(1, 0.0)), dim_hint=1)
        res = adapt(
            g, Construction.APOSTERIORI,
            AdaptConfig(tolerance=1e-14, max_indices=3),
        )
        assert not res.converged
        assert res.stopped_on == "max_indices"

    def test_level_cap_is_a_stop_reason(self):
        g = integrand(lambda xi: math.exp(xi.get(1, 0.0)), dim_hint=1)
        res = adapt(g, Construction.APOSTERIORI, AdaptConfig())
        assert res.stopped_on == "max_level"
        assert not res.converged
        assert res.index_set.sorted_members()[-1] == idx((1, MAX_LEVEL))

    def test_budget_mode_converged_flag(self):
        g = integrand(lambda xi: math.exp(xi.get(1, 0.0)), dim_hint=1)
        res = adapt(
            g, Construction.APOSTERIORI, AdaptConfig(tolerance=None, max_indices=5)
        )
        assert res.converged  # no tolerance requested: budget stop is success

    def test_apriori_budget_skips_neighbor_evaluations(self):
        seen = []

        def g_fn(xi):
            seen.append(dict(xi))
            return math.exp(0.5 * xi.get(1, 0.0) + 0.25 * xi.get(2, 0.0))

        g = integrand(g_fn, dim_hint=2)
        res = adapt(
            g, Construction.APRIORI,
            AdaptConfig(tolerance=None, max_indices=6, bnu=BNuConfig()),
        )
        # lazy evaluation: every cached point belongs to an adopted index grid
        total_grid = sum(grid_size(nu) for nu in res.index_set)
        assert res.n_points <= total_grid
        assert len(seen) == res.n_points

    def test_trace_monotone_points(self):
        g = integrand(lambda xi: math.exp(0.4 * xi.get(1, 0.0)), dim_hint=2)
        res = adapt(g, Construction.APOSTERIORI, AdaptConfig(max_indices=10))
        pts = [rec.n_points for rec in res.trace]
        assert all(b >= a for a, b in zip(pts, pts[1:]))
        assert res.trace[0].chosen == ZERO_INDEX
        assert [rec.n_indices for rec in res.trace] == list(
            range(1, len(res.trace) + 1)
        )

    def test_deterministic_repeat(self):
        def run():
            g = integrand(
                lambda xi: math.exp(
                    0.7 * xi.get(1, 0.0) - 0.4 * xi.get(2, 0.0)
                    + 0.1 * xi.get(3, 0.0) ** 2
                ),
                dim_hint=3,
            )
            return adapt(g, Construction.APOSTERIORI, AdaptConfig(max_indices=25))

        a, b = run(), run()
        assert [r.chosen for r in a.trace] == [r.chosen for r in b.trace]
        assert a.value[0] == b.value[0]
        assert a.n_points == b.n_points

    def test_zero_dimension_does_not_block_frontier(self):
        # dimension 2 is inert; dimensions 3+ must still be reached
        cs = {1: 0.6, 3: 0.5, 5: 0.4}
        g = integrand(
            lambda xi: math.exp(sum(cs.get(j, 0.0) * x for j, x in xi.items())),
            dim_hint=5,
        )
        truth = math.exp(sum(c * c / 2 for c in cs.values()))
        res = adapt(g, Construction.APOSTERIORI, AdaptConfig(max_points=3000))
        assert res.value[0] == pytest.approx(truth, rel=1e-7)
        levels = {}
        for nu in res.index_set:
            for j, v in nu.entries:
                levels[j] = max(levels.get(j, 0), v)
        assert levels.get(2, 0) <= 1 and levels.get(4, 0) <= 1
        assert levels[3] >= 2 and levels[5] >= 2

    def test_vector_outputs_and_indicator(self):
        g = integrand(
            lambda xi: (math.exp(0.5 * xi.get(1, 0.0)), 100.0),
            n_outputs=2,
            dim_hint=1,
        )
        res = adapt(g, Construction.APOSTERIORI, AdaptConfig(tolerance=1e-10))
        assert res.value[1] == pytest.approx(100.0)
        assert res.value[0] == pytest.approx(math.exp(0.125), abs=1e-9)


class TestIntegrandErrors:
    def test_failure_carries_point(self):
        def g_fn(xi):
            if xi.get(1, 0.0) > 0:
                raise RuntimeError("solver blew up")
            return 1.0

        with pytest.raises(IntegrandError) as err:
            adapt(integrand(g_fn, dim_hint=1), Construction.APOSTERIORI,
                  AdaptConfig(max_indices=4))
        assert 1 in err.value.point

    def test_failure_in_a_batch_names_its_point(self):
        # the whole batch raises; the point named is the first that fails
        # on its own, not the first of the batch, and its error is chained
        def g_fn(xi):
            if xi.get(1, 0.0) > 1.0:
                raise RuntimeError("solver blew up")
            return 1.0

        cache = PointCache(integrand(g_fn))
        keys = [(), ((1, -2.0),), ((1, 0.5),), ((1, 1.5),), ((1, 3.0),)]
        with pytest.raises(IntegrandError, match="solver blew up") as err:
            cache.fill(keys)
        assert err.value.point == {1: 1.5}
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_batch_of_the_wrong_length_rejected(self):
        g = Integrand(fn=lambda points: [1.0])
        with pytest.raises(IntegrandError, match="for 2 points"):
            PointCache(g).fill([((1, 1.0),), ((1, -1.0),)])

    @staticmethod
    def _rejected_naming_the_point(n_outputs, raw):
        """``raw`` at every nonzero point (a valid value at the zero point)
        raises IntegrandError naming the first nonzero point evaluated."""
        good = 1.0 if n_outputs == 1 else (1.0, 1.0)
        g = integrand(lambda xi: raw if xi else good, n_outputs=n_outputs, dim_hint=1)
        with pytest.raises(IntegrandError) as err:
            adapt(g, Construction.APOSTERIORI, AdaptConfig(max_indices=4))
        assert list(err.value.point) == [1]
        assert str(err.value).endswith(f"at point {err.value.point}")

    @pytest.mark.parametrize("n_outputs, raw", [
        pytest.param(1, math.inf, id="n1-inf"),
        pytest.param(1, math.nan, id="n1-nan"),
        pytest.param(1, (-math.inf,), id="n1-tuple"),
        pytest.param(1, np.float64(math.nan), id="n1-numpy"),
        pytest.param(2, (1.0, math.nan), id="n2-tuple"),
        pytest.param(2, [math.inf, 0.0], id="n2-list"),
    ])
    def test_non_finite_rejected(self, n_outputs, raw):
        self._rejected_naming_the_point(n_outputs, raw)

    @pytest.mark.parametrize("n_outputs, raw", [
        pytest.param(1, (1.0, 2.0), id="n1-pair"),
        pytest.param(1, [], id="n1-empty"),
        pytest.param(2, 1.0, id="n2-float"),
        pytest.param(2, (1.0,), id="n2-single"),
        pytest.param(2, [1.0, 2.0, 3.0], id="n2-list"),
        pytest.param(2, np.zeros(3), id="n2-array"),
    ])
    def test_bad_shape_rejected(self, n_outputs, raw):
        self._rejected_naming_the_point(n_outputs, raw)

    @pytest.mark.parametrize("n_outputs, raw", [
        pytest.param(1, "abc", id="n1-str"),
        pytest.param(1, None, id="n1-none"),
        pytest.param(1, {"a": 1.0}, id="n1-dict"),
        pytest.param(1, object(), id="n1-object"),
        pytest.param(2, ("a", 1.0), id="n2-str"),
        pytest.param(2, [[1.0], [2.0, 3.0]], id="n2-ragged"),
    ])
    def test_non_numeric_rejected(self, n_outputs, raw):
        self._rejected_naming_the_point(n_outputs, raw)

    @pytest.mark.parametrize("n_outputs, raw", [
        pytest.param(1, 0.25, id="n1-float"),
        pytest.param(1, 3, id="n1-int"),
        pytest.param(1, np.float64(0.25), id="n1-numpy"),
        pytest.param(1, np.array(0.25), id="n1-0d"),
        pytest.param(1, np.array([0.25]), id="n1-1d"),
        pytest.param(1, [0.25], id="n1-list"),
        pytest.param(1, (0.25,), id="n1-tuple"),
        pytest.param(1, (3,), id="n1-int-tuple"),
        pytest.param(2, np.array([0.25, -3.5]), id="n2-1d"),
        pytest.param(2, [0.25, -3.5], id="n2-list"),
        pytest.param(2, (0.25, -3.5), id="n2-tuple"),
        pytest.param(2, (np.float64(0.25), -3.5), id="n2-mixed-tuple"),
        pytest.param(2, (3, -4), id="n2-int-tuple"),
    ])
    def test_miss_caches_the_floats_of_the_numpy_path(self, n_outputs, raw):
        cache = PointCache(integrand(lambda xi: raw, n_outputs=n_outputs))
        point = ((1, 0.5), (3, -1.25))
        cache.fill([point])
        got = cache.value(point)
        assert got == tuple(np.atleast_1d(np.asarray(raw, dtype=float)).tolist())
        assert all(type(v) is float for v in got)
        assert cache.value(point) is got and cache.n_points == 1


class TestBatches:
    @staticmethod
    def _fn(xi):
        return math.exp(0.7 * xi.get(1, 0.0) - 0.4 * xi.get(2, 0.0)
                        + 0.1 * xi.get(3, 0.0) ** 2)

    def test_evaluate_fills_every_point_in_one_call(self):
        calls = []
        res = evaluate(full_box((3, 2)), integrand(self._fn, calls=calls))
        assert [len(batch) for batch in calls] == [res.n_points]

    @pytest.mark.parametrize("mode, tolerance", [
        (Construction.APOSTERIORI, None),
        (Construction.APRIORI, 1e-8),
        (Construction.APRIORI, None),  # lazy: evaluated on adoption only
    ])
    def test_one_call_per_admit_with_misses(self, mode, tolerance, monkeypatch):
        calls, fills = [], []
        tensor_deltas = sparse_quad.tensor_deltas

        def counted(nus, cache):
            points, n_calls = cache.n_points, len(calls)
            out = tensor_deltas(nus, cache)
            fills.append((cache.n_points > points, len(calls) - n_calls))
            return out

        monkeypatch.setattr(sparse_quad, "tensor_deltas", counted)
        cfg = AdaptConfig(tolerance=tolerance, max_points=400)
        res = adapt(integrand(self._fn, dim_hint=3, calls=calls), mode, cfg)
        assert len(fills) > 10
        assert all(n == int(grew) for grew, n in fills)
        keys = [tuple(sorted(p.items())) for batch in calls for p in batch]
        assert len(keys) == len(set(keys)) == res.n_points


class TestCollectorPause:
    """``adapt`` runs its loop with the cyclic garbage collector paused and
    leaves the collector as it found it, however the run ends."""

    @staticmethod
    def _fn(xi):
        return math.exp(0.5 * xi.get(1, 0.0) - 0.3 * xi.get(2, 0.0))

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    def test_paused_while_the_loop_calls_the_integrand(self, collector):
        seen = []

        def fn(points):
            seen.append(gc.isenabled())
            return [self._fn(p) for p in points]

        res = adapt(Integrand(fn=fn, dim_hint=2), Construction.APOSTERIORI,
                    AdaptConfig(tolerance=1e-10))
        assert res.stopped_on == "tolerance"
        assert len(seen) > 5 and not any(seen)
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("budget", ["max_points", "max_indices"])
    def test_restored_when_a_budget_ends_the_run(self, collector, budget):
        res = adapt(integrand(self._fn, dim_hint=2), Construction.APOSTERIORI,
                    AdaptConfig(**{budget: 20}))
        assert res.stopped_on == budget
        assert gc.isenabled() is collector

    def test_restored_when_the_integrand_raises(self, collector):
        def fn(xi):
            if xi.get(2, 0.0) > 0:
                raise RuntimeError("solver blew up")
            return self._fn(xi)

        with pytest.raises(IntegrandError, match="solver blew up"):
            adapt(integrand(fn, dim_hint=2), Construction.APOSTERIORI, AdaptConfig())
        assert gc.isenabled() is collector


class TestTraceCsv:
    def test_roundtrip(self):
        g = integrand(
            lambda xi: (math.exp(0.4 * xi.get(1, 0.0)), xi.get(2, 0.0) ** 2),
            n_outputs=2,
            dim_hint=3,
        )
        res = adapt(g, Construction.APOSTERIORI, AdaptConfig(max_indices=12))
        rows = list(csv.DictReader(io.StringIO(trace_to_csv(res.trace))))
        assert len(rows) == len(res.trace)
        for a, b in zip(res.trace, rows):
            assert int(b["step"]) == a.step
            assert b["chosen_index"] == a.chosen.render()
            assert int(b["n_indices"]) == a.n_indices
            assert int(b["n_points"]) == a.n_points
            assert (float(b["value_0"]), float(b["value_1"])) == a.value
            indicator = float(b["indicator"])
            assert indicator == a.indicator or (
                math.isnan(a.indicator) and math.isnan(indicator)
            )


def dense_key(nu):
    """The dense level tuple (nu_1, ..., nu_maxdim), the tie-break key the
    rescan compared."""
    levels = [0] * nu.max_dim
    for j, v in nu.entries:
        levels[j - 1] = v
    return tuple(levels)


class RescanCandidates:
    """Brute-force oracle for ``sparse_quad._Candidates``: the linear rescan
    of every pending candidate that the heaps replaced, with its dense
    tie-break key."""

    def __init__(self, pending, n_outputs):
        self.pending = pending
        self.deltas = {}
        self.priorities = {}

    def add(self, nu, delta, priority):
        if delta is not None:
            self.deltas[nu] = delta
        if priority is not None:
            self.priorities[nu] = priority

    def max_indicator(self, value):
        return max(_indicator(d, value) for d in self.deltas.values())

    def lowest_priority(self):
        return min(self.pending, key=lambda nu: (self.priorities[nu], dense_key(nu)))

    def best(self, value):
        best = -1.0
        best_key = None
        chosen = None
        max_ind = 0.0
        inv = tuple(1.0 / max(1.0, abs(v)) for v in value)
        for nu, d in self.deltas.items():
            ind = 0.0
            for a, iv in zip(map(abs, d), inv):
                x = a * iv
                if x > ind:
                    ind = x
            if ind > max_ind:
                max_ind = ind
            score = 0.0 if ind <= TIE_FLOOR else ind
            if score > best:
                best, best_key, chosen = score, dense_key(nu), nu
            elif score == best:
                key = dense_key(nu)
                if key < best_key:
                    best_key, chosen = key, nu
        return chosen, max_ind


class RescanFrontier(_Frontier):
    """Oracle for ``sparse_quad._Frontier.adopt``: the scan of every active
    dimension that the child sets replaced."""

    def __init__(self, lam, dim_cap):
        self.active_dims = []  # dims whose unit index was adopted
        super().__init__(lam, dim_cap)

    def adopt(self, nu):
        self.pending.discard(nu)
        self.lam.add(nu)
        if len(nu.entries) == 1 and nu.entries[0][1] == 1:  # a unit index
            j = nu.entries[0][0]
            if j not in self.active_dims:
                self.active_dims.append(j)
                self.active_dims.sort()
        fresh = []
        for j in self.active_dims:
            if nu.level(j) == sparse_quad.MAX_LEVEL:
                self.capped = True
                continue
            cand = nu.plus(j)
            if cand in self.lam or cand in self.pending:
                continue
            if all(mu in self.lam for mu in cand.backward_neighbors()):
                self.pending.add(cand)
                fresh.append(cand)
        seeded = self._seed_next_dimension()
        if seeded is not None:
            fresh.append(seeded)
        return fresh


def _adopt_both(frontiers, nu):
    fast, slow = frontiers
    assert fast.adopt(nu) == slow.adopt(nu)
    assert fast.capped == slow.capped
    assert fast.pending == slow.pending


class TestFrontier:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from((1, 2, 3, MAX_LEVEL)),
        st.none() | st.integers(1, 6),
        st.lists(st.integers(0, 10**6), max_size=40),
    )
    def test_child_sets_match_rescan(self, max_level, dim_cap, picks):
        with mock.patch.object(sparse_quad, "MAX_LEVEL", max_level):
            frontiers = (_Frontier(IndexSet(), dim_cap), RescanFrontier(IndexSet(), dim_cap))
            for pick in picks:
                pending = sorted(frontiers[0].pending, key=MultiIndex.sort_key)
                if not pending:
                    break
                _adopt_both(frontiers, pending[pick % len(pending)])

    def test_child_sets_match_rescan_at_max_level(self):
        # climb dimension 1 to MAX_LEVEL, twice (the second time beside e_2),
        # then adopt in a scrambled order: an index at the cap refuses its
        # neighbor in dimension 1
        frontiers = (_Frontier(IndexSet(), 8), RescanFrontier(IndexSet(), 8))
        for level in range(1, MAX_LEVEL + 1):
            _adopt_both(frontiers, MultiIndex.unit(1, level))
        assert frontiers[0].capped
        _adopt_both(frontiers, idx((2, 1)))
        for level in range(1, MAX_LEVEL + 1):
            _adopt_both(frontiers, idx((1, level), (2, 1)))
        rng = np.random.default_rng(3)
        for _ in range(200):
            pending = sorted(frontiers[0].pending, key=MultiIndex.sort_key)
            _adopt_both(frontiers, pending[rng.integers(len(pending))])


def _ulps_above(x, k):
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


# Magnitudes a few ulps apart: with |value| in (1, 2) the products
# |delta| * (1 / |value|) of neighbours often round equal, and the small ones
# sit at or below TIE_FLOOR.
_magnitudes = st.builds(
    _ulps_above, st.sampled_from((0.0, 4e-15, TIE_FLOOR, 0.7, 1.9)), st.integers(0, 3)
)
_deltas = st.builds(lambda a, neg: -a if neg else a, _magnitudes, st.booleans())
_values = st.builds(
    _ulps_above, st.sampled_from((0.5, -1.1, 1.7, -3.0)), st.integers(0, 2)
)
_priorities = st.builds(_ulps_above, st.sampled_from((1.0, 1.5, 2.25)), st.integers(0, 1))
_indices = st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=3).map(
    lambda levels: MultiIndex(levels.items())
)


def _fill(data, pending, adopted, both, n_outputs, apriori):
    """Draw fresh candidates into ``pending`` and into each structure."""
    for nu in data.draw(st.lists(_indices, max_size=8)):
        if nu in pending or nu in adopted:
            continue  # an index enters the pending set once
        delta = tuple(data.draw(st.lists(_deltas, min_size=n_outputs, max_size=n_outputs)))
        priority = data.draw(_priorities) if apriori else None
        pending.add(nu)
        for cands in both:
            cands.add(nu, delta, priority)


def _adopt(nu, pending, adopted, both):
    for cands in both:
        cands.deltas.pop(nu)
    pending.discard(nu)
    adopted.add(nu)


class TestSelection:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((1, 2)), st.data())
    def test_heap_choice_matches_rescan(self, n_outputs, data):
        pending, adopted = set(), set()
        heaps = _Candidates(pending, n_outputs)
        both = (heaps, RescanCandidates(pending, n_outputs))
        for _ in range(data.draw(st.integers(1, 8))):
            _fill(data, pending, adopted, both, n_outputs, apriori=False)
            if not pending:
                continue
            value = tuple(data.draw(st.lists(_values, min_size=n_outputs, max_size=n_outputs)))
            got = heaps.best(value)
            assert got == both[1].best(value)
            _adopt(got[0], pending, adopted, both)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((1, 2)), st.data())
    def test_apriori_choice_matches_rescan(self, n_outputs, data):
        pending, adopted = set(), set()
        heaps = _Candidates(pending, n_outputs)
        both = (heaps, RescanCandidates(pending, n_outputs))
        for _ in range(data.draw(st.integers(1, 8))):
            _fill(data, pending, adopted, both, n_outputs, apriori=True)
            if not pending:
                continue
            value = tuple(data.draw(st.lists(_values, min_size=n_outputs, max_size=n_outputs)))
            assert heaps.max_indicator(value) == both[1].max_indicator(value)
            chosen = heaps.lowest_priority()
            assert chosen == both[1].lowest_priority()
            _adopt(chosen, pending, adopted, both)

    def test_products_that_round_equal_tie(self):
        # two magnitudes one ulp apart whose scaled products round equal: the
        # scores tie, so the smaller index in sort order wins although its
        # |delta| is the smaller one
        value = (1.7,)
        inv = 1.0 / 1.7
        a = 1.9
        while a * inv != math.nextafter(a, math.inf) * inv:
            a = math.nextafter(a, math.inf)
        small, large = idx((2, 1)), idx((1, 1))
        assert small.sort_key() < large.sort_key()
        pending = {small, large}
        both = (_Candidates(pending, 1), RescanCandidates(pending, 1))
        for cands in both:
            cands.add(large, (math.nextafter(a, math.inf),), None)
            cands.add(small, (a,), None)
            assert cands.best(value) == (small, a * inv)


# Small runs whose traces are pinned in tests/data: "linear" was written by
# the rescan selection; "darcy" and "darcy-prior" by the heap selection once
# the Darcy true field was drawn from the closed-form cosine modes, and with
# the unpivoted-QR range finder.  Chosen indices and counts must match
# exactly; values and indicators to 1e-9 relative, because another BLAS
# build may move the last bits of the setup (the rescan oracle below checks
# bit-identity on this machine).
SMALL_RUNS = {
    "linear": lambda: run_linear(
        ExperimentConfig.linear_default(mesh_exp=6, seed=0, max_points=600)
    ),
    "darcy": lambda: run_darcy(
        ExperimentConfig.darcy_default(mesh_exp=6, seed=0, kl_dims=20, max_points=600)
    ),
    "darcy-prior": lambda: run_darcy(
        ExperimentConfig.darcy_default(
            mesh_exp=6, seed=0, kl_dims=20, max_points=600, mode="prior"
        )
    ),
    "linear-prior": lambda: run_linear(
        ExperimentConfig.linear_default(mesh_exp=6, seed=0, max_points=600, mode="prior")
    ),
    "linear-apriori": lambda: run_linear(
        ExperimentConfig.linear_default(
            mesh_exp=6, seed=0, max_points=600, construction="apriori", tolerance=1e-6
        )
    ),
}


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_heap_and_rescan_traces_are_identical(name, monkeypatch):
    heap = trace_to_csv(SMALL_RUNS[name]().quadrature.trace)
    monkeypatch.setattr(sparse_quad, "_Candidates", RescanCandidates)
    assert trace_to_csv(SMALL_RUNS[name]().quadrature.trace) == heap


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_child_set_and_rescan_frontier_traces_are_identical(name, monkeypatch):
    fast = trace_to_csv(SMALL_RUNS[name]().quadrature.trace)
    monkeypatch.setattr(sparse_quad, "_Frontier", RescanFrontier)
    assert trace_to_csv(SMALL_RUNS[name]().quadrature.trace) == fast


@pytest.mark.parametrize("name", ["linear", "darcy", "darcy-prior"])
def test_small_run_matches_pinned_trace(name):
    got = list(csv.DictReader(io.StringIO(trace_to_csv(SMALL_RUNS[name]().quadrature.trace))))
    with open(DATA / f"trace_{name.replace('-', '_')}_small.csv", newline="") as fh:
        pinned = list(csv.DictReader(fh))
    assert [r["chosen_index"] for r in got] == [r["chosen_index"] for r in pinned]
    for a, b in zip(got, pinned):
        assert (a["step"], a["n_indices"], a["n_points"]) == (
            b["step"], b["n_indices"], b["n_points"]
        )
        for col in b:
            if col.startswith(("value_", "indicator")) and b[col] != "nan":
                assert float(a[col]) == pytest.approx(float(b[col]), rel=1e-9)


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_adaptive_loop_makes_no_reference_cycles(name, monkeypatch):
    # the premise of pausing the cyclic collector for the loop: the loop
    # leaves it nothing to free.  The run's setup and integrand are built
    # first, by the run itself stopped where it would call ``adapt``.
    class Called(Exception):
        pass

    def called(*args):
        raise Called(*args)

    monkeypatch.setattr(experiments, "adapt", called)
    with pytest.raises(Called) as info:
        SMALL_RUNS[name]()
    args = info.value.args
    del info
    gc.collect()
    flags, garbage = gc.get_debug(), gc.garbage[:]
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        adapt(*args)
        assert gc.collect() == 0
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = garbage
