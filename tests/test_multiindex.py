import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessquad import sparse_quad
from hessquad.multiindex import (
    ZERO_INDEX,
    BNuConfig,
    IndexSet,
    MultiIndex,
    b_coefficient,
)
from hessquad.sparse_quad import _Frontier


def idx(*pairs):
    return MultiIndex(pairs)


e1 = idx((1, 1))
e2 = idx((2, 1))
e3 = idx((3, 1))


def brute_force_admissible(members):
    """Oracle: exhaustive backward-neighbor enumeration."""
    pool = set(members)
    for nu in pool:
        for j in nu.support:
            if nu.minus(j) not in pool:
                return False
    return True


def forward_neighbors(index_set, limit):
    """Oracle: every nu outside the set whose backward neighbors all lie in
    it, supported in dimensions 1..limit, in canonical order."""
    found = set()
    for nu in index_set:
        for j in range(1, limit + 1):
            cand = nu.plus(j)
            if cand not in index_set and all(
                mu in index_set for mu in cand.backward_neighbors()
            ):
                found.add(cand)
    return sorted(found, key=MultiIndex.sort_key)


def top_level(nu):
    """Oracle: the largest level of nu (0 for the zero index)."""
    return max((v for _, v in nu.entries), default=0)


def dense_key(nu):
    """Oracle: the dense level tuple (nu_1, ..., nu_maxdim), whose
    lexicographic order is the canonical (tie-break) order."""
    levels = [0] * nu.max_dim
    for j, v in nu.entries:
        levels[j - 1] = v
    return tuple(levels)


indices = st.dictionaries(st.integers(1, 8), st.integers(1, 3), max_size=4).map(
    lambda levels: MultiIndex(levels.items())
)


def frontier_after(adopted, dim_cap=None):
    frontier = _Frontier(IndexSet(), dim_cap)
    for nu in adopted:
        frontier.adopt(nu)
    return frontier


class TestMultiIndex:
    def test_zero_entries_dropped(self):
        assert idx((1, 0), (2, 3)) == idx((2, 3))
        assert not ZERO_INDEX
        assert ZERO_INDEX.support == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiIndex([(0, 1)])
        with pytest.raises(ValueError):
            MultiIndex([(1, -1)])
        with pytest.raises(ValueError):
            MultiIndex([(1, 1), (1, 2)])

    def test_plus_minus(self):
        nu = idx((1, 2), (3, 1))
        assert nu.plus(2) == idx((1, 2), (2, 1), (3, 1))
        assert nu.plus(1) == idx((1, 3), (3, 1))
        assert nu.plus(5) == idx((1, 2), (3, 1), (5, 1))
        assert nu.minus(3) == idx((1, 2))
        with pytest.raises(ValueError):
            nu.minus(2)

    def test_render(self):
        assert idx((3, 1), (1, 2)).render() == "1:2,3:1"
        assert ZERO_INDEX.render() == ""

    def test_sort_key_lexicographic(self):
        # e2 = (0, 1) precedes 2*e1 = (2,): frontier indices sort first
        assert e2.sort_key() < idx((1, 2)).sort_key()
        assert ZERO_INDEX.sort_key() == ()

    @settings(max_examples=200, deadline=None)
    @given(indices, indices)
    def test_sort_key_orders_like_dense_levels(self, a, b):
        assert (a.sort_key() < b.sort_key()) == (dense_key(a) < dense_key(b))
        assert (a.sort_key() == b.sort_key()) == (a == b)


class TestAdmissibility:
    def test_zero_only(self):
        assert list(IndexSet()) == [ZERO_INDEX]
        assert list(IndexSet([ZERO_INDEX])) == [ZERO_INDEX]

    def test_full_box(self):
        box = [ZERO_INDEX, e1, e2, idx((1, 1), (2, 1))]
        assert brute_force_admissible(box)
        assert set(IndexSet(reversed(box))) == set(box)

    def test_missing_backward_neighbors(self):
        # oracle agrees: e1 and e2 are missing
        members = [ZERO_INDEX, idx((1, 1), (2, 1))]
        assert not brute_force_admissible(members)
        with pytest.raises(ValueError):
            IndexSet(members)

    def test_index_set_add_guards(self):
        s = IndexSet()
        with pytest.raises(ValueError):
            s.add(idx((1, 2)))
        s.add(e1)
        s.add(idx((1, 2)))
        assert len(s) == 3
        assert s.max_active_dim == 1


class TestForwardNeighbors:
    """The adaptive loop's frontier (``sparse_quad._Frontier``)."""

    def test_zero_set(self):
        assert frontier_after([]).pending == {e1}

    def test_one_dim(self):
        assert frontier_after([e1]).pending == {e2, idx((1, 2))}

    def test_two_dims(self):
        got = frontier_after([e1, e2]).pending
        assert got == {e3, idx((2, 2)), idx((1, 1), (2, 1)), idx((1, 2))}

    def test_dim_cap(self):
        assert frontier_after([e1], dim_cap=1).pending == {idx((1, 2))}


@st.composite
def admissible_growth(draw):
    """A random admissible set grown by repeated forward-neighbor adoption."""
    s = IndexSet()
    n_steps = draw(st.integers(min_value=0, max_value=12))
    for _ in range(n_steps):
        neigh = forward_neighbors(s, min(s.max_active_dim + 1, 4))
        pick = draw(st.integers(min_value=0, max_value=len(neigh) - 1))
        s.add(neigh[pick])
    return s


@settings(max_examples=60, deadline=None)
@given(admissible_growth())
def test_growth_preserves_admissibility(s):
    assert brute_force_admissible(list(s))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.none() | st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=14),
)
def test_forward_neighbors_contract(max_level, dim_cap, picks):
    """After any adopt sequence the frontier's pending set is exactly the
    brute-force forward-neighbor set of the adopted indices, within the
    dimensions touched so far (one more per step, up to the cap) and at
    most ``MAX_LEVEL`` in every dimension."""
    with mock.patch.object(sparse_quad, "MAX_LEVEL", max_level):
        frontier = _Frontier(IndexSet(), dim_cap)
        for step, pick in enumerate(picks + [None]):
            limit = step + 1 if dim_cap is None else min(step + 1, dim_cap)
            assert frontier.touched == limit
            expect = [
                nu for nu in forward_neighbors(frontier.lam, limit)
                if top_level(nu) <= max_level
            ]
            assert sorted(frontier.pending, key=MultiIndex.sort_key) == expect
            assert frontier.capped == any(
                top_level(nu) == max_level for nu in frontier.lam
            )
            if pick is None or not expect:
                break
            frontier.adopt(expect[pick % len(expect)])


def brute_force_b(nu, cfg):
    """Oracle: enumerate mu <= nu with |mu|_inf <= r_cap directly."""
    import itertools

    dims = nu.support
    total = 0.0
    ranges = [range(0, min(nu.level(j), cfg.r_cap) + 1) for j in dims]
    for combo in itertools.product(*ranges):
        term = 1.0
        for j, k in zip(dims, combo):
            term *= math.comb(nu.level(j), k) * cfg.tau(j) ** (2 * k)
        total += term
    return total


class TestBCoefficient:
    def test_zero_index(self):
        assert b_coefficient(ZERO_INDEX, BNuConfig()) == 1.0

    def test_hand_expansions(self):
        cfg = BNuConfig(c=2.0, beta=0.0, r_cap=2)  # tau_j = 2 for all j
        assert b_coefficient(e1, cfg) == pytest.approx(5.0)  # 1 + 4
        assert b_coefficient(idx((1, 2)), cfg) == pytest.approx(25.0)  # 1 + 8 + 16

    def test_overflow_reported(self):
        cfg = BNuConfig(c=1e200, beta=1.0, r_cap=2)
        with pytest.raises(OverflowError):
            b_coefficient(idx((5, 100)), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BNuConfig(c=-1.0)
        with pytest.raises(ValueError):
            BNuConfig(beta=-0.1)
        with pytest.raises(ValueError):
            BNuConfig(r_cap=0)
        with pytest.raises(ValueError):
            BNuConfig.from_smoothness(alpha=0.4)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 5), st.integers(1, 4)), max_size=3),
        st.floats(0.1, 3.0),
        st.floats(0.0, 1.5),
    )
    def test_matches_brute_force(self, pairs, c, beta):
        nu = MultiIndex({j: v for j, v in pairs}.items())
        cfg = BNuConfig(c=c, beta=beta, r_cap=2)
        assert b_coefficient(nu, cfg) == pytest.approx(
            brute_force_b(nu, cfg), rel=1e-12
        )

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 5), st.integers(1, 4)), max_size=3),
        st.floats(0.1, 3.0),
        st.floats(0.0, 1.5),
        st.randoms(use_true_random=False),
    )
    def test_monotone_under_partial_order(self, pairs, c, beta, rnd):
        nu = MultiIndex({j: v for j, v in pairs}.items())
        mu = MultiIndex(
            [(j, rnd.randint(0, v)) for j, v in nu.entries]
        )
        cfg = BNuConfig(c=c, beta=beta, r_cap=2)
        assert b_coefficient(mu, cfg) <= b_coefficient(nu, cfg) * (1 + 1e-12)
