import math

import numpy as np
import pytest

from hessquad.quad1d import coordinate_key, difference_rule, hermite_rule


def gaussian_moment(k):
    """E[xi^k] under N(0,1): (k-1)!! for even k, 0 for odd k."""
    if k % 2 == 1:
        return 0.0
    out = 1.0
    for m in range(k - 1, 0, -2):
        out *= m
    return out


class TestHermiteRule:
    def test_level_zero(self):
        r = hermite_rule(0)
        assert r.nodes.tolist() == [0.0]
        assert r.weights.tolist() == [1.0]

    def test_level_one(self):
        # roots of He2 = xi^2 - 1, weights by symmetry + normalization
        r = hermite_rule(1)
        np.testing.assert_allclose(r.nodes, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(r.weights, [0.5, 0.5], atol=1e-14)

    def test_level_two(self):
        # roots of He3 = xi^3 - 3 xi; weights match moments of xi^0, xi^2
        r = hermite_rule(2)
        s3 = math.sqrt(3.0)
        np.testing.assert_allclose(r.nodes, [-s3, 0.0, s3], atol=1e-14)
        np.testing.assert_allclose(r.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-14)

    @pytest.mark.parametrize("level", range(0, 13))
    def test_exactness_through_degree(self, level):
        # tolerance scaled by the rule's own absolute moment: high-degree
        # monomial sums cancel terms of size ~1e9, so a bare 1e-10 absolute
        # bound is not meaningful in double precision
        r = hermite_rule(level)
        for k in range(0, 2 * level + 2):
            approx = float(np.dot(r.weights, r.nodes**k))
            scale = float(np.dot(r.weights, np.abs(r.nodes) ** k))
            assert abs(approx - gaussian_moment(k)) <= 1e-10 * max(1.0, scale)

    @pytest.mark.parametrize("level", [0, 1, 5, 20, 60])
    def test_probability_weights_and_symmetry(self, level):
        r = hermite_rule(level)
        assert abs(r.weights.sum() - 1.0) <= 1e-14
        np.testing.assert_array_equal(r.nodes, -r.nodes[::-1])
        np.testing.assert_array_equal(r.weights, r.weights[::-1])
        if level % 2 == 0:
            assert r.nodes[level // 2] == 0.0

    def test_deterministic_construction(self):
        a = hermite_rule.__wrapped__(7)
        b = hermite_rule.__wrapped__(7)
        np.testing.assert_array_equal(a.nodes, b.nodes)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_level_limits(self):
        with pytest.raises(ValueError):
            hermite_rule(-1)
        with pytest.raises(ValueError):
            hermite_rule(201)
        hermite_rule(200)


class TestDifferenceRule:
    def test_level_zero_is_base_rule(self):
        d = difference_rule(0)
        g = lambda x: np.full_like(x, 4.25)
        assert np.dot(d.signed_weights, g(d.nodes)) == pytest.approx(4.25)

    def test_level_one_on_square(self):
        # Q1(xi^2) = 1 exactly, Q0(xi^2) = 0
        d = difference_rule(1)
        assert np.dot(d.signed_weights, d.nodes**2) == pytest.approx(1.0)

    def test_level_two_telescopes_to_zero(self):
        # both Q2 and Q1 integrate xi^2 exactly
        d = difference_rule(2)
        assert abs(np.dot(d.signed_weights, d.nodes**2)) <= 1e-13

    def test_node_union_size(self):
        # non-nested rules; consecutive levels have opposite parity, so even
        # the node at 0 is never shared and the union has all 2l + 1 nodes
        for level in range(1, 9):
            assert len(difference_rule(level).nodes) == 2 * level + 1

    def test_signed_weights_cancel(self):
        for level in range(1, 10):
            assert abs(difference_rule(level).signed_weights.sum()) <= 1e-14

    def test_telescoping_sum(self):
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(6)
        g = lambda x: sum(c * x**k for k, c in enumerate(coeffs))
        L = 6
        total = 0.0
        for level in range(L + 1):
            d = difference_rule(level)
            total += np.dot(d.signed_weights, g(d.nodes))
        rule = hermite_rule(L)
        direct = np.dot(rule.weights, g(rule.nodes))
        assert abs(total - direct) <= 1e-13


class TestCoordinateKey:
    def test_zero_collapse(self):
        assert coordinate_key(0.0) == coordinate_key(-0.0) == "0"

    def test_fifteen_significant_digits(self):
        assert coordinate_key(1.0) == "1.00000000000000e+00"
        a = 1.2345678901234567
        assert coordinate_key(a) == coordinate_key(a * (1 + 1e-16))
