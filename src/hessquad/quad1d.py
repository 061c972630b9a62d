"""Univariate Gauss-Hermite rules under the standard Gaussian measure.

A rule of level ``nu`` has m = nu + 1 points and integrates polynomials of
degree 2*nu + 1 exactly against the N(0, 1) density.  The difference rule of
level ``nu`` is the signed combination Q_nu - Q_{nu-1} on the union of the two
node sets (with Q_{-1} = 0); tensor products of difference rules are the
building blocks of the sparse quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

MAX_LEVEL = 200

# Coincident nodes across the two levels of a difference rule are merged
# within this absolute tolerance.  Gauss-Hermite rules are non-nested, so in
# exact arithmetic only the node at 0 (odd point counts) can coincide.
NODE_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class UnivariateRule:
    """Nodes and weights of the level-``level`` Gauss-Hermite rule."""

    level: int
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class DifferenceRule:
    """Signed rule realizing Q_level - Q_{level-1} on the union node set."""

    level: int
    nodes: np.ndarray
    signed_weights: np.ndarray


@lru_cache(maxsize=None)
def hermite_rule(level: int) -> UnivariateRule:
    """Gauss-Hermite rule with level + 1 points for the weight
    (1/sqrt(2*pi)) * exp(-x**2 / 2).

    Nodes are the eigenvalues of the Jacobi matrix of the probabilists'
    Hermite polynomials (zero diagonal, off-diagonal sqrt(k)); weights are the
    squared first components of the normalized eigenvectors.  Results are
    cached per level and bit-identical across calls.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > MAX_LEVEL:
        raise ValueError(
            f"level {level} unsupported (accuracy degrades beyond {MAX_LEVEL})"
        )
    n = level + 1
    if n == 1:
        nodes = np.array([0.0])
        weights = np.array([1.0])
    else:
        diag = np.zeros(n)
        off = np.sqrt(np.arange(1.0, n))
        vals, vecs = eigh_tridiagonal(diag, off)
        nodes = vals
        weights = vecs[0, :] ** 2
        # Enforce the exact symmetry of the rule; the center node of an
        # odd-point rule becomes exactly 0.
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
        weights = weights / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return UnivariateRule(level=level, nodes=nodes, weights=weights)


@lru_cache(maxsize=None)
def difference_rule(level: int) -> DifferenceRule:
    """Signed difference Q_level - Q_{level-1}; level 0 is Q_0 itself."""
    hi = hermite_rule(level)
    if level == 0:
        nodes = np.array(hi.nodes)
        signed = np.array(hi.weights)
    else:
        lo = hermite_rule(level - 1)
        raw = sorted(
            [(x, w) for x, w in zip(hi.nodes, hi.weights)]
            + [(x, -w) for x, w in zip(lo.nodes, lo.weights)]
        )
        merged_nodes: list[float] = []
        merged_weights: list[float] = []
        for x, w in raw:
            if merged_nodes and abs(x - merged_nodes[-1]) <= NODE_MERGE_TOL:
                merged_weights[-1] += w
            else:
                merged_nodes.append(x)
                merged_weights.append(w)
        nodes = np.array(merged_nodes)
        signed = np.array(merged_weights)
    nodes.setflags(write=False)
    signed.setflags(write=False)
    return DifferenceRule(level=level, nodes=nodes, signed_weights=signed)
