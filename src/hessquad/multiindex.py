"""Sparse multi-indices, downward-closed index sets, and priority coefficients.

Multi-indices are finitely supported sequences of nonnegative integer levels,
one per parameter dimension (dimensions are 1-based).  Downward-closed
("admissible") sets of them drive the sparse quadrature; their forward
neighbors are the frontier the adaptive loop explores (``sparse_quad``), one
new dimension at a time.  The a priori construction ranks candidate indices
by a closed-form coefficient built from a nondecreasing weight sequence
tau_j = c * j**beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator


class MultiIndex:
    """Finitely supported multi-index nu: dimension j (>=1) -> level nu_j (>=1).

    Dimensions with level zero are never stored.  Instances are immutable and
    hashable, so they can key dictionaries and sets in the adaptive loop.
    """

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Iterable[tuple[int, int]] = ()):
        cleaned = []
        for j, v in entries:
            j = int(j)
            v = int(v)
            if j < 1:
                raise ValueError(f"dimension index must be >= 1, got {j}")
            if v < 0:
                raise ValueError(f"level must be >= 0, got {v} in dimension {j}")
            if v > 0:
                cleaned.append((j, v))
        cleaned.sort()
        for (j1, _), (j2, _) in zip(cleaned, cleaned[1:]):
            if j1 == j2:
                raise ValueError(f"duplicate dimension {j1}")
        object.__setattr__(self, "_entries", tuple(cleaned))
        object.__setattr__(self, "_hash", hash(self._entries))

    @classmethod
    def unit(cls, j: int, level: int = 1) -> "MultiIndex":
        """The index level * e_j."""
        return cls(((j, level),))

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return self._entries

    @property
    def support(self) -> tuple[int, ...]:
        """Dimensions with a nonzero level, ascending."""
        return tuple(j for j, _ in self._entries)

    @property
    def max_dim(self) -> int:
        """Largest active dimension; 0 for the zero index."""
        return self._entries[-1][0] if self._entries else 0

    def level(self, j: int) -> int:
        for jj, v in self._entries:
            if jj == j:
                return v
        return 0

    def total_level(self) -> int:
        return sum(v for _, v in self._entries)

    @classmethod
    def _raw(cls, entries: tuple[tuple[int, int], ...]) -> "MultiIndex":
        # fast path: entries already sorted, positive, duplicate-free
        out = object.__new__(cls)
        object.__setattr__(out, "_entries", entries)
        object.__setattr__(out, "_hash", hash(entries))
        return out

    def plus(self, j: int) -> "MultiIndex":
        """nu + e_j."""
        entries = self._entries
        for i, (jj, v) in enumerate(entries):
            if jj == j:
                return self._raw(entries[:i] + ((j, v + 1),) + entries[i + 1:])
            if jj > j:
                return self._raw(entries[:i] + ((j, 1),) + entries[i:])
        return self._raw(entries + ((j, 1),))

    def minus(self, j: int) -> "MultiIndex":
        """nu - e_j; requires nu_j >= 1."""
        entries = self._entries
        for i, (jj, v) in enumerate(entries):
            if jj == j:
                if v == 1:
                    return self._raw(entries[:i] + entries[i + 1:])
                return self._raw(entries[:i] + ((j, v - 1),) + entries[i + 1:])
        raise ValueError(f"cannot decrement dimension {j} of {self!r}")

    def backward_neighbors(self) -> Iterator["MultiIndex"]:
        for j, _ in self._entries:
            yield self.minus(j)

    def sort_key(self) -> tuple[tuple[int, int], ...]:
        """Key of the deterministic tie-break order: the lexicographic order
        of the dense level tuples (nu_1, ..., nu_maxdim), held sparsely.

        At the first dimension j where two indices differ, the smaller level
        sorts first; in the pairs (-j, nu_j) a missing level (0) shows as a
        later dimension, hence a smaller first component.  The key has one
        pair per active dimension, not one entry per dimension up to the
        largest active one.
        """
        return tuple((-j, v) for j, v in self._entries)

    def render(self) -> str:
        """Canonical text form, sorted ``j:level`` pairs, e.g. ``1:2,3:1``.

        The zero index renders as the empty string.
        """
        return ",".join(f"{j}:{v}" for j, v in self._entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiIndex) and self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __repr__(self) -> str:
        return f"MultiIndex({self.render()!r})"


ZERO_INDEX = MultiIndex()


class IndexSet:
    """A downward-closed set of multi-indices, always containing the zero index.

    Mutation is single-owner: the adaptive loop grows the set one forward
    neighbor at a time via :meth:`add`, which checks that admissibility is
    preserved.
    """

    def __init__(self, members: Iterable[MultiIndex] = ()):
        self._members: set[MultiIndex] = {ZERO_INDEX}
        self._max_active_dim = 0
        pending = sorted(set(members), key=lambda nu: (nu.total_level(), nu.sort_key()))
        for nu in pending:
            if nu not in self._members:
                self.add(nu)

    def add(self, nu: MultiIndex) -> None:
        if nu in self._members:
            return
        for mu in nu.backward_neighbors():
            if mu not in self._members:
                raise ValueError(
                    f"adding {nu!r} would break admissibility: missing {mu!r}"
                )
        self._members.add(nu)
        if nu.max_dim > self._max_active_dim:
            self._max_active_dim = nu.max_dim

    @property
    def max_active_dim(self) -> int:
        """Largest dimension with any nonzero level across members."""
        return self._max_active_dim

    def sorted_members(self) -> list[MultiIndex]:
        """Members in the canonical deterministic order."""
        return sorted(self._members, key=MultiIndex.sort_key)

    def __contains__(self, nu: MultiIndex) -> bool:
        return nu in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self._members)


_BETA_MARGIN = 0.05


@dataclass(frozen=True)
class BNuConfig:
    """Parameters of the a priori priority coefficient.

    The weight sequence is tau_j = c * j**beta; beta >= 0 keeps it
    nondecreasing, which the monotone a priori search requires.  ``r_cap``
    bounds the max level of the inner sum.
    """

    c: float = 0.5
    beta: float = 0.45
    r_cap: int = 2

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.beta < 0:
            raise ValueError("beta must be >= 0 so that tau is nondecreasing")
        if self.r_cap < 1:
            raise ValueError("r_cap must be >= 1")

    @classmethod
    def from_smoothness(cls, alpha: float) -> "BNuConfig":
        """Weights tuned to the eigenvalue decay exponent alpha of a
        one-dimensional domain: beta sits ``_BETA_MARGIN`` inside the
        admissible range beta < alpha - 1/2."""
        beta = alpha - 0.5 - _BETA_MARGIN
        if beta < 0:
            raise ValueError(f"alpha = {alpha} too small for a valid beta")
        return cls(beta=beta)

    def tau(self, j: int) -> float:
        return self.c * j**self.beta


def b_coefficient(nu: MultiIndex, cfg: BNuConfig) -> float:
    """Priority coefficient b_nu.

    b_nu = sum over mu <= nu with |mu|_inf <= r_cap of
           prod_j  C(nu_j, mu_j) * tau_j**(2*mu_j),
    which factorizes across dimensions since both constraints do.  Monotone
    nondecreasing in nu for any nondecreasing tau.
    """
    out = 1.0
    for j, v in nu.entries:
        t2 = cfg.tau(j) ** 2
        s = 0.0
        for k in range(0, min(v, cfg.r_cap) + 1):
            s += math.comb(v, k) * t2**k
        out *= s
        if math.isinf(out):
            raise OverflowError(
                f"b coefficient overflow at {nu!r} (tau_{j} = {cfg.tau(j)})"
            )
    return out
