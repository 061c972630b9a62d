"""Sparse quadrature: tensorized difference operators and the adaptive loop.

The sparse rule over an admissible index set sums tensor-product difference
quadratures, one per index.  The adaptive construction grows the set greedily
from the zero index, selecting the next forward neighbor either by the
computed error indicator (a posteriori) or by the closed-form priority
coefficient (a priori), and reusing every neighbor evaluation when its index
is adopted.  All point evaluations go through a cache keyed by the nonzero
coordinates, so each distinct quadrature point costs exactly one integrand
call.
"""

from __future__ import annotations

import csv
import enum
import heapq
import io
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .multiindex import (
    ZERO_INDEX,
    BNuConfig,
    IndexSet,
    MultiIndex,
    b_coefficient,
)
from .quad1d import MAX_LEVEL, difference_rule


class IntegrandError(RuntimeError):
    """Integrand evaluation failed; carries the offending point."""

    def __init__(self, message: str, point: Mapping[int, float]):
        super().__init__(f"{message} at point {dict(point)}")
        self.point = dict(point)


@dataclass(frozen=True)
class Integrand:
    """A pure map from a sparse parameter vector to one or more real outputs.

    ``fn`` receives a mapping {dimension (1-based) -> coordinate}; absent
    dimensions are zero.  It must be deterministic: the point cache calls it
    once per distinct point and reuses that value wherever the point recurs.
    ``dim_hint`` caps the dimensions the adaptive loop may explore (e.g. a KL
    truncation).
    """

    fn: Callable[[Mapping[int, float]], object]
    n_outputs: int = 1
    dim_hint: int | None = None


class PointCache:
    """Evaluation cache keyed by a point's nonzero coordinates,
    ``((dim, x), ...)`` in ascending dimension order.

    The coordinates are the difference-rule nodes themselves, and a node two
    difference rules share is the same float in both (tested), so a point
    that recurs across tensor grids hits its cache entry.
    """

    def __init__(self, integrand: Integrand):
        self._integrand = integrand
        self._data: dict[tuple, tuple[float, ...]] = {}

    @property
    def n_points(self) -> int:
        return len(self._data)

    def value(self, items: tuple[tuple[int, float], ...]) -> tuple[float, ...]:
        out = self._data.get(items)
        if out is None:
            point = dict(items)
            try:
                raw = self._integrand.fn(point)
            except Exception as exc:  # surface the failing quadrature point
                raise IntegrandError(f"integrand evaluation failed ({exc})", point) from exc
            n = self._integrand.n_outputs
            if type(raw) is float and n == 1:
                out = (raw,)
            elif type(raw) is tuple and len(raw) == n and all(type(v) is float for v in raw):
                out = raw
            else:
                try:
                    arr = np.atleast_1d(np.asarray(raw, dtype=float))
                except (TypeError, ValueError) as exc:
                    raise IntegrandError(f"integrand returned {raw!r} ({exc})", point) from exc
                if arr.shape != (n,):
                    raise IntegrandError(
                        f"integrand returned shape {arr.shape}, expected ({n},)", point
                    )
                out = tuple(arr.tolist())
            if not all(map(math.isfinite, out)):
                raise IntegrandError(f"integrand returned non-finite value {out}", point)
            self._data[items] = out
        return out


@lru_cache(maxsize=None)
def _grid_terms(dim: int, level: int) -> tuple:
    """(signed weight, point items) per node of the level's difference rule
    in dimension ``dim``; a zero node adds no coordinate.  Cached, so that
    every cache key holds the same coordinate objects instead of copies."""
    rule = difference_rule(level)
    return tuple(
        (w, ((dim, x),)) if x != 0.0 else (w, ())
        for w, x in zip(rule.signed_weights.tolist(), rule.nodes.tolist())
    )


def tensor_delta(nu: MultiIndex, g: Integrand, cache: PointCache) -> tuple[float, ...]:
    """Tensor-product signed quadrature applied to ``g``, one sum per output.

    Iterates the Cartesian product of the per-dimension difference-rule nodes
    over the support of ``nu`` (absent dimensions sit at the single level-0
    node 0 with weight 1), multiplying signed weights in dimension order.
    Values come from the cache, keyed by the nonzero coordinates.
    """
    grid = [(1.0, ())]  # (weight, point items)
    for dim, level in nu.entries:
        grid = [(w0 * w, items + xp) for w0, items in grid
                for w, xp in _grid_terms(dim, level)]
    value = cache.value
    if g.n_outputs == 1:
        total = 0.0
        for w, items in grid:
            total += w * value(items)[0]
        return (total,)
    totals = [0.0] * g.n_outputs
    for w, items in grid:
        for i, v in enumerate(value(items)):
            totals[i] += w * v
    return tuple(totals)


@dataclass(frozen=True)
class TraceRecord:
    """One enrichment step: the adopted index, its indicator, and the running
    state of the quadrature."""

    step: int
    chosen: MultiIndex
    indicator: float
    n_indices: int
    n_points: int
    value: tuple[float, ...]


@dataclass
class QuadratureResult:
    value: np.ndarray
    n_indices: int
    n_points: int
    trace: list[TraceRecord] = field(default_factory=list)
    converged: bool = True
    stopped_on: str = "tolerance"
    index_set: IndexSet | None = None


class Construction(enum.Enum):
    APRIORI = "apriori"
    APOSTERIORI = "aposteriori"


# A posteriori scores at or below this (relative) level are treated as exact
# ties, so selection falls through to the lexicographic tie-break.  Without it,
# an index whose difference quadrature vanishes identically (a dimension the
# integrand does not depend on) would block frontier exploration forever
# behind roundoff-level indicators of exhausted dimensions.
TIE_FLOOR = 1e-14


@dataclass(frozen=True)
class AdaptConfig:
    """Stopping and selection parameters of the adaptive loop.

    ``tolerance = None`` means pure budget stopping; with the a priori
    construction that also skips all neighbor evaluations until adoption.
    """

    tolerance: float | None = None
    max_indices: int = 20000
    max_points: int = 100_000
    bnu: BNuConfig = BNuConfig()

    def __post_init__(self):
        if self.tolerance is not None and self.tolerance <= 0:
            raise ValueError("tolerance must be positive (or None for budget mode)")
        if self.tolerance is None and self.max_indices is None and self.max_points is None:
            raise ValueError("need a tolerance or a budget")


def _indicator(delta, running) -> float:
    """Componentwise relative magnitude of a difference quadrature:
    max over outputs of |delta_i| / max(1, |value_i|)."""
    return max(
        abs(d) / max(1.0, abs(v)) for d, v in zip(delta, running)
    )


def evaluate(
    index_set: IndexSet, g: Integrand, cache: PointCache | None = None
) -> QuadratureResult:
    """Sparse quadrature over a fixed admissible index set.

    Members are summed in canonical order, so the result is independent of
    the set's enumeration order.
    """
    cache = cache if cache is not None else PointCache(g)
    value = np.zeros(g.n_outputs)
    for nu in index_set.sorted_members():
        value += tensor_delta(nu, g, cache)
    return QuadratureResult(
        value=value,
        n_indices=len(index_set),
        n_points=cache.n_points,
        converged=True,
        stopped_on="evaluated",
        index_set=index_set,
    )


class _Frontier:
    """Incrementally maintained candidate set of the growing index set.

    Candidates are forward neighbors within the dimensions explored so far;
    dimensions are explored one at a time, each enrichment step seeding the
    unit index of the next unexplored dimension (capped by the integrand's
    dimension hint).  Exploration keys on touched dimensions rather than
    adopted ones, so a dimension the integrand does not depend on (its unit
    index pends forever with a vanishing indicator) does not block the
    dimensions behind it.  Candidates above the quadrature's ``MAX_LEVEL``
    are never admitted; ``capped`` records that one was refused.

    ``children[mu]`` is the child set of a member mu that has children, the
    dimensions j with mu + e_j in the index set, held as a bit mask (bit j
    for dimension j); ``children[ZERO_INDEX]`` marks the dimensions whose
    unit index was adopted.
    """

    def __init__(self, lam: IndexSet, dim_cap: int | None):
        self.lam = lam
        self.dim_cap = dim_cap
        self.touched = 0  # largest dimension whose unit index was seeded
        self.children: dict[MultiIndex, int] = {}
        self.pending: set[MultiIndex] = set()
        self.capped = False
        self._seed_next_dimension()

    def _seed_next_dimension(self) -> MultiIndex | None:
        d = self.touched + 1
        if self.dim_cap is not None and d > self.dim_cap:
            return None
        cand = MultiIndex.unit(d)
        self.touched = d
        if cand not in self.lam and cand not in self.pending:
            self.pending.add(cand)
            return cand
        return None

    def adopt(self, nu: MultiIndex) -> list[MultiIndex]:
        """Move ``nu`` from pending into the index set; return the newly
        admissible candidates nu + e_j in ascending j, then at most one new
        unit index.

        For j outside the support of nu, nu + e_j is admissible exactly when
        every backward neighbor nu - e_k has the child nu - e_k + e_j, i.e.
        when j lies in the intersection of their child sets: one AND of bit
        masks, whose set bits come out in ascending j.  So the work follows
        the candidates found, not the dimensions explored.  For j in the
        support, the backward neighbors of nu + e_j are checked one by one.
        """
        self.pending.discard(nu)
        self.lam.add(nu)
        children = self.children
        outside = -1  # all bits set, narrowed to the common children
        support = 0
        for k, mu in zip(nu.support, nu.backward_neighbors()):
            bit = 1 << k
            children[mu] = children.get(mu, 0) | bit
            outside &= children[mu]
            support |= bit
        outside &= ~support
        fresh: list[MultiIndex] = []
        lam = self.lam
        pending = self.pending
        todo = outside | support
        while todo:
            low = todo & -todo  # the lowest remaining dimension
            todo ^= low
            j = low.bit_length() - 1
            cand = nu.plus(j)
            if not outside & low:  # j in the support of nu
                if nu.level(j) == MAX_LEVEL:
                    self.capped = True
                    continue
                if cand in lam or cand in pending or not all(
                    mu in lam for mu in cand.backward_neighbors()
                ):
                    continue
            pending.add(cand)
            fresh.append(cand)
        seeded = self._seed_next_dimension()
        if seeded is not None:
            fresh.append(seeded)
        return fresh


class _Candidates:
    """The pending candidates of the adaptive loop, held in heaps.

    Deletion is lazy: an entry whose index has left ``pending`` (the
    frontier's own set; an index never returns to it) is dropped when it
    surfaces, so a step costs O(log n) in the number n of candidates instead
    of a rescan.  There is one heap per output keyed by |delta_i|, one in
    tie-break order for the a posteriori tie floor, and one keyed by
    (b_nu, tie-break order) for the a priori construction; the tie-break
    order is ``MultiIndex.sort_key``.
    """

    def __init__(self, pending: set[MultiIndex], n_outputs: int):
        self.pending = pending
        self.deltas: dict[MultiIndex, tuple[float, ...]] = {}
        self._by_output: list[list] = [[] for _ in range(n_outputs)]
        self._by_order: list = []
        self._by_priority: list = []

    def add(
        self,
        nu: MultiIndex,
        delta: tuple[float, ...] | None,
        priority: float | None,
    ) -> None:
        """Enter a candidate with its difference quadrature (``None`` when it
        is computed only on adoption) and, for the a priori construction,
        its coefficient b_nu."""
        order = nu.sort_key()
        if priority is None:
            heapq.heappush(self._by_order, (order, nu))
        else:
            heapq.heappush(self._by_priority, (priority, order, nu))
        if delta is not None:
            self.deltas[nu] = delta
            for heap, x in zip(self._by_output, delta):
                heapq.heappush(heap, (-abs(x), order, nu))

    def _top(self, heap: list) -> tuple:
        while heap[0][-1] not in self.pending:
            heapq.heappop(heap)
        return heap[0]

    def max_indicator(self, value: Sequence[float]) -> float:
        """The largest ``_indicator`` over the candidates: fl(a / s) is
        nondecreasing in a, so it is the largest over outputs of each
        heap's top."""
        return max(
            -self._top(heap)[0] / max(1.0, abs(v))
            for heap, v in zip(self._by_output, value)
        )

    def lowest_priority(self) -> MultiIndex:
        """The a priori choice: least b_nu, then tie-break order."""
        return self._top(self._by_priority)[-1]

    def best(self, value: Sequence[float]) -> tuple[MultiIndex, float]:
        """The a posteriori choice and the largest indicator.

        A candidate scores max_i fl(|delta_i| * inv_i) with
        inv_i = 1 / max(1, |value_i|), and scores at or below ``TIE_FLOOR``
        tie.  fl(a * inv_i) is nondecreasing in a, so the largest score is
        the largest over outputs of each heap's top times inv_i, and the
        candidates reaching it are the equal-product run at the top of each
        heap that does; the first of them in tie-break order is chosen.
        """
        inv = [1.0 / max(1.0, abs(v)) for v in value]
        tops = [-self._top(heap)[0] * iv for heap, iv in zip(self._by_output, inv)]
        best = max(tops)
        if best <= TIE_FLOOR:
            return self._top(self._by_order)[-1], best
        pending = self.pending
        ties = []
        for heap, iv, top in zip(self._by_output, inv, tops):
            if top != best:
                continue
            run = []
            while heap and (heap[0][-1] not in pending or -heap[0][0] * iv == best):
                entry = heapq.heappop(heap)
                if entry[-1] in pending:
                    run.append(entry)
            for entry in run:
                heapq.heappush(heap, entry)
            ties += run
        return min(ties, key=lambda entry: entry[1])[-1], best


def adapt(
    g: Integrand,
    mode: Construction = Construction.APOSTERIORI,
    cfg: AdaptConfig = AdaptConfig(),
) -> QuadratureResult:
    """Adaptive sparse quadrature construction.

    Starts from the zero index; each iteration evaluates the difference
    quadrature on the forward neighbors (skipped until adoption for the
    a priori construction under pure budget stopping), selects the candidate
    with the maximal error indicator (a posteriori) or the minimal priority
    coefficient (a priori; the coefficient is monotone increasing, so the
    greedy minimum enumerates the smallest-coefficient admissible set), and
    enriches.  Ties break toward the lexicographically smallest index, which
    keeps runs deterministic and lets zero-contribution dimensions unblock the
    frontier.  Stops when the maximal indicator drops to the tolerance or a
    budget is hit; a budget stop is reported with ``converged=False`` when a
    tolerance was requested.  A run whose only remaining candidates lie above
    ``MAX_LEVEL`` stops with ``stopped_on="max_level"`` and
    ``converged=False``.  Selection keeps the candidates in heaps
    (``_Candidates``), the priority-queue form of Gerstner & Griebel (2003).
    """
    lam = IndexSet()
    cache = PointCache(g)
    value = tensor_delta(ZERO_INDEX, g, cache)
    trace = [
        TraceRecord(
            step=0,
            chosen=ZERO_INDEX,
            indicator=math.nan,
            n_indices=1,
            n_points=cache.n_points,
            value=value,
        )
    ]
    frontier = _Frontier(lam, g.dim_hint)
    candidates = _Candidates(frontier.pending, g.n_outputs)

    lazy_apriori = mode is Construction.APRIORI and cfg.tolerance is None

    def admit(fresh: Sequence[MultiIndex]) -> None:
        for nu in fresh:
            delta = None if lazy_apriori else tensor_delta(nu, g, cache)
            priority = b_coefficient(nu, cfg.bnu) if mode is Construction.APRIORI else None
            candidates.add(nu, delta, priority)

    admit(sorted(frontier.pending, key=MultiIndex.sort_key))

    converged = False
    stopped_on = "exhausted"
    step = 0
    while True:
        if not frontier.pending:
            if frontier.capped:
                converged, stopped_on = False, "max_level"
            else:
                converged, stopped_on = cfg.tolerance is None, "exhausted"
            break

        if mode is Construction.APOSTERIORI:
            chosen, max_ind = candidates.best(value)
        else:
            chosen = candidates.lowest_priority()
            max_ind = None if lazy_apriori else candidates.max_indicator(value)
        if cfg.tolerance is not None and max_ind <= cfg.tolerance:
            converged = True
            stopped_on = "tolerance"
            break

        if cfg.max_indices is not None and len(lam) >= cfg.max_indices:
            converged = cfg.tolerance is None
            stopped_on = "max_indices"
            break
        if cfg.max_points is not None and cache.n_points >= cfg.max_points:
            converged = cfg.tolerance is None
            stopped_on = "max_points"
            break

        if lazy_apriori:
            delta = tensor_delta(chosen, g, cache)
        else:
            delta = candidates.deltas.pop(chosen)
        indicator = _indicator(delta, value)

        value = tuple(v + d for v, d in zip(value, delta))
        admit(frontier.adopt(chosen))
        step += 1
        trace.append(
            TraceRecord(
                step=step,
                chosen=chosen,
                indicator=indicator,
                n_indices=len(lam),
                n_points=cache.n_points,
                value=value,
            )
        )

    return QuadratureResult(
        value=np.array(value),
        n_indices=len(lam),
        n_points=cache.n_points,
        trace=trace,
        converged=converged,
        stopped_on=stopped_on,
        index_set=lam,
    )


def trace_to_csv(trace: Sequence[TraceRecord]) -> str:
    """Serialize an enrichment trace; one row per adopted index.

    The chosen-index field uses the canonical ``j:level`` rendering, which
    contains commas, so rows are written with standard CSV quoting.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    n_out = len(trace[0].value) if trace else 1
    writer.writerow(
        ["step", "chosen_index", "indicator", "n_indices", "n_points"]
        + [f"value_{i}" for i in range(n_out)]
    )
    for rec in trace:
        writer.writerow(
            [rec.step, rec.chosen.render(), f"{rec.indicator:.17g}", rec.n_indices,
             rec.n_points] + [f"{v:.17g}" for v in rec.value]
        )
    return buf.getvalue()

