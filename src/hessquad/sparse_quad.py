"""Sparse quadrature: tensorized difference operators and the adaptive loop.

The sparse rule over an admissible index set sums tensor-product difference
quadratures, one per index.  The adaptive construction grows the set greedily
from the zero index, selecting the next forward neighbor either by the
computed error indicator (a posteriori) or by the closed-form priority
coefficient (a priori), and reusing every neighbor evaluation when its index
is adopted.  All point evaluations go through a cache keyed by the full point
coordinates, so each distinct quadrature point costs exactly one integrand
call.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import math
from dataclasses import dataclass, field
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
    dimensions are zero.  It must be deterministic: the point cache and the
    concurrency contract both rely on purity.  ``dim_hint`` caps the
    dimensions the adaptive loop may explore (e.g. a KL truncation).
    """

    fn: Callable[[Mapping[int, float]], object]
    n_outputs: int = 1
    dim_hint: int | None = None


class PointCache:
    """Evaluation cache keyed by canonical point coordinates."""

    def __init__(self, integrand: Integrand):
        self._integrand = integrand
        self._data: dict[tuple, np.ndarray] = {}
        self.n_evals = 0

    @property
    def n_points(self) -> int:
        return len(self._data)

    def value(self, key: tuple, point: Mapping[int, float]) -> np.ndarray:
        out = self._data.get(key)
        if out is None:
            try:
                raw = self._integrand.fn(point)
            except Exception as exc:  # surface the failing quadrature point
                raise IntegrandError(f"integrand evaluation failed ({exc})", point) from exc
            out = np.atleast_1d(np.asarray(raw, dtype=float))
            if out.shape != (self._integrand.n_outputs,):
                raise IntegrandError(
                    f"integrand returned shape {out.shape}, "
                    f"expected ({self._integrand.n_outputs},)",
                    point,
                )
            if not np.all(np.isfinite(out)):
                raise IntegrandError(f"integrand returned non-finite value {out}", point)
            self._data[key] = out
            self.n_evals += 1
        return out


def grid_size(nu: MultiIndex) -> int:
    """Number of nodes of the tensor difference grid of ``nu``."""
    n = 1
    for _, level in nu.entries:
        n *= len(difference_rule(level).nodes)
    return n


def max_levels_per_dim(index_set: IndexSet) -> dict[int, int]:
    """Largest adopted quadrature level per dimension (dims at level 0
    omitted); the usual structural summary of an adaptive run."""
    levels: dict[int, int] = {}
    for nu in index_set:
        for j, v in nu.entries:
            if v > levels.get(j, 0):
                levels[j] = v
    return levels


def tensor_delta(nu: MultiIndex, g: Integrand, cache: PointCache) -> np.ndarray:
    """Tensor-product signed quadrature applied to ``g``.

    Iterates the Cartesian product of the per-dimension difference-rule nodes
    over the support of ``nu`` (absent dimensions sit at the single level-0
    node 0 with weight 1), multiplying signed weights.  Values come from the
    cache, keyed by the nonzero coordinates rounded to 15 significant digits.
    """
    dims = nu.support
    rules = [difference_rule(level) for _, level in nu.entries]
    total = np.zeros(g.n_outputs)
    for combo in itertools.product(*(range(len(r.nodes)) for r in rules)):
        w = 1.0
        key_parts = []
        point = {}
        for dim, rule, k in zip(dims, rules, combo):
            w *= rule.signed_weights[k]
            x = rule.nodes[k]
            if x != 0.0:
                point[dim] = x
                key_parts.append((dim, rule.node_keys[k]))
        total += w * cache.value(tuple(key_parts), point)
    return total


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
    n_evals: int = 0


class Construction(enum.Enum):
    APRIORI = "apriori"
    APOSTERIORI = "aposteriori"


@dataclass(frozen=True)
class AdaptConfig:
    """Stopping and selection parameters of the adaptive loop.

    ``tolerance = None`` means pure budget stopping; with the a priori
    construction that also skips all neighbor evaluations until adoption.
    ``work_normalized`` divides the a posteriori indicator by the candidate's
    grid size before selection.
    """

    tolerance: float | None = None
    max_indices: int = 20000
    max_points: int = 100_000
    bnu: BNuConfig = BNuConfig()
    work_normalized: bool = False
    # Indicators at or below this (relative) level are treated as exact ties,
    # so selection falls through to the lexicographic tie-break.  Without it,
    # an index whose difference quadrature vanishes identically (a dimension
    # the integrand does not depend on) would block frontier exploration
    # forever behind roundoff-level indicators of exhausted dimensions.
    tie_floor: float = 1e-14

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
        n_evals=cache.n_evals,
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
    """

    def __init__(self, lam: IndexSet, dim_cap: int | None):
        self.lam = lam
        self.dim_cap = dim_cap
        self.touched = 0  # largest dimension whose unit index was seeded
        self.active_dims: list[int] = []  # dims whose unit index was adopted
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
        admissible candidates (including at most one new unit index).

        A candidate nu + e_j can only be admissible when the unit index of
        dimension j is already adopted (downward closure), so only those
        dimensions are scanned.
        """
        self.pending.discard(nu)
        self.lam.add(nu)
        support = nu.support
        if len(support) == 1 and nu.max_level() == 1:
            # a unit index: its dimension becomes available for candidates
            j = support[0]
            if j not in self.active_dims:
                self.active_dims.append(j)
                self.active_dims.sort()
        fresh: list[MultiIndex] = []
        lam = self.lam
        pending = self.pending
        for j in self.active_dims:
            if nu.level(j) == MAX_LEVEL:
                self.capped = True
                continue
            cand = nu.plus(j)
            if cand in lam or cand in pending:
                continue
            if all(mu in lam for mu in cand.backward_neighbors()):
                pending.add(cand)
                fresh.append(cand)
        seeded = self._seed_next_dimension()
        if seeded is not None:
            fresh.append(seeded)
        return fresh


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
    ``converged=False``.
    """
    lam = IndexSet()
    cache = PointCache(g)
    value = tuple(tensor_delta(ZERO_INDEX, g, cache))
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

    lazy_apriori = mode is Construction.APRIORI and cfg.tolerance is None
    # pending index -> (delta, |delta|) tuples; keys mirror frontier.pending
    deltas: dict[MultiIndex, tuple[tuple[float, ...], tuple[float, ...]]] = {}
    priorities: dict[MultiIndex, float] = {}

    def admit(candidates: Sequence[MultiIndex]) -> None:
        for nu in candidates:
            if mode is Construction.APRIORI:
                priorities[nu] = b_coefficient(nu, cfg.bnu)
            if not lazy_apriori:
                d = tuple(tensor_delta(nu, g, cache))
                deltas[nu] = (d, tuple(abs(x) for x in d))

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

        chosen = None
        if mode is Construction.APRIORI:
            if not lazy_apriori:
                max_ind = max(
                    _indicator(d, value) for d, _ in deltas.values()
                )
                if cfg.tolerance is not None and max_ind <= cfg.tolerance:
                    converged = True
                    stopped_on = "tolerance"
                    break
            chosen = min(
                frontier.pending, key=lambda nu: (priorities[nu], nu.sort_key())
            )
        else:
            best = -1.0
            best_key: tuple[int, ...] | None = None
            max_ind = 0.0
            inv = tuple(1.0 / max(1.0, abs(v)) for v in value)
            inv0 = inv[0]
            single = len(inv) == 1
            for nu, (_, absd) in deltas.items():
                if single:
                    ind = absd[0] * inv0
                else:
                    ind = 0.0
                    for a, iv in zip(absd, inv):
                        x = a * iv
                        if x > ind:
                            ind = x
                if ind > max_ind:
                    max_ind = ind
                score = ind / grid_size(nu) if cfg.work_normalized else ind
                if score <= cfg.tie_floor:
                    score = 0.0
                if score > best:
                    best, best_key, chosen = score, nu.sort_key(), nu
                elif score == best:
                    key = nu.sort_key()
                    if key < best_key:
                        best_key, chosen = key, nu
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
            delta = tuple(tensor_delta(chosen, g, cache))
        else:
            delta = deltas.pop(chosen)[0]
        indicator = _indicator(delta, value)
        priorities.pop(chosen, None)

        value = tuple(v + d for v, d in zip(value, delta))
        fresh = frontier.adopt(chosen)
        admit(fresh)
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
        n_evals=cache.n_evals,
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


def trace_from_csv(text: str) -> list[TraceRecord]:
    rows = list(csv.reader(io.StringIO(text)))
    out = []
    for row in rows[1:]:
        if not row:
            continue
        out.append(
            TraceRecord(
                step=int(row[0]),
                chosen=MultiIndex.parse(row[1]),
                indicator=float(row[2]),
                n_indices=int(row[3]),
                n_points=int(row[4]),
                value=tuple(float(v) for v in row[5:]),
            )
        )
    return out
