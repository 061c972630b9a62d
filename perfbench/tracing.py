"""Per-layer tracing of hessquad from outside the package.

``Tracer.install`` replaces public functions and methods of the hessquad
modules with timing wrappers and ``uninstall`` puts the originals back;
nothing under ``src/`` changes.  Coarse boundaries (problem build, MAP,
eigensolves, the adaptive loop) are kept as spans with their parent in
memory for the whole run.  The per-point boundaries (``tensor_delta``,
``PointCache.value``, the integrand, ``kl_map``, ``TriDiagOperator.solve``)
are kept as call counts and inclusive times per phase of the study:
``setup`` inside the ``*_setup`` call, ``quad`` inside ``adapt`` and ``run``
in the rest of the ``run_*`` call.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import replace

from hessquad import experiments, fem1d, gaussian_measure, inverse_problem, sparse_quad

PHASES = ("setup", "run", "quad")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.phase: str | None = None
        self.round = -1
        self._stack: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self.start_round(-1)

    # -- per-round state ---------------------------------------------------

    def start_round(self, index: int) -> None:
        self.round = index
        self.time: dict[tuple[str, str | None], float] = defaultdict(float)
        self.calls: dict[tuple[str, str | None], int] = defaultdict(int)
        self.newton_iters = 0
        self.points = 0
        self.indices = 0

    def call(self, name: str, phase: str, fn, *args):
        """Run ``fn(*args)`` as a span of the given phase."""
        prev, self.phase = self.phase, phase
        try:
            return self._span(name, fn)(*args)
        finally:
            self.phase = prev

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append({"round": self.round, "name": name,
                                   "parent": parent, "start": start, "end": end})
                self.time[name, self.phase] += end - start
                self.calls[name, self.phase] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name, self.phase] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _adapt(self, fn):
        span = self._span("sparse_quad.adapt", fn, after=self._record_result)

        @functools.wraps(fn)
        def wrapper(g, *args, **kwargs):
            g = replace(g, fn=self._hot("sparse_quad.integrand", g.fn))
            prev, self.phase = self.phase, "quad"
            try:
                return span(g, *args, **kwargs)
            finally:
                self.phase = prev

        return wrapper

    def _hot(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (name, self.phase)
                self.time[key] += time.perf_counter() - start
                self.calls[key] += 1

        return wrapper

    def _record_result(self, result) -> None:
        self.points += result.n_points
        self.indices += result.n_indices

    def _record_map(self, result) -> None:
        self.newton_iters += result.newton_iters

    # -- installation ----------------------------------------------------------

    def _targets(self):
        """(owner, attribute, wrapper factory) for every traced boundary."""
        span = lambda name, after=None: lambda fn: self._span(name, fn, after)
        hot = lambda name: lambda fn: self._hot(name, fn)
        counted = lambda name: lambda fn: self._counted(name, fn)
        make_problem = span("inverse_problem.make_problem")
        randomized = span("gaussian_measure.randomized_eigen")
        kl = hot("gaussian_measure.kl_map")
        prior_pairs = span("gaussian_measure.prior_pairs")
        spectrum = span("inverse_problem.posterior_spectrum")
        return [
            (experiments, "make_linear_problem", make_problem),
            (experiments, "make_darcy_problem", make_problem),
            (inverse_problem.BayesProblem, "find_map",
             span("inverse_problem.find_map", self._record_map)),
            (inverse_problem.LinearPoissonProblem, "prior_pairs", prior_pairs),
            (inverse_problem.DarcyProblem, "prior_pairs", prior_pairs),
            (inverse_problem, "randomized_eigen", randomized),
            (gaussian_measure, "randomized_eigen", randomized),
            (inverse_problem.BayesProblem, "posterior_eigen", spectrum),
            (inverse_problem.LinearPoissonProblem, "posterior_pairs_analytic", spectrum),
            (experiments, "adapt", self._adapt),
            (sparse_quad, "tensor_delta", hot("sparse_quad.tensor_delta")),
            (sparse_quad.PointCache, "value", counted("sparse_quad.cache_lookup")),
            (inverse_problem, "kl_map", kl),
            (experiments, "kl_map", kl),
            (fem1d.TriDiagOperator, "solve", hot("fem1d.solve")),
        ]

    def install(self) -> None:
        for owner, attr, factory in self._targets():
            # a class's own attribute, so that uninstall restores exactly it;
            # a renamed target raises here instead of reading 0
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics -------------------------------------------------------

    def _t(self, name, phases=PHASES) -> float:
        return sum(self.time.get((name, p), 0.0) for p in phases)

    def _n(self, name, phases=PHASES) -> int:
        return sum(self.calls.get((name, p), 0) for p in phases)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the current round (see README.md)."""
        adapt_s = self._t("sparse_quad.adapt")
        td_calls = self._n("sparse_quad.tensor_delta")
        td_s = self._t("sparse_quad.tensor_delta")
        lookups = self._n("sparse_quad.cache_lookup")
        integrand_s = self._t("sparse_quad.integrand")
        quad_kl_s = self._t("gaussian_measure.kl_map", ("quad",))
        quad_solves = self._n("fem1d.solve", ("quad",))
        quad_solve_s = self._t("fem1d.solve", ("quad",))
        solves = self._n("fem1d.solve")
        points = self.points
        return {
            "sparse_quad.adapt_self_s": adapt_s - td_s,
            "sparse_quad.tensor_delta_calls": td_calls,
            "sparse_quad.tensor_delta_self_s": td_s - integrand_s,
            "sparse_quad.cache_lookups": lookups,
            "sparse_quad.cache_hit_ratio": 1.0 - points / lookups if lookups else 0.0,
            "sparse_quad.points": points,
            "sparse_quad.indices": self.indices,
            "sparse_quad.pending_final": td_calls - self.indices,
            "sparse_quad.integrand_s": integrand_s,
            "gaussian_measure.kl_map_calls": self._n("gaussian_measure.kl_map"),
            "gaussian_measure.kl_map_s": self._t("gaussian_measure.kl_map"),
            "gaussian_measure.prior_pairs_s": self._t("gaussian_measure.prior_pairs"),
            "gaussian_measure.randomized_eigen_calls":
                self._n("gaussian_measure.randomized_eigen"),
            "gaussian_measure.randomized_eigen_s":
                self._t("gaussian_measure.randomized_eigen"),
            "fem1d.quad_solves": quad_solves,
            "fem1d.solves_per_point": quad_solves / points if points else 0.0,
            "fem1d.solve_us": 1e6 * self._t("fem1d.solve") / solves if solves else 0.0,
            "fem1d.quad_solve_s": quad_solve_s,
            "fem1d.setup_solves": self._n("fem1d.solve", ("setup",)),
            "inverse_problem.integrand_self_s": integrand_s - quad_kl_s - quad_solve_s,
            "inverse_problem.make_problem_s": self._t("inverse_problem.make_problem"),
            "inverse_problem.find_map_s": self._t("inverse_problem.find_map"),
            "inverse_problem.newton_iters": self.newton_iters,
            "inverse_problem.posterior_spectrum_s":
                self._t("inverse_problem.posterior_spectrum"),
            "experiments.post_s": self._t("experiments.run") - adapt_s,
        }
