"""Convergence studies for the linear (Poisson) and nonlinear (Darcy) benchmarks.

One ``Setup`` serves both problems: it holds the seeded problem and
computes the MAP point and each Gaussian field (prior or posterior spectral
data) on first read, so a prior-mode Darcy study solves no MAP problem.  A
run assembles the requested integrand (prior-based weighting, Hessian-based
reweighting, or the plain Gaussian path for the linear problem), and one
tail drives the adaptive sparse quadrature to a point budget and extracts
checkpointed errors against a reference: closed-form for the linear
problem, the same estimator at a 10x budget for Darcy.  Asymptotic rates are
least-squares slopes over the trailing half of the checkpoints in log space.

The linear problem uses closed forms only on its Hessian path and in its
references.  There the posterior is exactly Gaussian and each QoI is a
function of the scalar l^T m1(xi), so an integrand evaluation is a few dot
products (numerically identical to the KL map, tested).  Its prior path runs
the prior-weighted integrand that the Darcy problem runs, one forward solve
per point.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .gaussian_measure import EigenPairs, GaussianField, kl_map, rng_stream
from .inverse_problem import (
    BayesProblem,
    MapResult,
    NewtonConfig,
    hessian_reweighted_integrand,
    make_darcy_problem,
    make_linear_problem,
    prior_weighted_integrand,
)
from .multiindex import BNuConfig
from .sparse_quad import (
    TIE_FLOOR,
    AdaptConfig,
    Construction,
    Integrand,
    QuadratureResult,
    TraceRecord,
    adapt,
)

POINT_LADDER_ANCHORS = (1.0, 2.0, 5.0)

# A Darcy run's reference is its own value at the full budget, so its
# checkpointed errors stop at the budget divided by this margin.
_SELF_REFERENCE_MARGIN = 10

# The QoIs each problem defines.
_QOIS = {"linear": ("q1", "q2"), "darcy": ("u_center",)}

# Fields only the Darcy problem reads: a linear config must leave them at
# their (unused) defaults, so a value set there is refused, not ignored.
_DARCY_ONLY = ("gamma", "kappa", "obs_count")


# Integer fields: a whole-valued float (6.0 or 1e3 from JSON) is taken as its
# int, anything else is refused by name.  kl_dims may also be None.
_WHOLE_NUMBERS = ("alpha", "mesh_exp", "obs_count", "seed", "max_points",
                  "max_indices", "kl_dims")

# Float fields: any finite real number (an int from JSON included) is taken
# as its float, anything else is refused by name.  tolerance may also be None.
_REALS = ("beta", "gamma", "kappa", "sigma", "tolerance")


def _is_real(value) -> bool:
    # bool is a numbers.Real, but true/false in a config is a mistake
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _whole_number(name: str, value) -> int:
    if not (_is_real(value) and float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _real_number(name: str, value) -> float:
    if not (_is_real(value) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


@dataclass
class ExperimentConfig:
    """Everything a benchmark run needs; JSON keys mirror the physical and
    statistical symbols (alpha, beta, gamma, kappa, sigma, mesh_exp,
    obs_count, seed)."""

    problem: str = "linear"  # "linear" | "darcy"
    alpha: int = 1
    beta: float = 5e-2
    gamma: float = 0.0
    kappa: float = 0.0
    sigma: float = 1e-2
    mesh_exp: int = 10
    obs_count: int = 65
    seed: int = 0
    mode: str = "hessian"  # "hessian" | "prior"
    construction: str = "aposteriori"  # "apriori" | "aposteriori"
    qoi: str = "q1"  # "q1" | "q2" (linear), "u_center" (darcy)
    tolerance: float | None = None
    max_points: int = 20000
    max_indices: int = 20000
    kl_dims: int | None = None

    def __post_init__(self):
        for names, convert in ((_WHOLE_NUMBERS, _whole_number), (_REALS, _real_number)):
            for name in names:
                value = getattr(self, name)
                if value is not None:
                    setattr(self, name, convert(name, value))
        if self.problem not in ("linear", "darcy"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.mode not in ("hessian", "prior"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.construction not in ("apriori", "aposteriori"):
            raise ValueError(f"unknown construction {self.construction!r}")
        if self.qoi not in _QOIS[self.problem]:
            raise ValueError(f"qoi must be one of {_QOIS[self.problem]} for the "
                             f"{self.problem} problem, got {self.qoi!r}")
        if self.problem == "linear":
            for f in fields(self):
                if f.name in _DARCY_ONLY and getattr(self, f.name) != f.default:
                    raise ValueError(f"{f.name} applies to the darcy problem only, "
                                     f"got {getattr(self, f.name)!r} for the linear problem")
        for name in ("beta", "sigma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.tolerance is not None and self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive or null, got {self.tolerance!r}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.obs_count < 1:
            raise ValueError(f"obs_count must be >= 1, got {self.obs_count!r}")
        if self.alpha not in (1, 2):
            raise ValueError("alpha must be 1 or 2")
        if not 3 <= self.mesh_exp <= 12:
            raise ValueError("mesh_exp must be in 3..12")
        for name in ("max_points", "max_indices"):
            count = getattr(self, name)
            if count < 1:
                raise ValueError(f"{name} must be >= 1, got {count}")
        if self.kl_dims is not None:
            # parameter dimension: interior nodes (linear) or all nodes (Darcy)
            n_params = 2**self.mesh_exp + (1 if self.problem == "darcy" else -1)
            if not 1 <= self.kl_dims <= n_params:
                raise ValueError(f"kl_dims must be in 1..{n_params} at mesh_exp "
                                 f"{self.mesh_exp} (or null for all), got {self.kl_dims}")

    @classmethod
    def linear_default(cls, **overrides) -> "ExperimentConfig":
        return replace(cls(), **overrides)

    @classmethod
    def darcy_default(cls, **overrides) -> "ExperimentConfig":
        base = cls(
            problem="darcy", alpha=1, beta=2.0, gamma=1.0, kappa=1e3,
            sigma=5e-2, qoi="u_center", max_points=100_000, max_indices=20000,
        )
        return replace(base, **overrides)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, problem: str = "linear") -> "ExperimentConfig":
        """Config from a JSON object.  ``problem`` applies when the object has
        no "problem" key; the fields it leaves out take the defaults of its
        problem (``darcy_default`` for "darcy")."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, not {type(data).__name__}")
        fields = {"problem": problem, **data}
        if fields["problem"] == "darcy":
            return cls.darcy_default(**fields)
        return cls(**fields)

    def adapt_config(self) -> AdaptConfig:
        return AdaptConfig(
            tolerance=self.tolerance,
            max_indices=self.max_indices,
            max_points=self.max_points,
            bnu=BNuConfig.from_smoothness(self.alpha),
        )


@dataclass(frozen=True)
class Checkpoint:
    n_points: int
    n_indices: int
    value: tuple[float, ...]
    abs_error: tuple[float, ...]
    rel_error: tuple[float, ...]


@dataclass
class ConvergenceRecord:
    """Checkpointed errors of one run plus the fitted asymptotic rates."""

    checkpoints: list[Checkpoint]
    rates: tuple[float, ...]
    reference: tuple[float, ...]
    label: str = ""
    rate_notes: tuple[str | None, ...] = ()

    def n_points(self) -> np.ndarray:
        return np.array([c.n_points for c in self.checkpoints])

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        n_out = len(self.reference)
        header = ["n_points", "n_indices"]
        for i in range(n_out):
            header += [f"value_{i}", f"abs_error_{i}", f"rel_error_{i}"]
        writer.writerow(header)
        for c in self.checkpoints:
            row = [c.n_points, c.n_indices]
            for i in range(n_out):
                row += [
                    f"{c.value[i]:.17g}",
                    f"{c.abs_error[i]:.17g}",
                    f"{c.rel_error[i]:.17g}",
                ]
            writer.writerow(row)
        return buf.getvalue()


def point_ladder(lo: int, hi: int) -> list[int]:
    """1-2-5 budget ladder between lo and hi inclusive."""
    out = []
    decade = 1
    while decade <= hi:
        for a in POINT_LADDER_ANCHORS:
            b = int(a * decade)
            if lo <= b <= hi:
                out.append(b)
        decade *= 10
    if not out or out[-1] != hi:
        out.append(hi)
    return out


def estimate_rate(n_points: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) vs log(n_points); returns -slope.

    Requires at least 5 checkpoints spanning at least one decade, finite
    errors and two nonzero errors.  Zero errors (exact hits) are floored at
    the smallest positive error to keep the fit defined; with one positive
    error the floor would make the line flat by construction, so that is
    refused.
    """
    n = np.asarray(n_points, dtype=float)
    e = np.abs(np.asarray(errors, dtype=float))
    if len(n) < 5:
        raise ValueError("need at least 5 checkpoints")
    if n.max() < 10.0 * n.min():
        raise ValueError("checkpoints must span at least one decade")
    if not np.isfinite(e).all():
        raise ValueError(f"{np.count_nonzero(~np.isfinite(e))} of the {len(e)} errors are "
                         "not finite (inf or nan), so no rate can be fitted")
    positive = e[e > 0]
    if len(positive) == 0:
        raise ValueError(
            "every error is 0: the estimate equals its reference at every "
            "checkpoint given, so no rate can be fitted"
        )
    if len(positive) == 1:
        raise ValueError(
            f"only 1 of the {len(e)} errors is positive and the rest are 0: "
            "flooring the zeros at it would fit a flat line by construction, "
            "so no rate can be fitted"
        )
    e = np.maximum(e, positive.min())
    slope = np.polyfit(np.log(n), np.log(e), 1)[0]
    return float(-slope)


def trailing_window(n_points: Sequence[float]) -> np.ndarray:
    """Boolean mask of the trailing half of the checkpoints in log space."""
    n = np.asarray(n_points, dtype=float)
    split = math.sqrt(n.min() * n.max())
    mask = n >= split
    if mask.sum() < 5:  # fall back to the last five checkpoints
        mask = np.zeros(len(n), dtype=bool)
        mask[-min(5, len(n)):] = True
    return mask


# ---------------------------------------------------------------------------
# study setups: the problem, its MAP point and its two Gaussian fields
# ---------------------------------------------------------------------------


def _in_phase(phase: str, recipe: Callable, *args):
    """``recipe(*args)``; an exception it raises is raised again, of the same
    type, with ``phase`` leading its message and the original chained."""
    try:
        return recipe(*args)
    except Exception as exc:
        raise type(exc)(f"{phase}: {exc}") from exc


@dataclass
class Setup:
    """A study's problem and its recipes for the MAP point and the prior and
    posterior pairs.  ``map_result`` and the two fields are computed on first
    read and kept, so a study pays only for what it reads; an error in a
    recipe names its phase ("MAP solve", "prior eigensolve", "posterior
    eigensolve").  The fields keep the eigensolvers' arrays as they are: the
    integrands build the cell data their points read
    (``DarcyProblem._point_observer``)."""

    problem: BayesProblem
    solve_map: Callable[[], MapResult]
    prior_pairs: Callable[[], EigenPairs]
    posterior_pairs: Callable[[MapResult], EigenPairs]

    @cached_property
    def map_result(self) -> MapResult:
        result = _in_phase("MAP solve", self.solve_map)
        if not result.converged:
            raise RuntimeError(f"MAP solve did not converge: stopped on "
                               f"{result.stopped_on} at Newton iteration "
                               f"{result.newton_iters}")
        return result

    @cached_property
    def prior_field(self) -> GaussianField:
        return GaussianField(self.problem.prior_mean,
                             _in_phase("prior eigensolve", self.prior_pairs))

    @cached_property
    def posterior_field(self) -> GaussianField:
        map_result = self.map_result
        return GaussianField(map_result.map_point, _in_phase(
            "posterior eigensolve", self.posterior_pairs, map_result))

    def field(self, mode: str) -> GaussianField:
        """The field a run of this mode integrates over."""
        return self.prior_field if mode == "prior" else self.posterior_field


def linear_setup(cfg: ExperimentConfig) -> Setup:
    """The linear problem with its closed-form spectra, its MAP point and
    the field that ``cfg.mode`` integrates over."""
    problem = make_linear_problem(
        alpha=cfg.alpha, beta=cfg.beta, sigma=cfg.sigma,
        mesh_exp=cfg.mesh_exp, seed=cfg.seed,
    )
    J = cfg.kl_dims if cfg.kl_dims is not None else problem.mesh.n_interior
    setup = Setup(
        problem,
        solve_map=lambda: problem.find_map(cfg=NewtonConfig(tol=1e-12, max_newton=60)),
        prior_pairs=lambda: problem.prior_pairs(J),
        posterior_pairs=lambda map_result: problem.posterior_pairs_analytic(J),
    )
    # the closed-form reference reads the posterior field, and so the MAP
    # point, in either mode
    setup.posterior_field
    setup.field(cfg.mode)
    return setup


def darcy_setup(cfg: ExperimentConfig) -> Setup:
    """The Darcy problem and the field that ``cfg.mode`` integrates over:
    the prior spectrum in prior mode, the posterior spectrum (and so the MAP
    point) in Hessian mode.  Each field draws from its own rng stream (10
    prior, 12 posterior), so the order of the reads changes neither."""
    problem = make_darcy_problem(
        alpha=cfg.alpha, beta=cfg.beta, gamma=cfg.gamma, kappa=cfg.kappa,
        sigma=cfg.sigma, mesh_exp=cfg.mesh_exp, obs_count=cfg.obs_count,
        seed=cfg.seed,
    )
    J = cfg.kl_dims if cfg.kl_dims is not None else problem.mesh.n_nodes
    # Sketch size margin of the prior eigensolve and of the posterior step of
    # ``posterior_eigen``; its misfit step keeps its own margin of 10 over
    # ``j1``.  The trailing computed pairs must be accurate out to the KL
    # truncation (inaccurate pairs inject spurious curvature into the
    # reweighting), so the margin is as wide as the truncation itself.
    oversampling = max(10, J)
    setup = Setup(
        problem,
        solve_map=lambda: problem.find_map(),
        prior_pairs=lambda: problem.prior_pairs(
            J, rng=rng_stream(cfg.seed, 10), oversampling=oversampling, power_iters=3,
        ),
        posterior_pairs=lambda map_result: problem.posterior_eigen(
            map_result, J, oversampling=oversampling, power_iters=3,
            rng=rng_stream(cfg.seed, 12),
        ),
    )
    setup.field(cfg.mode)
    return setup


# ---------------------------------------------------------------------------
# linear problem: the Hessian-path integrand and closed-form references
# ---------------------------------------------------------------------------


def functional_coefficients(
    field: GaussianField, functional: np.ndarray
) -> tuple[float, np.ndarray]:
    """Affine coefficients of l^T m(xi): base + sum_j coef_j xi_j."""
    base = float(np.dot(functional, field.mean))
    return base, field.sqrt_values * (functional @ field.pairs.vectors)


def linear_gaussian_integrand(setup: Setup, qoi: str) -> Integrand:
    """Fast xi -> Q(m1(xi)) under the Hessian (exact posterior)
    parametrization, per point of the list it is given; identical values to
    the generic KL-map path.  A coordinate outside the truncation is refused
    as ``kl_map`` refuses it."""
    fld = setup.posterior_field
    base, coefs = functional_coefficients(
        fld, setup.problem.linear_functional(qoi)
    )
    J = fld.truncation

    def affine(xi):  # l^T m1(xi)
        s = base
        for j, x in xi.items():
            if not 1 <= j <= J:
                raise ValueError(f"coordinate dimension {j} outside truncation {J}")
            s += coefs[j - 1] * x
        return s

    if qoi == "q1":
        fn = lambda points: [math.exp(affine(xi)) for xi in points]
    else:
        fn = lambda points: [float(affine(xi) ** 2) for xi in points]
    return Integrand(fn=fn, n_outputs=1, dim_hint=J)


def linear_reference(setup: Setup, qoi: str) -> float:
    """Closed-form posterior mean of the QoI from the spectral data.

    Under the posterior, l^T m is Gaussian with mean l^T m1 and variance
    sum_j lambda_j (l^T psi_j)^2, so E[Q1] = exp(mean + var/2) (the lognormal
    identity) and E[Q2] = mean^2 + var.  A Q1 reference that overflows is
    refused.
    """
    l = setup.problem.linear_functional(qoi)
    pairs = setup.posterior_field.pairs
    mean = float(np.dot(setup.map_result.map_point, l))
    var = float(np.sum(pairs.values * (l @ pairs.vectors) ** 2))
    if qoi != "q1":
        return mean**2 + var
    try:
        return math.exp(mean + 0.5 * var)
    except OverflowError:
        raise ValueError(f"the Q1 reference exp(mean + var/2) overflows: its exponent "
                         f"is {mean + 0.5 * var:.6g}") from None


# ---------------------------------------------------------------------------
# run drivers
# ---------------------------------------------------------------------------


@dataclass
class RunOutput:
    config: ExperimentConfig
    record: ConvergenceRecord
    quadrature: QuadratureResult
    reference: tuple[float, ...]
    estimate: tuple[float, ...]
    spectrum: np.ndarray
    summary: dict = field(default_factory=dict)


def _checkpoints_from_trace(
    trace: Sequence[TraceRecord],
    estimates: Sequence[tuple[float, ...]],
    reference: tuple[float, ...],
    cap: int,
) -> list[Checkpoint]:
    counts = [rec.n_points for rec in trace]
    cps: list[Checkpoint] = []
    for b in point_ladder(max(10, counts[0]), cap):
        # the last step within the budget (the counts never decrease),
        # unless that step already has its checkpoint
        i = bisect.bisect_right(counts, b) - 1
        if i < 0 or (cps and cps[-1].n_points == counts[i]):
            continue
        rec, est = trace[i], estimates[i]
        abse = tuple(abs(e - r) for e, r in zip(est, reference))
        rele = tuple(a / max(abs(r), 1e-300) for a, r in zip(abse, reference))
        cps.append(Checkpoint(rec.n_points, rec.n_indices, est, abse, rele))
    return cps


def _convergence_record(
    cps: Sequence[Checkpoint], reference: tuple[float, ...], label: str
) -> ConvergenceRecord:
    """The run's record with a trailing-window rate per output.  A rate that
    cannot be fitted is nan, and ``rate_notes`` says why (None where the fit
    is defined)."""
    n = np.array([c.n_points for c in cps], dtype=float)
    mask = trailing_window(n)
    rates, notes = [], []
    for i in range(len(reference)):
        e = np.array([c.abs_error[i] for c in cps])
        try:
            rates.append(estimate_rate(n[mask], e[mask]))
            notes.append(None)
        except ValueError as exc:
            rates.append(math.nan)
            notes.append(str(exc))
    return ConvergenceRecord(cps, tuple(rates), reference, label, tuple(notes))


def _run(cfg: ExperimentConfig, setup: Setup, integrand: Integrand, estimate: Callable,
         reference: Callable, cap: int, label: str) -> RunOutput:
    """The tail both problems share: adapt, map each step's value to its
    estimate, checkpoint the estimates up to ``cap`` points against the
    reference (a function of the list of estimates), fit the rates."""
    result = adapt(integrand, Construction(cfg.construction), cfg.adapt_config())
    estimates = [estimate(rec.value) for rec in result.trace]
    ref = reference(estimates)
    cps = _checkpoints_from_trace(result.trace, estimates, ref, cap)
    record = _convergence_record(cps, ref, label)
    return RunOutput(
        config=cfg,
        record=record,
        quadrature=result,
        reference=ref,
        estimate=estimates[-1],
        spectrum=setup.field(cfg.mode).pairs.values,
        summary=_summary(cfg, record, result, ref, estimates[-1]),
    )


def run_linear(cfg: ExperimentConfig, setup: Setup | None = None) -> RunOutput:
    """Linear benchmark: adaptive quadrature against the closed-form reference."""
    setup = setup if setup is not None else linear_setup(cfg)
    reference = (linear_reference(setup, cfg.qoi),)
    if cfg.mode == "hessian":
        integrand = linear_gaussian_integrand(setup, cfg.qoi)
        estimate = lambda v: (v[0],)
    else:
        integrand = prior_weighted_integrand(
            setup.problem, setup.prior_field, setup.problem.qoi(cfg.qoi)
        )
        estimate = lambda v: (v[1] / v[0] if v[0] != 0.0 else math.inf,)
    return _run(cfg, setup, integrand, estimate, lambda _: reference, cfg.max_points,
                f"linear-{cfg.mode}-{cfg.qoi}-alpha{cfg.alpha}")


def run_darcy(cfg: ExperimentConfig, setup: Setup | None = None) -> RunOutput:
    """Darcy benchmark with the self-convergence protocol: the run's final
    value at the full budget is the reference; checkpointed errors stop at a
    tenth of the budget."""
    setup = setup if setup is not None else darcy_setup(cfg)
    problem = setup.problem
    qoi = problem.qoi(cfg.qoi)
    if cfg.mode == "hessian":
        integrand = hessian_reweighted_integrand(
            problem, setup.posterior_field, setup.map_result.cost_at_map, qoi
        )
    else:
        integrand = prior_weighted_integrand(problem, setup.prior_field, qoi)
    out = _run(cfg, setup, integrand, lambda v: v, lambda estimates: estimates[-1],
               max(10, cfg.max_points // _SELF_REFERENCE_MARGIN), f"darcy-{cfg.mode}")
    z, zq = out.reference
    out.summary["posterior_mean_qoi"] = _finite_or_none(zq / z if z != 0 else math.nan)
    return out


def run_convergence(cfg: ExperimentConfig) -> RunOutput:
    if cfg.problem == "linear":
        return run_linear(cfg)
    return run_darcy(cfg)


def _finite_or_none(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


def _summary(cfg, record, result, reference, estimate) -> dict:
    return {
        "label": record.label,
        "config": asdict(cfg),
        "reference": [_finite_or_none(v) for v in reference],
        "estimate": [_finite_or_none(v) for v in estimate],
        "rates": [_finite_or_none(v) for v in record.rates],
        "rate_notes": list(record.rate_notes),
        "final_abs_error": [
            _finite_or_none(v) for v in record.checkpoints[-1].abs_error
        ]
        if record.checkpoints
        else None,
        "n_points": result.n_points,
        "n_indices": result.n_indices,
        "converged": result.converged,
        "stopped_on": result.stopped_on,
        # steps chosen in tie-break order: indicator at or below TIE_FLOOR
        "tie_break_steps": sum(rec.indicator <= TIE_FLOOR for rec in result.trace[1:]),
        "max_active_dim": result.index_set.max_active_dim
        if result.index_set is not None
        else None,
    }


# ---------------------------------------------------------------------------
# anchored marginal density grids
# ---------------------------------------------------------------------------


def anchored_marginal_grid(
    problem,
    field: GaussianField,
    dims: tuple[int, ...],
    coords: np.ndarray,
) -> dict[str, np.ndarray]:
    """Anchored marginal densities along one or two KL coordinates.

    All other coordinates sit at zero.  In the coordinates of an affine
    parametrization the posterior density is proportional to exp(-J(m(xi)))
    and the prior density to exp(-(J - Phi)) = exp(-prior_cost); the
    parametrization's own reference Gaussian is exp(-|xi|^2 / 2).  Each column
    is normalized by its maximum over the grid, the usual presentation of
    these plots.
    """
    if len(dims) not in (1, 2):
        raise ValueError("anchored marginals are one- or two-dimensional")
    coords = np.asarray(coords, dtype=float)
    if len(dims) == 1:
        points = [(x,) for x in coords]
    else:
        points = [(x, z) for x in coords for z in coords]
    log_post = np.empty(len(points))
    log_prior = np.empty(len(points))
    log_ref = np.empty(len(points))
    for i, pt in enumerate(points):
        xi = {d: float(x) for d, x in zip(dims, pt)}
        m = kl_map(field, xi)
        phi = problem.potential(m)
        pc = problem.prior_cost(m)
        log_post[i] = -(phi + pc)
        log_prior[i] = -pc
        log_ref[i] = -0.5 * sum(x * x for x in pt)
    out = {
        f"xi_{d}": np.array([pt[k] for pt in points])
        for k, d in enumerate(dims)
    }
    for name, logs in (("reference", log_ref), ("prior", log_prior),
                       ("posterior", log_post)):
        out[name] = np.exp(logs - logs.max())
    return out


def anchored_marginal_csv(
    problem,
    field: GaussianField,
    dims: tuple[int, ...],
    coords: np.ndarray,
) -> str:
    grid = anchored_marginal_grid(problem, field, dims, coords)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = list(grid)
    writer.writerow(names)
    for row in zip(*grid.values()):
        writer.writerow([f"{v:.17g}" for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Monte Carlo baseline
# ---------------------------------------------------------------------------


def mc_baseline(
    cfg: ExperimentConfig,
    n_trials: int = 100,
    setup: Setup | None = None,
) -> ConvergenceRecord:
    """Plain Monte Carlo under the Hessian parametrization of the linear
    problem, averaged absolute error over repeated trials per budget.

    Both QoIs are functions of the scalar linear functional l^T m1(xi),
    which under xi ~ N(0, I) truncated at J is exactly Gaussian with the
    closed-form mean and variance of the KL coefficients; sampling that
    scalar directly reproduces the estimator's distribution without forming
    the 1023-dimensional coordinate vector.
    """
    if cfg.problem != "linear":
        raise ValueError("the MC baseline is defined for the linear problem")
    setup = setup if setup is not None else linear_setup(cfg)
    reference = linear_reference(setup, cfg.qoi)
    base, coefs = functional_coefficients(
        setup.posterior_field, setup.problem.linear_functional(cfg.qoi)
    )
    scale = float(np.linalg.norm(coefs))
    budgets = point_ladder(10, cfg.max_points)
    n_max = budgets[-1]
    err_sum = np.zeros(len(budgets))
    for trial in range(n_trials):
        rng = rng_stream(cfg.seed, 100, trial)
        s = base + scale * rng.standard_normal(n_max)
        q = np.exp(s) if cfg.qoi == "q1" else s**2
        csum = np.cumsum(q)
        for i, b in enumerate(budgets):
            err_sum[i] += abs(csum[b - 1] / b - reference)
    errors = err_sum / n_trials
    cps = [
        Checkpoint(b, 0, (math.nan,), (float(e),), (float(e / max(abs(reference), 1e-300)),))
        for b, e in zip(budgets, errors)
    ]
    return _convergence_record(cps, (reference,), f"mc-{cfg.qoi}-alpha{cfg.alpha}")
