"""Convergence studies for the linear (Poisson) and nonlinear (Darcy) benchmarks.

A run builds the seeded problem, computes the MAP point and the spectral
posterior data, assembles the requested integrand (prior-based weighting,
Hessian-based reweighting, or the plain Gaussian path for the linear
problem), drives the adaptive sparse quadrature to a point budget, and
extracts checkpointed errors against a reference: closed-form for the linear
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

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .gaussian_measure import EigenPairs, GaussianField, kl_map, rng_stream
from .inverse_problem import (
    DarcyProblem,
    LinearPoissonProblem,
    MapResult,
    NewtonConfig,
    hessian_reweighted_integrand,
    make_darcy_problem,
    make_linear_problem,
    prior_weighted_integrand,
)
from .multiindex import BNuConfig
from .sparse_quad import (
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
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
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
        fields = {"problem": problem, **json.loads(text)}
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

    def errors(self, output: int = 0) -> np.ndarray:
        return np.array([c.abs_error[output] for c in self.checkpoints])

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

    Requires at least 5 checkpoints spanning at least one decade and one
    nonzero error.  Zero errors (exact hits) are floored at the smallest
    positive error to keep the fit defined.
    """
    n = np.asarray(n_points, dtype=float)
    e = np.abs(np.asarray(errors, dtype=float))
    if len(n) < 5:
        raise ValueError("need at least 5 checkpoints")
    if n.max() < 10.0 * n.min():
        raise ValueError("checkpoints must span at least one decade")
    positive = e[e > 0]
    if len(positive) == 0:
        raise ValueError(
            "every error is 0: the estimate equals its reference at every "
            "checkpoint given, so no rate can be fitted"
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
# linear problem: spectral setup, the Hessian-path integrand, closed-form
# references
# ---------------------------------------------------------------------------


@dataclass
class LinearSetup:
    """Everything the linear benchmark derives from (config, seed)."""

    problem: LinearPoissonProblem
    map_result: MapResult
    prior_field: GaussianField
    posterior_field: GaussianField


def linear_setup(cfg: ExperimentConfig) -> LinearSetup:
    problem = make_linear_problem(
        alpha=cfg.alpha, beta=cfg.beta, sigma=cfg.sigma,
        mesh_exp=cfg.mesh_exp, seed=cfg.seed,
    )
    map_result = problem.find_map(cfg=NewtonConfig(tol=1e-12, max_newton=60))
    if not map_result.converged:
        raise RuntimeError("MAP solve did not converge")
    J = cfg.kl_dims if cfg.kl_dims is not None else problem.mesh.n_interior
    prior_field = GaussianField(problem.prior_mean, problem.prior_pairs(J))
    posterior_field = GaussianField(
        map_result.map_point, problem.posterior_pairs_analytic(J)
    )
    return LinearSetup(problem, map_result, prior_field, posterior_field)


def functional_coefficients(
    field: GaussianField, functional: np.ndarray
) -> tuple[float, np.ndarray]:
    """Affine coefficients of l^T m(xi): base + sum_j coef_j xi_j."""
    base = float(np.dot(functional, field.mean))
    return base, field.sqrt_values * (functional @ field.pairs.vectors)


def _affine(base: float, coefs: np.ndarray, xi: Mapping[int, float]) -> float:
    s = base
    for j, x in xi.items():
        s += coefs[j - 1] * x
    return s


def linear_gaussian_integrand(setup: LinearSetup, qoi: str) -> Integrand:
    """Fast xi -> Q(m1(xi)) under the Hessian (exact posterior)
    parametrization; identical values to the generic KL-map path."""
    fld = setup.posterior_field
    base, coefs = functional_coefficients(
        fld, setup.problem.linear_functional(qoi)
    )
    if qoi == "q1":
        fn = lambda xi: math.exp(_affine(base, coefs, xi))
    else:
        fn = lambda xi: float(_affine(base, coefs, xi) ** 2)
    return Integrand(fn=fn, n_outputs=1, dim_hint=fld.truncation)


def linear_reference(setup: LinearSetup, qoi: str) -> float:
    """Closed-form posterior mean of the QoI from the spectral data.

    Under the posterior, l^T m is Gaussian with mean l^T m1 and variance
    sum_j lambda_j (l^T psi_j)^2, so E[Q1] = exp(mean + var/2) (the lognormal
    identity) and E[Q2] = mean^2 + var.
    """
    l = setup.problem.linear_functional(qoi)
    pairs = setup.posterior_field.pairs
    mean = float(np.dot(setup.map_result.map_point, l))
    var = float(np.sum(pairs.values * (l @ pairs.vectors) ** 2))
    return math.exp(mean + 0.5 * var) if qoi == "q1" else mean**2 + var


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
    budgets = point_ladder(max(10, trace[0].n_points), cap)
    cps: list[Checkpoint] = []
    seen = set()
    for b in budgets:
        best = None
        for rec, est in zip(trace, estimates):
            if rec.n_points <= b:
                best = (rec, est)
            else:
                break
        if best is None:
            continue
        rec, est = best
        if rec.n_points in seen:
            continue
        seen.add(rec.n_points)
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


def run_linear(cfg: ExperimentConfig, setup: LinearSetup | None = None) -> RunOutput:
    """Linear benchmark: adaptive quadrature against the closed-form reference."""
    setup = setup if setup is not None else linear_setup(cfg)
    reference = (linear_reference(setup, cfg.qoi),)
    if cfg.mode == "hessian":
        integrand = linear_gaussian_integrand(setup, cfg.qoi)
        post = lambda v: (v[0],)
        spectrum = setup.posterior_field.pairs.values
    else:
        integrand = prior_weighted_integrand(
            setup.problem, setup.prior_field, setup.problem.qoi(cfg.qoi)
        )
        post = lambda v: (v[1] / v[0] if v[0] != 0.0 else math.inf,)
        spectrum = setup.prior_field.pairs.values
    construction = Construction(cfg.construction)
    result = adapt(integrand, construction, cfg.adapt_config())
    estimates = [post(rec.value) for rec in result.trace]
    cps = _checkpoints_from_trace(result.trace, estimates, reference, cfg.max_points)
    record = _convergence_record(
        cps, reference, f"linear-{cfg.mode}-{cfg.qoi}-alpha{cfg.alpha}"
    )
    return RunOutput(
        config=cfg,
        record=record,
        quadrature=result,
        reference=reference,
        estimate=estimates[-1],
        spectrum=spectrum,
        summary=_summary(cfg, record, result, reference, estimates[-1]),
    )


def _column_major_field(mean: np.ndarray, pairs: EigenPairs) -> GaussianField:
    """The field with its eigenvectors in Fortran order, so that each KL
    column ``kl_map`` reads is contiguous; the C-order array is dropped."""
    return GaussianField(mean, replace(pairs, vectors=np.asfortranarray(pairs.vectors)))


@dataclass
class DarcySetup:
    """The Darcy problem, its MAP point and the settings of its two Gaussian
    fields.  Each field is computed on first read from its own rng stream
    (10 prior, 12 posterior), so the order of the reads changes neither, and
    stores its KL columns contiguously (``_column_major_field``)."""

    problem: DarcyProblem
    map_result: MapResult
    kl_dims: int
    seed: int

    @property
    def oversampling(self) -> int:
        """Sketch size margin of both eigensolves.  The trailing computed
        pairs must be accurate out to the KL truncation (inaccurate pairs
        inject spurious curvature into the reweighting), so the sketch is as
        wide as the requested rank itself."""
        return max(10, self.kl_dims)

    @cached_property
    def prior_field(self) -> GaussianField:
        pairs = self.problem.prior_pairs(
            self.kl_dims, rng=rng_stream(self.seed, 10),
            oversampling=self.oversampling, power_iters=3,
        )
        return _column_major_field(self.problem.prior_mean, pairs)

    @cached_property
    def posterior_field(self) -> GaussianField:
        pairs = self.problem.posterior_eigen(
            self.map_result, self.kl_dims, oversampling=self.oversampling,
            power_iters=3, rng=rng_stream(self.seed, 12),
        )
        return _column_major_field(self.map_result.map_point, pairs)


def darcy_setup(cfg: ExperimentConfig) -> DarcySetup:
    """Build the problem, solve for the MAP point and compute the field that
    ``cfg.mode`` integrates over: the prior spectrum in prior mode, the
    posterior spectrum in Hessian mode.  The other field is computed on
    first read."""
    problem = make_darcy_problem(
        alpha=cfg.alpha, beta=cfg.beta, gamma=cfg.gamma, kappa=cfg.kappa,
        sigma=cfg.sigma, mesh_exp=cfg.mesh_exp, obs_count=cfg.obs_count,
        seed=cfg.seed,
    )
    map_result = problem.find_map()
    if not map_result.converged:
        raise RuntimeError("MAP solve did not converge")
    J = cfg.kl_dims if cfg.kl_dims is not None else problem.mesh.n_nodes
    setup = DarcySetup(problem, map_result, kl_dims=J, seed=cfg.seed)
    # read the field this mode integrates over, so that its cost is setup's
    getattr(setup, "prior_field" if cfg.mode == "prior" else "posterior_field")
    return setup


def run_darcy(cfg: ExperimentConfig, setup: DarcySetup | None = None) -> RunOutput:
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
        spectrum = setup.posterior_field.pairs.values
    else:
        integrand = prior_weighted_integrand(problem, setup.prior_field, qoi)
        spectrum = setup.prior_field.pairs.values
    construction = Construction(cfg.construction)
    result = adapt(integrand, construction, cfg.adapt_config())
    estimates = [rec.value for rec in result.trace]
    reference = estimates[-1]
    cap = max(10, cfg.max_points // _SELF_REFERENCE_MARGIN)
    cps = _checkpoints_from_trace(result.trace, estimates, reference, cap)
    record = _convergence_record(cps, reference, f"darcy-{cfg.mode}")
    ratio = reference[1] / reference[0] if reference[0] != 0 else math.nan
    out = RunOutput(
        config=cfg,
        record=record,
        quadrature=result,
        reference=reference,
        estimate=reference,
        spectrum=spectrum,
        summary=_summary(cfg, record, result, reference, reference),
    )
    out.summary["posterior_mean_qoi"] = ratio
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
    setup: LinearSetup | None = None,
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
    mask = trailing_window(np.array(budgets, dtype=float))
    rate = estimate_rate(np.array(budgets, dtype=float)[mask], errors[mask])
    return ConvergenceRecord(
        checkpoints=cps,
        rates=(rate,),
        reference=(reference,),
        label=f"mc-{cfg.qoi}-alpha{cfg.alpha}",
    )
