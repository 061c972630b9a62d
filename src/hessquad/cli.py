"""Command-line interface: ``linear``, ``darcy``, and ``rules`` subcommands.

Runs write ``convergence.csv``, ``spectrum.csv``, ``trace.csv`` and
``summary.json`` into the output directory.  Exit codes: 0 on success, 2 when
a requested tolerance was not reached within the budgets or the quadrature
ran out of levels (``stopped_on`` in the summary says which), 1 on error.

BLAS runs on one thread, whatever the environment says: the last bits of the
results depend on the thread count.
"""

from __future__ import annotations

import os

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))  # before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from .experiments import (  # noqa: E402
    ExperimentConfig,
    RunOutput,
    Setup,
    anchored_marginal_csv,
    run_convergence,
)
from .gaussian_measure import spectrum_to_csv  # noqa: E402
from .quad1d import hermite_rule  # noqa: E402
from .sparse_quad import trace_to_csv  # noqa: E402


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--config", type=Path,
        help="JSON config file for this subcommand's problem; fields it leaves out "
        "take that problem's defaults, and flags override it",
    )
    p.add_argument("--mode", choices=["prior", "hessian"])
    p.add_argument("--construction", choices=["apriori", "aposteriori"])
    p.add_argument("--qoi", choices=["q1", "q2", "u_center"])
    p.add_argument("--alpha", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-points", type=int, dest="max_points")
    p.add_argument("--out", type=Path, default=Path("out"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessquad",
        description="Adaptive sparse quadrature studies for Bayesian inverse problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lin = sub.add_parser("linear", help="linear Poisson benchmark")
    _add_run_flags(p_lin)
    p_dar = sub.add_parser("darcy", help="nonlinear Darcy benchmark")
    _add_run_flags(p_dar)

    p_rules = sub.add_parser("rules", help="print a univariate quadrature rule")
    p_rules.add_argument("--level", type=int, required=True)
    p_rules.add_argument("--out", type=Path, help="write CSV here instead of stdout")
    return parser


def _config_from_args(args: argparse.Namespace, problem: str) -> ExperimentConfig:
    text = args.config.read_text() if args.config is not None else "{}"
    cfg = ExperimentConfig.from_json(text, problem)
    if cfg.problem != problem:
        raise ValueError(
            f"{args.config} configures the {cfg.problem} problem, not {problem}"
        )
    overrides = {}
    for name in ("mode", "construction", "qoi", "alpha", "seed", "max_points"):
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    return replace(cfg, **overrides)


def write_outputs(out_dir: Path, run: RunOutput) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "convergence.csv").write_text(run.record.to_csv())
    (out_dir / "spectrum.csv").write_text(spectrum_to_csv(run.spectrum))
    (out_dir / "trace.csv").write_text(trace_to_csv(run.quadrature.trace))
    summary = {**run.summary, "blas_threads": {k: os.environ[k] for k in _BLAS_THREADS}}
    text = json.dumps(summary, indent=2, allow_nan=False)
    (out_dir / "summary.json").write_text(text + "\n")


def write_marginals(out_dir: Path, setup: Setup, pair: tuple[int, int]) -> None:
    """Anchored marginal density grids of the setup's prior field:
    ``dim<d>.csv`` on 81 points for each of dimensions 1-6, and
    ``dim<a>_dim<b>.csv`` on 41 x 41 points for the two dimensions of ``pair``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for dims, n in [((d,), 81) for d in range(1, 7)] + [(pair, 41)]:
        text = anchored_marginal_csv(setup.problem, setup.prior_field, dims,
                                     np.linspace(-4.0, 4.0, n))
        (out_dir / ("_".join(f"dim{d}" for d in dims) + ".csv")).write_text(text)


def _run_command(args: argparse.Namespace, problem: str) -> int:
    cfg = _config_from_args(args, problem)
    run = run_convergence(cfg)
    write_outputs(args.out, run)
    print(f"{run.record.label}: rates {run.record.rates}, "
          f"{run.quadrature.n_points} points, outputs in {args.out}")
    return 0 if run.quadrature.converged else 2


def _rules_command(args: argparse.Namespace) -> int:
    rule = hermite_rule(args.level)
    lines = ["node,weight"]
    for x, w in zip(rule.nodes, rule.weights):
        lines.append(f"{x:.16e},{w:.16e}")
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rules":
            return _rules_command(args)
        return _run_command(args, args.command)
    except Exception as exc:  # report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
