"""Command-line interface: ``linear``, ``darcy``, and ``rules`` subcommands.

Runs write ``convergence.csv``, ``spectrum.csv``, ``trace.csv`` and
``summary.json`` into the output directory.  Exit codes: 0 on success, 2 when
a requested tolerance was not reached within the budgets or the quadrature
ran out of levels (``stopped_on`` in the summary says which), 1 on error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import ExperimentConfig, RunOutput, run_convergence
from .gaussian_measure import spectrum_to_csv
from .quad1d import hermite_rule
from .sparse_quad import trace_to_csv


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--config", type=Path,
        help="JSON config file for this subcommand's problem; fields it leaves out "
        "take that problem's defaults, and flags override it",
    )
    p.add_argument("--mode", choices=["prior", "hessian"])
    p.add_argument("--construction", choices=["apriori", "aposteriori"])
    p.add_argument("--qoi", choices=["q1", "q2"])
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
    if args.config is not None:
        cfg = ExperimentConfig.from_json(args.config.read_text(), problem)
        if cfg.problem != problem:
            raise ValueError(
                f"{args.config} configures the {cfg.problem} problem, not {problem}"
            )
    elif problem == "darcy":
        cfg = ExperimentConfig.darcy_default()
    else:
        cfg = ExperimentConfig.linear_default()
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
    (out_dir / "summary.json").write_text(json.dumps(run.summary, indent=2) + "\n")


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
