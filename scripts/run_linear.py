#!/usr/bin/env python3
"""Full linear-benchmark study: prior-based vs Hessian-based quadrature for
both QoIs and both smoothness levels, plus the Monte Carlo baseline.

Writes one output directory per run (convergence.csv, spectrum.csv,
trace.csv, summary.json) and an mc_<qoi>_alpha<k>.csv per MC curve.
Use --budget to scale the point budgets down for a quick look.
"""

import os

# one BLAS thread, as in the benchmark and scripts/trace_digests.py: the last
# bits of the results depend on the thread count; set before numpy loads
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

from hessquad.cli import write_marginals, write_outputs  # noqa: E402
from hessquad.experiments import (  # noqa: E402
    ExperimentConfig,
    linear_setup,
    mc_baseline,
    run_linear,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("results/linear"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=50_000,
                    help="max quadrature points for the Hessian-based runs")
    ap.add_argument("--mc-trials", type=int, default=100)
    ap.add_argument("--marginals", action="store_true",
                    help="also write anchored marginal density grids for the "
                         "first six prior dimensions")
    args = ap.parse_args()

    if args.marginals:
        setup = linear_setup(
            ExperimentConfig.linear_default(alpha=1, seed=args.seed)
        )
        write_marginals(args.out / "marginals", setup, (1, 2))

    for qoi in ("q1", "q2"):
        for alpha in (1, 2):
            for mode, construction, budget in (
                ("hessian", "aposteriori", args.budget),
                ("hessian", "apriori", args.budget),
                ("prior", "aposteriori", min(args.budget, 10_000)),
            ):
                cfg = ExperimentConfig.linear_default(
                    alpha=alpha, qoi=qoi, mode=mode, construction=construction,
                    seed=args.seed, max_points=budget,
                )
                run = run_linear(cfg)
                name = f"{qoi}_alpha{alpha}_{mode}_{construction}"
                write_outputs(args.out / name, run)
                print(f"{name}: rate {run.record.rates[0]:.3f}, "
                      f"final error {run.record.checkpoints[-1].abs_error[0]:.3e}")
            mc_cfg = ExperimentConfig.linear_default(
                alpha=alpha, qoi=qoi, seed=args.seed,
                max_points=min(args.budget, 10_000),
            )
            rec = mc_baseline(mc_cfg, n_trials=args.mc_trials)
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"mc_{qoi}_alpha{alpha}.csv").write_text(rec.to_csv())
            print(f"mc_{qoi}_alpha{alpha}: rate {rec.rates[0]:.3f}")


if __name__ == "__main__":
    main()
