#!/usr/bin/env python3
"""Nonlinear Darcy study: Hessian-based a posteriori quadrature against the
10x-budget self-reference, and the prior-based comparison run.

The setup (data generation, MAP solve, spectral posterior) is shared between
the two runs, mirroring how the benchmark is meant to be compared.
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
    darcy_setup,
    run_darcy,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("results/darcy"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=100_000)
    ap.add_argument("--kl-dims", type=int, default=200)
    ap.add_argument("--marginals", action="store_true",
                    help="also write anchored marginal density grids for the "
                         "first six prior dimensions")
    args = ap.parse_args()

    cfg = ExperimentConfig.darcy_default(
        seed=args.seed, kl_dims=args.kl_dims, max_points=args.budget,
    )
    setup = darcy_setup(cfg)
    hessian = run_darcy(cfg, setup)
    prior_cfg = ExperimentConfig.darcy_default(
        seed=args.seed, kl_dims=args.kl_dims, mode="prior",
        max_points=max(args.budget // 10, 1000),
    )
    prior = run_darcy(prior_cfg, setup)

    write_outputs(args.out / "hessian_aposteriori", hessian)
    write_outputs(args.out / "prior_aposteriori", prior)

    if args.marginals:
        write_marginals(args.out / "marginals", setup, (2, 3))
    print(f"hessian: rates {tuple(round(r, 3) for r in hessian.record.rates)}, "
          f"posterior mean QoI {hessian.summary['posterior_mean_qoi']:.5f}")
    # None when the prior path's weight integral Z underflows to 0
    ratio = prior.summary["posterior_mean_qoi"]
    print(f"prior:   rates {tuple(round(r, 3) if r == r else r for r in prior.record.rates)}, "
          f"ratio estimate {'undefined' if ratio is None else f'{ratio:.5f}'}")


if __name__ == "__main__":
    main()
