#!/usr/bin/env python3
"""Print ``sha256  name`` of the adaptive trace (``trace_to_csv``) of the
benchmark workloads and of every acceptance-suite run: the six linear runs
and the two Darcy runs.

    python3 scripts/trace_digests.py

Run from the repository root; takes a few minutes.  A change that must leave
every trace byte-identical shows it by printing the same lines as its parent.
The benchmark configurations are read from ``perfbench/run.py`` (seed 0), and
BLAS runs on one thread, as in the benchmark, because the last bits of the
setup depend on the thread count.
"""

import os

# before numpy loads
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import WORKLOADS  # noqa: E402

from hessquad.experiments import (  # noqa: E402
    ExperimentConfig,
    darcy_setup,
    run_darcy,
    run_linear,
)
from hessquad.sparse_quad import trace_to_csv  # noqa: E402

# (alpha, qoi, mode, max_points) of the acceptance suite's linear runs
# (``_linear_run`` in tests/test_acceptance.py): the four Hessian-path rate
# runs, then criterion 3's two prior-path runs
LINEAR_RUNS = (
    (1, "q1", "hessian", 50_000),
    (2, "q1", "hessian", 20_000),
    (1, "q2", "hessian", 20_000),
    (2, "q2", "hessian", 20_000),
    (1, "q1", "prior", 10_000),
    (1, "q2", "prior", 10_000),
)


def _show(name, out):
    digest = hashlib.sha256(trace_to_csv(out.quadrature.trace).encode()).hexdigest()
    print(f"{digest}  {name}", flush=True)


def main():
    for name, wl in WORKLOADS.items():
        cfg = wl.config(0)
        _show(name, wl.run(cfg, wl.setup(cfg)))
    for alpha, qoi, mode, budget in LINEAR_RUNS:
        cfg = ExperimentConfig.linear_default(
            alpha=alpha, qoi=qoi, mode=mode, construction="aposteriori",
            mesh_exp=10, seed=0, max_points=budget,
        )
        _show(f"acceptance-linear-{mode}-{qoi}-alpha{alpha}-{budget // 1000}k",
              run_linear(cfg))
    # the acceptance suite's darcy_shared runs: one setup, two runs
    cfg = ExperimentConfig.darcy_default(
        mesh_exp=10, seed=0, kl_dims=200, max_points=100_000,
    )
    setup = darcy_setup(cfg)
    _show("acceptance-darcy-hessian-100k", run_darcy(cfg, setup))
    prior_cfg = ExperimentConfig.darcy_default(
        mesh_exp=10, seed=0, kl_dims=200, max_points=10_000, mode="prior",
    )
    _show("acceptance-darcy-prior-10k", run_darcy(prior_cfg, setup))


if __name__ == "__main__":
    main()
