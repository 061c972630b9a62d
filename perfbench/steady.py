#!/usr/bin/env python3
"""Steadiness of the benchmark: one run per seed, then each end-to-end
metric's median and quartile spread (Q3 - Q1 over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) against its bound.

    python3 perfbench/steady.py --workload darcy-hessian --seeds 0-9

Runs are sequential, each a fresh process, with ``run_seconds`` from
BENCHMARK.json.  Results are appended to
``perfbench/out/steady.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    args = ap.parse_args()

    results = []
    for seed in parse_seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: wall {wall:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}, "
              + ", ".join(f"{k} {v:.4f}" for k, v in values.items()), flush=True)
        results.append({"seed": seed, "wall_s": wall, **result})

    summary = {"workload": args.workload, "seeds": args.seeds,
               "seconds": spec["run_seconds"], "time": time.strftime("%Y-%m-%d %H:%M:%S"),
               "runs": results, "metrics": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med
        summary["metrics"][name] = {"median": med, "spread": spread}
        print(f"{name}: median {med:.4f}, spread {spread:.4f} "
              f"(bound {metric['bound']}, a third {metric['bound'] / 3:.4f})")
    fails = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(fails)}")
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / "steady.jsonl", "a") as fh:
        fh.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
