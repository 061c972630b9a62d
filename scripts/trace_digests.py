#!/usr/bin/env python3
"""Print ``sha256  name`` of the adaptive trace (``trace_to_csv``) of the
benchmark workloads and of every acceptance-suite run: the six linear runs
and the two Darcy runs.  Each trace's line is followed by the digest of its
selection columns alone (step, chosen index, index and point counts), as
``sha256  name selection``, so that a change that moves the values of a
trace but not which indices it chose shows that in one diff.  Then print the digests of the acceptance Darcy
setup's two spectra (eigenvalues and eigenvectors of ``prior_field`` and of
``posterior_field``), so that a change to the setup shows which one moved,
and the digest of its problem data: y, the prior mean, the prior operator
and the mass matrix (diagonals and off-diagonals), B and the MAP point.

    python3 scripts/trace_digests.py
    python3 scripts/trace_digests.py --dump DIR
    python3 scripts/trace_digests.py --against DIR

Run from the repository root; takes about 6 s of wall time on a 2-core
machine (measured 5.4-5.6 s).  A change that must leave every trace
byte-identical shows it by printing the same lines as its parent.
The benchmark configurations are read from ``perfbench/run.py`` (seed 0), and
BLAS runs on one thread, as in the benchmark, because the last bits of the
setup depend on the thread count.

``--dump DIR`` also writes each trace's CSV to ``DIR/<name>.csv``, each
setup spectrum's eigenvalues, one per row, to ``DIR/<name>.csv`` beside them,
and the digest lines to ``DIR/digests.txt``.  ``--against DIR`` compares each
trace with the CSV of the same name in DIR (written by ``--dump``, say at the
parent commit) and prints, after the trace's two digest lines, one line
``against  <name>``: whether the selection columns match, and the largest
relative difference of the values and of the indicators over the rows both
traces have.  After each spectrum's digest line it prints one ``against
<name>`` line too: the largest relative eigenvalue difference over all the
modes both spectra have, over modes 1-10 and over the last 10.  A change that
moves only the last bits of the values shows how far they moved.

``--against`` is also a check.  Its last line is one summary,

    summary: 11 of 11 selections same, 0 of 25 lines moved

counting the traces whose selection columns match and the digest lines that
differ from those in ``DIR/digests.txt``, and the script exits 1 when a
selection differs or a file to compare with is missing (the summary then
names it).  A pure-speed change cites that one line: every selection the
same and no line moved.
"""

import os

# before numpy loads
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
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


SELECTION = ("step", "chosen_index", "n_indices", "n_points")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _rel_diff(a, b):
    """|a - b| relative to the larger magnitude; 0 for equal floats, nan
    included."""
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def _compare(name, trace, path):
    """The ``against`` line of one trace against its CSV at ``path``, and
    whether the selection columns match (None when there is no CSV)."""
    if not path.is_file():
        return f"against  {name}: no {path.name} to compare with", None
    rows = list(csv.DictReader(io.StringIO(trace)))
    old = list(csv.DictReader(io.StringIO(path.read_text())))
    same = len(rows) == len(old) and all(
        [r[c] for c in SELECTION] == [o[c] for c in SELECTION] for r, o in zip(rows, old)
    )
    values = [c for c in rows[0] if c.startswith("value_")] if rows else []
    value_diff = max((_rel_diff(r[c], o[c]) for r, o in zip(rows, old) for c in values),
                     default=0.0)
    indicator_diff = max((_rel_diff(r["indicator"], o["indicator"])
                          for r, o in zip(rows, old)), default=0.0)
    return (f"against  {name}: selection {'same' if same else 'DIFFERENT'} "
            f"({len(rows)} rows, {len(old)} there), values max rel "
            f"{value_diff:.3g}, indicators max rel {indicator_diff:.3g}"), same


def _print_digest(digest, name, args):
    line = f"{digest}  {name}"
    print(line, flush=True)
    args.lines.append(line)


def _show(name, out, args):
    trace = trace_to_csv(out.quadrature.trace)
    selection = io.StringIO()
    writer = csv.DictWriter(selection, SELECTION, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(csv.DictReader(io.StringIO(trace)))
    _print_digest(_sha(trace), name, args)
    _print_digest(_sha(selection.getvalue()), f"{name} selection", args)
    if args.dump is not None:
        (args.dump / f"{name}.csv").write_text(trace)
    if args.against is not None:
        line, same = _compare(name, trace, args.against / f"{name}.csv")
        print(line, flush=True)
        args.selections.append(same)
        if same is None:
            args.missing.append(f"{name}.csv")


def _compare_spectrum(name, values, path):
    """The ``against`` line of one spectrum against its CSV at ``path``."""
    if not path.is_file():
        return f"against  {name}: no {path.name} to compare with"
    old = [r["eigenvalue"] for r in csv.DictReader(io.StringIO(path.read_text()))]
    diffs = [_rel_diff(a, b) for a, b in zip(values, old)]
    top, last = max(diffs[:10], default=0.0), max(diffs[-10:], default=0.0)
    return (f"against  {name}: {len(values)} eigenvalues, {len(old)} there; max rel "
            f"{max(diffs, default=0.0):.3g}, modes 1-10 {top:.3g}, last 10 {last:.3g}")


def _show_field(name, field, args):
    pairs = field.pairs
    digest = hashlib.sha256(pairs.values.tobytes() + pairs.vectors.tobytes()).hexdigest()
    _print_digest(digest, name, args)
    values = [repr(float(v)) for v in pairs.values]
    if args.dump is not None:
        (args.dump / f"{name}.csv").write_text("\n".join(["eigenvalue", *values]) + "\n")
    if args.against is not None:
        path = args.against / f"{name}.csv"
        print(_compare_spectrum(name, values, path), flush=True)
        if not path.is_file():
            args.missing.append(path.name)


def _show_problem(name, setup, args):
    p = setup.problem
    arrays = (p.y, p.prior_mean, p.A_prior.diag, p.A_prior.off, p.M.diag, p.M.off,
              p.B, setup.map_result.map_point)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
    _print_digest(digest, name, args)


def _summary(args) -> int:
    """Print the ``--against`` summary line; 1 if a selection differs or a
    file to compare with is missing, else 0."""
    path = args.against / "digests.txt"
    if path.is_file():
        old = set(path.read_text().splitlines())
        moved = (f"{sum(line not in old for line in args.lines)} of "
                 f"{len(args.lines)} lines moved")
    else:
        args.missing.append(path.name)
        moved = "lines not compared"
    same = sum(s is True for s in args.selections)
    text = f"summary: {same} of {len(args.selections)} selections same, {moved}"
    if args.missing:
        text += f", no {', '.join(args.missing)} to compare with"
    print(text, flush=True)
    return int(bool(args.missing) or same < len(args.selections))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--dump", type=Path, metavar="DIR",
                    help="write each trace's CSV and each setup spectrum's "
                         "eigenvalues to DIR/<name>.csv, and the digest lines "
                         "to DIR/digests.txt")
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="compare each trace and setup spectrum with "
                         "DIR/<name>.csv and the digest lines with "
                         "DIR/digests.txt; exit 1 if a selection differs or a "
                         "file is missing")
    args = ap.parse_args(argv)
    args.lines, args.selections, args.missing = [], [], []
    if args.dump is not None:
        args.dump.mkdir(parents=True, exist_ok=True)
    for name, wl in WORKLOADS.items():
        cfg = wl.config(0)
        _show(name, wl.run(cfg, wl.setup(cfg)), args)
    for alpha, qoi, mode, budget in LINEAR_RUNS:
        cfg = ExperimentConfig.linear_default(
            alpha=alpha, qoi=qoi, mode=mode, construction="aposteriori",
            mesh_exp=10, seed=0, max_points=budget,
        )
        _show(f"acceptance-linear-{mode}-{qoi}-alpha{alpha}-{budget // 1000}k",
              run_linear(cfg), args)
    # the acceptance suite's darcy_shared runs: one setup, two runs
    cfg = ExperimentConfig.darcy_default(
        mesh_exp=10, seed=0, kl_dims=200, max_points=100_000,
    )
    setup = darcy_setup(cfg)
    _show("acceptance-darcy-hessian-100k", run_darcy(cfg, setup), args)
    prior_cfg = ExperimentConfig.darcy_default(
        mesh_exp=10, seed=0, kl_dims=200, max_points=10_000, mode="prior",
    )
    _show("acceptance-darcy-prior-10k", run_darcy(prior_cfg, setup), args)
    _show_field("acceptance-darcy-setup-prior-field", setup.prior_field, args)
    _show_field("acceptance-darcy-setup-posterior-field", setup.posterior_field, args)
    _show_problem("acceptance-darcy-problem", setup, args)
    if args.dump is not None:
        (args.dump / "digests.txt").write_text("".join(f"{line}\n" for line in args.lines))
    return _summary(args) if args.against is not None else 0


if __name__ == "__main__":
    sys.exit(main())
