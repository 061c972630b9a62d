"""The benchmark's tracer (``perfbench/tracing.py``) wraps hessquad functions
by name and raises on a missing one, so renaming or deleting a traced
function must fail here rather than in a benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer  # noqa: E402


def test_tracer_installs_and_uninstalls():
    tracer = Tracer()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in tracer._targets()]
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
