"""The benchmark's tracer (``perfbench/tracing.py``) wraps hessquad functions
by name and raises on a missing one, so renaming or deleting a traced
function must fail here rather than in a benchmark run; a traced function
that the program stops calling must fail here too, rather than read 0 in
the per-layer metrics."""

import sys
from pathlib import Path

import pytest

from hessquad import experiments

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


_STUDIES = {
    "linear": (experiments.linear_setup, experiments.run_linear,
               experiments.ExperimentConfig.linear_default(mesh_exp=6, seed=0,
                                                           max_points=2000)),
    "darcy-hessian": (experiments.darcy_setup, experiments.run_darcy,
                      experiments.ExperimentConfig.darcy_default(mesh_exp=6, seed=0,
                                                                 kl_dims=12, max_points=500)),
}


@pytest.mark.parametrize("study", sorted(_STUDIES))
def test_tracer_sees_the_work_of_a_study(study):
    # one small study wrapped as perfbench/run.py wraps an operation
    setup_fn, run_fn, cfg = _STUDIES[study]
    tracer = Tracer()
    tracer.start_round(0)
    tracer.install()
    try:
        setup = tracer.call("experiments.setup", "setup", setup_fn, cfg)
        out = tracer.call("experiments.run", "run", run_fn, cfg, setup)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    seen = ["sparse_quad.cache_lookups", "sparse_quad.tensor_delta_calls",
            "sparse_quad.points", "sparse_quad.integrand_s", "inverse_problem.newton_iters"]
    if study.startswith("darcy"):
        seen.append("gaussian_measure.randomized_eigen_calls")
    assert {name: layers[name] for name in seen if not layers[name] > 0} == {}
    assert layers["sparse_quad.points"] == out.quadrature.n_points
