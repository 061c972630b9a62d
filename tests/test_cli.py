import json
import math

import pytest

from hessquad.cli import main
from hessquad.experiments import ConvergenceRecord, ExperimentConfig
from hessquad.multiindex import MultiIndex
from hessquad.quad1d import MAX_LEVEL
from hessquad.sparse_quad import trace_from_csv


def test_rules_stdout(capsys):
    assert main(["rules", "--level", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "node,weight"
    assert len(lines) == 4
    node0, weight0 = lines[1].split(",")
    assert float(node0) == pytest.approx(-math.sqrt(3.0), abs=1e-14)
    assert float(weight0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    # 17 significant digits
    assert len(node0.split("e")[0].replace("-", "").replace(".", "")) == 17


def test_rules_to_file(tmp_path):
    out = tmp_path / "rule.csv"
    assert main(["rules", "--level", "0", "--out", str(out)]) == 0
    assert out.read_text() == "node,weight\n0.0000000000000000e+00,1.0000000000000000e+00\n"


def test_linear_run_outputs(tmp_path):
    cfg = ExperimentConfig.linear_default(mesh_exp=6, seed=0, max_points=500)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    out_dir = tmp_path / "out"
    code = main(
        ["linear", "--config", str(cfg_path), "--qoi", "q2", "--out", str(out_dir)]
    )
    assert code == 0
    for name in ("convergence.csv", "spectrum.csv", "trace.csv", "summary.json"):
        assert (out_dir / name).exists()

    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["qoi"] == "q2"  # flag overrides the config file
    assert summary["n_points"] >= 500

    record = ConvergenceRecord.from_csv((out_dir / "convergence.csv").read_text())
    assert record.checkpoints
    assert record.checkpoints[-1].n_points <= summary["n_points"]

    trace = trace_from_csv((out_dir / "trace.csv").read_text())
    assert trace[0].n_indices == 1
    assert trace[-1].n_points == summary["n_points"]

    spectrum = (out_dir / "spectrum.csv").read_text().strip().splitlines()
    assert spectrum[0] == "j,sqrt_lambda"
    assert float(spectrum[1].split(",")[1]) > 0


def test_darcy_run_outputs(tmp_path):
    cfg = ExperimentConfig.darcy_default(
        mesh_exp=6, seed=0, max_points=1500, kl_dims=30
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    out_dir = tmp_path / "out"
    code = main(["darcy", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["label"] == "darcy-hessian"
    assert "posterior_mean_qoi" in summary
    record = ConvergenceRecord.from_csv((out_dir / "convergence.csv").read_text())
    assert record.checkpoints[-1].n_points <= 150  # tenth of the budget


def test_budget_without_convergence_exit_code(tmp_path):
    cfg = ExperimentConfig.linear_default(
        mesh_exp=6, seed=0, max_points=60, tolerance=1e-14
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    code = main(["linear", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2


def test_level_cap_does_not_end_the_run(tmp_path):
    # the prior path refines dimension 1 up to the last supported level
    # within this budget, then spends the rest on other dimensions
    out_dir = tmp_path / "o"
    code = main(["linear", "--mode", "prior", "--max-points", "60000",
                 "--out", str(out_dir)])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["stopped_on"] == "max_points"
    trace = trace_from_csv((out_dir / "trace.csv").read_text())
    assert MultiIndex([(1, MAX_LEVEL)]) in [r.chosen for r in trace]


def test_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"problem": "nonsense"}')
    code = main(["linear", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
