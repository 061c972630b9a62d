import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hessquad
from hessquad.cli import main, write_marginals
from hessquad.experiments import ExperimentConfig, anchored_marginal_csv, linear_setup
from hessquad.multiindex import MultiIndex
from hessquad.quad1d import MAX_LEVEL
from hessquad.sparse_quad import TIE_FLOOR


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tie_break_rows(out_dir):
    """Trace rows after step 0 whose indicator is at or below TIE_FLOOR."""
    trace = read_csv(out_dir / "trace.csv")
    return sum(float(row["indicator"]) <= TIE_FLOOR for row in trace[1:])


def test_package_import_loads_no_numpy():
    # the console entry imports the package before cli.py runs, so anything
    # cli.py must do before numpy loads needs an import-free package entry
    src = str(Path(hessquad.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", "import hessquad, sys; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


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
    # a reason stands beside each rate that could not be fitted, and only there
    assert [note is None for note in summary["rate_notes"]] == [
        rate is not None for rate in summary["rates"]
    ]

    convergence = read_csv(out_dir / "convergence.csv")
    assert convergence
    assert int(convergence[-1]["n_points"]) <= summary["n_points"]

    trace = read_csv(out_dir / "trace.csv")
    assert int(trace[0]["n_indices"]) == 1
    assert int(trace[-1]["n_points"]) == summary["n_points"]
    assert summary["tie_break_steps"] == tie_break_rows(out_dir)

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
    convergence = read_csv(out_dir / "convergence.csv")
    assert int(convergence[-1]["n_points"]) <= 150  # tenth of the budget
    assert summary["tie_break_steps"] == tie_break_rows(out_dir) == 0


def test_darcy_prior_run_counts_tie_break_steps(tmp_path):
    # the prior path's weight integral is far below 1, so its differences sit
    # at or below TIE_FLOOR and it chooses in tie-break order
    out_dir = tmp_path / "out"
    code = main(
        ["darcy", "--mode", "prior", "--max-points", "500", "--out", str(out_dir)]
    )
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["tie_break_steps"] == tie_break_rows(out_dir) > 0


def test_undefined_posterior_mean_is_written_as_null(tmp_path):
    # at this sigma the prior path's weight integral underflows to 0, so the
    # posterior mean Zq/Z is undefined; summary.json stays strict JSON
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"mesh_exp": 6, "kl_dims": 12, "max_points": 300, '
                        '"sigma": 5e-4, "mode": "prior"}')
    out_dir = tmp_path / "out"
    assert main(["darcy", "--config", str(cfg_path), "--out", str(out_dir)]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    summary = json.loads((out_dir / "summary.json").read_text(), parse_constant=refuse)
    assert summary["reference"] == [0.0, 0.0]
    assert summary["posterior_mean_qoi"] is None


def test_darcy_config_file_takes_darcy_defaults(tmp_path, capsys):
    # only the fields a file gives override the Darcy defaults
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"problem": "darcy", "mesh_exp": 4, "kl_dims": 5}')
    out_dir = tmp_path / "out"
    code = main(["darcy", "--config", str(cfg_path), "--max-points", "200",
                 "--out", str(out_dir)])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    expect = ExperimentConfig.darcy_default(mesh_exp=4, kl_dims=5, max_points=200)
    assert summary["config"] == json.loads(expect.to_json())
    # a file for the other problem is refused instead of half applied
    assert main(["linear", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "darcy" in capsys.readouterr().err


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
    chosen = [row["chosen_index"] for row in read_csv(out_dir / "trace.csv")]
    assert MultiIndex([(1, MAX_LEVEL)]).render() in chosen


def test_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"problem": "nonsense"}')
    code = main(["linear", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_an_error(tmp_path, capsys, budget):
    code = main(["linear", "--max-points", budget, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "max_points" in capsys.readouterr().err


@pytest.mark.parametrize("problem, fields, flags, message", [
    # kl_dims above the parameter dimension: 7 interior nodes, 9 Darcy nodes
    pytest.param("linear", {"mesh_exp": 3, "kl_dims": 10}, [], "kl_dims must be in 1..7",
                 id="linear-kl_dims"),
    pytest.param("darcy", {"mesh_exp": 3, "kl_dims": 10}, [], "kl_dims must be in 1..9",
                 id="darcy-kl_dims"),
    # a QoI the problem does not define
    pytest.param("darcy", {}, ["--qoi", "q2"], "qoi", id="darcy-qoi"),
    # fields that are no longer settable are refused, not ignored
    pytest.param("darcy", {"misfit_rank_cap": 64}, [], "misfit_rank_cap",
                 id="darcy-removed-field"),
    pytest.param("linear", {"bnu_c": 0.5}, [], "bnu_c", id="linear-removed-field"),
    # fields only the Darcy problem reads
    pytest.param("linear", {"gamma": 7.0, "kappa": 3.0, "obs_count": 2}, [], "gamma",
                 id="linear-darcy-fields"),
    pytest.param("linear", {"obs_count": 2}, [], "obs_count", id="linear-obs_count"),
    # out-of-range and non-integer values
    pytest.param("darcy", {"obs_count": 0}, [], "obs_count", id="darcy-obs_count-0"),
    pytest.param("darcy", {"kappa": -1}, [], "kappa", id="darcy-negative-kappa"),
    pytest.param("darcy", {"mesh_exp": 6.5}, [], "mesh_exp",
                 id="darcy-fractional-mesh_exp"),
    pytest.param("darcy", {"seed": -1}, [], "seed", id="darcy-negative-seed"),
    pytest.param("linear", {"max_indices": 50.5}, [], "max_indices",
                 id="linear-fractional-max_indices"),
    # float fields that are not real numbers
    pytest.param("darcy", {"sigma": "0.1"}, [], "sigma", id="darcy-string-sigma"),
    pytest.param("darcy", {"kappa": "5"}, [], "kappa", id="darcy-string-kappa"),
    pytest.param("darcy", {"beta": "2"}, [], "beta", id="darcy-string-beta"),
    pytest.param("darcy", {"beta": True}, [], "beta", id="darcy-boolean-beta"),
    pytest.param("linear", {"tolerance": "x"}, [], "tolerance", id="linear-string-tolerance"),
    # a config that is not a JSON object, written as it is
    pytest.param("linear", [], [], "must be a JSON object, not list", id="linear-array"),
    pytest.param("darcy", None, [], "must be a JSON object, not NoneType", id="darcy-null"),
    pytest.param("linear", 3, [], "must be a JSON object, not int", id="linear-number"),
    pytest.param("darcy", "x", [], "must be a JSON object, not str", id="darcy-string"),
])
def test_bad_config_is_an_error_naming_the_field(tmp_path, capsys, problem, fields, flags,
                                                 message):
    cfg_path = tmp_path / "cfg.json"
    if isinstance(fields, dict):
        fields = {"problem": problem, **fields}
    cfg_path.write_text(json.dumps(fields))
    code = main([problem, "--config", str(cfg_path), *flags, "--out", str(tmp_path / "o")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_trace_does_not_depend_on_blas_threads(tmp_path):
    # the CLI pins one BLAS thread before numpy loads; without the pin the
    # Darcy setup's last bits, and so the trace, follow OPENBLAS_NUM_THREADS
    src = str(Path(hessquad.__file__).resolve().parents[1])
    traces = []
    for threads in ("2", "1"):
        out_dir = tmp_path / f"t{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run(
            [sys.executable, "-m", "hessquad.cli", "darcy", "--mode", "hessian",
             "--max-points", "2000", "--out", str(out_dir)],
            env=env, capture_output=True, text=True, check=True,
        )
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["blas_threads"] == dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"
        )
        traces.append((out_dir / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_write_marginals(tmp_path):
    # dimensions 1-6 on 81 points and one pair on 41 x 41, each file the
    # setup's prior-field grid as anchored_marginal_csv writes it
    setup = linear_setup(ExperimentConfig.linear_default(mesh_exp=6, seed=0))
    write_marginals(tmp_path / "m", setup, (2, 3))
    expected = {f"dim{d}.csv": ((d,), 81) for d in range(1, 7)}
    expected["dim2_dim3.csv"] = ((2, 3), 41)
    assert sorted(p.name for p in (tmp_path / "m").iterdir()) == sorted(expected)
    for name, (dims, n) in expected.items():
        text = anchored_marginal_csv(setup.problem, setup.prior_field, dims,
                                     np.linspace(-4.0, 4.0, n))
        assert (tmp_path / "m" / name).read_text() == text
        assert len(text.splitlines()) == 1 + n ** len(dims)
