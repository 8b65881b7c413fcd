"""Command-line behaviour: happy paths and the exit-code contract."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mlmcsr
from mlmcsr.cli import main
from mlmcsr.driver import run_mlmc_sr
from mlmcsr.estimators import EstimatorConfig
from mlmcsr.models import SyntheticNormalModel


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "model": {"name": "synthetic-normal", "params": {}},
        "y": 0.8,
        "epsilons": [0.1, 0.05],
        "runs": 4,
        "seed": 7,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def kv(captured):
    out = {}
    for line in captured.splitlines():
        if ": " in line:
            key, _, value = line.partition(": ")
            out[key] = value
    return out


def test_estimate_matches_direct_run(config_path, capsys):
    assert main(["estimate", "--config", str(config_path)]) == 0
    lines = kv(capsys.readouterr().out)
    direct = run_mlmc_sr(SyntheticNormalModel(q=1.0),
                         EstimatorConfig(y=0.8, epsilon=0.1), seed=7)
    assert lines["method"] == "mlmc-sr"
    assert float(lines["estimate_raw"]) == direct.estimate_raw
    assert float(lines["total_cost"]) == direct.total_cost
    assert int(lines["final_L"]) == direct.final_L
    assert lines["converged"] == "True"


def test_estimate_flag_overrides(config_path, capsys):
    assert main(["estimate", "--config", str(config_path),
                 "--seed", "11", "--method", "mc", "--threads", "2"]) == 0
    lines = kv(capsys.readouterr().out)
    assert lines["method"] == "mc"
    assert lines["seed"] == "11"


def test_experiment_writes_files(config_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["experiment", "--config", str(config_path),
                 "--output-dir", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "epsilon q rmse mean_cost" in stdout
    assert (out_dir / "runs.csv").exists()
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "histogram_e0.csv").exists()
    assert (out_dir / "histogram_e1.csv").exists()


def test_experiment_without_output_dir_is_config_error(config_path, capsys):
    assert main(["experiment", "--config", str(config_path)]) == 2
    assert "output" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["estimate", "--config", str(tmp_path / "nope.json")]) == 4
    assert "error" in capsys.readouterr().err


def test_bad_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["estimate", "--config", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_unknown_model_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"name": "nope"}, "y": 0.8,
                                "epsilons": [0.1], "runs": 1}))
    assert main(["estimate", "--config", str(path)]) == 2
    assert "unknown model" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    {"model": {"name": ["x"], "params": {}}},
    {"model": {"name": "synthetic-normal", "params": 5}},
    {"model_name": "synthetic-normal", "model_params": [1]},
])
def test_malformed_model_entry_is_config_error(tmp_path, capsys, entry):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**entry, "y": 0.8, "epsilons": [0.1], "runs": 1}))
    assert main(["estimate", "--config", str(path)]) == 2
    assert "model_" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    {"model_name": "synthetic-normal", "model_params": {"uniform_source": 5}},
    {"model": {"name": "synthetic-normal", "params": {"uniform_source": "x"}}},
])
def test_uniform_source_in_a_config_is_config_error(tmp_path, capsys, entry):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**entry, "y": 0.8, "epsilons": [0.1], "runs": 1}))
    assert main(["estimate", "--config", str(path)]) == 2
    assert "uniform_source must be callable" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["mlmc-sr", "mc"])
def test_overflowing_work_exponent_is_config_error(tmp_path, capsys, method):
    # mlmc-sr's cost ladder and mc's work units overflow a float at q=2000
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"name": "synthetic-normal"}, "y": 0.8,
                                "epsilons": [0.05], "runs": 1, "q": 2000}))
    assert main(["estimate", "--config", str(path), "--method", method]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "q=2000" in err and "Traceback" not in err


def test_level_cap_is_nonconvergence_exit(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"name": "synthetic-normal"},
                                "y": 0.8, "epsilons": [0.001], "runs": 1,
                                "max_level": 3}))
    assert main(["estimate", "--config", str(path)]) == 3
    assert "no convergence" in capsys.readouterr().err


@pytest.mark.parametrize("fields, fragment", [
    ({"epsilons": [True], "k": True}, "epsilons"),
    ({"k": True}, "k must be finite"),
    ({"y": True}, "y must be finite"),
    ({"model": {"name": "synthetic-normal", "params": {"b": False}}}, "skew b"),
    ({"model": {"name": "elliptic-flux-1d", "params": {"sigma": True}}}, "sigma"),
])
def test_bool_for_a_real_parameter_is_config_error(tmp_path, capsys, fields, fragment):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"name": "synthetic-normal"}, "y": 0.8,
                                "epsilons": [0.1], "runs": 1, **fields}))
    assert main(["estimate", "--config", str(path)]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("epsilons", [[1e-200], [0.1, 1e-200]])
def test_epsilon_too_small_to_square_is_config_error(tmp_path, capsys, epsilons):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"name": "synthetic-normal"},
                                "y": 0.8, "epsilons": epsilons, "runs": 1}))
    for method in ("mlmc-sr", "mc"):
        assert main(["estimate", "--config", str(path), "--method", method]) == 2
        assert "too small" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [{"gamma": 1e-300}, {"N": 10 ** 30}])
def test_uncountable_level_size_is_config_error(tmp_path, capsys, fields):
    # a level of 2**63 rows or more is refused before any row is drawn,
    # instead of chunking the range into a list without end
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"name": "synthetic-normal"}, "y": 0.8,
                                "epsilons": [0.1], "runs": 1, **fields}))
    for method in ("mlmc-sr", "mc"):
        assert main(["estimate", "--config", str(path), "--method", method]) == 2
        assert "2**63 rows" in capsys.readouterr().err


def test_single_row_level_0_is_a_configuration_error(tmp_path, capsys, monkeypatch):
    def no_draw(self, seed, level, lo, hi):
        raise AssertionError(f"drew rows [{lo}, {hi}) of level {level}")

    monkeypatch.setattr(SyntheticNormalModel, "draw_batch", no_draw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"name": "synthetic-normal"}, "y": 0.8,
                                "epsilons": [0.1], "runs": 1, "N": 1}))
    assert main(["estimate", "--config", str(path)]) == 2
    assert "N=1" in capsys.readouterr().err


def test_mc_pilot_past_the_countable_levels_exits_before_drawing(tmp_path, capsys,
                                                                monkeypatch):
    # level 100 would need 10 * 2**100 rows; the deepest level short of
    # 2**63 rows (10 * 2**59) still keeps a bias bound near 2e-19, above
    # epsilon / sqrt(2) = 7e-21, so the pilot must fail before any draw
    def no_draw(self, seed, level, lo, hi):
        raise AssertionError(f"drew rows [{lo}, {hi}) of level {level}")

    monkeypatch.setattr(SyntheticNormalModel, "draw_batch", no_draw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"name": "synthetic-normal"}, "y": 0.8,
                                "epsilons": [1e-20], "runs": 1, "max_level": 100}))
    start = time.perf_counter()
    assert main(["estimate", "--config", str(path), "--method", "mc"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "no convergence" in capsys.readouterr().err


def test_mc_pilot_that_cannot_converge_exits_before_drawing(tmp_path, capsys):
    # at epsilon 1e-12 even the level-30 pilot of 10 * 2**30 rows keeps a
    # bias bound near 1e-10, so the run must fail at once, not draw them
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"name": "synthetic-normal"},
                                "y": 0.8, "epsilons": [1e-12], "runs": 1}))
    assert main(["estimate", "--config", str(path), "--method", "mc"]) == 3
    assert "no convergence" in capsys.readouterr().err


def test_unwritable_output_dir_is_io_error(config_path, tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("")  # a file where the directory should go
    assert main(["experiment", "--config", str(config_path),
                 "--output-dir", str(blocker)]) == 4
    assert "error" in capsys.readouterr().err


def test_rates_prints_reference_row(capsys):
    assert main(["rates", "--epsilon", "0.1", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "mlmc-sr" in out
    assert "100000" in out  # mc at q=3: eps^-5
    assert "1000" in out    # mlmc-sr at q=3: eps^-3


@pytest.mark.parametrize("flags, fragment", [
    (["--epsilon", "nan"], "epsilon must be finite"),
    (["--epsilon", "inf"], "epsilon must be finite"),
    (["--q", "nan"], "q must be finite"),
    (["--q", "1", "inf"], "q must be finite"),
    (["--epsilon", "1e-320"], "overflows"),
])
def test_rates_rejects_non_finite_and_overflowing_inputs(capsys, flags, fragment):
    assert main(["rates", *flags]) == 2
    assert fragment in capsys.readouterr().err


def test_models_list(capsys):
    assert main(["models", "list"]) == 0
    out = capsys.readouterr().out
    assert "synthetic-normal" in out
    assert "elliptic-flux-1d" in out


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_import_does_not_load_scipy_signal():
    # scipy.signal alone costs over a second and ~50 MB at import
    src = str(Path(mlmcsr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, mlmcsr, mlmcsr.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_import_does_not_load_scipy():
    # the package needs numpy alone at run time; scipy.special used to cost
    # two thirds of the import time and half the resident memory
    src = str(Path(mlmcsr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, mlmcsr, mlmcsr.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
