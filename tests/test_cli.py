import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from irsloc.cli import main


TINY_CAMPAIGN = {
    "scene": {"m_antennas": 4, "n_x": 3, "n_y": 1, "sigma2_dbm": -120.0},
    "pilot": {"snr_db": 30.0},
    "localization": {"n_grids": 3, "snapshots": 4, "power_budget": 4.0,
                     "max_cycles": 2, "optimize_waveform": False},
    "trials": 2,
    "master_seed": 7,
}


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_cli_import_leaves_ilp_solver_unloaded():
    # only the ILP cross-check needs scipy.optimize, which costs start-up
    # time and resident memory
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, irsloc.cli; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["chanest", "--definitely-not-a-flag"])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_config_file(tmp_path, capsys):
    code = main(["chanest", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    line = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(line)["kind"] == "config"


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"sweeps": {}})
    code = main(["chanest", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    line = capsys.readouterr().err.strip().splitlines()[-1]
    assert "unknown config keys" in json.loads(line)["error"]


def test_chanest_writes_schema(tmp_path):
    cfg = write_config(tmp_path, dict(TINY_CAMPAIGN))
    out = tmp_path / "out"
    code = main(["chanest", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    header = (out / "chanest_points.csv").read_text().splitlines()[0].split(",")
    for col in ("snr_db", "m_antennas", "n_elements", "m_t",
                "ne_mean", "ne_std"):
        assert col in header
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["master_seed"] == 7


def test_config_file_not_mutated(tmp_path):
    cfg = write_config(tmp_path, dict(TINY_CAMPAIGN))
    before = cfg.read_bytes()
    main(["chanest", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert cfg.read_bytes() == before


def test_full_pipeline_deterministic(tmp_path):
    payload = json.loads(json.dumps(TINY_CAMPAIGN))
    payload["scene"] = {"m_antennas": 4, "n_x": 3, "n_y": 2,
                        "sigma2_dbm": -120.0, "target_rcs_amplitude": 2e-5}
    cfg = write_config(tmp_path, payload)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["full-pipeline", "--config", str(cfg), "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        outs.append(out)
    for rel in ("chanest/chanest_points.csv",
                "localization/localization_points.csv",
                "localization/localization_curve.csv",
                "localization/localization_diagnostics.csv"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


def test_seed_and_trials_override(tmp_path):
    cfg = write_config(tmp_path, dict(TINY_CAMPAIGN))
    out = tmp_path / "out"
    code = main(["chanest", "--config", str(cfg), "--seed", "99",
                 "--trials", "3", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 99
    assert manifest["spec"]["trials"] == 3


def test_bqp_solve_verified(tmp_path):
    cfg = write_config(tmp_path, {"n": 8, "seed": 3})
    out = tmp_path / "out"
    code = main(["bqp-solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "bqp_solution.json").read_text())
    assert payload["converged"]
    assert payload["verified"] is True
    assert len(payload["delta"]) == 8


def test_waveopt_trace_outputs(tmp_path):
    cfg = write_config(tmp_path, {"n_elements": 5, "m_antennas": 3,
                                  "n_hypotheses": 3, "seed": 1})
    out = tmp_path / "out"
    code = main(["waveopt-trace", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = (out / "waveopt_trace.csv").read_text().splitlines()
    assert lines[0].split(",") == ["outer_iteration", "rho", "violation",
                                   "objective", "weighted_distance"]
    data = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert data
    for row in data:
        assert len(row) == 5
        for cell in row:
            float(cell)  # plain numbers, not numpy reprs
    summary = json.loads((out / "manifest.json").read_text())
    assert summary["converged"] is True
    assert summary["violation"] < 1e-7


def test_waveopt_trace_default_config_stage_count(tmp_path):
    # one row per penalty stage; 37 stages on the default config, as before
    # the Q sweep was blocked by rows
    cfg = write_config(tmp_path, {})
    out = tmp_path / "out"
    assert main(["waveopt-trace", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "waveopt_trace.csv").read_text().splitlines()
    data = [line for line in lines[1:] if not line.startswith("#")]
    assert [int(row.split(",")[0]) for row in data] == list(range(1, 38))
    summary = json.loads((out / "manifest.json").read_text())
    assert summary["outer_iterations"] == 37 and summary["converged"] is True


def test_desk_scale_flag(tmp_path):
    payload = json.loads(json.dumps(TINY_CAMPAIGN))
    payload["scene"]["n_y"] = 4
    payload["trials"] = 30
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    code = main(["chanest", "--config", str(cfg), "--desk-scale",
                 "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["trials"] == 8
    assert manifest["spec"]["scene"]["n_y"] == 2


def _last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.mark.parametrize("command, scene", [
    ("localize", {"n_x": 5, "n_y": 5}),     # N = 25 over EXACT_CAP = 24
    ("localize", {"m_antennas": 2}),
    ("chanest", {"m_antennas": 2}),
    ("localize", {"n_x": 3, "n_y": 1}),     # every grid center steers alike
])
def test_point_rejected_before_trial_zero_exits_two(tmp_path, capsys,
                                                    command, scene):
    payload = json.loads(json.dumps(TINY_CAMPAIGN))
    payload["scene"].update(scene)
    cfg = write_config(tmp_path, payload)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    error = _last_error(capsys)
    assert error["kind"] == "config"
    assert "sweep point" in error["error"]


def test_value_error_inside_a_trial_stays_numerical(tmp_path, capsys,
                                                    monkeypatch):
    from irsloc import harness
    from irsloc.localize import DegenerateHypothesisError

    def degenerate(*args, **kwargs):
        raise DegenerateHypothesisError("hypotheses coincide")
    monkeypatch.setattr(harness, "run_localization_trial", degenerate)
    payload = json.loads(json.dumps(TINY_CAMPAIGN))
    payload["scene"]["n_y"] = 2  # a grid the point check accepts
    cfg = write_config(tmp_path, payload)
    code = main(["localize", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    error = _last_error(capsys)
    assert error["kind"] == "numerical"
    assert error["type"] == "DegenerateHypothesisError"
