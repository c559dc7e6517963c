import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from irsloc import harness
from irsloc.harness import (ExperimentSpec, LocalizationParams, PilotParams,
                            apply_desk_scale, pilot_power_for, point_key,
                            resolve_point, run_chanest_campaign,
                            run_localization_campaign, spec_from_dict,
                            write_result)
from irsloc.scene import SceneConfig, path_loss
from irsloc.util import crandn


def noiseless_scene(**kw):
    base = dict(m_antennas=4, n_x=3, n_y=1, sigma2_dbm=-np.inf,
                sigma2_si_db=-np.inf, sigma2_ref_db=-np.inf)
    base.update(kw)
    return SceneConfig(**base)


def test_sweep_points_product_and_explicit():
    spec = ExperimentSpec(sweep={"snr_db": [5, 15], "m_antennas": [4, 6]})
    pts = spec.sweep_points()
    assert len(pts) == 4
    assert pts[0] == {"m_antennas": 4, "snr_db": 5}
    explicit = ExperimentSpec(points=[{"arm": "optimized"}, {"arm": "random"}])
    assert explicit.sweep_points() == [{"arm": "optimized"}, {"arm": "random"}]
    with pytest.raises(ValueError):
        ExperimentSpec(sweep={"snr_db": []}).validate()
    with pytest.raises(ValueError):
        ExperimentSpec(trials=0).validate()


def test_resolve_point_applies_axes():
    spec = ExperimentSpec(scene=noiseless_scene())
    cfg, pilot_p, loc_p = resolve_point(
        spec, {"m_antennas": 6, "n_y": 2, "snr_db": 25.0,
               "power_budget": 10.0, "arm": "random", "m_t": 2})
    assert cfg.m_antennas == 6 and cfg.n_y == 2
    assert pilot_p.snr_db == 25.0 and pilot_p.m_t == 2
    assert loc_p.power_budget == 10.0 and loc_p.optimize_waveform is False
    with pytest.raises(ValueError):
        resolve_point(spec, {"bogus_axis": 1})
    with pytest.raises(ValueError):
        resolve_point(spec, {"arm": "sideways"})


def test_pilot_power_from_snr():
    cfg = SceneConfig(sigma2_dbm=-120.0)
    gain = path_loss(cfg.bs_irs_distance, cfg.c0_db, cfg.d0_m, cfg.alpha0)
    power = pilot_power_for(cfg, PilotParams(snr_db=15.0))
    assert 10 * np.log10(power * gain ** 2 / cfg.noise_power) == \
        pytest.approx(15.0, abs=1e-9)
    direct = pilot_power_for(cfg, PilotParams(snr_db=None, pilot_power=2.5))
    assert direct == 2.5
    with pytest.raises(ValueError):
        pilot_power_for(noiseless_scene(), PilotParams(snr_db=15.0))


def chanest_spec(**kw):
    base = dict(
        scene=noiseless_scene(),
        pilot=PilotParams(snr_db=None, pilot_power=1.0),
        trials=2, master_seed=11)
    base.update(kw)
    return ExperimentSpec(**base)


def test_noiseless_campaign_reaches_floor():
    result = run_chanest_campaign(chanest_spec())
    assert result.kind == "chanest"
    assert len(result.point_rows) == 1
    assert result.point_rows[0]["ne_mean"] < 1e-6
    assert len(result.trial_rows) == 2


def test_campaign_deterministic_and_sweep_independent():
    spec_a = chanest_spec(sweep={"m_antennas": [4, 5]})
    spec_b = chanest_spec(sweep={"m_antennas": [5, 4]})
    res_a = run_chanest_campaign(spec_a)
    res_b = run_chanest_campaign(spec_b)
    rows_a = {r["m_antennas"]: r for r in res_a.point_rows}
    rows_b = {r["m_antennas"]: r for r in res_b.point_rows}
    for m in (4, 5):
        assert rows_a[m]["ne_mean"] == rows_b[m]["ne_mean"]
    res_c = run_chanest_campaign(chanest_spec(sweep={"m_antennas": [4, 5]}))
    assert res_a.point_rows == res_c.point_rows
    assert res_a.trial_rows == res_c.trial_rows


def test_convergence_table_recorded():
    result = run_chanest_campaign(chanest_spec(record_convergence=True))
    rows = result.tables["convergence"]
    assert rows
    assert {"sweep", "objective", "ne"} <= set(rows[0])


def test_convergence_csv_cells_are_numbers(tmp_path):
    # the traces are numpy arrays, so their elements are np.float64
    write_result(run_chanest_campaign(chanest_spec(record_convergence=True)),
                 tmp_path)
    lines = (tmp_path / "chanest_convergence.csv").read_text().splitlines()
    assert lines[-1] == "# manifest=manifest.json"
    assert len(lines) > 2
    for line in lines[1:-1]:
        for cell in line.split(","):
            float(cell)


def noise_scaled_chanest_campaign(k):
    """The chanest_sweep scene and seed, cut to 2 points and 2 trials, with
    the noise power scaled by 10^(2k) at a fixed pilot SNR: the pilot power
    follows the noise, so every amplitude the estimator sees scales alike."""
    spec = ExperimentSpec(
        scene=SceneConfig(m_antennas=4, n_x=5, n_y=5, sigma2_dbm=-120.0 + 20 * k),
        pilot=PilotParams(m_t=1, snr_db=15.0),
        points=[{"m_antennas": 4, "snr_db": 5.0},
                {"m_antennas": 6, "m_t": 2, "snr_db": 15.0}],
        trials=2, master_seed=106)
    return run_chanest_campaign(spec).trial_rows


def test_chanest_campaign_invariant_to_noise_scale():
    base = noise_scaled_chanest_campaign(0)
    for k in (-6, 6):
        scaled = noise_scaled_chanest_campaign(k)
        assert [(r["sweeps"], r["converged"]) for r in scaled] \
            == [(r["sweeps"], r["converged"]) for r in base]
        for row, ref in zip(scaled, base):
            assert row["ne"] == pytest.approx(ref["ne"], rel=1e-9, abs=0.0)


def localization_spec(**kw):
    base = dict(
        scene=noiseless_scene(n_x=3, n_y=2),
        pilot=PilotParams(snr_db=None, pilot_power=1.0),
        localization=LocalizationParams(
            n_grids=3, snapshots=4, power_budget=4.0, max_cycles=3,
            optimize_waveform=False),
        trials=2, master_seed=3)
    base.update(kw)
    return ExperimentSpec(**base)


def test_noiseless_localization_campaign():
    result = run_localization_campaign(localization_spec())
    assert result.kind == "localization"
    point = result.point_rows[0]
    # noiseless: the argmin indicator locks the true hypothesis at cycle 1
    assert point["hit_fraction"] == 1.0
    assert point["median_cycles_to_threshold"] == 1.0
    curve = result.tables["curve"]
    assert curve[0]["correct_fraction"] == 1.0
    diag = result.tables["diagnostics"]
    assert {"cycle", "hypothesis", "probability", "residual",
            "gamma_abs", "alpha_abs"} <= set(diag[0])
    # 2 trials x 3 cycles x 3 hypotheses
    assert len(diag) == 2 * 3 * 3


def test_localization_campaign_deterministic():
    res_a = run_localization_campaign(localization_spec())
    res_b = run_localization_campaign(localization_spec())
    assert res_a.point_rows == res_b.point_rows
    assert res_a.tables["curve"] == res_b.tables["curve"]


def _no_trials(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a trial ran before every point was checked")
    monkeypatch.setattr(harness, "run_localization_trial", refuse)
    monkeypatch.setattr(harness, "estimate_channel_once", refuse)


def test_localization_point_over_exact_cap_rejected_up_front(monkeypatch):
    # N = 25 would raise SizeCapError in the first fit of its first trial
    _no_trials(monkeypatch)
    spec = localization_spec(points=[{"n_y": 2}, {"n_x": 5, "n_y": 5}])
    with pytest.raises(ValueError, match=r"'n_y': 5.*n_elements=25"):
        run_localization_campaign(spec)


def test_localization_point_with_two_antennas_rejected_up_front(monkeypatch):
    _no_trials(monkeypatch)
    spec = localization_spec(points=[{"m_antennas": 4}, {"m_antennas": 2}])
    with pytest.raises(ValueError, match=r"'m_antennas': 2.*m_antennas >= 3"):
        run_localization_campaign(spec)


def test_indistinguishable_grid_rejected_up_front(monkeypatch):
    # at phi = 270 deg the x ramp vanishes, so with n_y = 1 every grid
    # center has the same steering vector and no hypothesis could win
    _no_trials(monkeypatch)
    spec = localization_spec(points=[{"n_y": 2}, {"n_y": 1}])
    with pytest.raises(harness.PointRejected,
                       match=r"'n_y': 1.*hypotheses 0 and 1 are indistinguishable"):
        run_localization_campaign(spec)


@pytest.mark.parametrize("pilot_point, match", [
    ({"n_diffs": 2}, r"C=2 < N\*M_t="),
    ({"m_t": 2, "n_diffs": 13}, r"n_diffs=13 is not a multiple of m_t=2"),
    ({"pilot_power": None}, r"need either pilot_power or snr_db"),
], ids=["too_few_diffs", "partial_pattern", "no_pilot_power"])
def test_schedule_errors_rejected_up_front(monkeypatch, pilot_point, match):
    # the second point would raise inside its first trial
    _no_trials(monkeypatch)
    pilot_p = PilotParams(snr_db=None, pilot_power=1.0)
    for run, spec_of in ((run_chanest_campaign, chanest_spec),
                         (run_localization_campaign, localization_spec)):
        spec = spec_of(pilot=pilot_p, points=[{"m_t": 1}, pilot_point])
        with pytest.raises(harness.PointRejected, match=match):
            run(spec)


def test_non_orthogonal_pilots_rejected_up_front(monkeypatch):
    # Gaussian pilots: a full-rank pattern whose Gram is not Kp kron I
    original = harness.pilot.build_schedule

    def gaussian_pilots(*args, **kwargs):
        sched = original(*args, **kwargs)
        return replace(sched, pilots=crandn(np.random.default_rng(0),
                                            *sched.pilots.shape))
    monkeypatch.setattr(harness.pilot, "build_schedule", gaussian_pilots)
    cfg = noiseless_scene(m_antennas=5, n_x=3, n_y=2)
    pilot_p = PilotParams(m_t=2, snr_db=None, pilot_power=1.0)
    with pytest.raises(harness.PointRejected,
                       match=r"'m_t': 2.*orthogonal and of equal power"):
        harness._point_schedule({"m_t": 2}, cfg, pilot_p)


def test_schedule_built_once_per_point_and_read_only(monkeypatch):
    built = []
    original = harness.pilot.build_schedule

    def counting(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(harness.pilot, "build_schedule", counting)
    used = []
    original_round = harness.pilot.simulate_pilot_round

    def keep(scene, sched, seed=None):
        used.append(sched)
        return original_round(scene, sched, seed=seed)
    monkeypatch.setattr(harness.pilot, "simulate_pilot_round", keep)
    result = run_chanest_campaign(chanest_spec(sweep={"m_antennas": [4, 5]},
                                               trials=3))
    assert len(built) == 2 and len(used) == 6
    assert all(sched is built[0] for sched in used[:3])
    assert all(sched is built[1] for sched in used[3:])
    for sched in built:
        for arr in (sched.delta_theta, sched.irs_base, sched.pilots):
            assert not arr.flags.writeable
    rows = run_chanest_campaign(chanest_spec(sweep={"m_antennas": [4, 5]},
                                             trials=3)).trial_rows
    assert rows == result.trial_rows


def test_chanest_point_with_two_antennas_rejected_up_front(monkeypatch):
    # N = 25 is fine without a fit: only the M = 2 point is rejected
    _no_trials(monkeypatch)
    spec = chanest_spec(scene=noiseless_scene(n_x=5, n_y=5),
                        sweep={"m_antennas": [4, 2]})
    with pytest.raises(ValueError, match=r"'m_antennas': 2.*m_antennas >= 3"):
        run_chanest_campaign(spec)


def test_write_result_byte_identical(tmp_path):
    result = run_chanest_campaign(chanest_spec())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    write_result(result, out_a)
    write_result(run_chanest_campaign(chanest_spec()), out_b)
    for name in ("chanest_points.csv", "chanest_trials.csv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    text = (out_a / "chanest_points.csv").read_text().strip().splitlines()
    assert text[0].startswith("snr_db,")          # header row
    assert text[-1] == "# manifest=manifest.json"  # trailing reference
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["kind"] == "chanest"


def test_spec_from_dict_strict():
    data = {"scene": {"m_antennas": 4, "n_x": 3, "n_y": 1},
            "pilot": {"snr_db": 10.0},
            "trials": 3, "master_seed": 5}
    spec = spec_from_dict(data)
    assert spec.scene.m_antennas == 4
    assert spec.pilot.snr_db == 10.0
    assert spec.trials == 3
    with pytest.raises(ValueError):
        spec_from_dict({"unknown_section": {}})
    with pytest.raises(ValueError):
        spec_from_dict({"scene": {"not_a_field": 1}})
    with pytest.raises(ValueError):
        spec_from_dict({"pilot": {"typo_snr": 1.0}})
    # the refinement and design settings are library defaults, and the
    # scene's random draws come from the campaign's derived seeds
    with pytest.raises(ValueError, match=r"unknown config keys: \['optimizer'\]"):
        spec_from_dict({"optimizer": {"accuracy": 1e-7}})
    for section, key, value in (("pilot", "anchor", 0),
                                ("pilot", "max_sweeps", 300),
                                ("pilot", "tol", 1e-8),
                                ("scene", "target_range_m", 7.5),
                                ("scene", "rng_seed", 0)):
        with pytest.raises(ValueError,
                           match=rf"unknown keys in '{section}': \['{key}'\]"):
            spec_from_dict({section: {key: value}})


ROOT = Path(__file__).resolve().parents[1]


def _campaign_configs() -> dict:
    """Every shipped config and benchmark workload config, by name."""
    configs = {path.name: json.loads(path.read_text(encoding="utf-8"))
               for path in (ROOT / "configs").glob("*.json")}
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    configs.update({f"perfbench_{name}": w.config()
                    for name, w in module.WORKLOADS.items()})
    return configs


CAMPAIGN_CONFIGS = _campaign_configs()


@pytest.mark.parametrize("name", sorted(CAMPAIGN_CONFIGS))
def test_campaign_config_loads(name):
    spec_from_dict(CAMPAIGN_CONFIGS[name])


def test_desk_scale_preset():
    spec = ExperimentSpec(scene=SceneConfig(n_y=4), trials=30,
                          sweep={"n_y": [4, 8]})
    desk = apply_desk_scale(spec)
    assert desk.scene.n_y == 2
    assert desk.trials == 8
    assert desk.sweep["n_y"] == [2, 2]
    assert spec.trials == 30  # original untouched


def test_point_key_stable():
    assert point_key({"b": 1, "a": 2}) == (("a", 2), ("b", 1))
