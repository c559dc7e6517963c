"""The benchmark's instruments still find the functions they wrap.

``perfbench/instrument.py`` wraps module attributes by name (for example
``chanest.refine`` and ``chanest.ls_estimates``), so renaming or inlining
one of them silently empties a per-layer metric.  These tests install the
benchmark's spans and recorder hooks on tiny channel-estimation,
random-arm and optimized-arm localization campaigns and check that they
fired.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from irsloc import bqp, chanest, harness, localize, pilot, waveopt
from irsloc.util import crandn, random_unit_modulus

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


def load_instrument(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_chanest_spans_and_hooks_fire(monkeypatch):
    instrument = load_instrument(monkeypatch)
    patcher = instrument.Patcher()
    original_refine = chanest.refine
    try:
        tracer = instrument.Tracer(patcher)
        instrument.install_spans(
            tracer, (harness, pilot, chanest, bqp, localize, waveopt))
        rec = instrument.Recorder()
        rec.install(patcher, (harness, pilot, localize, waveopt))
        spec = harness.spec_from_dict({
            "scene": {"m_antennas": 4, "n_x": 3, "n_y": 2, "sigma2_dbm": -120.0},
            "pilot": {"m_t": 1, "snr_db": 15.0},
            "points": [{"m_antennas": 4}, {"m_antennas": 5, "m_t": 2}],
            "trials": 2, "master_seed": 7})
        harness.run_chanest_campaign(spec)
    finally:
        patcher.restore()
    assert chanest.refine is original_refine

    estimates = 4
    assert len(rec.estimates) == estimates
    assert tracer.calls["chanest.refine"] == estimates
    # the LS products are averaged once and shared by initialization and
    # refinement
    for name in ("pilot.ls_estimates", "chanest.pairwise_products",
                 "chanest.initialize"):
        assert tracer.calls[name] == estimates, name
    assert tracer.calls["pilot.simulate_pilot_round"] == estimates
    assert tracer.counters["chanest.refine.sweeps"] > 0
    assert tracer.self_s["chanest.refine"] > 0


def test_localization_fit_spans_fire(monkeypatch):
    instrument = load_instrument(monkeypatch)
    patcher = instrument.Patcher()
    original_solve = bqp.quad_binary_max
    try:
        tracer = instrument.Tracer(patcher)
        instrument.install_spans(
            tracer, (harness, pilot, chanest, bqp, localize, waveopt))
        rec = instrument.Recorder()
        rec.install(patcher, (harness, pilot, localize, waveopt))
        spec = harness.spec_from_dict({
            "scene": {"m_antennas": 4, "n_x": 5, "n_y": 2,
                      "sigma2_dbm": -120.0, "target_rcs_amplitude": 2e-5},
            "pilot": {"m_t": 1, "snr_db": 40.0},
            "localization": {"n_grids": 4, "snapshots": 8,
                             "max_cycles": 2, "threshold": 1.0},
            "points": [{"arm": "random"}],
            "trials": 1, "master_seed": 110})
        harness.run_localization_campaign(spec)
    finally:
        patcher.restore()
    assert bqp.quad_binary_max is original_solve

    cycles = 2
    assert len(rec.cycles) == cycles
    assert tracer.calls["localize.run_cycle"] == cycles
    # one fit per hypothesis, one inner solve per Dinkelbach step and at
    # least one step per fit
    for name in ("localize.joint_ml", "bqp.dinkelbach_solve"):
        assert tracer.calls[name] == 4 * cycles, name
    steps = tracer.counters["bqp.dinkelbach_solve.iterations"]
    assert tracer.calls["bqp.quad_binary_max"] == steps >= 4 * cycles
    assert tracer.self_s["bqp.quad_binary_max"] > 0


def test_design_spans_fire(monkeypatch):
    instrument = load_instrument(monkeypatch)
    patcher = instrument.Patcher()
    original_optimize = waveopt.optimize
    rng = np.random.default_rng(5)
    n, m, n_hyp = 5, 3, 3
    reference_ctx = waveopt.DistanceContext(
        channels=[crandn(rng, n, m) for _ in range(n_hyp)],
        steering=np.column_stack([random_unit_modulus(rng, n)
                                  for _ in range(n_hyp)]),
        alphas=crandn(rng, n_hyp),
        weights=waveopt.pair_weights(np.full(n_hyp, 1.0 / n_hyp)),
        snapshots=8, noise_power=1.0)
    try:
        tracer = instrument.Tracer(patcher)
        instrument.install_spans(
            tracer, (harness, pilot, chanest, bqp, localize, waveopt))
        rec = instrument.Recorder()
        rec.install(patcher, (harness, pilot, localize, waveopt))
        spec = harness.spec_from_dict({
            "scene": {"m_antennas": 4, "n_x": 5, "n_y": 2,
                      "sigma2_dbm": -120.0, "target_rcs_amplitude": 2e-5},
            "pilot": {"m_t": 1, "snr_db": 40.0},
            "localization": {"n_grids": 4, "snapshots": 8,
                             "max_cycles": 3, "threshold": 1.0},
            "points": [{"arm": "optimized"}],
            "trials": 1, "master_seed": 2026})
        harness.run_localization_campaign(spec)
        campaign_calls = dict(tracer.calls)
        reference = waveopt.penalty_optimize(
            reference_ctx, crandn(rng, m), random_unit_modulus(rng, n),
            power_budget=4.0)
    finally:
        patcher.restore()
    assert waveopt.optimize is original_optimize

    # a design follows every cycle but the last of the trial
    designed = len(rec.cycles) - 1
    assert designed == 2
    assert campaign_calls["waveopt.optimize"] == designed
    assert campaign_calls["waveopt.build_context"] == designed
    assert all(c.design is not None for c in rec.cycles[:-1])
    assert rec.cycles[-1].design is None
    assert all(c.design.violation < c.design.accuracy for c in rec.cycles[:-1])
    assert tracer.self_s["waveopt.optimize"] > 0
    assert tracer.counters["waveopt.optimize.outer_iterations"] >= designed
    # the campaign's theta-domain ascent runs none of the penalty blocks
    for name in ("waveopt.update_q", "waveopt.update_x",
                 "waveopt.update_theta"):
        assert campaign_calls.get(name, 0) == 0, name
    # the reference runs one call of each block per inner iteration
    sweeps = tracer.calls["waveopt.update_q"]
    assert sweeps >= reference.outer_iterations
    assert tracer.calls["waveopt.update_x"] == sweeps
    assert tracer.calls["waveopt.update_theta"] == sweeps
    for name in ("waveopt.update_q", "waveopt.update_x",
                 "waveopt.update_theta"):
        assert tracer.self_s[name] > 0, name
