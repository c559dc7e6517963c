"""Self-tests of the benchmark's output checks.

Each checker must accept the program's own output on a small campaign and
reject a corrupted copy of it.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import instrument  # noqa: E402
import worker  # noqa: E402
from irsloc import harness, localize, pilot, waveopt  # noqa: E402

SMALL = {"scene": {"m_antennas": 4, "n_x": 3, "n_y": 2, "sigma2_dbm": -120.0,
                   "target_rcs_amplitude": 2e-5},
         "pilot": {"m_t": 1, "snr_db": 40.0},
         "localization": {"n_grids": 3, "snapshots": 4, "power_budget": 10.0,
                          "max_cycles": 3},
         "points": [{"arm": "optimized"}], "trials": 1, "master_seed": 7}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Records and written files of one small optimized-arm campaign."""
    out = tmp_path_factory.mktemp("small")
    spec = harness.spec_from_dict(copy.deepcopy(SMALL))
    patcher = instrument.Patcher()
    rec = instrument.Recorder()
    rec.install(patcher, (harness, pilot, localize, waveopt))
    try:
        worker.run_round("localization", spec, out)
    finally:
        patcher.restore()
    return spec, out, rec


def test_program_output_passes(small_run):
    spec, out, rec = small_run
    ops, problems, exactness, gains = worker.check_round(
        "localization", spec, out, rec, slice(0, 1), slice(0, 1))
    assert ops == [0, 1, 2]
    assert all(problems[op] == [] for op in ops), problems
    assert all(len(exactness[op]) == 3 for op in ops)
    assert len(gains) == 2 and all(g >= 1.0 for g in gains)


def test_estimate_checks_reject_corruption(small_run):
    _, _, rec = small_run
    est = rec.estimates[0]
    assert checks.check_estimate(est, est.ne) == []
    rising = copy.copy(est)
    rising.objective_trace = est.objective_trace.copy()
    rising.objective_trace[-1] = rising.objective_trace[-2] * 1.01
    assert any("rose" in p for p in checks.check_estimate(rising, est.ne))
    worse = copy.copy(est)
    worse.g_hat = est.g_hat * 1.05
    worse.ne = checks.sign_invariant_error(worse.g_hat, est.g_true)
    assert any("misfit" in p for p in checks.check_estimate(worse, worse.ne))
    assert any("written ne" in p for p in checks.check_estimate(est, est.ne * 1.01))


def test_flipped_sign_rejected(small_run):
    cyc = copy.copy(small_run[2].cycles[0])
    cyc.deltas = cyc.deltas.copy()
    cyc.deltas[1, 2] *= -1
    assert any("residual" in p for p in checks.check_cycle(cyc))
    cyc.deltas[1, 2] = 0.5
    assert any("+-1" in p for p in checks.check_cycle(cyc))


def test_posterior_off_simplex_rejected(small_run):
    cyc = copy.copy(small_run[2].cycles[1])
    cyc.posterior = cyc.posterior * 1.1
    found = checks.check_cycle(cyc)
    assert any("simplex" in p for p in found)
    assert any("Bayes" in p for p in found)


def test_posterior_not_bayes_rejected(small_run):
    cyc = copy.copy(small_run[2].cycles[1])
    cyc.posterior = cyc.posterior[::-1].copy()
    found = checks.check_cycle(cyc)
    assert found and all("Bayes" in p for p in found)


def test_design_checks_reject_corruption(small_run):
    cyc = copy.copy(small_run[2].cycles[0])
    assert checks.check_design(cyc)[0] == []
    d = cyc.design
    cyc.design = copy.copy(d)
    cyc.design.x = d.x * 1.1
    assert any("budget" in p for p in checks.check_design(cyc)[0])
    cyc.design = copy.copy(d)
    cyc.design.theta = d.theta * 1.01
    assert any("unit modulus" in p for p in checks.check_design(cyc)[0])
    cyc.design = copy.copy(d)
    cyc.design.violation = d.accuracy
    assert any("violation" in p for p in checks.check_design(cyc)[0])
    # swapping start and end makes the design lose distance
    cyc.design = copy.copy(d)
    cyc.design.x, cyc.design.x_init = d.x_init, d.x
    cyc.design.theta, cyc.design.theta_init = d.theta_init, d.theta
    assert any("below the starting" in p for p in checks.check_design(cyc)[0])


def test_non_argmax_sign_vector_rejected(small_run):
    """A consistent fit (gamma and residual match its delta) that is not
    the brute-force argmax passes check_cycle but fails fit_exactness."""
    cyc = copy.copy(small_run[2].cycles[0])
    j = 0
    phi = checks.hypothesis_matrix(cyc, j)
    v = phi.conj().T @ cyc.y
    s = np.real(phi.conj().T @ phi)
    n = cyc.deltas.shape[1]
    signs = checks.sign_block(n, 0, 1 << (n - 1))
    ratios = checks.fit_ratio(v, s, signs)
    worst = signs[int(np.argmin(ratios))]
    model = phi @ worst
    gamma = (model.conj() @ cyc.y) / (model.conj() @ model)
    cyc.deltas = cyc.deltas.copy()
    cyc.gammas = cyc.gammas.copy()
    cyc.residuals = cyc.residuals.copy()
    cyc.deltas[j] = worst
    cyc.gammas[j] = gamma
    cyc.residuals[j] = float(np.linalg.norm(cyc.y - gamma * model) ** 2)
    cyc.posterior = checks.bayes_posterior(cyc.prior, cyc.residuals, cyc.sigma2)
    assert checks.check_cycle(cyc) == []
    assert checks.fit_exactness(cyc)[j] is False


def test_oracle_matches_exhaustive_search():
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    v = phi.conj().T @ y
    s = np.real(phi.conj().T @ phi)
    best = max(abs(v.conj() @ d) ** 2 / (d @ s @ d)
               for d in (np.array((1.0, *rest))
                         for rest in itertools.product((1.0, -1.0), repeat=8)))
    assert checks.oracle_ratio(v, s, chunk=16) == pytest.approx(best, rel=1e-12)


def test_written_diagnostics_checked(small_run, tmp_path):
    spec, out, rec = small_run
    corrupt = tmp_path / "round"
    corrupt.mkdir()
    for f in out.iterdir():
        (corrupt / f.name).write_bytes(f.read_bytes())
    diag = corrupt / "localization_diagnostics.csv"
    lines = diag.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    col = header.index("probability")
    cells[col] = repr(float(cells[col]) * 0.5)
    lines[1] = ",".join(cells)
    diag.write_text("\n".join(lines) + "\n")
    _, problems, _, _ = worker.check_round(
        "localization", spec, corrupt, rec, slice(0, 1), slice(0, 1))
    assert any("diagnostics" in p for p in problems[0])
    assert problems[1] == []


def test_chanest_round_checked(tmp_path):
    spec = harness.spec_from_dict(
        {"scene": {"m_antennas": 4, "n_x": 3, "n_y": 2, "sigma2_dbm": -120.0},
         "pilot": {"snr_db": 15.0}, "points": [{"m_antennas": 4}, {"m_antennas": 5}],
         "trials": 2, "master_seed": 3})
    patcher = instrument.Patcher()
    rec = instrument.Recorder()
    rec.install(patcher, (harness, pilot, localize, waveopt))
    try:
        worker.run_round("chanest", spec, tmp_path)
    finally:
        patcher.restore()
    ops, problems, _, _ = worker.check_round(
        "chanest", spec, tmp_path, rec, slice(0, 4), slice(0, 0))
    assert ops == [0, 1, 2, 3] and all(problems[op] == [] for op in ops)
    trials = tmp_path / "chanest_trials.csv"
    lines = trials.read_text().splitlines()
    col = lines[0].split(",").index("ne")
    cells = lines[2].split(",")
    cells[col] = repr(float(cells[col]) * 1.5)
    lines[2] = ",".join(cells)
    trials.write_text("\n".join(lines) + "\n")
    _, problems, _, _ = worker.check_round(
        "chanest", spec, tmp_path, rec, slice(0, 4), slice(0, 0))
    assert any("written ne" in p for p in problems[1])
    assert problems[0] == problems[2] == problems[3] == []
