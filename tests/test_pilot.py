from dataclasses import fields, replace
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from irsloc.pilot import (IdentifiabilityError, ObservationSet, PilotSchedule,
                          build_design_matrix, build_schedule,
                          count_product_estimates, ls_covariance, ls_estimates,
                          schedule_efficiency, simulate_pilot_round,
                          true_omega)
from irsloc.scene import SceneConfig, synthesize_scene
from irsloc.util import as_rng, crandn, khatri_rao, vec


def noiseless_config(**kw):
    base = dict(sigma2_dbm=-np.inf, sigma2_si_db=-np.inf, sigma2_ref_db=-np.inf)
    base.update(kw)
    return SceneConfig(**base)


def test_subframe_enumeration():
    sched = build_schedule(4, 1, 9)
    assert sched.n_subframes == 4
    assert [a for a, _ in sched.subframes] == [(0,), (1,), (2,), (3,)]
    assert build_schedule(4, 2, 4).n_subframes == 6


def test_identifiability_guard():
    with pytest.raises(IdentifiabilityError):
        build_schedule(4, 1, 9, n_diffs=8)
    with pytest.raises(IdentifiabilityError):
        build_schedule(4, 2, 5, n_diffs=9)


def test_efficiency_values():
    assert schedule_efficiency(4, 1, 25) == pytest.approx(0.02, rel=1e-12)
    assert schedule_efficiency(4, 2, 25) == pytest.approx(2 * 2 / 300, rel=1e-12)
    assert schedule_efficiency(4, 1, 25) > schedule_efficiency(4, 2, 25)


def test_efficiency_matches_counting_construction():
    # closed form == (estimates per pair) / (pilot cost), exact rationals
    for m in range(2, 7):
        for m_t in range(1, m):
            n = 7
            estimates = count_product_estimates(m, m_t)
            assert estimates == m_t * (m - m_t) * comb(m, m_t)
            eta = Fraction(estimates, m * (m - 1) // 2) / Fraction(comb(m, m_t) * n * m_t)
            assert eta == Fraction(2 * (m - m_t), n * m * (m - 1))
            assert schedule_efficiency(m, m_t, n) == pytest.approx(float(eta), rel=1e-12)


def test_design_matrix_dimensions():
    for m, m_t, n in ((4, 1, 9), (4, 2, 6), (5, 2, 4)):
        sched = build_schedule(m, m_t, n)
        phi = build_design_matrix(sched)
        c = sched.n_diffs
        assert phi.shape == (c * (m - m_t), n * m_t * (m - m_t))


def test_design_matrix_conditioning():
    for n in (4, 9, 16, 25, 32):
        sched = build_schedule(4, 1, n)
        phi = build_design_matrix(sched)
        svals = np.linalg.svd(phi, compute_uv=False)
        assert svals[0] / svals[-1] < 1e3
    sched = build_schedule(4, 2, 8)
    phi = build_design_matrix(sched)
    svals = np.linalg.svd(phi, compute_uv=False)
    assert svals[0] / svals[-1] < 1e3


def loop_design_matrix(schedule):
    """Row block by row block: dtheta(l)^T kron (x^T(l) kron I)."""
    eye = np.eye(schedule.n_rx)
    return np.vstack([np.kron(schedule.delta_theta[l][None, :],
                              np.kron(schedule.pilots[l][None, :], eye))
                      for l in range(schedule.n_diffs)])


@pytest.mark.parametrize("m,m_t,n,n_diffs", [
    (4, 1, 25, None), (6, 1, 25, None), (6, 2, 25, None), (5, 2, 6, 13),
    (4, 3, 6, 20), (6, 3, 9, None)])
def test_design_matrix_matches_loop_oracle(m, m_t, n, n_diffs):
    sched = build_schedule(m, m_t, n, n_diffs=n_diffs, pilot_power=3.0)
    assert np.array_equal(build_design_matrix(sched), loop_design_matrix(sched))


def test_unit_selector_structure():
    # dtheta a unit vector picks out exactly the columns of row n
    n, m = 3, 3
    sched = build_schedule(m, 1, n)
    row = 1
    sched.delta_theta = np.zeros((n, n), dtype=complex)
    sched.delta_theta[:, row] = 1.0
    sched.irs_base = np.zeros((n, n), dtype=complex)
    sched.pilots = np.ones((n, 1), dtype=complex)
    phi = build_design_matrix(sched)
    n_rx = m - 1
    cols = np.zeros(n * n_rx, dtype=bool)
    cols[row * n_rx:(row + 1) * n_rx] = True
    assert np.all(phi[:, ~cols] == 0)
    assert np.all(np.abs(phi[:, cols]).sum(axis=0) > 0)


def scalar_two_antenna_schedule():
    return PilotSchedule(
        m_antennas=2, m_t=1, n_elements=1, pilot_power=1.0,
        subframes=[((0,), (1,))],
        delta_theta=np.array([[1.0 + 0j]]),
        irs_base=np.array([[0.0 + 0j]]),
        pilots=np.array([[1.0 + 0j]]))


def test_scalar_model_value():
    cfg = noiseless_config(m_antennas=2, n_x=1, n_y=1)
    scene = synthesize_scene(cfg, seed=0)
    scene.G = np.array([[2.0 + 0j, 1.0 + 0j]])  # product g_a * g_b = 2
    sched = scalar_two_antenna_schedule()
    obs = simulate_pilot_round(scene, sched, seed=1)
    assert obs.ytilde.shape == (1, 1)
    assert obs.ytilde[0, 0] == pytest.approx(2.0, abs=1e-14)


def test_static_channels_cancel_exactly():
    # strong static leakage, zero noise: observation independent of statics
    cfg = SceneConfig(m_antennas=4, n_x=3, n_y=2, sigma2_dbm=-np.inf,
                      sigma2_si_db=30.0, sigma2_ref_db=30.0)
    scene = synthesize_scene(cfg, seed=3)
    sched = build_schedule(4, 1, 6)
    obs_a = simulate_pilot_round(scene, sched, seed=11)
    obs_b = simulate_pilot_round(scene, sched, seed=222)  # different statics
    # cancellation is exact in exact arithmetic; in floats the residue is
    # bounded by eps times the (huge) per-slot static amplitude
    static_amp = np.sqrt(scene.config.si_power) + np.sqrt(scene.config.ref_power)
    atol = 1e-12 * static_amp
    assert np.allclose(obs_a.ytilde, obs_b.ytilde, rtol=0, atol=atol)
    phi = build_design_matrix(sched)
    for p in range(sched.n_subframes):
        model = phi @ true_omega(scene, sched, p)
        assert np.allclose(obs_a.ytilde[p], model, rtol=0, atol=atol)


def loop_oracle_ytilde(scene, sched, p):
    """Scalar-loop evaluation of G_B^T dTheta G_A x, difference by difference."""
    a_set, b_set = sched.subframes[p]
    n_rx = sched.n_rx
    out = np.zeros(sched.n_diffs * n_rx, dtype=complex)
    for l in range(sched.n_diffs):
        for j, b in enumerate(b_set):
            acc = 0.0 + 0.0j
            for n in range(sched.n_elements):
                for i, a in enumerate(a_set):
                    acc += (scene.G[n, b] * sched.delta_theta[l, n]
                            * scene.G[n, a] * sched.pilots[l, i])
            out[l * n_rx + j] = acc
    return out


def loop_oracle_round(scene, sched, seed):
    """Difference-by-difference pilot round with the draw order of the
    model: per subframe the statics, then per (difference, slot) the noise."""
    rng = as_rng(seed)
    cfg = scene.config
    n_rx = sched.n_rx
    out = np.empty((sched.n_subframes, sched.n_diffs * n_rx), dtype=complex)
    for p, (a_set, b_set) in enumerate(sched.subframes):
        g_a = scene.G[:, list(a_set)]
        g_bt = scene.G[:, list(b_set)].T
        h_static = (np.sqrt(cfg.si_power) * crandn(rng, n_rx, sched.m_t)
                    + np.sqrt(cfg.ref_power) * crandn(rng, n_rx, sched.m_t))
        for l in range(sched.n_diffs):
            x = sched.pilots[l]
            base = sched.irs_base[l]
            y_pair = []
            for theta in (base, base + sched.delta_theta[l]):
                y = g_bt @ (theta * (g_a @ x)) + h_static @ x
                if cfg.noise_power > 0:
                    y = y + np.sqrt(cfg.noise_power) * crandn(rng, n_rx)
                y_pair.append(y)
            out[p, l * n_rx:(l + 1) * n_rx] = y_pair[1] - y_pair[0]
    return out


@pytest.mark.parametrize("m,m_t,n_diffs", [(4, 1, None), (5, 2, None),
                                           (4, 2, 13)])
def test_pilot_round_matches_loop_oracle(m, m_t, n_diffs):
    cfg = SceneConfig(m_antennas=m, n_x=3, n_y=2, sigma2_dbm=-90.0,
                      sigma2_si_db=-10.0, sigma2_ref_db=-10.0)
    scene = synthesize_scene(cfg, seed=8)
    sched = build_schedule(m, m_t, cfg.n_elements, n_diffs=n_diffs,
                           pilot_power=1e-3)
    oracle = loop_oracle_round(scene, sched, seed=12)
    obs = simulate_pilot_round(scene, sched, seed=12)
    assert np.abs(obs.ytilde - oracle).max() <= 1e-12 * np.abs(oracle).max()
    # with no signal and no statics the observation is the differenced
    # noise alone, which must be drawn bit for bit as by the loop
    scene.G = np.zeros_like(scene.G)
    quiet = SceneConfig(m_antennas=m, n_x=3, n_y=2, sigma2_dbm=-90.0,
                        sigma2_si_db=-np.inf, sigma2_ref_db=-np.inf)
    scene.config = quiet
    noise = loop_oracle_round(scene, sched, seed=12)
    assert np.any(noise != 0)
    assert np.array_equal(simulate_pilot_round(scene, sched, seed=12).ytilde, noise)


@pytest.mark.parametrize("m,m_t,n", [(4, 1, 5), (4, 2, 4), (5, 2, 3)])
def test_noiseless_observation_matches_loop_oracle(m, m_t, n):
    cfg = noiseless_config(m_antennas=m, n_x=n, n_y=1)
    scene = synthesize_scene(cfg, seed=9)
    sched = build_schedule(m, m_t, n)
    obs = simulate_pilot_round(scene, sched, seed=2)
    phi = build_design_matrix(sched)
    for p in range(sched.n_subframes):
        oracle = loop_oracle_ytilde(scene, sched, p)
        scale = np.linalg.norm(oracle)
        assert np.linalg.norm(obs.ytilde[p] - oracle) < 1e-10 * scale
        model = phi @ true_omega(scene, sched, p)
        assert np.linalg.norm(model - oracle) < 1e-10 * scale


def test_khatri_rao_coordinate_layout():
    # omega coordinates are g_{n,a} g_{n,b} in (n, a, b) order
    cfg = noiseless_config(m_antennas=4, n_x=2, n_y=1)
    scene = synthesize_scene(cfg, seed=4)
    sched = build_schedule(4, 2, 2)
    p = 1
    a_set, b_set = sched.subframes[p]
    omega = true_omega(scene, sched, p)
    n_rx = sched.n_rx
    for n in range(2):
        for i, a in enumerate(a_set):
            for j, b in enumerate(b_set):
                flat = n * sched.m_t * n_rx + i * n_rx + j
                assert omega[flat] == pytest.approx(scene.G[n, a] * scene.G[n, b])
    kr = khatri_rao(scene.G[:, list(a_set)].T, scene.G[:, list(b_set)].T)
    assert np.allclose(omega, vec(kr))


def test_ls_noiseless_consistency():
    cfg = noiseless_config(m_antennas=4, n_x=3, n_y=1)
    scene = synthesize_scene(cfg, seed=14)
    sched = build_schedule(4, 1, 3)
    obs = simulate_pilot_round(scene, sched, seed=5)
    for p in range(sched.n_subframes):
        omega = true_omega(scene, sched, p)
        est = ls_estimates(obs)[p]
        assert np.linalg.norm(est - omega) < 1e-10 * np.linalg.norm(omega)


def test_ls_covariance_identity_case():
    assert np.allclose(ls_covariance(np.eye(3), 0.5), np.eye(3))
    with pytest.raises(ValueError):
        ls_covariance(np.eye(3), 0.0)


def with_pattern(sched, pattern):
    """A hand-built copy of the single-transmit ``sched`` whose pattern
    matrix is ``pattern`` (unit pilots, so dtheta is the pattern)."""
    return PilotSchedule(
        m_antennas=sched.m_antennas, m_t=1, n_elements=sched.n_elements,
        pilot_power=1.0, subframes=sched.subframes, delta_theta=pattern,
        irs_base=np.zeros_like(pattern),
        pilots=np.ones((len(pattern), 1), dtype=complex))


def test_rank_deficiency_detected():
    sched = build_schedule(3, 1, 2)
    pattern = np.array(sched.pattern)
    pattern[:, 0] = pattern[:, 1]
    bad = with_pattern(sched, pattern)
    ytilde = np.zeros((3, sched.n_diffs * sched.n_rx))
    with pytest.raises(IdentifiabilityError):
        ObservationSet(schedule=bad, ytilde=ytilde, sigma2=0.0)
    with pytest.raises(IdentifiabilityError):
        bad.condition_number


def test_empirical_covariance_matches_model():
    # Monte Carlo over full simulation rounds: sample covariance of the LS
    # estimate vs 2 sigma^2 (Phi^H Phi)^{-1}, and differenced noise variance
    # vs 2 sigma^2 per complex dimension.
    cfg = SceneConfig(m_antennas=2, n_x=2, n_y=1, sigma2_dbm=0.0,
                      sigma2_si_db=-10.0, sigma2_ref_db=-10.0)
    scene = synthesize_scene(cfg, seed=21)
    sched = build_schedule(2, 1, 2, pilot_power=4.0)
    phi = build_design_matrix(sched)
    sigma2 = cfg.noise_power
    expected = ls_covariance(phi.conj().T @ phi, sigma2)
    omega = true_omega(scene, sched, 0)

    rng_seeds = range(10_000)
    errs = []
    noise_power = []
    for s in rng_seeds:
        obs = simulate_pilot_round(scene, sched, seed=1000 + s)
        errs.append(ls_estimates(obs)[0] - omega)
        resid = obs.ytilde[0] - phi @ omega
        noise_power.append(np.mean(np.abs(resid) ** 2))
    errs = np.asarray(errs)
    sample_cov = errs.T @ errs.conj() / errs.shape[0]
    rel = np.linalg.norm(sample_cov - expected) / np.linalg.norm(expected)
    assert rel < 0.10
    assert np.mean(noise_power) == pytest.approx(2 * sigma2, rel=0.05)


def test_ls_estimates_stacks_all_subframes():
    cfg = noiseless_config()
    scene = synthesize_scene(cfg, seed=2)
    sched = build_schedule(cfg.m_antennas, 1, cfg.n_elements)
    obs = simulate_pilot_round(scene, sched, seed=3)
    stacked = ls_estimates(obs)
    assert stacked.shape == (sched.n_subframes,
                             build_design_matrix(sched).shape[1])
    # solved once per round, and shared read-only by every caller
    assert ls_estimates(obs) is stacked
    assert not stacked.flags.writeable


@pytest.mark.parametrize("m,m_t,n_diffs", [(4, 1, None), (5, 2, 13)])
def test_omega_ls_matches_per_subframe_lstsq(m, m_t, n_diffs):
    cfg = SceneConfig(m_antennas=m, n_x=3, n_y=2, sigma2_dbm=-90.0)
    scene = synthesize_scene(cfg, seed=15)
    sched = build_schedule(m, m_t, cfg.n_elements, n_diffs=n_diffs,
                           pilot_power=1e-3)
    obs = simulate_pilot_round(scene, sched, seed=16)
    phi = build_design_matrix(sched)
    for p in range(sched.n_subframes):
        single = np.linalg.lstsq(phi, obs.ytilde[p], rcond=None)[0]
        err = np.abs(obs.omega_ls[p] - single).max()
        assert err <= 1e-12 * np.abs(single).max()


def test_omega_ls_rank_check():
    sched = build_schedule(3, 1, 2)
    phi = build_design_matrix(sched)
    ytilde = np.ones((3, phi.shape[0]))
    obs = ObservationSet(schedule=sched, ytilde=ytilde, sigma2=0.0)
    assert np.allclose(ls_estimates(obs),
                       np.linalg.lstsq(phi, ytilde.T, rcond=None)[0].T,
                       rtol=0, atol=1e-12)
    # Phi = pattern kron I shares the pattern's singular values
    svals = np.linalg.svd(phi, compute_uv=False)
    assert sched.condition_number == pytest.approx(svals[0] / svals[-1],
                                                   rel=1e-9)
    # full rank to lstsq, but past the 1e-10 condition bound
    u, svals, vh = np.linalg.svd(sched.pattern)
    svals[-1] = svals[0] * 1e-11
    bad = with_pattern(sched, (u * svals) @ vh)
    assert np.linalg.lstsq(build_design_matrix(bad), ytilde.T,
                           rcond=None)[2] == phi.shape[1]
    with pytest.raises(IdentifiabilityError):
        ObservationSet(schedule=bad, ytilde=ytilde, sigma2=0.0)
    with pytest.raises(IdentifiabilityError):
        bad.condition_number


def test_schedule_factors_its_pattern_once_read_only():
    sched = build_schedule(5, 2, 4, pilot_power=2.0)
    # nothing beyond the fields before first use
    assert vars(sched).keys() == {f.name for f in fields(sched)}
    cfg = noiseless_config(m_antennas=5, n_x=2, n_y=2)
    scene = synthesize_scene(cfg, seed=3)
    obs_a = simulate_pilot_round(scene, sched, seed=1)
    obs_b = simulate_pilot_round(scene, sched, seed=2)
    assert obs_a.schedule.pattern_pinv is obs_b.schedule.pattern_pinv
    for arr in (sched.pattern, sched.pattern_pinv, sched.pattern_gram):
        assert not arr.flags.writeable
    assert np.allclose(sched.pattern_pinv, np.linalg.pinv(sched.pattern),
                       rtol=0, atol=1e-12 * np.abs(sched.pattern_pinv).max())


def test_pattern_gram_refuses_non_orthogonal_pilots():
    # Gaussian pilots keep the pattern full rank, but the pilots of a
    # pattern are not orthogonal, so its Gram is not Kp kron I_{M_t}
    sched = build_schedule(5, 2, 6)
    bad = replace(sched, pilots=crandn(np.random.default_rng(0),
                                       *sched.pilots.shape))
    assert bad.condition_number < 1e10  # the LS layer accepts it
    with pytest.raises(ValueError, match=r"misses Kp kron I_2 by 0\.\d+"):
        bad.pattern_gram
    # built schedules pass, with and without spare patterns
    for m, m_t, n, extra in ((4, 1, 10, 0), (5, 2, 6, 4), (6, 2, 25, 0),
                             (6, 3, 20, 9), (7, 4, 2, 0)):
        sched = build_schedule(m, m_t, n, n_diffs=n * m_t + extra,
                               pilot_power=3.7)
        gram = sched.pattern.conj().T @ sched.pattern
        assert np.allclose(np.kron(sched.pattern_gram, np.eye(m_t)), gram,
                           rtol=0, atol=1e-12 * np.abs(gram).max())
