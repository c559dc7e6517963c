import numpy as np
import pytest

from irsloc.scene import Scene, SceneConfig, path_loss, steering_vector, synthesize_scene


def test_path_loss_reference_distance():
    # -30 dB at d0 = 1 m is 1e-3 linear
    assert path_loss(1.0, c0_db=-30.0, d0_m=1.0, alpha0=2.2) == pytest.approx(1e-3, rel=1e-12)


def test_path_loss_identity_at_d0():
    for alpha0 in (1.0, 2.0, 2.2, 3.7):
        assert path_loss(2.5, c0_db=-12.0, d0_m=2.5, alpha0=alpha0) == \
            pytest.approx(10 ** (-1.2), rel=1e-12)


def test_path_loss_closed_form_value():
    # frozen from 30-digit evaluation of 1e-3 * 10^(-2.2)
    assert path_loss(10.0, c0_db=-30.0, d0_m=1.0, alpha0=2.2) == \
        pytest.approx(6.30957344480193e-6, rel=1e-12)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss(0.0)
    with pytest.raises(ValueError):
        path_loss(-3.0)


def test_path_loss_strictly_decreasing():
    dists = np.linspace(0.5, 40.0, 200)
    vals = [path_loss(d) for d in dists]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_steering_single_element():
    cfg = SceneConfig(n_x=1, n_y=1)
    a = steering_vector(0.7, 1.3, cfg)
    assert a.shape == (1,)
    assert a[0] == pytest.approx(1.0)


def test_steering_two_element_endfire():
    # half-wavelength spacing, theta=90deg, phi=0: phase step of pi
    cfg = SceneConfig(n_x=2, n_y=1, lambda_c=0.06, d_x=0.03, d_y=0.03)
    a = steering_vector(np.pi / 2, 0.0, cfg)
    assert np.allclose(a, [1.0, -1.0], atol=1e-12)


def test_steering_matches_scalar_loop():
    # independent entry-by-entry evaluation of the per-axis phase law
    cfg = SceneConfig(n_x=2, n_y=2, lambda_c=0.06, d_x=0.03, d_y=0.03)
    theta, phi = np.deg2rad(60.0), np.deg2rad(270.0)
    a = steering_vector(theta, phi, cfg)
    ux = np.sin(theta) * np.cos(phi)
    uy = np.sin(theta) * np.sin(phi)
    for n in range(4):
        kx, ky = n // cfg.n_y, n % cfg.n_y
        expected = np.exp(1j * 2 * np.pi * cfg.d_x * kx * ux / cfg.lambda_c) \
            * np.exp(1j * 2 * np.pi * cfg.d_y * ky * uy / cfg.lambda_c)
        assert a[n] == pytest.approx(expected, abs=1e-14)


def test_steering_unit_modulus_and_rank_one():
    cfg = SceneConfig(n_x=5, n_y=3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        a = steering_vector(theta, phi, cfg)
        assert np.abs(np.abs(a) - 1.0).max() < 1e-12
        grid = a.reshape(cfg.n_x, cfg.n_y)
        svals = np.linalg.svd(grid, compute_uv=False)
        assert svals[1] < 1e-12 * svals[0]


def test_synthesize_deterministic():
    cfg = SceneConfig()
    s1 = synthesize_scene(cfg, seed=123)
    s2 = synthesize_scene(cfg, seed=123)
    assert np.array_equal(s1.G, s2.G)
    assert np.array_equal(s1.a, s2.a)
    assert s1.alpha == s2.alpha
    s3 = synthesize_scene(cfg, seed=999)
    assert not np.array_equal(s1.G, s3.G)


def test_channel_power_matches_path_loss():
    # sample mean of |G|^2 over 1e4 entries vs the configured link gain
    cfg = SceneConfig(m_antennas=10, n_x=5, n_y=1)
    expected = path_loss(cfg.bs_irs_distance, cfg.c0_db, cfg.d0_m, cfg.alpha0)
    samples = []
    for seed in range(200):
        samples.append(np.abs(synthesize_scene(cfg, seed=seed).G) ** 2)
    mean = np.mean(samples)
    assert abs(mean - expected) < 0.05 * expected


def test_alpha_amplitude_and_phase():
    cfg = SceneConfig(target_rcs_amplitude=1.0)
    phases = []
    for seed in range(50):
        scene = synthesize_scene(cfg, seed=seed)
        assert abs(scene.alpha) == pytest.approx(1.0, rel=1e-12)
        phases.append(np.angle(scene.alpha))
    assert np.ptp(phases) > np.pi  # phases actually vary over [0, 2pi)


def test_scene_steering_matches_target_angles():
    cfg = SceneConfig()
    scene = synthesize_scene(cfg, seed=5)
    expected = steering_vector(*scene.target_angles_rad, cfg)
    assert np.allclose(scene.a, expected)
    assert scene.a[0] == pytest.approx(1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(m_antennas=1)
    with pytest.raises(ValueError):
        SceneConfig(n_x=0)
    with pytest.raises(ValueError):
        SceneConfig(lambda_c=-0.06)


def test_noise_power_units():
    cfg = SceneConfig(sigma2_dbm=-120.0)
    assert cfg.noise_power == pytest.approx(1e-15, rel=1e-12)
    silent = SceneConfig(sigma2_dbm=-np.inf)
    assert silent.noise_power == 0.0
    assert SceneConfig(sigma2_si_db=-10.0).si_power == pytest.approx(0.1)
