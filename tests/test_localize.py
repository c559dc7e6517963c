import numpy as np
import pytest

from irsloc.localize import (BeliefState, CycleIO, DegenerateHypothesisError,
                             bayes_update, build_hypothesis_grid,
                             check_termination, estimate_alpha, estimate_gamma,
                             hypothesis_design, initial_belief, joint_ml,
                             run_cycle, simulate_echo)
from irsloc.scene import SceneConfig, synthesize_scene
from irsloc.util import crandn, random_unit_modulus, vec


def noiseless_config(**kw):
    base = dict(sigma2_dbm=-np.inf, sigma2_si_db=-np.inf, sigma2_ref_db=-np.inf,
                m_antennas=4, n_x=3, n_y=1)
    base.update(kw)
    return SceneConfig(**base)


# ------------------------------------------------------------------ echo

def direct_echo_matrix(scene, x, theta, snapshots):
    """Oracle: literal matrix-product evaluation of the echo model."""
    big_theta = np.diag(theta)
    a = scene.a[:, None]
    x_mat = np.tile(np.asarray(x)[:, None], (1, snapshots))
    y_mat = scene.alpha * scene.G.T @ big_theta @ a @ a.T @ big_theta @ scene.G @ x_mat
    return vec(y_mat)


def test_echo_matches_direct_matrix_products():
    cfg = noiseless_config()
    scene = synthesize_scene(cfg, seed=1)
    rng = np.random.default_rng(2)
    x = crandn(rng, cfg.m_antennas)
    theta = random_unit_modulus(rng, cfg.n_elements)
    y = simulate_echo(scene, x, theta, snapshots=5, seed=0)
    oracle = direct_echo_matrix(scene, x, theta, 5)
    assert np.linalg.norm(y - oracle) < 1e-10 * np.linalg.norm(oracle)
    # factorized form y = gamma * f with f = vec(G^T Theta (1^T kron a))
    gamma = scene.alpha * np.sum(scene.a * theta * (scene.G @ x))
    f = vec(scene.G.T @ np.diag(theta) @ np.tile(scene.a[:, None], (1, 5)))
    assert np.linalg.norm(y - gamma * f) < 1e-10 * np.linalg.norm(y)


def test_echo_zero_target_and_linearity():
    cfg = noiseless_config()
    scene = synthesize_scene(cfg, seed=3)
    rng = np.random.default_rng(4)
    x = crandn(rng, cfg.m_antennas)
    theta = random_unit_modulus(rng, cfg.n_elements)
    silent = synthesize_scene(cfg, seed=3)
    silent.alpha = 0.0
    assert np.all(simulate_echo(silent, x, theta, 3, seed=9) == 0)
    y1 = simulate_echo(scene, x, theta, 3, seed=9)
    y2 = simulate_echo(scene, 2 * x, theta, 3, seed=9)
    assert np.allclose(y2, 2 * y1, rtol=1e-12)


def test_echo_validates_inputs():
    cfg = noiseless_config()
    scene = synthesize_scene(cfg, seed=0)
    x = np.ones(cfg.m_antennas)
    with pytest.raises(ValueError):
        simulate_echo(scene, x, 2.0 * np.ones(cfg.n_elements), 4)
    with pytest.raises(ValueError):
        simulate_echo(scene, x, np.ones(cfg.n_elements), 0)


def test_design_matches_expected_echo_identity():
    # gamma Phi delta == gamma vec(G_hat^T diag(delta) Theta (1^T kron a))
    cfg = noiseless_config()
    rng = np.random.default_rng(11)
    g_hat = crandn(rng, cfg.n_elements, cfg.m_antennas)
    theta = random_unit_modulus(rng, cfg.n_elements)
    a_j = random_unit_modulus(rng, cfg.n_elements)
    delta = 1.0 - 2.0 * rng.integers(0, 2, cfg.n_elements)
    snapshots = 4
    phi = hypothesis_design(g_hat, theta, a_j, snapshots)
    direct = vec(g_hat.T @ np.diag(delta) @ np.diag(theta)
                 @ np.tile(a_j[:, None], (1, snapshots)))
    assert np.allclose(phi @ delta, direct, rtol=1e-12)


# ----------------------------------------------------------------- gamma

def test_gamma_noiseless_consistency():
    rng = np.random.default_rng(5)
    phi = crandn(rng, 12, 4)
    delta = np.array([1.0, -1.0, 1.0, 1.0])
    y = 2.0 * (phi @ delta)
    assert estimate_gamma(phi, delta, y) == pytest.approx(2.0, rel=1e-12)


def test_gamma_orthogonal_observation():
    phi = np.eye(4)[:, :2] + 0j
    delta = np.array([1.0, 1.0])
    y = np.array([1.0, -1.0, 3.0, 4.0], dtype=complex)  # y[0]+y[1]=0
    assert estimate_gamma(phi, delta, y) == pytest.approx(0.0, abs=1e-14)


def test_gamma_minimizes_residual():
    rng = np.random.default_rng(6)
    phi = crandn(rng, 16, 5)
    delta = 1.0 - 2.0 * rng.integers(0, 2, 5)
    y = crandn(rng, 16)
    g_opt = estimate_gamma(phi, delta, y)
    best = np.linalg.norm(y - g_opt * (phi @ delta)) ** 2
    for _ in range(100):
        g = crandn(rng, 1)[0]
        assert best <= np.linalg.norm(y - g * (phi @ delta)) ** 2 + 1e-12


def test_gamma_degenerate_model():
    with pytest.raises(DegenerateHypothesisError):
        estimate_gamma(np.zeros((4, 2)), np.ones(2), np.ones(4))


def test_gamma_floor_is_scale_free():
    # a response of energy 1e-240 is tiny, not vanished: the fit at that
    # scale is the unit-scale fit, its gain rescaled
    rng = np.random.default_rng(5)
    phi = crandn(rng, 12, 6)
    y = crandn(rng, 12)
    fit = joint_ml(y, phi)
    tiny = joint_ml(y, 1e-120 * phi)
    assert np.array_equal(tiny.delta, fit.delta)
    assert tiny.gamma == pytest.approx(fit.gamma * 1e120, rel=1e-12)
    assert estimate_gamma(1e-120 * phi, fit.delta, 1e-120 * y) \
        == pytest.approx(fit.gamma, rel=1e-12)


# -------------------------------------------------------------- joint ML

def test_joint_ml_noiseless_exact_recovery():
    cfg = noiseless_config(n_x=5, n_y=1)
    scene = synthesize_scene(cfg, seed=7)
    rng = np.random.default_rng(8)
    delta_true = 1.0 - 2.0 * rng.integers(0, 2, cfg.n_elements)
    g_hat = delta_true[:, None] * scene.G  # so that G = diag(delta) g_hat
    x = crandn(rng, cfg.m_antennas)
    theta = random_unit_modulus(rng, cfg.n_elements)
    y = simulate_echo(scene, x, theta, snapshots=6, seed=0)
    phi = hypothesis_design(g_hat, theta, scene.a, snapshots=6)
    fit = joint_ml(y, phi)
    assert fit.residual < 1e-8 * np.linalg.norm(y) ** 2
    agree = np.array_equal(fit.delta, delta_true) \
        or np.array_equal(fit.delta, -delta_true)
    assert agree


def test_joint_ml_matches_exhaustive_search():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = 8
        phi = crandn(rng, 20, n)
        y = crandn(rng, 20)
        fit = joint_ml(y, phi)
        best = np.inf
        for bits in range(2 ** n):
            delta = np.array([1.0 - 2.0 * (bits >> i & 1) for i in range(n)])
            gamma = estimate_gamma(phi, delta, y)
            best = min(best, np.linalg.norm(y - gamma * (phi @ delta)) ** 2)
        assert fit.residual == pytest.approx(best, rel=1e-9)


def test_joint_ml_homogeneity():
    rng = np.random.default_rng(10)
    phi = crandn(rng, 18, 6)
    y = crandn(rng, 18)
    fit1 = joint_ml(y, phi)
    fit2 = joint_ml(2.0 * y, phi)
    assert np.array_equal(fit1.delta, fit2.delta)
    assert fit2.gamma == pytest.approx(2.0 * fit1.gamma, rel=1e-12)


# ------------------------------------------------------------------ bayes

def test_bayes_likelihood_ratio_three_to_one():
    probs, flag = bayes_update(np.array([0.5, 0.5]),
                               np.array([0.0, np.log(3.0)]), sigma2=1.0)
    assert not flag
    assert probs == pytest.approx([0.75, 0.25], rel=1e-12)


def test_bayes_uninformative_observation():
    prior = np.array([0.1, 0.2, 0.3, 0.4])
    probs, _ = bayes_update(prior, np.full(4, 7.5), sigma2=2.0)
    assert probs == pytest.approx(prior, rel=1e-12)


def test_bayes_simplex_and_zero_prior():
    rng = np.random.default_rng(12)
    prior = np.array([0.5, 0.5, 0.0])
    for _ in range(50):
        res = rng.random(3)
        probs, _ = bayes_update(prior, res, sigma2=0.7)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs >= 0)
        assert probs[2] == 0.0
        prior = probs


def test_bayes_noiseless_limit_is_argmin_indicator():
    probs, _ = bayes_update(np.array([0.25, 0.25, 0.25, 0.25]),
                            np.array([3.0, 1e-30, 2.0, 5.0]), sigma2=0.0)
    assert probs == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-15)


def test_bayes_noiseless_ties_scale_with_echo_energy():
    # residuals at the rounding floor of ||y - gamma Phi delta||^2 are ties
    prior = np.full(3, 1.0 / 3.0)
    residuals = np.array([2.1e-39, 8.3e-39, 1.4e-39])
    energy = 1e-7
    probs, flag = bayes_update(prior, residuals, 0.0, echo_energy=energy)
    assert not flag
    assert np.all(probs == probs[0])
    # decisions depend only on residuals relative to ||y||^2
    informative = np.array([1.6e-3, 4e-4, 2.5e-3]) * energy
    expected, _ = bayes_update(prior, informative, 0.0, echo_energy=energy)
    assert np.array_equal(expected, [0.0, 1.0, 0.0])
    for k in range(-6, 7):
        scale = 10.0 ** k
        for res, ref in ((residuals, probs), (informative, expected)):
            got, _ = bayes_update(prior, res * scale, 0.0,
                                  echo_energy=energy * scale)
            assert np.array_equal(got, ref)


def test_bayes_underflow_keeps_belief():
    prior = np.array([0.6, 0.4])
    probs, flag = bayes_update(prior, np.array([np.inf, np.inf]), sigma2=1.0)
    assert flag
    assert probs == pytest.approx(prior)


# ------------------------------------------------------------------ alpha

def test_alpha_noiseless_end_to_end():
    cfg = noiseless_config(n_x=4, n_y=1)
    scene = synthesize_scene(cfg, seed=13)
    rng = np.random.default_rng(14)
    x = crandn(rng, cfg.m_antennas)
    theta = random_unit_modulus(rng, cfg.n_elements)
    y = simulate_echo(scene, x, theta, snapshots=8, seed=0)
    phi = hypothesis_design(scene.G, theta, scene.a, snapshots=8)
    fit = joint_ml(y, phi)
    alpha, ok = estimate_alpha(fit.gamma, theta, fit.delta, scene.G, x, scene.a)
    assert ok
    assert alpha == pytest.approx(scene.alpha, rel=1e-8)


def test_alpha_zero_gamma_and_sign_invariance():
    rng = np.random.default_rng(15)
    n, m = 5, 3
    g_hat = crandn(rng, n, m)
    theta = random_unit_modulus(rng, n)
    a_j = random_unit_modulus(rng, n)
    x = crandn(rng, m)
    delta = 1.0 - 2.0 * rng.integers(0, 2, n)
    alpha0, ok = estimate_alpha(0.0, theta, delta, g_hat, x, a_j)
    assert ok and alpha0 == 0.0
    gamma = 1.3 - 0.4j
    a1, _ = estimate_alpha(gamma, theta, delta, g_hat, x, a_j)
    a2, _ = estimate_alpha(-gamma, theta, -delta, g_hat, x, a_j)
    assert a1 == pytest.approx(a2, rel=1e-12)


def test_alpha_degenerate_denominator_keeps_previous():
    n, m = 3, 2
    g_hat = np.zeros((n, m), dtype=complex)
    prev = 0.7 + 0.1j
    alpha, ok = estimate_alpha(1.0, np.ones(n), np.ones(n), g_hat,
                               np.ones(m), np.ones(n), previous=prev)
    assert not ok
    assert alpha == prev


# ------------------------------------------------------------------- grid

def test_grid_partition_and_true_hypothesis():
    cfg = noiseless_config(n_x=5, n_y=2)
    grid = build_hypothesis_grid(cfg, 4)
    assert grid.centers_deg == pytest.approx([55.0, 60.0, 65.0, 70.0])
    assert grid.true_hypothesis(60.0) == 1
    assert grid.true_hypothesis(52.5) == 0
    assert grid.true_hypothesis(72.49) == 3
    with pytest.raises(ValueError):
        grid.true_hypothesis(72.5)
    assert grid.steering.shape == (cfg.n_elements, 4)
    assert np.abs(np.abs(grid.steering) - 1.0).max() < 1e-12


# ------------------------------------------------------------- run_cycle

def run_noiseless_cycles(seed, n_cycles=3):
    cfg = noiseless_config(n_x=3, n_y=3)
    scene = synthesize_scene(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    delta_true = 1.0 - 2.0 * rng.integers(0, 2, cfg.n_elements)
    g_hat = delta_true[:, None] * scene.G
    grid = build_hypothesis_grid(cfg, 4)
    belief = initial_belief(4, cfg.n_elements)
    for c in range(n_cycles):
        x = np.sqrt(1.0 / cfg.m_antennas) * np.ones(cfg.m_antennas, dtype=complex)
        theta = random_unit_modulus(rng, cfg.n_elements)
        belief, diag = run_cycle(scene, g_hat, grid, belief, x, theta,
                                 snapshots=8, seed=seed + c)
        if belief.probs.max() > 0.99:
            break
    return grid, belief


def test_noiseless_cycles_identify_true_hypothesis():
    for seed in range(3):
        grid, belief = run_noiseless_cycles(seed)
        assert belief.argmax == 1  # 60 degrees lies in the second grid
        assert belief.probs[1] > 0.99


def test_run_cycle_deterministic():
    _, b1 = run_noiseless_cycles(5, n_cycles=2)
    _, b2 = run_noiseless_cycles(5, n_cycles=2)
    assert np.array_equal(b1.probs, b2.probs)
    assert np.array_equal(b1.deltas, b2.deltas)


def test_run_cycle_enforces_power_budget():
    cfg = noiseless_config()
    scene = synthesize_scene(cfg, seed=2)
    grid = build_hypothesis_grid(cfg, 2)
    belief = initial_belief(2, cfg.n_elements)
    x = np.ones(cfg.m_antennas, dtype=complex)  # power M > budget 1
    theta = np.ones(cfg.n_elements, dtype=complex)
    with pytest.raises(ValueError):
        run_cycle(scene, scene.G, grid, belief, x, theta, snapshots=2,
                  power_budget=1.0)


def test_run_cycle_names_cycle_and_hypothesis_of_non_finite_fit():
    # one NaN in the channel estimate makes Phi^H y non-finite for every
    # hypothesis, so the first fit fails and names its cycle and hypothesis
    cfg = noiseless_config(n_x=5, n_y=2)
    scene = synthesize_scene(cfg, seed=3)
    g_hat = scene.G.copy()
    g_hat[4, 1] = np.nan
    grid = build_hypothesis_grid(cfg, 4)
    belief = initial_belief(4, cfg.n_elements)
    x = np.ones(cfg.m_antennas, dtype=complex) / np.sqrt(cfg.m_antennas)
    theta = np.ones(cfg.n_elements, dtype=complex)
    with pytest.raises(DegenerateHypothesisError,
                       match=r"^cycle 1, hypothesis 0: .*not finite"):
        run_cycle(scene, g_hat, grid, belief, x, theta, snapshots=4)


def test_noiseless_true_log_probability_nondecreasing():
    cfg = noiseless_config(n_x=3, n_y=3)
    for seed in range(3):
        scene = synthesize_scene(cfg, seed=seed)
        rng = np.random.default_rng(seed + 77)
        grid = build_hypothesis_grid(cfg, 4)
        true_hyp = grid.true_hypothesis(cfg.target_theta_deg)
        belief = initial_belief(4, cfg.n_elements)
        history = [belief.probs[true_hyp]]
        x = np.ones(cfg.m_antennas, dtype=complex)
        for c in range(4):
            theta = random_unit_modulus(rng, cfg.n_elements)
            belief, _ = run_cycle(scene, scene.G, grid, belief, x, theta,
                                  snapshots=4, seed=c)
            history.append(belief.probs[true_hyp])
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
        assert history[-1] > 0.99


def test_null_target_keeps_belief_spread():
    # alpha = 0: echoes are pure noise, no hypothesis should win quickly
    cfg = SceneConfig(m_antennas=4, n_x=3, n_y=2, sigma2_dbm=-120.0)
    hits = 0
    for seed in range(12):
        scene = synthesize_scene(cfg, seed=seed)
        scene.alpha = 0.0
        rng = np.random.default_rng(seed)
        grid = build_hypothesis_grid(cfg, 4)
        belief = initial_belief(4, cfg.n_elements)
        for c in range(5):
            x = 1e-3 * crandn(rng, cfg.m_antennas)
            theta = random_unit_modulus(rng, cfg.n_elements)
            belief, _ = run_cycle(scene, scene.G, grid, belief, x, theta,
                                  snapshots=8, seed=1000 * seed + c)
        if belief.probs.max() >= 0.95:
            hits += 1
    assert hits <= 3


# ------------------------------------------------------------ termination

def test_termination_decision():
    g_hat = np.arange(8, dtype=complex).reshape(4, 2) + 1.0
    belief = BeliefState(cycle=3, probs=np.array([0.96, 0.02, 0.01, 0.01]),
                         gammas=np.zeros(4, dtype=complex),
                         deltas=np.vstack([[1, -1, 1, -1]] * 4).astype(float),
                         alphas=np.zeros(4, dtype=complex))
    decision = check_termination(belief, g_hat, threshold=0.95)
    assert decision.terminated
    assert decision.winner == 0
    expected = belief.deltas[0][:, None] * g_hat
    assert np.array_equal(decision.resolved_channel, expected)

    uniform = initial_belief(4, 4)
    assert not check_termination(uniform, np.ones((4, 2)), 0.95).terminated


def test_cycle_io_recorded():
    cfg = noiseless_config()
    scene = synthesize_scene(cfg, seed=3)
    grid = build_hypothesis_grid(cfg, 2)
    belief = initial_belief(2, cfg.n_elements)
    x = np.ones(cfg.m_antennas, dtype=complex)
    theta = np.ones(cfg.n_elements, dtype=complex)
    _, diag = run_cycle(scene, scene.G, grid, belief, x, theta, snapshots=3)
    assert isinstance(diag.io, CycleIO)
    assert diag.io.y.shape == (3 * cfg.m_antennas,)
    assert diag.residuals.shape == (2,)
