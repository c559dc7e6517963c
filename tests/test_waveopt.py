import numpy as np
import pytest

from irsloc.util import crandn, random_unit_modulus, vec
from irsloc.waveopt import (DistanceContext, OptimizerState, _PhaseAscent,
                            _best_phase, build_context, constraint_violation,
                            dominant_power_vector, optimize, pair_distance,
                            penalty_optimize, penalty_value, update_q,
                            update_theta, update_x, weighted_distance)


def random_context(rng, n=6, m=3, n_hyp=3, snapshots=8, noise_power=0.5):
    channels = [crandn(rng, n, m) for _ in range(n_hyp)]
    steering = np.column_stack([random_unit_modulus(rng, n) for _ in range(n_hyp)])
    alphas = crandn(rng, n_hyp)
    probs = rng.random(n_hyp)
    probs /= probs.sum()
    weights = np.zeros((n_hyp, n_hyp))
    for i in range(n_hyp):
        for j in range(i + 1, n_hyp):
            weights[i, j] = probs[i] * probs[j]
    return DistanceContext(channels=channels, steering=steering,
                           alphas=alphas, weights=weights,
                           snapshots=snapshots, noise_power=noise_power)


def expected_echo_direct(ctx, i, theta, x):
    """Oracle: vec(alpha_i G_i^T Theta a_i a_i^T Theta G_i X), literal products."""
    big = np.diag(theta)
    a = ctx.steering[:, i][:, None]
    g = ctx.channels[i]
    x_mat = np.tile(np.asarray(x)[:, None], (1, ctx.snapshots))
    return ctx.alphas[i] * vec(g.T @ big @ a @ a.T @ big @ g @ x_mat)


def direct_pair_distance(ctx, i, j, theta, x):
    diff = expected_echo_direct(ctx, i, theta, x) - expected_echo_direct(ctx, j, theta, x)
    return float(np.linalg.norm(diff) ** 2) / ctx.noise_power


# ----------------------------------------------------- distance formula

def test_pair_distance_matches_direct_echo_difference():
    rng = np.random.default_rng(0)
    for trial in range(5):
        ctx = random_context(rng)
        theta = random_unit_modulus(rng, ctx.n_elements)
        x = crandn(rng, 3)
        q = np.outer(theta, theta.conj())
        for i in range(ctx.n_hypotheses):
            for j in range(ctx.n_hypotheses):
                if i == j:
                    continue
                got = pair_distance(ctx, q, x, i, j)
                want = direct_pair_distance(ctx, i, j, theta, x)
                assert got == pytest.approx(want, rel=1e-9)


def test_pair_distance_degenerate_cases():
    rng = np.random.default_rng(1)
    ctx = random_context(rng)
    theta = random_unit_modulus(rng, ctx.n_elements)
    q = np.outer(theta, theta.conj())
    x = crandn(rng, 3)
    assert pair_distance(ctx, q, x, 1, 1) == 0.0
    # identical hypotheses: same channel, steering and alpha
    g = crandn(rng, 6, 3)
    a = random_unit_modulus(rng, 6)
    twin = DistanceContext(channels=[g, g.copy()],
                           steering=np.column_stack([a, a.copy()]),
                           alphas=np.array([0.7 + 0.2j, 0.7 + 0.2j]),
                           weights=np.array([[0.0, 0.25], [0.0, 0.0]]),
                           snapshots=4, noise_power=1.0)
    assert pair_distance(twin, q, x, 0, 1) == pytest.approx(0.0, abs=1e-9)


def test_weighted_distance_consistent_with_pairs():
    rng = np.random.default_rng(2)
    ctx = random_context(rng)
    theta = random_unit_modulus(rng, ctx.n_elements)
    q = np.outer(theta, theta.conj())
    x = crandn(rng, 3)
    manual = sum(ctx.weights[i, j] * pair_distance(ctx, q, x, i, j)
                 for i in range(3) for j in range(i + 1, 3))
    assert weighted_distance(ctx, q, x) == pytest.approx(manual, rel=1e-9)


# ------------------------------------- literal trace oracle on a general Q

def literal_a(ctx, i, j):
    """A_ij = (G_j^* G_i^T) hadamard (a_j^* a_i^T)."""
    g_i, g_j = ctx.channels[i], ctx.channels[j]
    a_i, a_j = ctx.steering[:, i], ctx.steering[:, j]
    return (g_j.conj() @ g_i.T) * np.outer(a_j.conj(), a_i)


def literal_b(ctx, i, j, x):
    """B_ij = (a_j^* a_i^T) hadamard (G_i x x^H G_j^H)^T."""
    a_i, a_j = ctx.steering[:, i], ctx.steering[:, j]
    gx_i, gx_j = ctx.channels[i] @ x, ctx.channels[j] @ x
    return np.outer(a_j.conj(), a_i) * np.outer(gx_i, gx_j.conj()).T


def literal_terms(ctx, pairs):
    """(w, i, j) of sum w tr(Q^H A_ij Q B_ij) over pairs {(i, j, priority)}."""
    s, al = ctx.scale, ctx.alphas
    terms = []
    for i, j, p in pairs:
        terms += [(s * p * abs(al[i]) ** 2, i, i), (s * p * abs(al[j]) ** 2, j, j),
                  (-s * p * al[i] * np.conj(al[j]), i, j),
                  (-s * p * np.conj(al[i]) * al[j], j, i)]
    return terms


def literal_distance(ctx, q, x, terms):
    return float(np.real(sum(
        w * np.trace(q.conj().T @ literal_a(ctx, i, j) @ q @ literal_b(ctx, i, j, x))
        for w, i, j in terms)))


def weighted_pairs(ctx):
    n_hyp = ctx.n_hypotheses
    return [(i, j, ctx.weights[i, j]) for i in range(n_hyp)
            for j in range(i + 1, n_hyp)]


def general_q(rng, n):
    """Unit-modulus, non-Hermitian, far from any rank-one lift."""
    return np.exp(1j * 2 * np.pi * rng.random((n, n)))


def test_distances_match_literal_traces_on_general_q():
    rng = np.random.default_rng(20)
    for _ in range(5):
        ctx = random_context(rng, n=6, m=3, n_hyp=4)
        q, x = general_q(rng, 6), crandn(rng, 3)
        assert np.abs(q - q.conj().T).max() > 0.1
        want = literal_distance(ctx, q, x, literal_terms(ctx, weighted_pairs(ctx)))
        assert weighted_distance(ctx, q, x) == pytest.approx(want, rel=1e-9)
        for i, j in ((0, 1), (2, 1), (3, 0)):
            want = literal_distance(ctx, q, x, literal_terms(ctx, [(i, j, 1.0)]))
            assert pair_distance(ctx, q, x, i, j) == pytest.approx(want, rel=1e-9)


def quadratic_form_matrix(f, m):
    """The Hermitian Z with f(x) = x^H Z x, by polarization of the real
    quadratic form f over the unit vectors of C^m."""
    eye = np.eye(m)
    diag = [f(e) for e in eye]
    z = np.diag(diag).astype(complex)
    for a in range(m):
        for b in range(a + 1, m):
            re = f(eye[a] + eye[b]) - diag[a] - diag[b]
            im = f(eye[a] + 1j * eye[b]) - diag[a] - diag[b]
            z[a, b] = (re - 1j * im) / 2.0
            z[b, a] = np.conj(z[a, b])
    return z


def distance_matrix(ctx, q):
    """Z with x^H Z x the weighted distance at the lifted matrix q."""
    return quadratic_form_matrix(lambda x: weighted_distance(ctx, q, x),
                                 ctx.factors.shape[2])


def test_waveform_matrix_matches_literal_traces_on_general_q():
    """update_x takes the power-saturated dominant eigenvector of the Z
    with x^H Z x the literal trace sum at a general Q."""
    rng = np.random.default_rng(21)
    for _ in range(5):
        ctx = random_context(rng, n=5, m=4, n_hyp=3)
        q = general_q(rng, 5)
        terms = literal_terms(ctx, weighted_pairs(ctx))
        z = quadratic_form_matrix(
            lambda x: literal_distance(ctx, q, x, terms), 4)
        state = OptimizerState(q=q, theta=random_unit_modulus(rng, 5),
                               x=crandn(rng, 4), rho=1.0, power_budget=9.0)
        update_x(state, ctx)
        assert np.linalg.norm(state.x) ** 2 == pytest.approx(9.0, rel=1e-12)
        assert np.real(state.x.conj() @ z @ state.x) == pytest.approx(
            9.0 * np.linalg.eigvalsh(z)[-1], rel=1e-9)


def literal_entry_coefficients(ctx, state, q, terms):
    """The linear coefficient of every Q entry in the penalized objective at
    Q = q, from the literal traces: the distance gradient
    sum w A_ij Q B_ij, minus the self-quadratic part chi o Q (chi[m, n] =
    sum w A_ij[m, m] B_ij[n, n]), plus theta theta^H / (4 rho)."""
    x = state.x
    grad = sum(w * literal_a(ctx, i, j) @ q @ literal_b(ctx, i, j, x)
               for w, i, j in terms)
    chi = sum(w * np.outer(np.diag(literal_a(ctx, i, j)),
                           np.diag(literal_b(ctx, i, j, x)))
              for w, i, j in terms)
    return grad - chi * q + np.outer(state.theta, state.theta.conj()) \
        / (4.0 * state.rho)


def test_update_q_gradient_matches_literal_traces_on_general_q():
    """Every entry of the sweep takes the phase of its literal coefficient
    at the Q the entries before it left, and moves only itself."""
    rng = np.random.default_rng(22)
    n = 6
    ctx = random_context(rng, n=n, m=3, n_hyp=3)
    state = make_state(rng, ctx)
    state.q = general_q(rng, n)
    terms = literal_terms(ctx, weighted_pairs(ctx))
    seen = [state.q.copy()]
    errors = []

    def check():
        m, col = divmod(len(errors), n)
        before = seen[-1]
        mu = literal_entry_coefficients(ctx, state, before, terms)[m, col]
        errors.append(abs(state.q[m, col] - mu / abs(mu)))
        moved = state.q != before
        moved[m, col] = False
        assert not moved.any()
        seen.append(state.q.copy())

    for _ in range(2):
        errors.clear()
        update_q(state, ctx, on_update=check)
        assert len(errors) == n * n
        assert max(errors) <= 1e-9
    # a zero coefficient skips the entry and its callback
    flat = DistanceContext(channels=ctx.channels, steering=ctx.steering,
                           alphas=ctx.alphas, weights=np.zeros_like(ctx.weights),
                           snapshots=8, noise_power=0.5)
    state.theta[:] = 0.0
    calls = []
    before = state.q.copy()
    update_q(state, flat, on_update=lambda: calls.append(1))
    assert not calls and np.array_equal(state.q, before)


# ------------------------------------------------------------- Q updates

def make_state(rng, ctx, power=4.0, rho=0.05):
    theta = random_unit_modulus(rng, ctx.n_elements)
    q = np.exp(1j * np.angle(np.outer(theta, theta.conj())))
    x = crandn(rng, ctx.channels[0].shape[1])
    x = np.sqrt(power) * x / np.linalg.norm(x)
    return OptimizerState(q=q, theta=theta, x=x, rho=rho, power_budget=power)


def test_update_q_unit_modulus_and_monotone():
    rng = np.random.default_rng(3)
    ctx = random_context(rng, n=5)
    state = make_state(rng, ctx)
    values = [state.objective(ctx)]
    update_q(state, ctx, on_update=lambda: values.append(state.objective(ctx)))
    assert np.abs(np.abs(state.q) - 1.0).max() < 1e-12
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(values[:-1])))


def test_update_q_entry_matches_phase_grid():
    """The sweep's step of one entry reaches the 4096-point phase-grid
    maximum of the penalized objective over that entry."""
    rng = np.random.default_rng(4)
    n = 4
    ctx = random_context(rng, n=n)
    state = make_state(rng, ctx)
    m, col = 1, 2
    seen = [state.q.copy()]
    update_q(state, ctx, on_update=lambda: seen.append(state.q.copy()))
    assert len(seen) == n * n + 1
    before, after = seen[m * n + col], seen[m * n + col + 1]

    def objective(q):
        return weighted_distance(ctx, q, state.x) \
            + penalty_value(q, state.theta, state.rho)

    def objective_with_phase(phase):
        q = before.copy()
        q[m, col] = np.exp(1j * phase)
        return objective(q)

    phases = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    grid_best = max(objective_with_phase(p) for p in phases)
    closed = objective(after)
    scale = max(1.0, abs(grid_best))
    assert closed >= grid_best - 1e-9 * scale


def fitted_coefficient(f):
    """b of f(z) = C + 2 Re(z^* b) on the unit circle, fitted from f at 1,
    -1, i and -i: the exact maximizer over z is b / |b|."""
    return complex(f(1.0) - f(-1.0), f(1j) - f(-1j)) / 4.0


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
def test_update_q_matches_per_entry_oracle(n):
    """Every entry of the sweep is the exact maximizer of the penalized
    objective over that entry at the Q the entries before it left, the
    maximizer fitted from four objective values."""
    rng = np.random.default_rng(30 + n)
    ctx = random_context(rng, n=n, m=4, n_hyp=4)
    state = make_state(rng, ctx)
    state.q = general_q(rng, n)  # non-Hermitian, far from a rank-one lift
    seen = [state.q.copy()]
    errors = []

    def check():
        m, col = divmod(len(errors) % (n * n), n)

        def objective(z):
            q = seen[-1].copy()
            q[m, col] = z
            return weighted_distance(ctx, q, state.x) \
                + penalty_value(q, state.theta, state.rho)

        b = fitted_coefficient(objective)
        errors.append(abs(state.q[m, col] - b / abs(b)))
        seen.append(state.q.copy())

    for _ in range(4):
        update_q(state, ctx, on_update=check)
    assert len(errors) == 4 * n * n
    assert max(errors) <= 1e-9


# ------------------------------------------------------------- x updates

def test_dominant_power_vector_diagonal():
    x = dominant_power_vector(np.diag([3.0, 1.0]).astype(complex), 4.0)
    assert np.allclose(x, [2.0, 0.0], atol=1e-12)
    z = np.diag([3.0, 1.0])
    assert np.real(x.conj() @ z @ x) == pytest.approx(12.0)


def test_update_x_saturates_power_and_improves():
    rng = np.random.default_rng(5)
    ctx = random_context(rng)
    state = make_state(rng, ctx, power=9.0)
    z = distance_matrix(ctx, state.q)
    before = np.real(state.x.conj() @ z @ state.x)
    update_x(state, ctx)
    after = np.real(state.x.conj() @ z @ state.x)
    assert np.linalg.norm(state.x) ** 2 == pytest.approx(9.0, rel=1e-12)
    assert after >= before - 1e-9 * max(1.0, abs(before))
    # x^H Z x equals the weighted distance at fixed Q
    assert np.real(state.x.conj() @ z @ state.x) == \
        pytest.approx(weighted_distance(ctx, state.q, state.x), rel=1e-9)


# --------------------------------------------------------- theta updates

def test_update_theta_fixed_point_and_monotone():
    rng = np.random.default_rng(6)
    n = 7
    theta = random_unit_modulus(rng, n)
    state = OptimizerState(q=np.outer(theta, theta.conj()), theta=theta.copy(),
                           x=np.ones(2), rho=1.0, power_budget=4.0)
    update_theta(state)
    # exact rank-one lift: theta is a fixed point up to a global phase
    inner = np.abs(np.vdot(state.theta, theta))
    assert inner == pytest.approx(n, rel=1e-12)

    # random non-Hermitian Q: theta^H P theta never decreases
    q = np.exp(1j * 2 * np.pi * rng.random((n, n)))
    state = OptimizerState(q=q, theta=random_unit_modulus(rng, n),
                           x=np.ones(2), rho=1.0, power_budget=4.0)
    p = (q + q.conj().T) / 2
    vals = [np.real(state.theta.conj() @ p @ state.theta)]
    update_theta(state, on_update=lambda: vals.append(
        np.real(state.theta.conj() @ p @ state.theta)))
    assert np.abs(np.abs(state.theta) - 1.0).max() < 1e-12
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(vals[:-1])))


@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_update_theta_matches_oracle(n):
    """Every entry of the sweep is the exact maximizer of theta^H P theta,
    P = (Q + Q^H) / 2, over that entry, fitted from four values; with one
    element any phase is a maximizer."""
    rng = np.random.default_rng(40 + n)
    q = general_q(rng, n)
    p = (q + q.conj().T) / 2.0
    state = OptimizerState(q=q, theta=random_unit_modulus(rng, n),
                           x=np.ones(2), rho=1.0, power_budget=4.0)
    seen = [state.theta.copy()]
    errors = []

    def check():
        m = len(errors) % n

        def value(z):
            theta = seen[-1].copy()
            theta[m] = z
            return np.real(theta.conj() @ p @ theta)

        b = fitted_coefficient(value)
        errors.append(abs(state.theta[m] - b / abs(b)) if n > 1 else 0.0)
        seen.append(state.theta.copy())

    for _ in range(3):
        update_theta(state, on_update=check)
    if n > 1:
        assert len(errors) == 3 * n
        assert max(errors) <= 1e-9
    assert state.theta.dtype == complex
    assert np.abs(np.abs(state.theta) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------- solver

def test_optimize_closes_lifting_and_improves():
    rng = np.random.default_rng(7)
    ctx = random_context(rng, n=5)
    theta0 = random_unit_modulus(rng, 5)
    x0 = crandn(rng, 3)
    design = penalty_optimize(ctx, x0, theta0, power_budget=4.0, accuracy=1e-7)
    assert design.converged
    assert design.violation < 1e-7
    n = 5
    # algebraic consequence of the violation bound
    frob = np.linalg.norm(design.q - np.outer(design.theta, design.theta.conj()))
    assert frob / n < np.sqrt(2e-7) * 1.0000001
    assert np.real(design.theta.conj() @ design.q @ design.theta) >= \
        (1 - 1e-7) * n * n
    # no worse than the (power-scaled) starting point
    x0_scaled = 2.0 * x0 / np.linalg.norm(x0)
    init_distance = weighted_distance(ctx, np.outer(theta0, theta0.conj()),
                                      x0_scaled)
    assert design.distance >= init_distance - 1e-9 * max(1.0, abs(init_distance))
    assert np.linalg.norm(design.x) ** 2 == pytest.approx(4.0, rel=1e-9)


def test_optimize_blockwise_monotone_within_stage():
    rng = np.random.default_rng(8)
    ctx = random_context(rng, n=4)
    theta0 = random_unit_modulus(rng, 4)
    x0 = crandn(rng, 3)
    records = []
    penalty_optimize(ctx, x0, theta0, power_budget=4.0, accuracy=1e-7,
             on_block_update=lambda v, rho: records.append((rho, v)))
    assert records
    violations = 0
    for (rho_a, val_a), (rho_b, val_b) in zip(records, records[1:]):
        if rho_a == rho_b:
            if val_b < val_a - 1e-9 * max(1.0, abs(val_a)):
                violations += 1
    assert violations == 0


def test_optimize_invariant_to_distance_scale():
    """Rescaling the distance by 10^k (and rho by 10^-k, so the penalty keeps
    its weight) rescales the whole objective: the same stages, the same
    design."""
    rng = np.random.default_rng(50)
    ctx = random_context(rng, n=5, m=3, n_hyp=3, noise_power=1.0)
    theta0, x0 = random_unit_modulus(rng, 5), crandn(rng, 3)
    ref = penalty_optimize(ctx, x0, theta0, power_budget=4.0, rho_init=0.05)
    assert ref.converged
    for k in range(-6, 7):
        scaled = DistanceContext(channels=ctx.channels, steering=ctx.steering,
                                 alphas=ctx.alphas, weights=ctx.weights,
                                 snapshots=ctx.snapshots, noise_power=10.0 ** -k)
        design = penalty_optimize(scaled, x0, theta0, power_budget=4.0,
                          rho_init=0.05 * 10.0 ** -k)
        assert design.outer_iterations == ref.outer_iterations
        assert np.abs(design.theta - ref.theta).max() <= 1e-12
        assert np.abs(design.x - ref.x).max() <= 1e-12


def test_optimize_single_hypothesis_trivial():
    rng = np.random.default_rng(9)
    ctx = DistanceContext(channels=[crandn(rng, 4, 2)],
                          steering=random_unit_modulus(rng, 4)[:, None],
                          alphas=np.array([1.0 + 0j]),
                          weights=np.zeros((1, 1)),
                          snapshots=4, noise_power=1.0)
    design = penalty_optimize(ctx, np.ones(2), random_unit_modulus(rng, 4),
                      power_budget=1.0)
    assert design.converged
    assert design.distance == 0.0
    assert design.objective == pytest.approx(0.0, abs=1e-9)


def test_optimize_validates_parameters():
    rng = np.random.default_rng(10)
    ctx = random_context(rng, n=4)
    theta0 = random_unit_modulus(rng, 4)
    with pytest.raises(ValueError):
        penalty_optimize(ctx, np.ones(3), theta0, power_budget=1.0,
                         penalty_scale=1.5)
    with pytest.raises(ValueError):
        penalty_optimize(ctx, np.zeros(3), theta0, power_budget=1.0)
    with pytest.raises(ValueError):
        penalty_optimize(ctx, np.ones(3), theta0, power_budget=1.0,
                         accuracy=0.0)


def test_build_context_weights_from_belief():
    from irsloc.localize import build_hypothesis_grid, initial_belief
    from irsloc.scene import SceneConfig
    cfg = SceneConfig(m_antennas=3, n_x=2, n_y=2)
    grid = build_hypothesis_grid(cfg, 3)
    belief = initial_belief(3, cfg.n_elements)
    belief.alphas[:] = 1.0
    rng = np.random.default_rng(11)
    g_hat = crandn(rng, cfg.n_elements, 3)
    ctx = build_context(g_hat, belief, grid, snapshots=8, noise_power=1e-15)
    assert ctx.weights[0, 1] == pytest.approx(1.0 / 9.0)
    assert ctx.weights[1, 0] == 0.0  # strictly upper triangular storage
    assert ctx.scale == pytest.approx(8 / 1e-15)
    zero_noise = build_context(g_hat, belief, grid, snapshots=8, noise_power=0.0)
    assert zero_noise.scale == 8.0
    # signed channels match diag(delta) G_hat
    for i in range(3):
        assert np.allclose(ctx.channels[i], belief.deltas[i][:, None] * g_hat)


def test_constraint_violation_definition():
    rng = np.random.default_rng(12)
    theta = random_unit_modulus(rng, 6)
    q = np.outer(theta, theta.conj())
    assert constraint_violation(q, theta) == pytest.approx(0.0, abs=1e-12)
    other = np.exp(1j * 2 * np.pi * rng.random((6, 6)))
    xi = constraint_violation(other, theta)
    assert xi == pytest.approx(
        (36 - np.real(theta.conj() @ other @ theta)) / 36, rel=1e-12)


# ------------------------------------------------ theta-domain ascent

def lifted_distance(ctx, theta, x):
    return weighted_distance(ctx, np.outer(theta, theta.conj()), x)


def start_ascent(ctx, theta, x):
    top = np.abs(ctx.term_weights).max()
    return _PhaseAscent(ctx, theta, x, (ctx.term_weights / top).T), top


PHASES = np.exp(1j * np.linspace(0, 2 * np.pi, 4096, endpoint=False))


def test_best_phase_matches_phase_grid():
    """The closed-form element maximizer against a 4096-point phase grid,
    over random coefficients, random starts and the degenerate regimes."""
    rng = np.random.default_rng(70)
    cases = [tuple(complex(*rng.standard_normal(2)) for _ in range(2))
             for _ in range(300)]
    cases += [(1.0, 1e-20j), (0.3 - 0.1j, 0.0), (0.0, 1.0 + 1.0j),
              (1.0, 0.25), (1.0, -0.25), (2.0, 1j), (1e-17, 1.0)]
    for c1, c2 in cases:
        size = abs(c1) + abs(c2)
        c1, c2 = c1 / size, c2 / size
        start = complex(random_unit_modulus(rng, 1)[0])
        z = _best_phase(c1, c2, start)
        assert abs(abs(z) - 1.0) <= 1e-14

        def value(u):
            return (c1 * u + c2 * u * u).real

        grid = (c1 * PHASES + c2 * PHASES ** 2).real.max()
        assert value(z) >= grid - 1e-12
        assert value(z) >= value(start)
    # a start at the trough, where Newton gives up: the roots decide, and a
    # subnormal z^2 coefficient must not overflow the quartic's companion
    for c1, c2 in ((1.0 + 0j, 1e-310j), (1.0 + 0j, 1e-20 + 0j),
                   (0.6j, 0.4 + 0j)):
        trough = -c1.conjugate() / abs(c1)
        with np.errstate(all="raise"):
            z = _best_phase(c1, c2, trough)
        grid = (c1 * PHASES + c2 * PHASES ** 2).real.max()
        assert (c1 * z + c2 * z * z).real >= grid - 1e-12


@pytest.mark.parametrize("n, m, n_hyp, seed", [(6, 3, 3, 71), (10, 4, 4, 72),
                                                (20, 6, 4, 73)])
def test_ascent_step_matches_phase_grid(n, m, n_hyp, seed):
    """Each element step reaches the 4096-point phase-grid maximum of the
    weighted distance over that element, and tracks the distance."""
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, n=n, m=m, n_hyp=n_hyp)
    theta, x = random_unit_modulus(rng, n), crandn(rng, m)
    ascent, top = start_ascent(ctx, theta, x)
    for k in (0, n // 2, n - 1, 1):
        grid = []
        for z in PHASES:
            probe = theta.copy()
            probe[k] = z
            grid.append(lifted_distance(ctx, probe, x))
        best = max(grid)
        before = lifted_distance(ctx, theta, x)
        ascent.step(k)
        after = lifted_distance(ctx, theta, x)
        assert after >= best - 1e-12 * best
        assert after >= before
        assert abs(theta[k]) == pytest.approx(1.0, abs=1e-14)
        assert ascent.distance * top == pytest.approx(after, rel=1e-12)


def test_ascent_waveform_matrix_matches_lift():
    rng = np.random.default_rng(74)
    ctx = random_context(rng, n=7, m=4, n_hyp=4)
    theta, x = random_unit_modulus(rng, 7), crandn(rng, 4)
    ascent, top = start_ascent(ctx, theta, x)
    want = distance_matrix(ctx, np.outer(theta, theta.conj()))
    got = ascent.waveform_matrix() * top
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(got, got.conj().T)
    assert ascent.distance * top == pytest.approx(
        lifted_distance(ctx, theta, x), rel=1e-12)


@pytest.mark.parametrize("n, seed", [(5, 75), (10, 76), (20, 77)])
def test_optimize_ascent_monotone_and_feasible(n, seed):
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, n=n, m=4, n_hyp=4)
    theta0, x0 = random_unit_modulus(rng, n), crandn(rng, 4)
    design = optimize(ctx, x0, theta0, power_budget=4.0, accuracy=1e-7)
    assert design.converged
    assert len(design.trace) == design.outer_iterations + 1
    rises = np.diff(design.trace)
    assert np.all(rises >= -1e-12 * np.abs(design.trace[1:]))
    # the last round rose by less than the accuracy, the others by more
    assert rises[-1] <= 1e-7 * design.trace[-1]
    assert np.all(rises[:-1] > 1e-7 * np.asarray(design.trace[1:-1]))
    assert design.violation < 1e-7
    assert np.abs(np.abs(design.theta) - 1.0).max() <= 1e-12
    assert np.linalg.norm(design.x) ** 2 == pytest.approx(4.0, rel=1e-12)
    assert design.distance == pytest.approx(
        lifted_distance(ctx, design.theta, design.x), rel=1e-10)
    # each round ends with x the power-saturated dominant eigenvector
    q = np.outer(design.theta, design.theta.conj())
    z = distance_matrix(ctx, q)
    top = 4.0 * np.linalg.eigvalsh(z)[-1]
    assert np.real(design.x.conj() @ z @ design.x) == pytest.approx(
        top, rel=1e-12)
    start = lifted_distance(ctx, np.exp(1j * np.angle(theta0)),
                            2.0 * x0 / np.linalg.norm(x0))
    assert design.trace[0] == pytest.approx(start, rel=1e-12)
    assert design.distance >= start


def test_optimize_ascent_invariant_to_distance_scale():
    """Noise power 10^k rescales the distance only: the same rounds, the
    same design up to rounding, with no scale-dependent floor or rho."""
    rng = np.random.default_rng(78)
    ctx = random_context(rng, n=10, m=4, n_hyp=4, noise_power=1.0)
    theta0, x0 = random_unit_modulus(rng, 10), crandn(rng, 4)
    ref = optimize(ctx, x0, theta0, power_budget=4.0)
    assert ref.converged and ref.outer_iterations > 3
    for k in range(-6, 7):
        scaled = DistanceContext(channels=ctx.channels, steering=ctx.steering,
                                 alphas=ctx.alphas, weights=ctx.weights,
                                 snapshots=ctx.snapshots,
                                 noise_power=10.0 ** k)
        design = optimize(scaled, x0, theta0, power_budget=4.0)
        assert design.outer_iterations == ref.outer_iterations
        assert np.abs(design.theta - ref.theta).max() <= 1e-12
        assert np.abs(design.x - ref.x).max() <= 1e-12
        assert design.distance == pytest.approx(ref.distance * 10.0 ** -k,
                                                rel=1e-12)
    # the same for a common channel amplitude 10^k: the distance scales as
    # 10^(4k), with the same rounds and design
    for k in (-6, -3, 3):
        channels = [g * 10.0 ** k for g in ctx.channels]
        scaled = DistanceContext(channels=channels,
                                 steering=ctx.steering, alphas=ctx.alphas,
                                 weights=ctx.weights, snapshots=ctx.snapshots,
                                 noise_power=1.0)
        design = optimize(scaled, x0, theta0, power_budget=4.0)
        assert design.outer_iterations == ref.outer_iterations
        assert np.abs(design.theta - ref.theta).max() <= 1e-12
        assert np.abs(design.x - ref.x).max() <= 1e-12


def test_optimize_ascent_degenerate_weights():
    rng = np.random.default_rng(79)
    ctx = random_context(rng, n=6, m=3, n_hyp=3)
    theta0, x0 = random_unit_modulus(rng, 6), crandn(rng, 3)
    ref = optimize(ctx, x0, theta0, power_budget=4.0)
    theta_start = np.exp(1j * np.angle(theta0))
    x_start = 2.0 * x0 / np.linalg.norm(x0)
    # pair weights about 1e-300: the same design as at unit scale, also
    # when the term weights are subnormal (a near-certain belief at a large
    # noise power), up to the bits those keep
    for noise_power, tol in ((ctx.noise_power, 1e-12), (1e13, 1e-9)):
        tiny = DistanceContext(channels=ctx.channels, steering=ctx.steering,
                               alphas=ctx.alphas, weights=ctx.weights * 1e-300,
                               snapshots=ctx.snapshots,
                               noise_power=noise_power)
        with np.errstate(all="raise"):
            design = optimize(tiny, x0, theta0, power_budget=4.0)
        assert design.outer_iterations == ref.outer_iterations
        assert np.abs(design.theta - ref.theta).max() <= tol
        assert np.abs(design.x - ref.x).max() <= tol
    assert np.abs(tiny.term_weights).max() < np.finfo(float).tiny
    with np.errstate(all="raise"):
        # no pair weight, or a single hypothesis: the start comes back
        flat = DistanceContext(channels=ctx.channels, steering=ctx.steering,
                               alphas=ctx.alphas,
                               weights=np.zeros_like(ctx.weights),
                               snapshots=ctx.snapshots,
                               noise_power=ctx.noise_power)
        single = DistanceContext(channels=ctx.channels[:1],
                                 steering=ctx.steering[:, :1],
                                 alphas=ctx.alphas[:1],
                                 weights=np.zeros((1, 1)),
                                 snapshots=ctx.snapshots,
                                 noise_power=ctx.noise_power)
        for degenerate in (flat, single):
            design = optimize(degenerate, x0, theta0, power_budget=4.0)
            assert np.array_equal(design.theta, theta_start)
            assert np.array_equal(design.x, x_start)
            assert design.distance == 0.0 and design.converged


def test_optimize_ascent_validates_parameters():
    rng = np.random.default_rng(80)
    ctx = random_context(rng, n=4)
    theta0 = random_unit_modulus(rng, 4)
    with pytest.raises(ValueError):
        optimize(ctx, np.zeros(3), theta0, power_budget=1.0)
    with pytest.raises(ValueError):
        optimize(ctx, np.ones(3), theta0, power_budget=1.0, accuracy=0.0)


def desk_designs(monkeypatch):
    """The design inputs of a short desk campaign: the criterion-9 scene,
    optimized 50 W arm, one trial of three cycles."""
    from irsloc import harness, waveopt
    captured = []
    original = waveopt.optimize

    def capture(ctx, x_init, theta_init, power_budget, **kwargs):
        captured.append((ctx, np.array(x_init), np.array(theta_init),
                         power_budget))
        return original(ctx, x_init, theta_init, power_budget, **kwargs)

    monkeypatch.setattr(waveopt, "optimize", capture)
    spec = harness.spec_from_dict({
        "scene": {"m_antennas": 4, "n_x": 5, "n_y": 2, "sigma2_dbm": -120.0,
                  "target_rcs_amplitude": 2e-5},
        "pilot": {"m_t": 1, "snr_db": 40.0},
        "localization": {"n_grids": 4, "theta_lo_deg": 52.5,
                         "theta_hi_deg": 72.5, "snapshots": 8,
                         "power_budget": 50.0, "threshold": 0.95,
                         "max_cycles": 3},
        "points": [{"arm": "optimized"}], "trials": 1, "master_seed": 2026})
    harness.run_localization_campaign(spec)
    monkeypatch.setattr(waveopt, "optimize", original)
    return captured


def test_ascent_beats_penalty_reference_on_desk_designs(monkeypatch,
                                                         record_property):
    designs = desk_designs(monkeypatch)
    assert len(designs) == 2
    for k, (ctx, x0, theta0, power) in enumerate(designs):
        ascent = optimize(ctx, x0, theta0, power)
        reference = penalty_optimize(ctx, x0, theta0, power)
        record_property(f"desk_design_{k}_ratio",
                        ascent.distance / reference.distance)
        assert ascent.distance >= reference.distance


def test_ascent_against_penalty_reference_on_random_contexts(record_property):
    """A local ascent, like the reference: on unit-scale random contexts
    the ratio of the two distances is recorded, not gated."""
    for n, seed in ((5, 82), (10, 83), (20, 84)):
        rng = np.random.default_rng(seed)
        ctx = random_context(rng, n=n, m=4, n_hyp=4)
        theta0, x0 = random_unit_modulus(rng, n), crandn(rng, 4)
        ascent = optimize(ctx, x0, theta0, power_budget=4.0)
        reference = penalty_optimize(ctx, x0, theta0, power_budget=4.0)
        record_property(f"random_n{n}_ratio",
                        ascent.distance / reference.distance)
        assert ascent.converged and reference.converged
