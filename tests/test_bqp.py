import itertools

import numpy as np
import pytest

from irsloc import bqp, harness, localize
from irsloc.bqp import (DegenerateRatioError, RatioProblem, SizeCapError,
                        brute_force_max, dinkelbach_solve, linearize,
                        quad_binary_max, quad_form_value, sign_vectors,
                        solve_ilp)
from irsloc.localize import hypothesis_design, joint_ml, simulate_echo
from irsloc.scene import SceneConfig, synthesize_scene
from irsloc.util import crandn, random_unit_modulus


def random_hermitian(rng, n, scale=1.0):
    a = crandn(rng, n, n)
    return scale * (a + a.conj().T) / 2.0


def random_ratio_problem(rng, n):
    v = crandn(rng, n)
    num = np.outer(v, v.conj())
    b = crandn(rng, n, 2 * n)
    den = b @ b.conj().T / n
    return RatioProblem(numerator=num, denominator=den)


# ------------------------------------------------------------ quad max

def test_diagonal_matrix_all_ones_optimal():
    r = np.diag([3.0, -1.0, 2.0]).astype(complex)
    res = quad_binary_max(r)
    assert res.value == pytest.approx(4.0)
    assert np.array_equal(res.delta, np.ones(3))  # tie broken to all-ones


def test_three_variable_example():
    # zero diagonal, r12=1, r13=-1, r23=1: max of delta^T R delta is 2
    r = np.array([[0.0, 1.0, -1.0],
                  [1.0, 0.0, 1.0],
                  [-1.0, 1.0, 0.0]])
    # brute check of the frozen expectation
    d_br, v_br = brute_force_max(r)
    assert v_br == pytest.approx(2.0)
    res = quad_binary_max(r)
    assert res.value == v_br
    assert quad_form_value(r, np.array([1.0, 1.0, 1.0])) == pytest.approx(2.0)


def test_sign_vectors_canonical_order():
    # oracle loop: bit (n-2-i) of the row index set means delta_{i+1} = -1
    n = 5
    rows = sign_vectors(n)
    assert rows.shape == (2 ** (n - 1), n)
    for b in range(2 ** (n - 1)):
        expected = [1.0] + [-1.0 if b >> (n - 2 - i) & 1 else 1.0
                            for i in range(n - 1)]
        assert rows[b].tolist() == expected
    assert sign_vectors(1).tolist() == [[1.0]]


def test_table_enumeration_matches_brute_force():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 10, 18):  # N = 18 spans several table blocks
        r = random_hermitian(rng, n)
        d_br, v_br = brute_force_max(r)
        res = quad_binary_max(r)
        assert res.value == v_br
        assert np.array_equal(res.delta, d_br)
    for _ in range(30):
        r = random_hermitian(rng, 10)
        d_br, v_br = brute_force_max(r)
        res = quad_binary_max(r)
        assert res.value == v_br  # canonical evaluation, exact float equality
        assert np.array_equal(res.delta, d_br)


def test_warm_start_does_not_change_answer():
    rng = np.random.default_rng(3)
    r = random_hermitian(rng, 12)
    base = quad_binary_max(r)
    warm = quad_binary_max(r, initial=1.0 - 2.0 * rng.integers(0, 2, 12))
    assert warm.value == base.value
    assert np.array_equal(warm.delta, base.delta)


def test_rescaled_matrix_same_answer_as_brute_force():
    # echo-scale matrices are about 1e-16; nothing may depend on the scale
    rng = np.random.default_rng(44)
    r = random_hermitian(rng, 10)
    deltas = set()
    for k in range(-16, 7):
        scaled = 10.0 ** k * r
        res = quad_binary_max(scaled)
        d_br, v_br = brute_force_max(scaled)
        assert res.value == v_br
        assert np.array_equal(res.delta, d_br)
        deltas.add(tuple(res.delta))
    assert len(deltas) == 1


def test_rounding_ties_follow_canonical_order():
    # R is invariant under swapping variables 1, 2 and 4, 7, so maximizers
    # come in pairs of equal value up to rounding; the winner must be the
    # first strict maximum of quad_form_value in canonical order
    rng = np.random.default_rng(47)
    perm = np.array([0, 2, 1, 3, 7, 5, 6, 4, 8, 9])
    for _ in range(40):
        a = random_hermitian(rng, 10)
        r = (a + a[np.ix_(perm, perm)]) * 10.0 ** rng.integers(-16, 6)
        best, best_value = np.ones(10), quad_form_value(r, np.ones(10))
        for delta in sign_vectors(10):
            value = quad_form_value(r, delta)
            if value > best_value:
                best, best_value = delta, value
        res = quad_binary_max(r)
        assert res.value == best_value
        assert np.array_equal(res.delta, best)


def test_warm_start_kept_among_tied_maximizers():
    # no coupling to variable 5: every maximizer has a twin with delta_5
    # flipped and a bitwise equal value
    rng = np.random.default_rng(45)
    r = random_hermitian(rng, 8)
    r[5, :5] = r[5, 6:] = r[:5, 5] = r[6:, 5] = 0.0
    first, value = brute_force_max(r)
    assert first[5] == 1.0
    later = first.copy()
    later[5] = -1.0
    assert quad_form_value(r, later) == value
    assert np.array_equal(quad_binary_max(r).delta, first)
    for warm in (later, -later):
        res = quad_binary_max(r, initial=warm)
        assert np.array_equal(res.delta, later)
        assert res.value == value


def record_shifted(monkeypatch) -> list:
    """Collects every matrix passed to ``bqp.quad_binary_max`` from here on:
    the inner problems num - y den of the Dinkelbach fits."""
    shifted = []
    solve = bqp.quad_binary_max

    def record(r, **kw):
        shifted.append(np.array(r))
        return solve(r, **kw)

    monkeypatch.setattr(bqp, "quad_binary_max", record)
    return shifted


def echo_shifted_matrices(monkeypatch) -> list:
    """The inner problems of one joint_ml fit at echo scale, with the true
    channel and steering, at desk (N = 10) and paper (N = 20) scale."""
    shifted = record_shifted(monkeypatch)
    for n_y in (2, 4):
        cfg = SceneConfig(m_antennas=4, n_x=5, n_y=n_y, sigma2_dbm=-120.0,
                          target_rcs_amplitude=2e-5)
        scene = synthesize_scene(cfg, seed=12)
        rng = np.random.default_rng(13)
        theta = random_unit_modulus(rng, cfg.n_elements)
        x = np.sqrt(50.0 / cfg.m_antennas) * np.ones(cfg.m_antennas,
                                                     dtype=complex)
        y = simulate_echo(scene, x, theta, snapshots=8, seed=14)
        phi = hypothesis_design(scene.G, theta, scene.a, snapshots=8)
        joint_ml(y, phi)
    monkeypatch.undo()
    return shifted


def test_shifted_matrix_of_real_fit_matches_brute_force(monkeypatch):
    shifted = echo_shifted_matrices(monkeypatch)
    assert {len(r) for r in shifted} == {10, 20}
    for r in shifted:
        assert np.abs(r).max() < 1e-10
        d_br, v_br = brute_force_max(r)
        res = quad_binary_max(r)
        assert res.value == v_br
        assert np.array_equal(res.delta, d_br)


def test_integer_ties_go_to_first_maximizer():
    # {-1, 0, 1} couplings: every value is an exact small integer, so many
    # sign vectors tie bitwise and the first in canonical order must win
    rng = np.random.default_rng(48)
    for n in (2, 3, 5, 8, 11, 14):
        for _ in range(5):
            t = rng.integers(-1, 2, (n, n)).astype(float)
            r = np.triu(t) + np.triu(t, 1).T
            d_br, v_br = brute_force_max(r)
            res = quad_binary_max(r)
            assert res.value == v_br
            assert np.array_equal(res.delta, d_br)


def test_split_tables_cached_read_only():
    pre, suf = bqp._split_tables(9)
    assert bqp._split_tables(9)[0] is pre
    assert np.array_equal(pre, sign_vectors(5))
    assert np.array_equal(suf, sign_vectors(5)[:, 1:])
    rows = bqp._suffix_rows(9)
    assert bqp._suffix_rows(9) is rows
    assert np.array_equal(rows, np.vstack([suf.T, np.ones((1, len(suf)))]))
    for table in (pre, suf, rows):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = -1.0
    # two matrices of one size share the tables without interfering
    rng = np.random.default_rng(49)
    a, b = random_hermitian(rng, 9), random_hermitian(rng, 9, scale=1e-14)
    results = [quad_binary_max(r) for r in (a, b, a, b)]
    for res, r in zip(results, (a, b, a, b)):
        d_br, v_br = brute_force_max(r)
        assert res.value == v_br
        assert np.array_equal(res.delta, d_br)
    assert np.array_equal(pre, sign_vectors(5))


def block_oracle_hits(s: np.ndarray) -> np.ndarray:
    """The full-table block loop, kept as the reference for the multi-block
    visit of a table of more than one block: every block of the table is computed, in
    canonical order, and the canonical indices of the entries within the
    band of the final maximum are returned in canonical order."""
    n = s.shape[0]
    k = n - n // 2
    pre, suf = bqp._split_tables(n)
    n_suf = len(suf)
    lhs = np.empty((len(pre), n // 2 + 2))
    np.matmul(pre, 2.0 * s[:k, k:], out=lhs[:, :-2])
    lhs[:, -2] = (pre @ s[:k, :k] * pre).sum(axis=1)
    lhs[:, -1] = 1.0
    rhs = np.empty((n // 2 + 2, n_suf))
    rhs[:-2] = suf.T
    rhs[-2] = 1.0
    rhs[-1] = (suf @ s[k:, k:] * suf).sum(axis=1)
    band = 1e-9 * float(np.abs(s).sum())
    rows = max(1, 2 ** 15 // n_suf)
    buf = np.empty((min(rows, len(pre)), n_suf))
    top, hits, hit_values = -np.inf, [], []
    for start in range(0, len(pre), rows):
        block = buf[:min(rows, len(pre) - start)]
        np.matmul(lhs[start:start + rows], rhs, out=block)
        block_top = float(block.max())
        top = max(top, block_top)
        if block_top < top - band:
            continue
        flat = block.ravel()
        keep = np.flatnonzero(flat >= top - band)
        hits.append(keep + start * n_suf)
        hit_values.append(flat[keep])
    return np.concatenate(hits)[np.concatenate(hit_values) >= top - band]


def assert_same_candidates(r):
    s = (np.real(r) + np.real(r).T) / 2.0
    n = len(s)
    expected = block_oracle_hits(s)
    assert np.array_equal(bqp._table_hits(s)[0], expected)
    # the vectors behind the indices (all 2^(n-1) of them for a zero
    # matrix, so only the first few are built)
    got = itertools.islice(bqp._near_max_vectors(s), 64)
    for i, delta in itertools.zip_longest(expected[:64], got):
        bits = [i >> (n - 2 - j) & 1 for j in range(n - 1)]
        assert delta.tolist() == [1.0] + [1.0 - 2.0 * b for b in bits]


def test_bound_ordered_visit_matches_block_oracle(monkeypatch):
    # the same candidates in the same order, so the same rescoring; from
    # N = 17 on the table spans several blocks and the bound path runs
    rng = np.random.default_rng(50)
    for n in range(1, 23):
        for k in (-14, -7, 0, 7, 14):
            assert_same_candidates(random_hermitian(rng, n, scale=10.0 ** k))
        for _ in range(2):
            t = rng.integers(-1, 2, (n, n)).astype(float)
            assert_same_candidates(np.triu(t) + np.triu(t, 1).T)
        assert_same_candidates(np.zeros((n, n)))
    shifted = [r for r in echo_shifted_matrices(monkeypatch) if len(r) == 20]
    assert shifted
    for r in shifted:
        assert_same_candidates(r)


def paper_campaign_shifted(monkeypatch, point, trials, cycles) -> list:
    """The inner problems of every fit of a campaign in the scene of
    configs/fig10 (N = 20, master seed 110)."""
    shifted = record_shifted(monkeypatch)
    harness.run_localization_campaign(harness.spec_from_dict({
        "scene": {"m_antennas": 4, "n_x": 5, "n_y": 4, "sigma2_dbm": -120.0,
                  "target_rcs_amplitude": 2e-5},
        "pilot": {"m_t": 1, "snr_db": 40.0},
        "localization": {"n_grids": 4, "theta_lo_deg": 52.5,
                         "theta_hi_deg": 72.5, "snapshots": 8,
                         "power_budget": 50.0, "threshold": 0.95,
                         "max_cycles": cycles},
        "points": [point], "trials": trials, "master_seed": 110}))
    monkeypatch.undo()
    assert {len(r) for r in shifted} == {20}
    return shifted


def test_bound_ordered_visit_matches_block_oracle_after_design(monkeypatch):
    # after an optimized design the bound is loose and keeps most prefixes
    shifted = paper_campaign_shifted(
        monkeypatch, {"arm": "optimized", "m_antennas": 4, "n_y": 4},
        trials=2, cycles=4)
    for r in shifted:
        assert_same_candidates(r)


def test_bound_prunes_paper_scale_random_fits(monkeypatch):
    # first cycle of the fig10 random arm: on each fit's first inner solve
    # the bound leaves almost every prefix of the 512 unvisited, so a
    # weaker bound fails here (a later Dinkelbach step, with y near the
    # optimum, need not prune as much)
    iterations = []
    solve = localize.dinkelbach_solve

    def count(*args, **kwargs):
        res = solve(*args, **kwargs)
        iterations.append(res.iterations)
        return res
    monkeypatch.setattr(localize, "dinkelbach_solve", count)
    shifted = paper_campaign_shifted(
        monkeypatch, {"arm": "random", "m_antennas": 4, "n_y": 4},
        trials=1, cycles=1)
    assert sum(iterations) == len(shifted)
    firsts = [shifted[i] for i in np.cumsum([0] + iterations[:-1])]
    assert len(firsts) >= 4
    for r in firsts:
        s = (np.real(r) + np.real(r).T) / 2.0
        hits, visited = bqp._table_hits(s)
        assert len(hits) >= 1
        assert visited <= 0.02 * 512


def test_canonical_first_coordinate_positive():
    rng = np.random.default_rng(9)
    for _ in range(10):
        res = quad_binary_max(random_hermitian(rng, 7))
        assert res.delta[0] == 1.0


def test_size_cap_refusal():
    rng = np.random.default_rng(1)
    r = random_hermitian(rng, 30)
    with pytest.raises(SizeCapError):
        quad_binary_max(r)


def test_non_hermitian_rejected():
    for scale in (1.0, 1e-13):
        with pytest.raises(ValueError):
            quad_binary_max(scale * np.array([[0.0, 1.0], [2.0, 0.0]]))


# ------------------------------------------------------------ dinkelbach

def test_equal_matrices_give_unit_ratio():
    rng = np.random.default_rng(5)
    b = crandn(rng, 6, 12)
    xi = b @ b.conj().T
    prob = RatioProblem(numerator=xi, denominator=xi)
    res = dinkelbach_solve(prob)
    assert res.converged
    assert res.iterations == 1
    assert res.ratio == pytest.approx(1.0, rel=1e-12)


def test_rank_one_positive_vector():
    v = np.array([1.0, 2.0, 0.5, 1.5])
    prob = RatioProblem(numerator=np.outer(v, v), denominator=np.eye(4))
    res = dinkelbach_solve(prob)
    assert np.array_equal(res.delta, np.ones(4))
    assert res.ratio == pytest.approx(v.sum() ** 2 / 4.0, rel=1e-12)


def test_dinkelbach_matches_exhaustive_ratio():
    rng = np.random.default_rng(17)
    for _ in range(20):
        prob = random_ratio_problem(rng, 9)
        res = dinkelbach_solve(prob)
        assert res.converged
        # exhaustive oracle over all sign vectors with first entry +1
        best = -np.inf
        for bits in range(2 ** 8):
            delta = np.ones(9)
            for i in range(8):
                if bits >> i & 1:
                    delta[i + 1] = -1.0
            best = max(best, prob.ratio(delta))
        assert res.ratio == pytest.approx(best, rel=1e-9)


def test_y_sequence_nondecreasing():
    rng = np.random.default_rng(23)
    for _ in range(30):
        prob = random_ratio_problem(rng, 8)
        res = dinkelbach_solve(prob)
        diffs = np.diff(res.y_trace)
        assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(res.y_trace[:-1])))


def test_stationarity_identity_at_termination():
    rng = np.random.default_rng(31)
    for _ in range(10):
        prob = random_ratio_problem(rng, 8)
        res = dinkelbach_solve(prob, tol=1e-9)
        lhs = abs(quad_form_value(prob.numerator - res.ratio * prob.denominator,
                                  res.delta))
        rhs = quad_form_value(prob.denominator, res.delta)
        assert lhs < 1e-7 * abs(rhs)


def test_cancelling_shifted_matrix_accepted():
    # numerator proportional to denominator: every sign vector has the same
    # ratio, and num - y den is rounding residue that is Hermitian only at
    # the scale of num and y den
    rng = np.random.default_rng(46)
    for n in (1, 2, 5, 8):
        for _ in range(5):
            b = crandn(rng, n, 2 * n)
            xi = 1e-13 * (b @ b.conj().T)
            res = dinkelbach_solve(RatioProblem(numerator=3.7 * xi,
                                                denominator=xi))
            assert res.converged
            assert res.ratio == pytest.approx(3.7, rel=1e-12)


def matrix_route_fit(y, phi, delta_init):
    """joint_ml's fit through the checked matrix constructor of
    RatioProblem: (problem, Dinkelbach result, gamma, residual)."""
    v = phi.conj().T @ y
    prob = RatioProblem(numerator=np.outer(v, v.conj()),
                        denominator=phi.conj().T @ phi)
    res = dinkelbach_solve(prob, delta_init=delta_init)
    gamma = localize.estimate_gamma(phi, res.delta, y)
    residual = float(np.linalg.norm(y - gamma * (phi @ res.delta)) ** 2)
    return prob, res, gamma, residual


def test_least_squares_route_matches_matrix_route():
    rng = np.random.default_rng(52)
    for n in (4, 10, 17, 20):
        for scale in (1.0, 1e-13):
            phi = scale * crandn(rng, 2 * n, n)
            y = scale * crandn(rng, 2 * n)
            for warm in (None, 1.0 - 2.0 * rng.integers(0, 2, n)):
                prob, res, gamma, residual = matrix_route_fit(y, phi, warm)
                fit = joint_ml(y, phi, delta_init=warm)
                assert np.array_equal(fit.delta, res.delta)
                assert fit.gamma == gamma
                assert fit.residual == residual
                fast = dinkelbach_solve(RatioProblem.least_squares(phi, y),
                                        delta_init=warm)
                assert np.array_equal(fast.delta, res.delta)
                assert np.array_equal(fast.y_trace, res.y_trace)
                assert fast.iterations == res.iterations
                # every inner problem, real as solved or complex as built
                for y_k in res.y_trace[:-1]:
                    shifted = prob.numerator - y_k * prob.denominator
                    real = prob.num_re - y_k * prob.den_re
                    assert np.array_equal(np.real(shifted), real)
                    bound = (np.abs(prob.numerator).max()
                             + abs(y_k) * np.abs(prob.denominator).max())
                    a = quad_binary_max(shifted, scale=bound)
                    b = quad_binary_max(real, scale=bound)
                    assert np.array_equal(a.delta, b.delta)
                    assert a.value == b.value


def test_least_squares_fits_factor_nothing(monkeypatch):
    # the matrix constructor checks PSD by Cholesky; the fits of a
    # campaign build their problems from (Phi, y) and factor nothing
    calls = []
    cholesky = np.linalg.cholesky

    def count(a, *args, **kwargs):
        calls.append(len(a))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", count)
    harness.run_localization_campaign(harness.spec_from_dict({
        "scene": {"m_antennas": 4, "n_x": 5, "n_y": 2,
                  "sigma2_dbm": -120.0, "target_rcs_amplitude": 2e-5},
        "pilot": {"m_t": 1, "snr_db": 40.0},
        "localization": {"n_grids": 4, "snapshots": 8,
                         "max_cycles": 2, "threshold": 1.0},
        "points": [{"arm": "random"}],
        "trials": 1, "master_seed": 110}))
    assert calls == []
    random_ratio_problem(np.random.default_rng(53), 5)
    assert calls == [5, 5]


def test_ratio_problem_validation():
    with pytest.raises(ValueError):
        RatioProblem(numerator=np.array([[0.0, 1.0], [0.0, 0.0]]),
                     denominator=np.eye(2))
    with pytest.raises(ValueError):
        RatioProblem(numerator=np.diag([1.0, -2.0]), denominator=np.eye(2))
    # the same checks hold at echo scale, relative to the matrix itself
    for bad in ([[0.0, 1.0], [0.0, 0.0]], np.diag([1.0, -2.0])):
        with pytest.raises(ValueError):
            RatioProblem(numerator=np.eye(2) * 1e-13,
                         denominator=1e-13 * np.asarray(bad))
    prob = RatioProblem(numerator=np.eye(2), denominator=np.zeros((2, 2)))
    with pytest.raises(DegenerateRatioError):
        prob.ratio(np.ones(2))


def test_ratio_problem_psd_knife_edge():
    # PSD to 1e-9 of the largest entry: lambda_min = -tau / 2 passes and
    # -2 tau fails, whatever the scale and the eigenbasis
    rng = np.random.default_rng(51)
    u, _ = np.linalg.qr(crandn(rng, 4, 4))
    base = u @ np.diag([1.0, 0.6, 0.2, 0.0]) @ u.conj().T
    tau = 1e-9 * float(np.abs(base).max())
    for scale in (1.0, 1e-13):
        for factor, accepted in ((0.5, True), (2.0, False)):
            lam = np.array([1.0, 0.6, 0.2, -factor * tau])
            mat = scale * (u @ np.diag(lam) @ u.conj().T)
            mat = (mat + mat.conj().T) / 2.0
            eig_accepts = (np.linalg.eigvalsh(mat).min()
                           >= -1e-9 * float(np.abs(mat).max()))
            assert eig_accepts == accepted
            for pair in ((mat, scale * np.eye(4)), (scale * np.eye(4), mat)):
                if accepted:
                    RatioProblem(numerator=pair[0], denominator=pair[1])
                else:
                    with pytest.raises(ValueError):
                        RatioProblem(numerator=pair[0], denominator=pair[1])


# ------------------------------------------------------------------- ilp

def test_mccormick_constraints_tight_at_binaries():
    inst = linearize(np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex))
    assert inst.coeffs == pytest.approx([2.0])
    # nu_i = nu_j = 1 forces nu_ij = 1; nu_i = 0 forces nu_ij = 0
    for nu_i, nu_j in ((1, 1), (1, 0), (0, 1), (0, 0)):
        lo = max(0, nu_i + nu_j - 1)
        hi = min(nu_i, nu_j)
        assert lo == hi == nu_i * nu_j


def test_linearize_constant_bookkeeping():
    rng = np.random.default_rng(2)
    r = random_hermitian(rng, 5)
    inst = linearize(r)
    s = np.real(r)
    delta = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    nu = (delta + 1) / 2
    lin = 0.0
    for k in range(inst.pair_i.size):
        i, j = inst.pair_i[k], inst.pair_j[k]
        c = inst.coeffs[k]
        lin += 8 * c * nu[i] * nu[j] - 4 * c * (nu[i] + nu[j])
    assert lin + inst.constant == pytest.approx(quad_form_value(r, delta), rel=1e-12)


def test_ilp_matches_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(10):
        r = random_hermitian(rng, 6)
        delta, value, milp_obj = solve_ilp(linearize(r))
        _, v_br = brute_force_max(r)
        assert value == v_br
        assert milp_obj + linearize(r).constant == pytest.approx(value, rel=1e-9, abs=1e-9)


def test_brute_force_size_cap():
    with pytest.raises(SizeCapError):
        brute_force_max(np.eye(25))
