import itertools
import traceback
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from irsloc.chanest import (InitializationError, _average_products,
                            _MLObjective, _row_kernel, estimate_channel,
                            initialize, normalized_error, pairwise_products,
                            refine)
from irsloc.pilot import (build_design_matrix, build_schedule, ls_covariance,
                          ls_estimates, simulate_pilot_round, true_omega)
from irsloc.scene import SceneConfig, synthesize_scene
from irsloc.util import crandn, derive_seed


def make_obs(m=4, n_x=3, n_y=1, m_t=1, sigma2_dbm=-np.inf, pilot_power=1.0,
             scene_seed=0, noise_seed=1, statics=False):
    level = -10.0 if statics else -np.inf
    cfg = SceneConfig(m_antennas=m, n_x=n_x, n_y=n_y, sigma2_dbm=sigma2_dbm,
                      sigma2_si_db=level, sigma2_ref_db=level)
    scene = synthesize_scene(cfg, seed=scene_seed)
    sched = build_schedule(m, m_t, cfg.n_elements, pilot_power=pilot_power)
    obs = simulate_pilot_round(scene, sched, seed=noise_seed)
    return scene, obs


def pilot_power_for_snr(cfg: SceneConfig, snr_db: float) -> float:
    from irsloc.scene import path_loss
    gain = path_loss(cfg.bs_irs_distance, cfg.c0_db, cfg.d0_m, cfg.alpha0)
    return 10 ** (snr_db / 10) * cfg.noise_power / gain ** 2


def make_noisy_obs(snr_db, m=4, n_x=3, n_y=3, scene_seed=0, noise_seed=1):
    cfg = SceneConfig(m_antennas=m, n_x=n_x, n_y=n_y, sigma2_dbm=-120.0)
    scene = synthesize_scene(cfg, seed=scene_seed)
    p_t = pilot_power_for_snr(cfg, snr_db)
    sched = build_schedule(m, 1, cfg.n_elements, pilot_power=p_t)
    obs = simulate_pilot_round(scene, sched, seed=noise_seed)
    return scene, obs


# ---------------------------------------------------------------- products

def test_pairwise_products_noiseless_exact():
    scene, obs = make_obs()
    h_bar = pairwise_products(obs)
    n, m = scene.G.shape
    for row in range(n):
        for a in range(m):
            for b in range(m):
                if a == b:
                    assert np.isnan(h_bar[row, a, b])
                else:
                    expected = scene.G[row, a] * scene.G[row, b]
                    assert h_bar[row, a, b] == pytest.approx(expected, rel=1e-10)


def test_pair_coverage_count_m4():
    # every unordered pair is observed in exactly two subframes for M_t=1
    sched = build_schedule(4, 1, 2)
    counts = {}
    for a_set, b_set in sched.subframes:
        for a in a_set:
            for b in b_set:
                counts[frozenset((a, b))] = counts.get(frozenset((a, b)), 0) + 1
    assert all(c == 2 for c in counts.values())
    assert len(counts) == 6


def test_averaging_reduces_error():
    # MSE of the averaged product vs a single-subframe LS coordinate
    err_avg, err_single = [], []
    for trial in range(60):
        scene, obs = make_noisy_obs(10.0, scene_seed=trial, noise_seed=1000 + trial)
        h_bar = pairwise_products(obs)
        truth = scene.G[:, 0] * scene.G[:, 1]
        err_avg.append(np.abs(h_bar[:, 0, 1] - truth) ** 2)
        single = ls_estimates(obs)[0].reshape(scene.G.shape[0], 1, 3)[:, 0, 0]
        err_single.append(np.abs(single - truth) ** 2)
    assert np.mean(err_avg) < np.mean(err_single)


def oracle_average_products(sched, omega):
    """The np.add.at scatter, kept as the reference that the plain scatter
    of ``_average_products`` must match bit for bit."""
    n, m, m_t, n_rx = sched.n_elements, sched.m_antennas, sched.m_t, sched.n_rx
    sums = np.zeros((n, m, m), dtype=complex)
    counts = np.zeros((m, m), dtype=int)
    for p, (a_set, b_set) in enumerate(sched.subframes):
        block = omega[p].reshape(n, m_t, n_rx)
        ai = np.asarray(a_set)[:, None]
        bj = np.asarray(b_set)[None, :]
        np.add.at(sums, (slice(None), ai, bj), block)
        np.add.at(counts, (ai, bj), 1)
    sums = sums + np.swapaxes(sums, 1, 2)
    counts = counts + counts.T
    off_diag = ~np.eye(m, dtype=bool)
    h_bar = np.full((n, m, m), np.nan, dtype=complex)
    h_bar[:, off_diag] = sums[:, off_diag] / counts[off_diag]
    return h_bar, counts


@pytest.mark.parametrize("m_t", [1, 2, 3])
def test_average_products_matches_add_at_bitwise(m_t):
    sched = build_schedule(5, m_t, 6)
    rng = np.random.default_rng(30 + m_t)
    dim = sched.n_elements * m_t * sched.n_rx
    omega = crandn(rng, sched.n_subframes, dim) * 10.0 ** rng.uniform(-12, 12, dim)
    expected, expected_counts = oracle_average_products(sched, omega)
    assert np.array_equal(_average_products(sched, omega), expected,
                          equal_nan=True)
    assert np.array_equal(sched.pair_counts, expected_counts)


# ---------------------------------------------------------- initialization

def build_h_bar(rows):
    """Exact product table for a list of channel rows (the noiseless case)."""
    rows = np.asarray(rows, dtype=complex)
    n, m = rows.shape
    h = np.full((n, m, m), np.nan, dtype=complex)
    for r in range(n):
        for a in range(m):
            for b in range(m):
                if a != b:
                    h[r, a, b] = rows[r, a] * rows[r, b]
    return h


def test_initialize_real_row_example():
    h_bar = build_h_bar([[2.0, 3.0, 4.0]])
    g0 = initialize(h_bar, anchor=0)
    # anchor value is sqrt(6*8/12) = 2, remaining entries by ratio
    assert g0[0, 0] == pytest.approx(2.0, rel=1e-12)
    assert g0[0, 1] == pytest.approx(3.0, rel=1e-12)
    assert g0[0, 2] == pytest.approx(4.0, rel=1e-12)


def test_initialize_complex_row_sign_flip_only():
    row = np.array([1.0 + 1.0j, 2.0 + 0j, -1.0j])
    g0 = initialize(build_h_bar([row]), anchor=0)[0]
    close_plus = np.allclose(g0, row, rtol=1e-10)
    close_minus = np.allclose(g0, -row, rtol=1e-10)
    assert close_plus or close_minus


def test_initialize_many_random_rows_up_to_sign():
    rng = np.random.default_rng(3)
    rows = (rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4)))
    g0 = initialize(build_h_bar(rows))
    for est, truth in zip(g0, rows):
        assert (np.allclose(est, truth, rtol=1e-9)
                or np.allclose(est, -truth, rtol=1e-9))


def test_initialize_requires_three_antennas():
    with pytest.raises(ValueError):
        initialize(build_h_bar([[1.0, 2.0]]))


def test_initialize_anchor_fallback():
    # a zero entry in the anchor column kills every anchor-0 tuple; the row
    # is still recoverable from the remaining columns via another anchor
    row = np.array([0.0, 2.0, 3.0, 4.0], dtype=complex)
    g0 = initialize(build_h_bar([row]), anchor=0)[0]
    assert np.allclose(g0, row, rtol=1e-9, atol=1e-12) \
        or np.allclose(g0, -row, rtol=1e-9, atol=1e-12)


def test_initialize_underdetermined_row_raises():
    # only the products with column 0 survive: 3 equations cannot pin down
    # 4 magnitudes, and no anchor has a usable tuple
    h = build_h_bar([[1.0, 1.0, 1.0, 1.0]])
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            if p != q:
                h[0, p, q] = 0.0
    with pytest.raises(InitializationError):
        initialize(h, anchor=0)


def oracle_anchor_estimate(h_row, anchor, floor):
    """Square-root estimates of g_{n,anchor} from all valid (p, q) tuples."""
    m = h_row.shape[0]
    others = [k for k in range(m) if k != anchor]
    values = []
    for idx_p in range(len(others)):
        for idx_q in range(idx_p + 1, len(others)):
            p, q = others[idx_p], others[idx_q]
            den = h_row[p, q]
            if not np.isfinite(den) or abs(den) <= floor:
                continue
            val = np.sqrt(h_row[anchor, p] * h_row[anchor, q] / den)
            if np.isfinite(val) and val != 0:
                values.append(val)
    return values


def oracle_initialize(h_bar, anchor=0):
    """The per-row initializer on numpy scalars, kept as the reference that
    the row-vectorized ``initialize`` must match bit for bit."""
    n, m = h_bar.shape[0], h_bar.shape[1]
    g0 = np.empty((n, m), dtype=complex)
    for row in range(n):
        h_row = h_bar[row]
        off = np.abs(h_row[~np.eye(m, dtype=bool)])
        floor = 1e-12 * float(np.nanmax(off)) if np.nanmax(off) > 0 else 0.0

        values = oracle_anchor_estimate(h_row, anchor, floor)
        col = anchor
        if not values:
            best_key = (-1, -1.0)
            for cand in range(m):
                cand_vals = oracle_anchor_estimate(h_row, cand, floor)
                others = [k for k in range(m) if k != cand]
                dens = [abs(h_row[p, q]) for i, p in enumerate(others)
                        for q in others[i + 1:] if abs(h_row[p, q]) > floor]
                key = (len(cand_vals), max(dens, default=-1.0))
                if key > best_key:
                    best_key, col, values = key, cand, cand_vals
            if not values:
                raise InitializationError(
                    f"row {row}: every square-root tuple is degenerate")

        ref = values[0]
        aligned = [v if (v / ref).real >= 0 else -v for v in values]
        g_col = ref * np.exp(np.mean([np.log(v / ref) for v in aligned]))
        g0[row, col] = g_col
        for a in range(m):
            if a != col:
                g0[row, a] = h_row[col, a] / g_col
    return g0


def random_h_bar(rng, n, m):
    """Symmetric complex product tables with a NaN diagonal, row scales
    spread over 24 decades."""
    h = crandn(rng, n, m, m) * 10.0 ** rng.uniform(-12, 12, (n, 1, 1))
    h = h + np.swapaxes(h, 1, 2)
    h[:, np.arange(m), np.arange(m)] = np.nan
    return h


def set_pair(h, row, p, q, value):
    h[row, p, q] = h[row, q, p] = value


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_initialize_matches_per_row_oracle_bitwise(m):
    rng = np.random.default_rng(100 + m)
    h = random_h_bar(rng, 400, m)
    peak = np.nanmax(np.abs(h[3]))
    set_pair(h, 0, 1, 2, np.nan)               # NaN denominator
    set_pair(h, 1, m - 2, m - 1, np.inf)       # infinite denominator
    set_pair(h, 2, 1, 2, 0.0)                  # zero denominator
    set_pair(h, 3, 1, 2, 0.5e-12 * peak)       # sub-floor denominator
    set_pair(h, 4, 0, 1, 0.0)                  # a zero root
    set_pair(h, 5, 0, m - 1, np.nan)           # a NaN root
    # the anchor-fallback row, its anchor column zero
    h[6] = build_h_bar([[0.0] + [2.0 + k for k in range(m - 1)]])[0]
    h[7] = build_h_bar([crandn(rng, m) * 1e-155])[0]  # subnormal products
    # a denominator on the floor: at most the floor by abs() of a scalar,
    # above it by numpy's array abs, which rounds differently
    floor = 1e-12 * float(np.nanmax(np.abs(h[8][~np.eye(m, dtype=bool)])))
    ring = floor * np.exp(1j * np.linspace(0.01, 1.5, 2001))
    on_floor = ring[(np.abs(ring) > floor)
                    & np.array([abs(z) <= floor for z in ring])]
    set_pair(h, 8, 1, 2, on_floor[0])
    # rows 9-128 in eight blocks, each with its own random pairs knocked
    # out, so that rows with the same partly usable tuples, or the same
    # fallback column, are computed together
    for block in np.split(np.arange(9, 129), 8):
        for _ in range(rng.integers(1, m)):
            p, q = rng.choice(m, 2, replace=False)
            h[block, p, q] = h[block, q, p] = (0.0, np.nan, np.inf, 1e-300)[rng.integers(4)]
    for anchor in sorted({0, 1, m - 1}):
        refused, nonfinite = [], 0
        with np.errstate(all="ignore"):
            for row in range(129):
                # a doctored row the per-row code refuses, or gives a
                # non-finite entry, is refused, and the error names it
                try:
                    g_row = oracle_initialize(h[row:row + 1], anchor)
                except InitializationError:
                    g_row = None
                if g_row is None or not np.isfinite(g_row).all():
                    refused.append(row)
                    nonfinite += g_row is not None
                    with pytest.raises(InitializationError, match="row 0:"):
                        initialize(h[row:row + 1], anchor)
            kept = np.delete(h, refused, axis=0)
            expected = oracle_initialize(kept, anchor)
            got = initialize(kept, anchor)
        # from M = 4 a NaN product outside the usable tuples reaches an
        # entry of the per-row code's estimate, and is refused here
        assert nonfinite or m == 3
        assert np.array_equal(got, expected)


def test_initialize_degenerate_rows_match_oracle_bitwise():
    # the anchor-fallback example, and a row the fallback cannot save,
    # whose error names the same row as the per-row code's
    row = np.array([0.0, 2.0, 3.0, 4.0], dtype=complex)
    h = build_h_bar([row, row + 1j])
    assert np.array_equal(initialize(h), oracle_initialize(h))
    h = np.concatenate([h, build_h_bar([[1.0, 1.0, 1.0, 1.0]])])
    for p, q in itertools.combinations(range(1, 4), 2):
        set_pair(h, 2, p, q, 0.0)
    for init in (initialize, oracle_initialize):
        with pytest.raises(InitializationError, match="row 2:"):
            init(h)


# --------------------------------------------------------------- refinement

def test_refine_noiseless_reaches_truth():
    scene, obs = make_obs(m=4, n_x=3, n_y=3)
    est = estimate_channel(obs)
    assert normalized_error(est.g_hat, scene.G) < 1e-6


def test_objective_nonincreasing_per_update(record_update_objectives):
    scene, obs = make_noisy_obs(15.0, scene_seed=5, noise_seed=17)
    h_bar = pairwise_products(obs)
    g0 = initialize(h_bar)
    est, j = record_update_objectives(obs, g0, max_sweeps=40)
    drops = np.diff(j)
    assert np.all(drops <= 1e-12 * np.maximum(1.0, np.abs(j[:-1])))


def test_refine_converges_within_cap():
    for seed in (0, 1):
        scene, obs = make_noisy_obs(15.0, scene_seed=seed, noise_seed=seed + 50)
        est = estimate_channel(obs)
        assert est.converged
        assert est.iterations_run <= 300


def test_single_entry_update_matches_numeric_minimizer():
    scene, obs = make_noisy_obs(10.0, n_x=2, n_y=2, scene_seed=8, noise_seed=3)
    g0 = initialize(pairwise_products(obs))

    row, col = 1, 2
    state = _MLObjective(obs, g0.copy())
    seen = {}

    def snapshot(r, c):
        if (r, c) == (row, col - 1):  # the update just before entry (1, 2)
            seen["before"] = state.g.copy()
        elif (r, c) == (row, col):
            seen["closed"] = state.g[row, col]

    state.sweep(snapshot)
    g_before, closed = seen["before"], seen["closed"]

    def j_of(entry_re_im):
        g = g_before.copy()
        g[row, col] = entry_re_im[0] + 1j * entry_re_im[1]
        return _MLObjective(obs, g).value()

    # coarse grid then simplex refinement, fully independent of the closed form
    scale = max(1.0, abs(g_before[row, col]))
    grid = np.linspace(-2 * scale, 2 * scale, 21)
    best = min(((re, im) for re in grid for im in grid), key=lambda t: j_of(t))
    res = minimize(j_of, x0=np.array(best), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
    oracle = res.x[0] + 1j * res.x[1]
    assert abs(closed - oracle) < 1e-6 * max(1.0, abs(closed))


def test_refine_sign_blind():
    scene, obs = make_noisy_obs(15.0, scene_seed=2, noise_seed=7)
    g0 = initialize(pairwise_products(obs))
    est_plain = refine(obs, g0, max_sweeps=30)
    flips = np.where(np.arange(g0.shape[0]) % 2 == 0, 1.0, -1.0)
    est_flipped = refine(obs, flips[:, None] * g0, max_sweeps=30)
    assert est_plain.final_objective == pytest.approx(est_flipped.final_objective,
                                                      rel=1e-12, abs=1e-12)
    ne_a = normalized_error(est_plain.g_hat, scene.G)
    ne_b = normalized_error(est_flipped.g_hat, scene.G)
    assert ne_a == pytest.approx(ne_b, rel=1e-9)


def subframe_residuals(obs, g):
    """Full residuals omega_ls[p] - vec(G_A^T kr G_B^T), one row per subframe."""
    res = np.array(obs.omega_ls)
    for p, (a_set, b_set) in enumerate(obs.schedule.subframes):
        prod = np.einsum("ni,nj->nij", g[:, list(a_set)], g[:, list(b_set)])
        res[p] -= prod.reshape(-1)
    return res


def design_gram(sched):
    """The full LS weight Phi^H Phi, from the reference design matrix."""
    phi = build_design_matrix(sched)
    return phi.conj().T @ phi


def full_objective(obs, residuals):
    """sum_p e_p^H W e_p, W the LS weight with the objective's scale."""
    scale = 1.0 / (2.0 * obs.sigma2) if obs.sigma2 > 0 else 1.0
    gram = design_gram(obs.schedule)
    return scale * sum(float(np.real(e.conj() @ gram @ e)) for e in residuals)


def test_refine_objective_scale_uses_covariance():
    scene, obs = make_noisy_obs(15.0, scene_seed=4, noise_seed=9)
    g0 = initialize(pairwise_products(obs))
    state = _MLObjective(obs, g0.copy())
    # J = sum_p e^H R^{-1} e with R = 2 sigma^2 (Phi^H Phi)^{-1}
    r_inv = np.linalg.inv(ls_covariance(design_gram(obs.schedule), obs.sigma2))
    expected = sum(float(np.real(e.conj() @ r_inv @ e))
                   for e in subframe_residuals(obs, g0))
    assert state.value() == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("m,m_t,n_diffs", [(4, 1, None), (5, 2, None),
                                           (6, 2, None), (4, 3, 21)])
def test_pair_objective_equals_full_residual_form(m, m_t, n_diffs):
    # the pair-residual form is exact, at the truth's neighbourhood and far
    # from it
    obs, g0 = perturbed_round(m, m_t, n_diffs)
    rng = np.random.default_rng(m * 10 + m_t)
    far = np.abs(g0).mean() * crandn(rng, *g0.shape)
    for g in (g0, far):
        expected = full_objective(obs, subframe_residuals(obs, g))
        assert _MLObjective(obs, g.copy()).value() \
            == pytest.approx(expected, rel=1e-12)


def loop_step(state, row, col):
    """Literal per-subframe coordinate step on g[row, col]: returns the
    step and the updated residuals (state untouched)."""
    block = state.m_t * state.n_rx
    num, den, support = 0.0 + 0.0j, 0.0, []
    for p, (a_set, b_set) in enumerate(state.subframes):
        if col in a_set:
            offs = a_set.index(col) * state.n_rx + np.arange(state.n_rx)
            cof_cols = np.asarray(b_set)
        else:
            offs = np.arange(state.m_t) * state.n_rx + b_set.index(col)
            cof_cols = np.asarray(a_set)
        idx = row * block + offs
        cof = state.g[row, cof_cols]
        w_rows = state.weight[idx]
        num += cof.conj() @ (w_rows @ state.residuals[p])
        den += float(np.real(cof.conj() @ (w_rows[:, idx] @ cof)))
        support.append((idx, cof))
    step = num / den
    residuals = state.residuals.copy()
    for p, (idx, cof) in enumerate(support):
        residuals[p][idx] -= step * cof
    return step, residuals


class PerEntryObjective:
    """The per-entry coordinate step over the full weight, kept as the
    reference for the row-blocked sweep: every step gathers the K weight
    rows of its support from the dense Gram matrix."""

    def __init__(self, obs, g):
        sched = obs.schedule
        self.n, self.m = sched.n_elements, sched.m_antennas
        self.m_t, self.n_rx = sched.m_t, sched.n_rx
        self.weight = design_gram(sched)
        self.obs = obs
        self.subframes = sched.subframes
        self.g = g
        self.block = self.m_t * self.n_rx
        tables = []
        for a in range(self.m):
            sub, off, cof = [], [], []
            for p, (a_set, b_set) in enumerate(self.subframes):
                if a in a_set:
                    offs = a_set.index(a) * self.n_rx + np.arange(self.n_rx)
                    cols = b_set
                else:
                    offs = np.arange(self.m_t) * self.n_rx + b_set.index(a)
                    cols = a_set
                sub.extend([p] * len(cols))
                off.extend(offs)
                cof.extend(cols)
            tables.append((sub, off, cof))
        self.sub, self.off, self.cof = (np.array(t) for t in zip(*tables))
        self.mask = self.sub[:, :, None] == self.sub[:, None, :]
        self.refresh_residuals()

    def refresh_residuals(self):
        self.residuals = subframe_residuals(self.obs, self.g)

    def step_terms(self, row, col):
        sub = self.sub[col]
        idx = row * self.block + self.off[col]
        cof = self.g[row, self.cof[col]]
        w_rows = self.weight.take(idx, axis=0)
        rowdot = (w_rows * self.residuals.take(sub, axis=0)).sum(axis=1)
        num = cof.conj() @ rowdot
        den = float(np.real(cof.conj() @ ((w_rows[:, idx] * self.mask[col]) @ cof)))
        return num, den, sub, idx, cof

    def update_entry(self, row, col):
        num, den, sub, idx, cof = self.step_terms(row, col)
        if den <= 0.0:
            return None
        step = num / den
        self.g[row, col] += step
        self.residuals[sub, idx] -= step * cof
        return num, den, step


SHAPES = [(4, 1, None), (5, 2, None), (4, 3, 21)]
# n_diffs = 13 with M_t = 2 leaves the last IRS pattern half used
PARTLY_USED = (5, 2, 13)


def perturbed_round(m, m_t, n_diffs):
    cfg = SceneConfig(m_antennas=m, n_x=3, n_y=2, sigma2_dbm=-120.0)
    scene = synthesize_scene(cfg, seed=6)
    sched = build_schedule(m, m_t, cfg.n_elements, n_diffs=n_diffs,
                           pilot_power=pilot_power_for_snr(cfg, 10.0))
    obs = simulate_pilot_round(scene, sched, seed=4)
    rng = np.random.default_rng(5)
    g0 = scene.G + 0.3 * np.abs(scene.G).mean() * (
        rng.standard_normal(scene.G.shape) + 1j * rng.standard_normal(scene.G.shape))
    return obs, g0


def close(a, b, rtol=1e-12):
    return np.abs(np.asarray(a) - b).max() <= rtol * np.abs(b).max()


def refused_as_partly_used(obs, g0, m_t, n_diffs):
    """True when the round leaves its last IRS pattern partly used.

    The Gram matrix is then not Kp kron I, and the sweep state must
    refuse the round; that is checked here.
    """
    if n_diffs is None or n_diffs % m_t == 0:
        return False
    with pytest.raises(ValueError, match="partly used last pattern"):
        _MLObjective(obs, g0.copy())
    return True


@pytest.mark.parametrize("m,m_t,n_diffs", SHAPES + [PARTLY_USED])
def test_row_sweep_matches_per_entry_oracle(m, m_t, n_diffs):
    obs, g0 = perturbed_round(m, m_t, n_diffs)
    if refused_as_partly_used(obs, g0, m_t, n_diffs):
        return
    g0[2] = 0.0       # every entry of row 2 has zero curvature
    g0[4, 1:] = 0.0   # of row 4 only (4, 0), in the first sweep
    oracle = PerEntryObjective(obs, g0.copy())
    state = _MLObjective(obs, g0.copy())
    for _ in range(3):
        expected = []
        for row in range(oracle.n):
            for col in range(m):
                terms = oracle.update_entry(row, col)
                if terms is not None:
                    expected.append(((row, col), terms[2], oracle.g.copy(),
                                     full_objective(obs, oracle.residuals)))
        oracle.refresh_residuals()
        g_prev = state.g.copy()
        seen = []

        def record(row, col):
            state.refresh_row(row)
            seen.append(((row, col), state.g.copy(), state.value()))

        state.sweep(record)
        assert [s[0] for s in seen] == [e[0] for e in expected]
        for (entry, g, j), (_, o_step, o_g, o_j) in zip(seen, expected):
            assert abs((g[entry] - g_prev[entry]) - o_step) <= 1e-12 * abs(o_step)
            assert close(g, o_g)
            assert j == pytest.approx(o_j, rel=1e-12)
            g_prev = g
    assert not np.any(state.g[2])


def oracle_sweep(state, on_update=None):
    """The per-entry pair sweep, kept as the reference that the list sweep
    must match bit for bit: g's row is read from and written to the array
    entry by entry, and every gradient of an entry's support is updated."""
    pair_of = {pair: q for q, pair in enumerate(state.pairs)}
    tables = [[(c, pair_of[min(a, c), max(a, c)])
               for c in range(state.m) if c != a] for a in range(state.m)]
    knn_all = state.kp.diagonal().real.tolist()
    for n in range(state.n):
        grad = (state.kp[n] @ state.residuals).tolist()
        knn = knn_all[n]
        row = state.g[n].tolist()
        for a, support in enumerate(tables):
            num = 0j
            nrm = 0.0
            for c, q in support:
                x = row[c]
                nrm += x.real * x.real + x.imag * x.imag
                num += x.conjugate() * grad[q]
            den = knn * nrm
            if den <= 0.0:
                continue
            step = num / den
            row[a] += step
            state.g[n, a] = row[a]
            k_step = knn * step
            for c, q in support:
                grad[q] -= k_step * row[c]
            if on_update is not None:
                on_update(n, a)
        g = state.g[n].tolist()
        state.residuals[n] = [h - g[i] * g[j]
                              for h, (i, j) in zip(state.h_rows[n], state.pairs)]


@pytest.mark.parametrize("m,m_t", [(4, 1), (4, 2), (6, 1), (6, 2)])
def test_refine_matches_per_entry_sweep_bitwise(m, m_t, monkeypatch):
    obs, g0 = perturbed_round(m, m_t, None)
    g0[2] = 0.0       # every entry of row 2 has zero curvature
    est = refine(obs, g0, max_sweeps=5, tol=0.0)
    monkeypatch.setattr(_MLObjective, "sweep", oracle_sweep)
    expected = refine(obs, g0, max_sweeps=5, tol=0.0)
    assert est.iterations_run == expected.iterations_run == 5
    assert np.array_equal(est.g_hat, expected.g_hat)
    assert np.array_equal(est.objective_trace, expected.objective_trace)


@pytest.mark.parametrize("m,m_t", [(4, 1), (6, 2)])
def test_sweep_callback_sees_per_entry_sweep_g(m, m_t):
    # g is current at every callback, the rows done earlier in the sweep
    # included, and the residuals match after every sweep
    obs, g0 = perturbed_round(m, m_t, None)
    g0[4, 1:] = 0.0   # of row 4 only (4, 0) moves in the first sweep
    runs = []
    for sweep in (_MLObjective.sweep, oracle_sweep):
        state = _MLObjective(obs, g0.copy())
        seen = []
        for _ in range(2):
            sweep(state, lambda row, col: seen.append(((row, col), state.g.copy())))
            seen.append((None, state.residuals.copy()))
        runs.append(seen)
    got, expected = runs
    assert [s[0] for s in got] == [e[0] for e in expected]
    assert all(np.array_equal(s[1], e[1]) for s, e in zip(got, expected))


@pytest.mark.parametrize("m_t", [1, 2])
@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_row_kernels_match_per_entry_sweep_bitwise(m, m_t):
    # both kernel variants, three sweeps; row 2 has zero curvature and is
    # skipped, while row 4's NaN entry makes its other entries' curvature
    # NaN, and those are updated (the skip test is den <= 0.0)
    obs, g0 = perturbed_round(m, m_t, None)
    g0[2] = 0.0
    g0[4, m - 1] = np.nan
    runs = []
    for sweep, callback in [(oracle_sweep, True), (_MLObjective.sweep, True),
                            (oracle_sweep, False), (_MLObjective.sweep, False)]:
        state = _MLObjective(obs, g0.copy())
        seen = []
        on_update = (lambda row, col: seen.append(((row, col), state.g.copy()))) \
            if callback else None
        for _ in range(3):
            sweep(state, on_update)
            seen.append((None, state.g.copy()))
            seen.append((None, state.residuals.copy()))
        runs.append(seen)
    for got, expected in (runs[1], runs[0]), (runs[3], runs[2]):
        assert [s[0] for s in got] == [e[0] for e in expected]
        assert all(np.array_equal(s[1], e[1], equal_nan=True)
                   for s, e in zip(got, expected))
    assert not np.any(runs[3][-2][1][2])
    assert np.isnan(runs[3][0][1][4, 0])


def test_row_kernel_cached_per_m_and_named_in_tracebacks():
    for m in (3, 6):
        assert _row_kernel(m) is _row_kernel(m)
        assert _row_kernel(m, True) is _row_kernel(m, True)
        assert _row_kernel(m, True) is not _row_kernel(m)
    # a gradient list too short for M = 5 fails inside the kernel
    with pytest.raises(ValueError) as info:
        _row_kernel(5)([1j] * 5, [0j] * 3, 1.0, [0j] * 10, 0, None, None)
    assert traceback.extract_tb(info.tb)[-1].filename == "<chanest row kernel M=5>"
    # and a failing callback is called from the callback variant
    obs, g0 = perturbed_round(4, 1, None)

    def fail(row, col):
        raise RuntimeError("callback")

    with pytest.raises(RuntimeError) as info:
        _MLObjective(obs, g0).sweep(fail)
    assert "<chanest row kernel M=4, callback>" in [
        frame.filename for frame in traceback.extract_tb(info.tb)]


def snapshot(state, obs):
    """The fields ``loop_step`` reads, built from a live state's g."""
    sched = obs.schedule
    return SimpleNamespace(m_t=sched.m_t, n_rx=sched.n_rx,
                           subframes=sched.subframes, weight=design_gram(sched),
                           g=state.g.copy(),
                           residuals=subframe_residuals(obs, state.g))


@pytest.mark.parametrize("m,m_t,n_diffs", SHAPES + [PARTLY_USED])
def test_batched_step_matches_per_subframe_loop(m, m_t, n_diffs):
    obs, g0 = perturbed_round(m, m_t, n_diffs)
    if refused_as_partly_used(obs, g0, m_t, n_diffs):
        return
    state = _MLObjective(obs, g0.copy())
    before = [snapshot(state, obs)]
    entries = []

    def check(row, col):
        step, residuals = loop_step(before[0], row, col)
        state.refresh_row(row)
        assert abs((state.g[row, col] - before[0].g[row, col]) - step) \
            <= 1e-12 * abs(step)
        after = snapshot(state, obs)
        assert close(after.residuals, residuals)
        assert state.value() == pytest.approx(full_objective(obs, residuals),
                                              rel=1e-12)
        before[0] = after
        entries.append((row, col))

    state.sweep(check)
    assert entries == [(row, col) for row in range(obs.schedule.n_elements)
                       for col in range(m)]


@pytest.mark.parametrize("m,m_t,n_diffs", [(5, 2, 13), (4, 3, 20)])
def test_partly_used_last_pattern_rejected(m, m_t, n_diffs):
    # n_diffs not a multiple of M_t leaves the last IRS pattern partly
    # used, so the Gram matrix is not Kp kron I_{M_t}: the pilot layer
    # accepts the schedule, the pair-level refinement does not
    obs, g0 = perturbed_round(m, m_t, n_diffs)
    assert obs.omega_ls.shape[0] == obs.schedule.n_subframes
    with pytest.raises(ValueError, match="partly used last pattern"):
        refine(obs, g0)


def test_non_orthogonal_pilots_rejected():
    # Gaussian pilots give a full-rank pattern whose Gram is not
    # Kp kron I_{M_t}: the LS layer accepts the round, refinement does not
    cfg = SceneConfig(m_antennas=5, n_x=3, n_y=2, sigma2_dbm=-120.0)
    scene = synthesize_scene(cfg, seed=6)
    sched = build_schedule(5, 2, cfg.n_elements)
    sched = replace(sched, pilots=crandn(np.random.default_rng(0),
                                         *sched.pilots.shape))
    obs = simulate_pilot_round(scene, sched, seed=4)
    assert np.isfinite(obs.omega_ls).all()
    with pytest.raises(ValueError, match="orthogonal and of equal power"):
        refine(obs, scene.G)


def test_unequal_pair_counts_rejected():
    # a hand-built schedule with three of the four splits observes pair
    # {0, 1} twice and {2, 3} once: the pairs no longer share one weight
    cfg = SceneConfig(m_antennas=4, n_x=3, n_y=1, sigma2_dbm=-120.0)
    scene = synthesize_scene(cfg, seed=6)
    sched = build_schedule(4, 1, cfg.n_elements)
    sched.subframes = sched.subframes[:3]
    obs = simulate_pilot_round(scene, sched, seed=4)
    with pytest.raises(ValueError, match="equally often"):
        refine(obs, scene.G)


def test_record_update_objectives_keeps_trajectory(record_update_objectives,
                                                  monkeypatch):
    scene, obs = make_noisy_obs(15.0, scene_seed=5, noise_seed=17)
    g0 = initialize(pairwise_products(obs))
    callbacks = []
    sweep = _MLObjective.sweep

    def spy(state, on_update=None):
        callbacks.append(on_update)
        sweep(state, on_update)

    with monkeypatch.context() as patch:
        patch.setattr(_MLObjective, "sweep", spy)
        plain = refine(obs, g0, max_sweeps=40)
    recorded, _ = record_update_objectives(obs, g0, max_sweeps=40)
    assert np.array_equal(plain.g_hat, recorded.g_hat)
    assert np.array_equal(plain.objective_trace, recorded.objective_trace)
    # a plain refinement records nothing: its sweeps get no callback
    assert callbacks and all(c is None for c in callbacks)


def test_update_objectives_one_per_update(record_update_objectives):
    obs, g0 = perturbed_round(4, 1, None)
    g0[2] = 0.0  # a zero row stays zero: all its entries are skipped
    est, update_objectives = record_update_objectives(obs, g0, max_sweeps=5)
    n, m = g0.shape
    assert update_objectives.shape == (est.iterations_run * (n - 1) * m,)
    assert not np.any(est.g_hat[2])
    # the last recorded objective is the sweep's
    assert update_objectives[-1] == pytest.approx(est.objective_trace[-1],
                                                  rel=1e-12)


@pytest.mark.parametrize("m,m_t,n_diffs", SHAPES)
def test_pattern_gram_kron_identity_matches_design_gram(m, m_t, n_diffs):
    # with full patterns the refinement's weight Kp kron I_{M_t (M - M_t)}
    # is the Gram matrix of the full design matrix
    sched = build_schedule(m, m_t, 6, n_diffs=n_diffs, pilot_power=3.0)
    kp = sched.pattern_gram
    assert kp.shape == (6, 6)
    assert close(np.kron(kp, np.eye(m_t * sched.n_rx)), design_gram(sched))


# ------------------------------------------------------------------ metric

def test_normalized_error_sign_invariance():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    assert normalized_error(g, g) == 0.0
    assert normalized_error(-g, g) == 0.0
    flipped = g.copy()
    flipped[2] *= -1
    assert normalized_error(flipped, g) == 0.0
    assert normalized_error(2 * g, g) == pytest.approx(1.0, rel=1e-12)


def test_normalized_error_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        g_hat = g + 0.3 * (rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        fast = normalized_error(g_hat, g)
        norm = np.linalg.norm(g)
        brute = min(
            np.linalg.norm(np.asarray(signs)[:, None] * g_hat - g) / norm
            for signs in itertools.product((1.0, -1.0), repeat=6))
        assert fast == pytest.approx(brute, rel=1e-12)


def test_normalized_error_rejects_zero_reference():
    with pytest.raises(ValueError):
        normalized_error(np.ones((2, 2)), np.zeros((2, 2)))


def test_ne_improves_with_snr_cheap():
    lo, hi = [], []
    for trial in range(6):
        _, obs5 = make_noisy_obs(5.0, scene_seed=trial, noise_seed=derive_seed("lo", trial))
        scene5, _ = make_noisy_obs(5.0, scene_seed=trial)
        lo.append(normalized_error(estimate_channel(obs5).g_hat, scene5.G))
        scene25, obs25 = make_noisy_obs(25.0, scene_seed=trial,
                                        noise_seed=derive_seed("hi", trial))
        hi.append(normalized_error(estimate_channel(obs25).g_hat, scene25.G))
    assert np.mean(hi) < np.mean(lo)


def test_convergence_trace_recorded():
    scene, obs = make_noisy_obs(15.0, scene_seed=1, noise_seed=2)
    g0 = initialize(pairwise_products(obs))
    est = refine(obs, g0, max_sweeps=50, g_true=scene.G)
    assert est.objective_trace.shape[0] == est.iterations_run + 1
    assert est.ne_trace.shape[0] == est.iterations_run
    assert np.all(np.isfinite(est.ne_trace))


# --------------------------------------------------------- Cramer-Rao bound

def real_form(a, sigma2):
    """Fisher information of (Re g, Im g) for a mean holomorphic in g with
    complex information a, under CN(0, 2 sigma2 I) noise."""
    return np.block([[a.real, -a.imag], [a.imag, a.real]]) / sigma2


def fisher_information(scene, sched, sigma2):
    """Fisher information of one pilot round in (Re G, Im G), row-major:
    sum_p J_p^H Phi^H Phi J_p, with J_p the Jacobian of ``true_omega`` in G
    and Phi the design matrix.  omega is quadratic in G, so a central
    difference is its exact derivative."""
    n, m = scene.G.shape
    phi = build_design_matrix(sched)
    gram = phi.conj().T @ phi
    step = np.sqrt(np.mean(np.abs(scene.G) ** 2))
    info = 0
    for p in range(sched.n_subframes):
        jac = np.column_stack([
            (true_omega(replace(scene, G=scene.G + step * e), sched, p)
             - true_omega(replace(scene, G=scene.G - step * e), sched, p)) / (2 * step)
            for e in np.eye(n * m).reshape(-1, n, m)])
        info = info + jac.conj().T @ gram @ jac
    return real_form(info, sigma2)


@pytest.mark.parametrize("m,m_t,n_diffs", SHAPES)
def test_fisher_information_matches_pair_closed_form(m, m_t, n_diffs):
    # with Phi^H Phi = Kp kron I, the information is w sum_q D_q^H Kp D_q
    # over the pairs q = (i, j), D_q[n, c] = d(g[n, i] g[n, j]) / d g[n, c]
    cfg = SceneConfig(m_antennas=m, n_x=3, n_y=2, sigma2_dbm=-120.0)
    scene = synthesize_scene(cfg, seed=0)
    sched = build_schedule(m, m_t, cfg.n_elements, n_diffs=n_diffs,
                           pilot_power=pilot_power_for_snr(cfg, 25.0))
    g = scene.G
    d = np.zeros((cfg.n_elements, m * (m - 1) // 2, m), dtype=complex)
    for q, (i, j) in enumerate(itertools.combinations(range(m), 2)):
        d[:, q, i], d[:, q, j] = g[:, j], g[:, i]
    pair = sched.pair_counts[0, 1] * np.einsum(
        "nqc,nk,kqd->nckd", d.conj(), sched.pattern_gram, d).reshape(g.size, g.size)
    assert close(fisher_information(scene, sched, cfg.noise_power),
                 real_form(pair, cfg.noise_power))


def test_refined_error_meets_cramer_rao_bound():
    # one fixed scene, M = 6, N = 25, 25 dB: the refinement is the ML fit,
    # so the mean NE^2 over R rounds lies within 3 of the rounds' own
    # standard errors of tr(FIM^-1) / ||G||^2
    cfg = SceneConfig(m_antennas=6, n_x=5, n_y=5, sigma2_dbm=-120.0)
    scene = synthesize_scene(cfg, seed=0)
    sched = build_schedule(6, 1, cfg.n_elements,
                           pilot_power=pilot_power_for_snr(cfg, 25.0))
    fim = fisher_information(scene, sched, cfg.noise_power)
    bound = np.trace(np.linalg.inv(fim)) / np.linalg.norm(scene.G) ** 2
    rounds = 40
    ne2 = np.array([normalized_error(estimate_channel(
        simulate_pilot_round(scene, sched, seed=r)).g_hat, scene.G) ** 2
        for r in range(rounds)])
    assert abs(ne2.mean() - bound) <= 3 * ne2.std(ddof=1) / np.sqrt(rounds)
