"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The localization campaign (criterion 9) is the long pole; the whole
module targets well under fifteen minutes on a laptop-class machine.
"""

import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from irsloc import bqp, chanest, harness, localize, pilot, waveopt
from irsloc.scene import SceneConfig, synthesize_scene
from irsloc.util import crandn, derive_seed, random_unit_modulus


def report(criterion: int, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def noiseless_config(**kw):
    base = dict(m_antennas=4, n_x=3, n_y=3, sigma2_dbm=-np.inf,
                sigma2_si_db=-np.inf, sigma2_ref_db=-np.inf)
    base.update(kw)
    return SceneConfig(**base)


def noisy_obs(snr_db, m=4, n_x=3, n_y=3, scene_seed=0, noise_seed=1,
              n_diffs=None):
    cfg = SceneConfig(m_antennas=m, n_x=n_x, n_y=n_y, sigma2_dbm=-120.0)
    scene = synthesize_scene(cfg, seed=scene_seed)
    power = harness.pilot_power_for(cfg, harness.PilotParams(snr_db=snr_db))
    sched = pilot.build_schedule(m, 1, cfg.n_elements, n_diffs=n_diffs,
                                 pilot_power=power)
    obs = pilot.simulate_pilot_round(scene, sched, seed=noise_seed)
    return scene, obs


def test_criterion_1_noiseless_end_to_end():
    t0 = time.perf_counter()
    worst_ne = 0.0
    worst_cycles = 0
    for seed in range(10):
        cfg = noiseless_config()
        scene = synthesize_scene(cfg, seed=seed)
        sched = pilot.build_schedule(4, 1, 9, pilot_power=1.0)
        obs = pilot.simulate_pilot_round(scene, sched, seed=1000 + seed)
        est = chanest.estimate_channel(obs)
        ne = chanest.normalized_error(est.g_hat, scene.G)
        worst_ne = max(worst_ne, ne)
        assert ne < 1e-6

        grid = localize.build_hypothesis_grid(cfg, 4)
        true_hyp = grid.true_hypothesis(cfg.target_theta_deg)
        belief = localize.initial_belief(4, cfg.n_elements)
        rng = np.random.default_rng(derive_seed("c1", seed))
        power = 4.0
        x = np.sqrt(power / 4) * np.ones(4, dtype=complex)
        cycles_used = 0
        for cycle in range(3):
            theta = random_unit_modulus(rng, cfg.n_elements)
            belief, _ = localize.run_cycle(scene, est.g_hat, grid, belief, x,
                                           theta, snapshots=8,
                                           seed=derive_seed("c1e", seed, cycle),
                                           power_budget=power)
            cycles_used = cycle + 1
            if belief.probs[true_hyp] > 0.99:
                break
        assert belief.argmax == true_hyp
        assert belief.probs[true_hyp] > 0.99
        worst_cycles = max(worst_cycles, cycles_used)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(1, ok, f"10/10 seeds, worst NE {worst_ne:.2e}, "
                  f"<= {worst_cycles} cycles, {elapsed:.1f}s")


def test_criterion_2_coordinate_descent_monotone(record_update_objectives):
    # pilot overhead 2*N differences per subframe: the minimal C = N design
    # occasionally needs > 300 sweeps on ill-conditioned channel draws
    failures = 0
    max_sweeps_seen = 0
    for trial in range(50):
        scene, obs = noisy_obs(15.0, scene_seed=trial, noise_seed=5000 + trial,
                               n_diffs=18)
        g0 = chanest.initialize(chanest.pairwise_products(obs))
        est, j = record_update_objectives(obs, g0, max_sweeps=300, tol=1e-8)
        drops = np.diff(j)
        if not np.all(drops <= 1e-12 * np.maximum(1.0, np.abs(j[:-1]))):
            failures += 1
        if not est.converged:
            failures += 1
        max_sweeps_seen = max(max_sweeps_seen, est.iterations_run)
    ok = failures == 0 and max_sweeps_seen <= 300
    report(2, ok, f"50 instances, max sweeps {max_sweeps_seen}, "
                  f"violations {failures}")


def test_criterion_3_snr_trend():
    points = [{"snr_db": s, "m_antennas": 4} for s in (5, 10, 15, 20, 25)]
    points.append({"snr_db": 15, "m_antennas": 6})
    spec = harness.ExperimentSpec(
        scene=SceneConfig(m_antennas=4, n_x=3, n_y=3, sigma2_dbm=-120.0),
        pilot=harness.PilotParams(),
        points=points, trials=30, master_seed=42)
    result = harness.run_chanest_campaign(spec)
    by_point = {(r["snr_db"], r["m_antennas"]): r["ne_mean"]
                for r in result.point_rows}
    means = [by_point[(s, 4)] for s in (5, 10, 15, 20, 25)]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    antenna_gain = by_point[(15, 6)] <= by_point[(15, 4)]
    ok = decreasing and antenna_gain
    report(3, ok, "mean NE " + " > ".join(f"{m:.3g}" for m in means)
           + f"; M=6 at 15dB {by_point[(15, 6)]:.3g} <= {by_point[(15, 4)]:.3g}")


def test_criterion_4_efficiency_arithmetic():
    ok = True
    for m in range(2, 7):
        for m_t in range(1, m):
            n = 9
            sched = pilot.build_schedule(m, m_t, n)
            estimates = 0
            for a_set, b_set in sched.subframes:
                estimates += len(a_set) * len(b_set)
            if estimates != pilot.count_product_estimates(m, m_t):
                ok = False
            cost = comb(m, m_t) * n * m_t
            eta = Fraction(estimates, m * (m - 1) // 2) / Fraction(cost)
            if eta != Fraction(2 * (m - m_t), n * m * (m - 1)):
                ok = False
            if abs(float(eta) - pilot.schedule_efficiency(m, m_t, n)) > 1e-15:
                ok = False
    report(4, ok, "counting construction matches closed form for all "
                  "M <= 6, M_t < M (exact rationals)")


def test_criterion_5_bqp_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    bnb_exact = 0
    for _ in range(100):
        a = crandn(rng, 10, 10)
        r = (a + a.conj().T) / 2
        delta_bf, value_bf = bqp.brute_force_max(r)
        res = bqp.quad_binary_max(r)
        if res.value == value_bf and np.array_equal(res.delta, delta_bf):
            bnb_exact += 1

    dink_ok = 0
    for _ in range(100):
        v = crandn(rng, 10)
        spread = crandn(rng, 10, 20)
        prob = bqp.RatioProblem(numerator=np.outer(v, v.conj()),
                                denominator=spread @ spread.conj().T / 10)
        res = bqp.dinkelbach_solve(prob)
        monotone = np.all(np.diff(res.y_trace) >=
                          -1e-12 * np.maximum(1.0, np.abs(res.y_trace[:-1])))
        # exhaustive ratio oracle (first coordinate pinned by symmetry)
        idx = np.arange(2 ** 9, dtype=np.uint64)[:, None]
        bits = (idx >> np.arange(9, dtype=np.uint64)[None, :]) & 1
        deltas = np.hstack([np.ones((512, 1)), 1.0 - 2.0 * bits])
        nums = np.einsum("bi,ij,bj->b", deltas, np.real(prob.numerator), deltas)
        dens = np.einsum("bi,ij,bj->b", deltas, np.real(prob.denominator), deltas)
        best_delta = deltas[int(np.argmax(nums / dens))]
        if monotone and res.ratio == prob.ratio(best_delta):
            dink_ok += 1
    elapsed = time.perf_counter() - t0
    ok = bnb_exact == 100 and dink_ok == 100 and elapsed < 120.0
    report(5, ok, f"B&B exact {bnb_exact}/100, Dinkelbach exact "
                  f"{dink_ok}/100, {elapsed:.1f}s")


def test_criterion_6_ilp_equivalence():
    rng = np.random.default_rng(11)
    exact = 0
    for _ in range(50):
        a = crandn(rng, 8, 8)
        r = (a + a.conj().T) / 2
        inst = bqp.linearize(r)
        _, value, milp_obj = bqp.solve_ilp(inst)
        _, value_bf = bqp.brute_force_max(r)
        if value == value_bf and \
                abs(milp_obj + inst.constant - value) <= 1e-9 * max(1.0, abs(value)):
            exact += 1
    ok = exact == 50
    report(6, ok, f"ILP reconstruction exact on {exact}/50 instances")


def _random_distance_context(rng, n=6, m=3, n_hyp=3, snapshots=8,
                             noise_power=0.5):
    probs = rng.random(n_hyp)
    probs /= probs.sum()
    weights = np.zeros((n_hyp, n_hyp))
    for i in range(n_hyp):
        for j in range(i + 1, n_hyp):
            weights[i, j] = probs[i] * probs[j]
    return waveopt.DistanceContext(
        channels=[crandn(rng, n, m) for _ in range(n_hyp)],
        steering=np.column_stack([random_unit_modulus(rng, n)
                                  for _ in range(n_hyp)]),
        alphas=crandn(rng, n_hyp), weights=weights,
        snapshots=snapshots, noise_power=noise_power)


def test_criterion_7_distance_formula_oracle():
    from irsloc.util import vec
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        ctx = _random_distance_context(rng, n=6, m=3, n_hyp=3, snapshots=8)
        theta = random_unit_modulus(rng, 6)
        x = crandn(rng, 3)
        q = np.outer(theta, theta.conj())

        def ybar(i):
            big = np.diag(theta)
            a = ctx.steering[:, i][:, None]
            g = ctx.channels[i]
            x_mat = np.tile(x[:, None], (1, ctx.snapshots))
            return ctx.alphas[i] * vec(g.T @ big @ a @ a.T @ big @ g @ x_mat)

        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                direct = np.linalg.norm(ybar(i) - ybar(j)) ** 2 / ctx.noise_power
                got = waveopt.pair_distance(ctx, q, x, i, j)
                rel = abs(got - direct) / max(abs(direct), 1e-300)
                worst = max(worst, rel)
    ok = worst < 1e-9
    report(7, ok, f"50 instances, worst relative error {worst:.2e}")


def test_criterion_8_penalty_bcd_contract():
    rng = np.random.default_rng(17)
    mono_violations = 0
    infeasible = 0
    for _ in range(20):
        ctx = _random_distance_context(rng, n=5, m=3, n_hyp=3)
        records = []
        design = waveopt.penalty_optimize(
            ctx, crandn(rng, 3), random_unit_modulus(rng, 5),
            power_budget=4.0, accuracy=1e-7,
            on_block_update=lambda v, rho: records.append((rho, v)))
        for (rho_a, val_a), (rho_b, val_b) in zip(records, records[1:]):
            if rho_a == rho_b and val_b < val_a - 1e-9 * max(1.0, abs(val_a)):
                mono_violations += 1
        n = 5
        lift = np.real(design.theta.conj() @ design.q @ design.theta)
        if not (design.violation < 1e-7 and lift >= (1 - 1e-7) * n * n):
            infeasible += 1
    ok = mono_violations == 0 and infeasible == 0
    report(8, ok, f"20 instances, {mono_violations} monotonicity violations, "
                  f"{infeasible} infeasible terminations")


def _desk_localization_spec(trials=30, seed=2026):
    return harness.ExperimentSpec(
        scene=SceneConfig(m_antennas=4, n_x=5, n_y=2, sigma2_dbm=-120.0,
                          target_rcs_amplitude=2e-5),
        pilot=harness.PilotParams(snr_db=40.0),
        localization=harness.LocalizationParams(
            n_grids=4, theta_lo_deg=52.5, theta_hi_deg=72.5, snapshots=8,
            power_budget=50.0, threshold=0.95, max_cycles=20),
        points=[{"arm": "optimized", "power_budget": 50.0},
                {"arm": "random", "power_budget": 50.0},
                {"arm": "optimized", "power_budget": 10.0}],
        trials=trials, master_seed=seed)


def test_criterion_9_localization_campaign():
    t0 = time.perf_counter()
    spec = _desk_localization_spec()
    result = harness.run_localization_campaign(spec)
    elapsed = time.perf_counter() - t0

    def point_row(arm, pb):
        for row in result.point_rows:
            if row["arm"] == arm and row["power_budget"] == pb:
                return row
        raise KeyError((arm, pb))

    curve = [r["correct_fraction"] for r in result.tables["curve"]
             if r["arm"] == "optimized" and r["power_budget"] == 50.0
             and r["cycle"] <= 20]
    reaches = max(curve) >= 0.8

    med_opt = point_row("optimized", 50.0)["median_cycles_to_threshold"]
    med_rand = point_row("random", 50.0)["median_cycles_to_threshold"]
    med_low = point_row("optimized", 10.0)["median_cycles_to_threshold"]
    beats_random = med_opt < med_rand
    power_helps = med_opt < med_low

    ok = reaches and beats_random and power_helps
    report(9, ok,
           f"(a) correct fraction peaks at {max(curve):.2f} (>=0.8); "
           f"(b) median cycles optimized {med_opt} < random {med_rand}; "
           f"(c) P_b=50W {med_opt} < P_b=10W {med_low}; "
           f"runtime {elapsed / 60:.1f} min (target 15)")


def test_criterion_10_campaign_determinism(tmp_path):
    chan_spec = dict(
        scene=SceneConfig(m_antennas=4, n_x=3, n_y=1, sigma2_dbm=-120.0),
        pilot=harness.PilotParams(snr_db=15.0),
        sweep={"snr_db": [10.0, 20.0]}, trials=3, master_seed=5)
    loc_spec = dict(
        scene=SceneConfig(m_antennas=4, n_x=3, n_y=2, sigma2_dbm=-120.0,
                          target_rcs_amplitude=2e-5),
        pilot=harness.PilotParams(snr_db=40.0),
        localization=harness.LocalizationParams(
            n_grids=3, snapshots=4, power_budget=10.0, max_cycles=3),
        points=[{"arm": "optimized"}, {"arm": "random"}],
        trials=2, master_seed=5)
    mismatched = []
    for name, runner, spec_kw in (
            ("chanest", harness.run_chanest_campaign, chan_spec),
            ("localization", harness.run_localization_campaign, loc_spec)):
        dirs = []
        for run in ("a", "b"):
            result = runner(harness.ExperimentSpec(**spec_kw))
            out = tmp_path / f"{name}_{run}"
            harness.write_result(result, out)
            dirs.append(out)
        for f in sorted(dirs[0].iterdir()):
            if (dirs[1] / f.name).read_bytes() != f.read_bytes():
                mismatched.append(f"{name}/{f.name}")
    ok = not mismatched
    report(10, ok, "byte-identical reruns" if ok else f"diffs: {mismatched}")
