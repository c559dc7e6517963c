"""Channel estimation walkthrough.

Synthesizes a BS-IRS deployment, runs the full-duplex differential pilot
protocol, and recovers the channel up to per-row signs: LS products, the
square-root/geometric-mean initialization, and coordinate-descent ML
refinement.  Prints the convergence trace and a small SNR sweep.

Run:  python3 demos/channel_estimation_demo.py
"""

import numpy as np

from irsloc import chanest, pilot
from irsloc.harness import PilotParams, pilot_power_for
from irsloc.scene import SceneConfig, synthesize_scene

# --- one estimation round, step by step -----------------------------------

cfg = SceneConfig(m_antennas=4, n_x=3, n_y=3, sigma2_dbm=-120.0)
scene = synthesize_scene(cfg, seed=1)
print(f"scene: M={cfg.m_antennas} antennas, N={cfg.n_elements} IRS elements, "
      f"BS-IRS distance {cfg.bs_irs_distance:.2f} m")

snr_db = 15.0
power = pilot_power_for(cfg, PilotParams(snr_db=snr_db))
print(f"pilot power for {snr_db:.0f} dB received SNR: {power:.3e} W")

schedule = pilot.build_schedule(cfg.m_antennas, m_t=1,
                                n_elements=cfg.n_elements, pilot_power=power)
print(f"schedule: {schedule.n_subframes} subframes "
      f"(all Tx/Rx splits), {schedule.n_diffs} differences each")

obs = pilot.simulate_pilot_round(scene, schedule, seed=7)
print(f"pattern matrix {schedule.pattern.shape} (design = pattern kron "
      f"I_{schedule.n_rx}), condition number {schedule.condition_number:.1f}")

# averaged pairwise products feed the row-wise initialization
h_bar = chanest.pairwise_products(obs)
g0 = chanest.initialize(h_bar)
print(f"initialization NE: {chanest.normalized_error(g0, scene.G):.4f}")

est = chanest.refine(obs, g0, g_true=scene.G)
print(f"refined NE:        {chanest.normalized_error(est.g_hat, scene.G):.4f} "
      f"({est.iterations_run} sweeps, converged={est.converged})")
print("objective / NE by sweep (first 8):")
for i, (j_val, ne_val) in enumerate(zip(est.objective_trace[1:9],
                                        est.ne_trace[:8]), start=1):
    print(f"  sweep {i:2d}: J = {j_val:10.3f}   NE = {ne_val:.4f}")

# --- the estimate is sign-ambiguous by construction ------------------------

signs = np.where(np.arange(cfg.n_elements) % 2 == 0, 1.0, -1.0)
flipped = signs[:, None] * est.g_hat
print(f"\nrow-sign flips leave the error metric unchanged: "
      f"NE(flipped) = {chanest.normalized_error(flipped, scene.G):.4f}")

# --- error vs SNR ----------------------------------------------------------

print("\nnormalized error vs received SNR (5 trials each):")
for snr in (5.0, 15.0, 25.0):
    errs = []
    for trial in range(5):
        sc = synthesize_scene(cfg, seed=100 + trial)
        p = pilot_power_for(cfg, PilotParams(snr_db=snr))
        sched = pilot.build_schedule(4, 1, cfg.n_elements, pilot_power=p)
        o = pilot.simulate_pilot_round(sc, sched, seed=trial)
        e = chanest.estimate_channel(o)
        errs.append(chanest.normalized_error(e.g_hat, sc.G))
    print(f"  SNR {snr:5.1f} dB: mean NE = {np.mean(errs):.4f}")
