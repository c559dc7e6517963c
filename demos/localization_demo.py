"""End-to-end localization walkthrough for a single channel realization.

Stage 1 estimates the BS-IRS channel up to per-row signs; stage 2 runs
belief-update cycles, jointly re-optimizing the transmit waveform and IRS
phases between cycles, until the top posterior clears 95%.  The winning
hypothesis simultaneously resolves the channel sign ambiguity.

Run:  python3 demos/localization_demo.py
"""

import numpy as np

from irsloc import chanest, localize, pilot, waveopt
from irsloc.harness import PilotParams, pilot_power_for
from irsloc.scene import SceneConfig, synthesize_scene
from irsloc.util import random_unit_modulus

cfg = SceneConfig(m_antennas=4, n_x=5, n_y=2, sigma2_dbm=-120.0,
                  target_rcs_amplitude=2e-5)
scene = synthesize_scene(cfg, seed=4)
print(f"target in the ({cfg.target_theta_deg} deg, {cfg.target_phi_deg} deg) "
      f"direction from the IRS center")

# ---- stage 1: pilot-based channel estimation ------------------------------

power = pilot_power_for(cfg, PilotParams(snr_db=40.0))
schedule = pilot.build_schedule(4, 1, cfg.n_elements, pilot_power=power)
obs = pilot.simulate_pilot_round(scene, schedule, seed=11)
est = chanest.estimate_channel(obs)
print(f"stage 1: NE(G_hat) = {chanest.normalized_error(est.g_hat, scene.G):.4f} "
      f"(sign ambiguity unresolved)")

# ---- stage 2: Bayesian cycles with waveform/phase design -------------------

grid = localize.build_hypothesis_grid(cfg, n_grids=4)
true_hyp = grid.true_hypothesis(cfg.target_theta_deg)
print(f"hypothesis grid centers: {grid.centers_deg} deg, "
      f"true hypothesis H{true_hyp + 1}")

power_budget = 50.0
snapshots = 8
belief = localize.initial_belief(4, cfg.n_elements)
rng = np.random.default_rng(21)
theta = random_unit_modulus(rng, cfg.n_elements)
x = np.sqrt(power_budget / 4) * np.ones(4, dtype=complex)

for cycle in range(20):
    belief, diag = localize.run_cycle(scene, est.g_hat, grid, belief, x,
                                      theta, snapshots, seed=300 + cycle,
                                      power_budget=power_budget)
    marks = " ".join(f"{p:5.3f}" for p in belief.probs)
    print(f"cycle {belief.cycle:2d}: p = [{marks}]")
    decision = localize.check_termination(belief, est.g_hat, threshold=0.95)
    if decision.terminated:
        print(f"terminated: winner H{decision.winner + 1} "
              f"(p = {decision.probability:.3f}), "
              f"{'correct' if decision.winner == true_hyp else 'wrong'}")
        # echoes cannot distinguish (delta, gamma) from (-delta, -gamma), so
        # the resolved channel is complete up to one global sign
        resolved_ne = min(
            np.linalg.norm(s * decision.resolved_channel - scene.G)
            for s in (1.0, -1.0)) / np.linalg.norm(scene.G)
        print(f"resolved channel error (up to one global sign): "
              f"{resolved_ne:.4f}")
        break
    # design next cycle's waveform and IRS phases from the updated belief
    ctx = waveopt.build_context(est.g_hat, belief, grid, snapshots,
                                cfg.noise_power)
    design = waveopt.optimize(ctx, x, theta, power_budget)
    x, theta = design.x, design.theta
    print(f"          next waveform designed: weighted distance "
          f"{design.distance:.2f}, violation {design.violation:.1e}")
else:
    print("no termination within 20 cycles")
