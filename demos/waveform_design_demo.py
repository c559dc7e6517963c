"""Waveform / IRS-phase design in isolation.

Builds a synthetic hypothesis context (four candidate target grids with
their own channel signs and target-coefficient estimates), then maximizes
the weighted sum of pairwise hypothesis distances with the paper's
penalty method (the reference).  Shows the lifted matrix Q approaching
rank one as the penalty tightens, the distance gained over the starting
point, and the distance the campaigns' theta-domain ascent reaches from
the same start.

Run:  python3 demos/waveform_design_demo.py
"""

import numpy as np

from irsloc import waveopt
from irsloc.util import crandn, random_unit_modulus

rng = np.random.default_rng(3)
n_elements, n_bs, n_hyp = 10, 4, 4

probs = np.array([0.4, 0.3, 0.2, 0.1])
weights = waveopt.pair_weights(probs)

ctx = waveopt.DistanceContext(
    channels=[crandn(rng, n_elements, n_bs) for _ in range(n_hyp)],
    steering=np.column_stack([random_unit_modulus(rng, n_elements)
                              for _ in range(n_hyp)]),
    alphas=crandn(rng, n_hyp),
    weights=weights, snapshots=8, noise_power=1.0)

theta0 = random_unit_modulus(rng, n_elements)
x0 = crandn(rng, n_bs)
q0 = np.outer(theta0, theta0.conj())
print(f"initial weighted distance: "
      f"{waveopt.weighted_distance(ctx, q0, np.sqrt(50) * x0 / np.linalg.norm(x0)):.3f}")

design = waveopt.penalty_optimize(ctx, x0, theta0, power_budget=50.0,
                                  accuracy=1e-7)
print("outer iter |     rho     |  violation  |  objective  | distance")
for outer, rho, xi, obj, dist in design.trace:
    print(f"   {outer:3d}    | {rho:11.4e} | {xi:11.4e} | {obj:11.4f} | {dist:8.3f}")

print(f"\nconverged: {design.converged} "
      f"(violation {design.violation:.2e} < 1e-7)")
print(f"final weighted distance: {design.distance:.3f}")
print(f"waveform power: {np.linalg.norm(design.x) ** 2:.3f} (budget 50)")
lift = np.real(design.theta.conj() @ design.q @ design.theta)
print(f"lifting closed: Re(theta^H Q theta) = {lift:.3f} vs N^2 = {n_elements ** 2}")

# every pairwise distance evaluated at the returned design
print("\npairwise distances at the design point:")
for i in range(n_hyp):
    for j in range(i + 1, n_hyp):
        d = waveopt.pair_distance(ctx, design.q, design.x, i, j)
        print(f"  H{i + 1} vs H{j + 1}: {d:10.3f} (weight {weights[i, j]:.3f})")

ascent = waveopt.optimize(ctx, x0, theta0, power_budget=50.0, accuracy=1e-7)
print(f"\ntheta-domain ascent from the same start: distance "
      f"{ascent.distance:.3f} in {ascent.outer_iterations} rounds")
