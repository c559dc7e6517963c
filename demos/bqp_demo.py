"""Sign-vector ratio maximization: Dinkelbach + exact split-table enumeration.

The localization engine reduces each hypothesis fit to maximizing
(delta^H Xi1 delta) / (delta^H Xi2 delta) over sign vectors.  This demo
solves a random instance three independent ways -- Dinkelbach with the
split-table inner solver, exhaustive enumeration, and the ILP
linearization -- and shows they agree exactly.

Run:  python3 demos/bqp_demo.py
"""

import numpy as np

from irsloc import bqp
from irsloc.util import crandn

rng = np.random.default_rng(5)
n = 12

v = crandn(rng, n)
numerator = np.outer(v, v.conj())          # rank-one PSD
spread = crandn(rng, n, 2 * n)
denominator = spread @ spread.conj().T / n  # PD

prob = bqp.RatioProblem(numerator=numerator, denominator=denominator)
res = bqp.dinkelbach_solve(prob)
print(f"Dinkelbach: {res.iterations} iterations, converged={res.converged}")
print("y-trace (nondecreasing):")
for t, y in enumerate(res.y_trace):
    print(f"  t={t}: y = {y:.9f}")
print(f"delta* = {res.delta.astype(int)}")

# exhaustive oracle over all 2^(n-1) sign vectors (first entry pinned)
best = max(prob.ratio(delta) for delta in bqp.sign_vectors(n))
print(f"\nenumeration optimum: {best:.9f}")
print(f"agreement: {res.ratio == best} (exact float equality)")

# one inner parametric problem, cross-checked through the ILP path
shifted = numerator - res.ratio * denominator
inner = bqp.quad_binary_max(shifted)
ilp_delta, ilp_value, milp_obj = bqp.solve_ilp(bqp.linearize(shifted))
print(f"\ninner problem max delta^H (Xi1 - y Xi2) delta:")
print(f"  split tables:     {inner.value:.3e}")
print(f"  ILP (HiGHS):      {ilp_value:.3e}")
print(f"  exact agreement:  {inner.value == ilp_value}")
