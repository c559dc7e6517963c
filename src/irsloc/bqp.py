"""Exact maximization of Hermitian quadratic and ratio forms over sign vectors.

Two layers:

* ``quad_binary_max`` solves max_{delta in {-1,+1}^N} delta^H R delta
  exactly by enumerating all 2^(N-1) sign vectors through split tables:
  with delta = [1, p, q], each value is a prefix form plus a suffix form
  plus one entry of a prefix-by-suffix matrix product;
* ``dinkelbach_solve`` maximizes a ratio of two such forms via the
  classical parametric sequence y <- num(delta)/den(delta), each inner
  problem solved exactly, which makes the y-sequence nondecreasing and the
  limit a global maximizer.

Only the real parts of the couplings matter: for real sign vectors,
delta^H R delta = sum_i r_ii + sum_{i>j} 2 Re(r_ij) delta_i delta_j.  All
reported values are evaluated through one canonical quadratic-form routine
so that independently found optima (table enumeration, brute force, ILP
reconstruction) agree bit-for-bit; ties go to the first maximizer in the
order of :func:`sign_vectors`.

The equivalent integer linear program (products of binaries replaced by
McCormick-linked auxiliaries) is kept as a cross-check path via
``linearize`` / ``solve_ilp``; it is not the production solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .util import is_hermitian


class SizeCapError(ValueError):
    """Problem exceeds the configured exact-solve size cap."""


class DegenerateRatioError(ValueError):
    """Ratio denominator vanished on the feasible set."""


def quad_form_value(r: np.ndarray, delta: np.ndarray) -> float:
    """Canonical evaluation of delta^H R delta for a sign vector."""
    s = np.ascontiguousarray(np.real(r))
    d = np.asarray(delta, dtype=float)
    return float(d @ s @ d)


def sign_vectors(n: int) -> np.ndarray:
    """The 2^(n-1) sign vectors of length n with first entry +1, as rows, in
    canonical order: bit (n-2-i) of the row index set means delta_{i+1} = -1."""
    idx = np.arange(2 ** (n - 1))[:, None]
    bits = (idx >> np.arange(n - 2, -1, -1)) & 1
    return np.hstack([np.ones((idx.shape[0], 1)), 1.0 - 2.0 * bits])


def brute_force_max(r: np.ndarray, cap: int = 20):
    """Exhaustive oracle: the first argmax of an ``einsum`` over every row of
    :func:`sign_vectors`, independent of the table arithmetic."""
    n = r.shape[0]
    if n > cap:
        raise SizeCapError(f"refusing brute force for N={n} > {cap}")
    deltas = sign_vectors(n)
    values = np.einsum("bi,ij,bj->b", deltas, np.real(r), deltas)
    delta = deltas[int(np.argmax(values))]
    return delta, quad_form_value(r, delta)


@dataclass
class BqpResult:
    delta: np.ndarray
    value: float
    exact: bool


def _local_search(s: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Greedy single-flip ascent on delta^T S delta, first coordinate pinned."""
    n = s.shape[0]
    delta = delta.copy()
    min_gain = 1e-12 * np.abs(s).sum(axis=1)  # rounding at each row's scale
    improved = True
    while improved:
        improved = False
        field_vec = s @ delta
        for i in range(1, n):
            # flipping delta_i changes the value by -4 delta_i (field_i - s_ii delta_i)
            gain = -4.0 * delta[i] * (field_vec[i] - s[i, i] * delta[i])
            if gain > min_gain[i]:
                delta[i] = -delta[i]
                field_vec = s @ delta
                improved = True
    return delta


def _near_max_vectors(s: np.ndarray):
    """Sign vectors, in canonical order, whose table value is near the max.

    With delta = [a, q], a = [1, p], the table a^T S11 a + q^T S22 q +
    a^T (2 S12) q is built one block of prefixes at a time.  The band,
    1e-9 sum|s_ij|, is far above the rounding of the table and of
    ``quad_form_value`` at any scale.
    """
    n = s.shape[0]
    k = n - n // 2
    pre = sign_vectors(k)
    suf = sign_vectors(n // 2 + 1)[:, 1:]
    pre_val = np.einsum("bi,ij,bj->b", pre, s[:k, :k], pre)
    suf_val = np.einsum("bi,ij,bj->b", suf, s[k:, k:], suf)
    cross = pre @ (2.0 * s[:k, k:])
    band = 1e-9 * float(np.abs(s).sum())
    rows = max(1, 2 ** 15 // len(suf))  # about 2^15 entries per block
    top, hits, hit_values = -np.inf, [], []
    for start in range(0, len(pre), rows):
        block = (cross[start:start + rows] @ suf.T
                 + pre_val[start:start + rows, None] + suf_val).ravel()
        top = max(top, float(block.max()))
        keep = np.flatnonzero(block >= top - band)
        hits.append(keep + start * len(suf))
        hit_values.append(block[keep])
    for i in np.concatenate(hits)[np.concatenate(hit_values) >= top - band]:
        yield np.concatenate([pre[i // len(suf)], suf[i % len(suf)]])


def quad_binary_max(r: np.ndarray, initial: np.ndarray | None = None,
                    exact_cap: int = 24, allow_heuristic: bool = False,
                    scale: float | None = None) -> BqpResult:
    """Global maximizer of delta^H R delta over {-1,+1}^N.

    Split-table enumeration, first coordinate pinned to +1 (sign symmetry).
    Starting from all-ones, then ``initial`` (warm start), each table
    entry near the maximum replaces the incumbent, in enumeration order,
    only if strictly better by :func:`quad_form_value`.  Sizes above
    ``exact_cap`` raise unless ``allow_heuristic`` (flagged local search).
    ``r`` must be Hermitian relative to ``scale`` (default: max |r_ij|).
    """
    r = np.asarray(r)
    n = r.shape[0]
    if r.shape != (n, n) or not is_hermitian(r, scale=scale):
        raise ValueError("expected a Hermitian matrix")
    s = (np.real(r) + np.real(r).T) / 2.0

    candidates = [np.ones(n)]
    if initial is not None:
        d = np.asarray(initial, dtype=float)
        candidates.append(d if d[0] > 0 else -d)

    if n > exact_cap:
        if not allow_heuristic:
            raise SizeCapError(
                f"N={n} exceeds exact-solve cap {exact_cap}; pass "
                "allow_heuristic=True for a flagged local-search solution")
        best_d = max((_local_search(s, d) for d in candidates),
                     key=lambda d: quad_form_value(r, d))
        return BqpResult(best_d, quad_form_value(r, best_d), False)

    best_delta, best_value = None, -np.inf
    for cand in chain(candidates, _near_max_vectors(s)):
        value = quad_form_value(r, cand)
        if value > best_value:
            best_value, best_delta = value, cand
    return BqpResult(best_delta, best_value, True)


@dataclass
class RatioProblem:
    """max_{delta} (delta^H numerator delta) / (delta^H denominator delta).

    ``numerator`` must be Hermitian PSD and ``denominator`` Hermitian with
    a positive quadratic form on sign vectors (PSD suffices in practice;
    positivity is still verified on every iterate).
    """

    numerator: np.ndarray
    denominator: np.ndarray

    def __post_init__(self):
        for name, mat in (("numerator", self.numerator),
                          ("denominator", self.denominator)):
            mat = np.asarray(mat)
            if not is_hermitian(mat):
                raise ValueError(f"{name} must be Hermitian")
            scale = float(np.abs(mat).max())
            if np.linalg.eigvalsh(mat).min() < -1e-9 * scale:
                raise ValueError(f"{name} must be positive semidefinite")

    @property
    def n(self) -> int:
        return self.numerator.shape[0]

    def ratio(self, delta: np.ndarray) -> float:
        num = quad_form_value(self.numerator, delta)
        den = quad_form_value(self.denominator, delta)
        if den <= 0:
            raise DegenerateRatioError("denominator vanished on a sign vector")
        return num / den


@dataclass
class DinkelbachResult:
    delta: np.ndarray
    ratio: float
    y_trace: np.ndarray
    converged: bool
    exact: bool
    iterations: int


def dinkelbach_solve(prob: RatioProblem, delta_init: np.ndarray | None = None,
                     tol: float = 1e-9, max_iters: int = 50,
                     exact_cap: int = 24,
                     allow_heuristic: bool = False) -> DinkelbachResult:
    """Parametric (Dinkelbach) iterations for the sign-vector ratio problem.

    Each step solves max delta^H (numerator - y denominator) delta exactly
    and resets y to the achieved ratio; y is nondecreasing and the final
    delta is a global ratio maximizer whenever every inner solve is exact.
    Convergence: relative y increment below ``tol``.
    """
    delta = np.ones(prob.n) if delta_init is None else np.asarray(delta_init, float)
    y = prob.ratio(delta)
    trace = [y]
    converged = False
    exact = True
    iterations = 0
    for iterations in range(1, max_iters + 1):
        shifted = prob.numerator - y * prob.denominator
        # Hermitian up to its operands' rounding, which is all of it if they cancel
        scale = np.abs(prob.numerator).max() + abs(y) * np.abs(prob.denominator).max()
        res = quad_binary_max(shifted, initial=delta, exact_cap=exact_cap,
                              allow_heuristic=allow_heuristic,
                              scale=float(scale))
        exact = exact and res.exact
        delta = res.delta
        y_new = prob.ratio(delta)
        trace.append(y_new)
        if y_new - y <= tol * max(1.0, abs(y_new)):
            y = max(y, y_new)
            converged = True
            break
        y = y_new
    return DinkelbachResult(delta=delta, ratio=y, y_trace=np.asarray(trace),
                            converged=converged, exact=exact,
                            iterations=iterations)


@dataclass
class IlpInstance:
    """0-1 linear reformulation of the sign-vector quadratic program.

    Variables: nu_i (one per sign, delta_i = 2 nu_i - 1) followed by one
    product auxiliary per strict lower-triangular pair.  ``constant`` holds
    the terms dropped from the objective; adding it to the ILP optimum
    recovers the quadratic optimum.  ``couplings`` keeps the real part of
    the source matrix so solutions can be scored canonically.
    """

    n: int
    pair_i: np.ndarray = field(repr=False, default=None)
    pair_j: np.ndarray = field(repr=False, default=None)
    coeffs: np.ndarray = field(repr=False, default=None)
    constant: float = 0.0
    couplings: np.ndarray = field(repr=False, default=None)


def linearize(r: np.ndarray) -> IlpInstance:
    """Build the ILP data for max delta^H R delta (R Hermitian)."""
    r = np.asarray(r)
    n = r.shape[0]
    if not is_hermitian(r):
        raise ValueError("expected a Hermitian matrix")
    s = np.real(r)
    ii, jj = np.tril_indices(n, -1)
    coeffs = s[ii, jj]
    constant = float(np.trace(s) + 2.0 * coeffs.sum())
    return IlpInstance(n=n, pair_i=ii, pair_j=jj, coeffs=coeffs,
                       constant=constant, couplings=s)


def solve_ilp(inst: IlpInstance):
    """Solve the linearized program exactly (HiGHS branch and bound).

    Returns (delta, value, milp_objective): the recovered sign vector, its
    canonical quadratic-form value (directly comparable with
    ``quad_binary_max``), and the raw ILP optimum, which should match
    ``value - inst.constant`` up to solver rounding.
    """
    n = inst.n
    n_pairs = inst.pair_i.size
    n_var = n + n_pairs
    cost = np.zeros(n_var)
    # maximize 8 sum c_ij nu_ij - 4 sum c_ij (nu_i + nu_j)  ->  minimize -(...)
    for k in range(n_pairs):
        c = inst.coeffs[k]
        cost[n + k] -= 8.0 * c
        cost[inst.pair_i[k]] += 4.0 * c
        cost[inst.pair_j[k]] += 4.0 * c

    rows, lo, hi = [], [], []
    for k in range(n_pairs):
        i, j = inst.pair_i[k], inst.pair_j[k]
        row = np.zeros(n_var)
        row[n + k] = 1.0
        row[i] = -1.0
        row[j] = -1.0
        rows.append(row.copy())       # nu_ij - nu_i - nu_j >= -1
        lo.append(-1.0)
        hi.append(np.inf)
        row = np.zeros(n_var)
        row[n + k] = 1.0
        row[i] = -1.0
        rows.append(row)              # nu_ij <= nu_i
        lo.append(-np.inf)
        hi.append(0.0)
        row = np.zeros(n_var)
        row[n + k] = 1.0
        row[j] = -1.0
        rows.append(row)              # nu_ij <= nu_j
        lo.append(-np.inf)
        hi.append(0.0)

    constraints = [LinearConstraint(np.vstack(rows), lo, hi)] if rows else []
    res = milp(c=cost, constraints=constraints,
               integrality=np.ones(n_var),
               bounds=Bounds(np.zeros(n_var), np.ones(n_var)))
    if not res.success:
        raise RuntimeError(f"ILP solve failed: {res.message}")
    nu = np.round(res.x[:n])
    delta = 2.0 * nu - 1.0
    if delta[0] < 0:
        delta = -delta
    value = quad_form_value(inst.couplings, delta)
    milp_objective = float(-res.fun)
    return delta, value, milp_objective
