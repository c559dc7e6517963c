"""Exact maximization of Hermitian quadratic and ratio forms over sign vectors.

Two layers:

* ``quad_binary_max`` solves max_{delta in {-1,+1}^N} delta^H R delta
  exactly by enumerating all 2^(N-1) sign vectors through split tables:
  with delta = [1, p, q], each value is a prefix form plus a suffix form
  plus one entry of a prefix-by-suffix matrix product.  Both forms are
  folded into that product as two extra columns and rows, so each block
  of about 2^15 table entries is one matrix product into one reused
  buffer;
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
from functools import lru_cache
from itertools import chain

import numpy as np

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


@lru_cache(maxsize=None)
def _split_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only prefix and suffix sign tables for length n: the rows of
    ``sign_vectors(n - n // 2)`` and the last n // 2 columns of
    ``sign_vectors(n // 2 + 1)``, at most 2^12 x 12 at the default cap.
    The full ``sign_vectors(n)`` table (1.6 GB at n = 24) is never cached."""
    pre = sign_vectors(n - n // 2)
    suf = sign_vectors(n // 2 + 1)[:, 1:]
    pre.flags.writeable = False
    suf.flags.writeable = False
    return pre, suf


def _near_max_vectors(s: np.ndarray):
    """Sign vectors, in canonical order, whose table value is near the max.

    With delta = [a, q], a = [1, p], the table value is a^T S11 a +
    q^T S22 q + a^T (2 S12) q.  The row values are folded into one product,
    [a^T 2 S12, a^T S11 a, 1] @ [q; 1; q^T S22 q], so a block of prefixes
    costs one matrix product written into one reused buffer of about 2^15
    entries; the band scan of a block whose maximum lies below the band
    of the running maximum is skipped.  The band, 1e-9 sum|s_ij|, is far
    above the rounding of the table and of ``quad_form_value`` at any
    scale.
    """
    n = s.shape[0]
    k = n - n // 2
    pre, suf = _split_tables(n)
    n_suf = len(suf)
    lhs = np.empty((len(pre), n // 2 + 2))
    np.matmul(pre, 2.0 * s[:k, k:], out=lhs[:, :-2])
    lhs[:, -2] = (pre @ s[:k, :k] * pre).sum(axis=1)
    lhs[:, -1] = 1.0
    # filled in place to stay row-major: stacked from ``suf.T`` it would be
    # column-major, and every block product slower
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
    for i in np.concatenate(hits)[np.concatenate(hit_values) >= top - band]:
        yield np.concatenate([pre[i // n_suf], suf[i % n_suf]])


def quad_binary_max(r: np.ndarray, initial: np.ndarray | None = None,
                    exact_cap: int = 24,
                    scale: float | None = None) -> BqpResult:
    """Global maximizer of delta^H R delta over {-1,+1}^N.

    Split-table enumeration, first coordinate pinned to +1 (sign symmetry).
    Starting from all-ones, then ``initial`` (warm start), each table
    entry near the maximum replaces the incumbent, in enumeration order,
    only if strictly better by :func:`quad_form_value`.  Sizes above
    ``exact_cap`` raise :class:`SizeCapError`.
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
        raise SizeCapError(f"N={n} exceeds exact-solve cap {exact_cap}")

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
                     exact_cap: int = 24) -> DinkelbachResult:
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
    # imported here only: scipy.optimize costs every process that imports
    # irsloc about 0.4 s of start-up and 40 MB of resident memory
    from scipy.optimize import Bounds, LinearConstraint, milp

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
