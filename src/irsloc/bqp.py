"""Exact maximization of Hermitian quadratic and ratio forms over sign vectors.

Two layers:

* ``quad_binary_max`` solves max_{delta in {-1,+1}^N} delta^H R delta
  exactly over the 2^(N-1) sign vectors through split tables: with
  delta = [1, p, q], each value is a prefix form plus a suffix form plus
  one entry of a prefix-by-suffix matrix product.  Both forms are folded
  into that product as two extra columns and rows, so each block of about
  2^15 table entries is one matrix product into one reused buffer.  A
  table of more than one block (N >= 17) is visited prefix by prefix in
  decreasing order of an upper bound on the prefix's entries, and the
  visit stops once no prefix left can reach the band of the maximum.
  Every entry that can win lies in a visited prefix, so the candidates
  rescored are those of the full table and the result is the same;
* ``dinkelbach_solve`` maximizes a ratio of two such forms via the
  classical parametric sequence y <- num(delta)/den(delta), each inner
  problem solved exactly, so the y-sequence is nondecreasing.  Its stop is
  absolute below |y| = 1: at echo-scale ratios it ends after one inner
  solve, short of the global maximizer the sequence converges to.

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

from .util import is_hermitian, read_only

EXACT_CAP = 24  # largest N solved exactly, over 2^(N-1) sign vectors


class SizeCapError(ValueError):
    """Problem exceeds the exact-solve size cap."""


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


@lru_cache(maxsize=None)
def _split_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only prefix and suffix sign tables for length n: the rows of
    ``sign_vectors(n - n // 2)`` and the last n // 2 columns of
    ``sign_vectors(n // 2 + 1)``, at most 2^12 x 12 at ``EXACT_CAP``.
    The full ``sign_vectors(n)`` table (1.6 GB at n = 24) is never cached."""
    return (read_only(sign_vectors(n - n // 2)),
            read_only(sign_vectors(n // 2 + 1)[:, 1:]))


@lru_cache(maxsize=None)
def _suffix_rows(n: int) -> np.ndarray:
    """Read-only constant rows [suf^T; 1] of the table product's right
    factor for length n, row-major (at most 13 x 4096 at ``EXACT_CAP``)."""
    suf = _split_tables(n)[1]
    return read_only(np.vstack([suf.T, np.ones((1, len(suf)))]))


@lru_cache(maxsize=None)
def _block_buffer(rows: int, cols: int) -> np.ndarray:
    """The block buffer of the bound-ordered visit of one table size (about
    2^15 float64 entries, 256 KB).  Kept for the process, like the tables,
    so a visit does not map and fault in a fresh buffer above the
    allocator's mmap threshold on every call.  It is scratch space:
    nothing returned refers to it, and no two visits run at once."""
    return np.empty((rows, cols))


def _table_hits(s: np.ndarray) -> tuple[np.ndarray, int]:
    """Canonical indices of the table entries near the maximum, ascending,
    and the number of prefixes whose block of the table was computed.

    With delta = [a, q], a = [1, p], the table value is a^T S11 a +
    q^T S22 q + a^T (2 S12) q.  The row values are folded into one product,
    [a^T 2 S12, a^T S11 a, 1] @ [q; 1; q^T S22 q], so a block of prefixes
    costs one matrix product; blocks of a larger table are written into the
    buffer :func:`_block_buffer` keeps per table size.  An entry is near the
    maximum when it lies within the band, 1e-9 sum|s_ij|, of the table's
    maximum; the band is far above the rounding of the table and of
    ``quad_form_value`` at any scale.

    A table of one block is one product.  A larger table is visited prefix
    by prefix in decreasing order of the bound u(a) = a^T S11 a +
    max_q q^T S22 q + ||2 S12^T a||_1, which no entry of prefix a exceeds,
    in blocks that double from one row up to the block size, and the visit
    stops once the next bound is below ``top - 2 band`` (``top``: the
    largest entry so far).  An entry within the band of the maximum lies in
    a prefix whose bound reaches ``top - band`` up to rounding, and the
    second band covers that rounding, so every such entry is computed, the
    maximum among them; the hits are the same as those of the full table.
    """
    n = s.shape[0]
    k = n - n // 2
    pre, suf = _split_tables(n)
    n_suf = len(suf)
    lhs = np.empty((len(pre), n // 2 + 2))
    np.matmul(pre, 2.0 * s[:k, k:], out=lhs[:, :-2])
    lhs[:, -2] = np.einsum("bi,bi->b", pre @ s[:k, :k], pre)
    lhs[:, -1] = 1.0
    rhs = np.empty((n // 2 + 2, n_suf))
    rhs[:-1] = _suffix_rows(n)
    rhs[-1] = np.einsum("bi,bi->b", suf @ s[k:, k:], suf)
    band = 1e-9 * float(np.abs(s).sum())
    rows = max(1, 2 ** 15 // n_suf)
    if rows >= len(pre):
        flat = (lhs @ rhs).ravel()
        return np.flatnonzero(flat >= float(flat.max()) - band), len(pre)

    neg_bound = -(lhs[:, -2] + float(rhs[-1].max())
                  + np.abs(lhs[:, :-2]) @ np.ones(n // 2))
    order = np.argsort(neg_bound, kind="stable")
    # ascending, so the prefixes whose bound reaches a level are those
    # before its searchsorted position
    neg_bound = neg_bound[order]
    buf = _block_buffer(rows, n_suf)
    top, size, visited, hits, hit_values = -np.inf, 1, 0, [], []
    while True:
        reach = int(neg_bound.searchsorted(2.0 * band - top, side="right"))
        if visited >= reach:
            break
        chunk = order[visited:min(visited + size, reach)]
        block = buf[:len(chunk)]
        np.matmul(lhs[chunk], rhs, out=block)
        block_top = float(block.max())
        top = max(top, block_top)
        visited += len(chunk)
        size = min(2 * size, rows)
        if block_top < top - band:
            continue
        row, col = np.nonzero(block >= top - band)
        hits.append(chunk[row] * n_suf + col)
        hit_values.append(block[row, col])
    hits = np.concatenate(hits)
    return np.sort(hits[np.concatenate(hit_values) >= top - band]), visited


def _near_max_vectors(s: np.ndarray):
    """Sign vectors, in canonical order, whose table value lies within the
    band of the table's maximum (see :func:`_table_hits`)."""
    pre, suf = _split_tables(s.shape[0])
    n_suf = len(suf)
    for i in _table_hits(s)[0]:
        yield np.concatenate([pre[i // n_suf], suf[i % n_suf]])


def quad_binary_max(r: np.ndarray, initial: np.ndarray | None = None,
                    scale: float | None = None) -> BqpResult:
    """Global maximizer of delta^H R delta over {-1,+1}^N.

    Split-table enumeration, first coordinate pinned to +1 (sign symmetry).
    Starting from all-ones, then ``initial`` (warm start), each table
    entry near the maximum replaces the incumbent, in enumeration order,
    only if strictly better by :func:`quad_form_value`.  Sizes above
    ``EXACT_CAP`` raise :class:`SizeCapError`.
    ``r`` must be Hermitian relative to ``scale`` (default: max |r_ij|).
    """
    r = np.asarray(r)
    n = r.shape[0]
    if r.shape != (n, n) or not is_hermitian(r, scale=scale):
        raise ValueError("expected a Hermitian matrix")
    # the real part, contiguous, scores every candidate as quad_form_value(r)
    real = np.ascontiguousarray(np.real(r))
    s = (real + real.T) / 2.0

    candidates = [np.ones(n)]
    if initial is not None:
        d = np.asarray(initial, dtype=float)
        candidates.append(d if d[0] > 0 else -d)

    if n > EXACT_CAP:
        raise SizeCapError(f"N={n} exceeds exact-solve cap {EXACT_CAP}")

    best_delta, best_value = None, -np.inf
    for cand in chain(candidates, _near_max_vectors(s)):
        value = quad_form_value(real, cand)
        if value > best_value:
            best_value, best_delta = value, cand
    return BqpResult(best_delta, best_value)


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
            # PSD to 1e-9 of its largest entry: A + tau I must factor
            tau = 1e-9 * float(np.abs(mat).max())
            if tau == 0.0:
                continue
            try:
                np.linalg.cholesky(mat + tau * np.eye(len(mat)))
            except np.linalg.LinAlgError:
                raise ValueError(f"{name} must be positive semidefinite") from None

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
    iterations: int


def dinkelbach_solve(prob: RatioProblem, delta_init: np.ndarray | None = None,
                     tol: float = 1e-9, max_iters: int = 50) -> DinkelbachResult:
    """Parametric (Dinkelbach) iterations for the sign-vector ratio problem.

    Each step solves max delta^H (numerator - y denominator) delta exactly
    and resets y to the achieved ratio, so y is nondecreasing; a step that
    cannot raise y certifies delta a global ratio maximizer.  Stops once y
    rises by at most ``tol * max(1, |y|)``: an absolute test for |y| < 1,
    which echo-scale ratios (about 1e-13) pass after the first step.
    """
    delta = np.ones(prob.n) if delta_init is None else np.asarray(delta_init, float)
    y = prob.ratio(delta)
    trace = [y]
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        shifted = prob.numerator - y * prob.denominator
        # Hermitian up to its operands' rounding, which is all of it if they cancel
        scale = np.abs(prob.numerator).max() + abs(y) * np.abs(prob.denominator).max()
        res = quad_binary_max(shifted, initial=delta, scale=float(scale))
        delta = res.delta
        y_new = prob.ratio(delta)
        trace.append(y_new)
        if y_new - y <= tol * max(1.0, abs(y_new)):
            y = max(y, y_new)
            converged = True
            break
        y = y_new
    return DinkelbachResult(delta=delta, ratio=y, y_trace=np.asarray(trace),
                            converged=converged, iterations=iterations)


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
