"""BS-IRS channel recovery from pairwise-product observations.

The pilot stage only ever observes products g_{n,a} g_{n,b} of entries in
the same channel row, so each row of G is identifiable up to a global +-1
factor.  This module recovers that sign-ambiguous estimate in three steps:

1. ``pairwise_products`` averages all LS estimates of every product;
2. ``initialize`` turns the averaged products into a first channel guess
   through square-root / geometric-mean identities row by row;
3. ``refine`` runs cyclic coordinate descent on the weighted least-squares
   ML objective, updating one complex entry at a time in closed form.

The weight is the Gram matrix of the shared design matrix.  Every row block
of that matrix is (dtheta_l kron x_l) kron I_{M-M_t}, and with full patterns
(n_diffs a multiple of M_t) each IRS pattern is held while the pilot cycles
through an orthogonal set, so Phi^H Phi = Kp kron I_{M_t} kron I_{M-M_t}
with Kp = ``PilotSchedule.pattern_gram``, the N x N IRS pattern Gram
matrix.  The objective is then a sum over support triples tau = (p, t, r)
of e_tau^H Kp e_tau, where the N-vector e_tau = omega_tau - pi_q holds the
residuals of one product column and pi_q[n] = g[n, i] g[n, j] depends on
the triple only through its antenna pair q = {i, j}.  Each pair has the same number w of triples
(2 C(M-2, M_t-1)), and expanding the square around their mean hbar_q gives

    J(g) = J0 + w sum_q (hbar_q - pi_q)^H Kp (hbar_q - pi_q),

exactly, with J0 the objective at pi = hbar.  So the refinement works on the
N x M(M-1)/2 pair residuals R[n, q] = hbar[n, i, j] - g[n, i] g[n, j]
alone, and its iterates are those of the full-residual sweep up to rounding.
An update of g[n, a] changes only row n of R; per IRS row one product
G = Kp[n] @ R gives the pair gradient, and each entry step reads and updates
it in O(M) plain-complex work.  The sweep holds g, its conjugates and its
|g|^2 as Python lists and updates only the gradients the row still reads.
For a partly used last pattern the schedule's ``pattern_gram`` raises
ValueError, and ``refine`` with it.

``initialize`` computes every row whose anchor tuples are all usable in
one pass of array operations, and the remaining rows one by one.  Both
paths, and the list sweep, round exactly as the scalar per-row and
per-entry code they replace, so campaign output is byte for byte the
same.  numpy's complex *array* product may fuse multiply-adds and differ
from the scalar product in the last bit, so the vectorized initializer
forms its products from real parts (``_scalar_mul``).

The per-row sign vector is *not* resolved here; downstream localization
treats it as a binary nuisance parameter.  ``normalized_error`` scores an
estimate against the truth minimizing over all sign vectors (rows decouple,
so the 2^N minimization collapses to N independent choices).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .pilot import ObservationSet, ls_estimates


class CoverageError(ValueError):
    """A pairwise product required by the estimator was never observed."""


class InitializationError(RuntimeError):
    """All square-root tuples for some channel row were degenerate."""


def pairwise_products(obs: ObservationSet) -> np.ndarray:
    """Average the LS estimates of every product g_{n,a} g_{n,b}.

    Returns an (N, M, M) array, symmetric in the last two axes, with the
    (unobservable) diagonal left as NaN.
    """
    return _average_products(obs.schedule, ls_estimates(obs))[0]


def _average_products(sched, omega: np.ndarray):
    """``pairwise_products`` of the LS estimates ``omega`` (P x dim), and
    the (M, M) count of estimates averaged into each product."""
    n, m, m_t = sched.n_elements, sched.m_antennas, sched.m_t
    n_rx = sched.n_rx

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
    if np.any(counts[off_diag] == 0):
        raise CoverageError("schedule does not cover every antenna pair")
    h_bar = np.full((n, m, m), np.nan, dtype=complex)
    h_bar[:, off_diag] = sums[:, off_diag] / counts[off_diag]
    return h_bar, counts


def _row_anchor_estimate(h_row: np.ndarray, anchor: int, floor: float):
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


def initialize(h_bar: np.ndarray, anchor: int = 0) -> np.ndarray:
    """Initial channel estimate from averaged products (rows known up to sign).

    For the anchor column, each tuple (p, q) of other columns gives
    sqrt(h[l,p] h[l,q] / h[p,q]) on the principal branch; the row estimate
    is the geometric mean of all tuples after aligning their (arbitrary)
    signs to the first one.  Remaining entries follow by dividing the
    averaged products by the anchor estimate.  Requires M >= 3.

    Rows whose every anchor tuple is usable are computed together, with the
    same floating-point operations as the per-row path; a row with a
    degenerate tuple takes ``_initialize_row``, the anchor fallback included.
    """
    n, m = h_bar.shape[0], h_bar.shape[1]
    if m < 3:
        raise ValueError("initialization needs at least 3 BS antennas")
    if not 0 <= anchor < m:
        raise ValueError(f"anchor column {anchor} out of range")

    others = [k for k in range(m) if k != anchor]
    ps, qs = (list(ix) for ix in zip(*itertools.combinations(others, 2)))
    # nanmax of each row's off-diagonal moduli, without the all-NaN warning
    peak = np.fmax.reduce(np.abs(h_bar[:, ~np.eye(m, dtype=bool)]), axis=1)
    floor = np.where(peak > 0, 1e-12 * peak, 0.0)
    with np.errstate(all="ignore"):
        den = h_bar[:, ps, qs]
        vals = np.sqrt(_scalar_mul(h_bar[:, anchor, ps], h_bar[:, anchor, qs])
                       / den)
        # np.hypot, not np.abs: it rounds as the per-row abs(den) does
        usable = (np.isfinite(den) & (np.hypot(den.real, den.imag) > floor[:, None])
                  & np.isfinite(vals) & (vals != 0)).all(axis=1)

    g0 = np.empty((n, m), dtype=complex)
    vals = vals[usable]
    ref = vals[:, :1]
    aligned = np.where((vals / ref).real >= 0, vals, -vals)
    g_col = _scalar_mul(ref[:, 0], np.exp(np.log(aligned / ref).mean(axis=1)))
    g0[usable, anchor] = g_col
    g0[np.ix_(usable, others)] = h_bar[usable, anchor][:, others] / g_col[:, None]
    for row in np.flatnonzero(~usable):
        g0[row] = _initialize_row(h_bar[row], anchor, row)
    return g0


def _scalar_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element-wise x * y of complex arrays, rounded as a scalar product.

    numpy's complex array multiply may fuse multiply-adds and then differ
    from the scalar product in the last bit; the real-part form does not.
    """
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _initialize_row(h_row: np.ndarray, anchor: int, row: int) -> np.ndarray:
    """``initialize`` of one row, falling back to another anchor column."""
    m = h_row.shape[0]
    off = np.abs(h_row[~np.eye(m, dtype=bool)])
    floor = 1e-12 * float(np.nanmax(off)) if np.nanmax(off) > 0 else 0.0

    values = _row_anchor_estimate(h_row, anchor, floor)
    col = anchor
    if not values:
        # Default anchor degenerate: pick the column with the most
        # usable tuples, ties broken by the strongest denominator.
        best_key = (-1, -1.0)
        for cand in range(m):
            cand_vals = _row_anchor_estimate(h_row, cand, floor)
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
    g_row = np.empty(m, dtype=complex)
    g_row[col] = g_col
    for a in range(m):
        if a != col:
            g_row[a] = h_row[col, a] / g_col
    return g_row


@dataclass
class ChannelEstimate:
    """Sign-ambiguous channel estimate plus refinement diagnostics.

    The true channel is approximated by diag(delta) @ g_hat for some
    undetermined sign vector delta in {-1, +1}^N; this module never claims
    to resolve delta.
    """

    g_hat: np.ndarray
    iterations_run: int
    final_objective: float
    converged: bool
    objective_trace: np.ndarray = field(repr=False, default=None)
    update_objectives: np.ndarray = field(repr=False, default=None)
    ne_trace: np.ndarray = field(repr=False, default=None)


class _MLObjective:
    """Weighted LS objective over all subframes, swept row by row on pairs.

    The weight is the common Gram matrix Phi^H Phi (proportional to the
    inverse LS covariance); with sigma2 > 0 the reported objective carries
    the physical 1/(2 sigma^2) scale, otherwise the unnormalized value
    (the minimizer is scale invariant).  With Phi^H Phi = Kp kron I (see
    the module docstring) the objective is J0 + w sum_q R_q^H Kp R_q over
    the pair residuals R[n, q] = hbar[n, i, j] - g[n, i] g[n, j], one
    column per antenna pair q = (i < j), where w is the physical scale
    times the number of support triples of a pair and J0 the objective at
    products = hbar.
    """

    def __init__(self, obs: ObservationSet, g: np.ndarray):
        sched = obs.schedule
        self.n, self.m = sched.n_elements, sched.m_antennas
        m_t, n_rx = sched.m_t, sched.n_rx
        self.kp = sched.pattern_gram
        self.g = g

        self.pairs = [(i, j) for i in range(self.m) for j in range(i + 1, self.m)]
        pair_of = {pair: q for q, pair in enumerate(self.pairs)}
        # per column a: each cofactor column c with the pair index of
        # {a, c}, and the part of that list an entry step still reads after
        # its update, the pairs with c > a
        self.steps = []
        for a in range(self.m):
            support = [(c, pair_of[min(a, c), max(a, c)])
                       for c in range(self.m) if c != a]
            self.steps.append((a, support, [(c, q) for c, q in support if c > a]))
        pi, pj = (np.array(ix) for ix in zip(*self.pairs))

        omega = ls_estimates(obs)
        h_bar, counts = _average_products(sched, omega)
        counts = counts[pi, pj]
        if np.any(counts != counts[0]):
            raise ValueError("refinement needs every antenna pair observed "
                             f"equally often, got counts {counts.tolist()}")
        self.h_rows = h_bar[:, pi, pj].tolist()
        a_cols = np.array([a_set for a_set, _ in sched.subframes])
        b_cols = np.array([b_set for _, b_set in sched.subframes])
        # the residuals at products = hbar, one column per support triple
        e0 = (omega.reshape(len(a_cols), self.n, m_t, n_rx).transpose(1, 0, 2, 3)
              - h_bar[:, a_cols[:, :, None], b_cols[:, None, :]]).reshape(self.n, -1)
        scale = 1.0 / (2.0 * obs.sigma2) if obs.sigma2 > 0 else 1.0
        self.j0 = scale * float(np.vdot(e0, self.kp @ e0).real)
        self.weight = scale * int(counts[0])

        self.residuals = np.empty((self.n, len(self.pairs)), dtype=complex)
        for row in range(self.n):
            self.refresh_row(row)

    def refresh_row(self, row: int):
        """Pair residuals of channel row ``row`` recomputed from g."""
        self._set_residuals(row, self.g[row].tolist())

    def _set_residuals(self, row: int, g: list):
        self.residuals[row] = [h - g[i] * g[j]
                               for h, (i, j) in zip(self.h_rows[row], self.pairs)]

    def value(self) -> float:
        r = self.residuals
        return self.j0 + self.weight * float(np.vdot(r, self.kp @ r).real)

    def sweep(self, on_update=None):
        """Exact minimization over every entry of g, in row-major order.

        g is held as Python lists for the sweep and written back at its
        end.  Per row, one product gives the pair gradient G = Kp[row] @ R
        at the row's start; with the row's conjugates and |g|^2, also held
        as lists, each entry step then reads and updates it in O(M)
        plain-complex work.  After entry a's step only the pairs {a, c}
        with c > a are read again in the row, so only their gradients are
        updated.  The row ends with its residuals formed from the list.
        An entry with zero curvature is skipped; after every other step
        ``on_update(row, col)`` is called with g current (the entry is
        written through when a callback is given) and the row's residuals
        not yet refreshed.
        """
        knn_all = self.kp.diagonal().real.tolist()
        rows = self.g.tolist()
        for n, row in enumerate(rows):
            grad = (self.kp[n] @ self.residuals).tolist()
            knn = knn_all[n]
            conj = [x.conjugate() for x in row]
            abs2 = [x.real * x.real + x.imag * x.imag for x in row]
            for a, support, ahead in self.steps:
                num = 0j
                nrm = 0.0
                for c, q in support:
                    nrm += abs2[c]
                    num += conj[c] * grad[q]
                den = knn * nrm
                if den <= 0.0:
                    continue
                step = num / den
                x = row[a] + step
                row[a] = x
                conj[a] = x.conjugate()
                abs2[a] = x.real * x.real + x.imag * x.imag
                k_step = knn * step
                for c, q in ahead:
                    grad[q] -= k_step * row[c]
                if on_update is not None:
                    self.g[n, a] = x
                    on_update(n, a)
            self._set_residuals(n, row)
        self.g[:] = rows


def refine(obs: ObservationSet, g_init: np.ndarray, max_sweeps: int = 300,
           tol: float = 1e-8, record_update_objectives: bool = False,
           g_true: np.ndarray | None = None) -> ChannelEstimate:
    """Cyclic coordinate-descent refinement of the channel estimate.

    Sweeps every entry in row-major order; each single-entry update is the
    exact minimizer of the ML objective over that entry, so the objective
    is nonincreasing update by update.  Stops when the relative objective
    decrease over a full sweep drops below ``tol`` or after ``max_sweeps``.
    With ``record_update_objectives``, ``update_objectives`` holds the
    objective after every update (entries with zero curvature are skipped).
    """
    state = _MLObjective(obs, np.array(g_init, dtype=complex))
    j_prev = state.value()
    trace = [j_prev]
    per_update = [] if record_update_objectives else None
    ne_trace = [] if g_true is not None else None
    converged = False
    sweeps = 0

    def record(row, col):
        state.refresh_row(row)
        per_update.append(state.value())

    for sweeps in range(1, max_sweeps + 1):
        state.sweep(None if per_update is None else record)
        j_now = state.value()
        trace.append(j_now)
        if ne_trace is not None:
            ne_trace.append(normalized_error(state.g, g_true))
        if j_prev - j_now < tol * max(j_prev, 1e-300):
            converged = True
            j_prev = j_now
            break
        j_prev = j_now

    return ChannelEstimate(
        g_hat=state.g, iterations_run=sweeps, final_objective=j_prev,
        converged=converged, objective_trace=np.asarray(trace),
        update_objectives=None if per_update is None else np.asarray(per_update),
        ne_trace=None if ne_trace is None else np.asarray(ne_trace))


def estimate_channel(obs: ObservationSet,
                     g_true: np.ndarray | None = None) -> ChannelEstimate:
    """Full estimation pipeline: products -> initialization -> refinement,
    at the defaults of ``initialize`` and ``refine``; with ``g_true`` the
    estimate records its per-sweep normalized error."""
    return refine(obs, initialize(pairwise_products(obs)), g_true=g_true)


def normalized_error(g_hat: np.ndarray, g_true: np.ndarray) -> float:
    """Sign-invariant relative channel error.

    min over sign vectors delta of ||diag(delta) g_hat - g_true||_F /
    ||g_true||_F; rows decouple, so each row picks its sign independently.
    """
    g_hat = np.asarray(g_hat)
    g_true = np.asarray(g_true)
    if g_hat.shape != g_true.shape:
        raise ValueError("shape mismatch")
    norm = np.linalg.norm(g_true)
    if norm == 0:
        raise ValueError("reference channel has zero norm")
    corr = np.real(np.sum(g_true.conj() * g_hat, axis=1))
    delta = np.where(corr >= 0, 1.0, -1.0)
    return float(np.linalg.norm(delta[:, None] * g_hat - g_true) / norm)
