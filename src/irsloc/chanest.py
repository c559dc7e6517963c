"""BS-IRS channel recovery from pairwise-product observations.

The pilot stage only ever observes products g_{n,a} g_{n,b} of entries in
the same channel row, so each row of G is identifiable up to a global +-1
factor.  This module recovers that sign-ambiguous estimate in three steps:

1. ``pairwise_products`` averages all LS estimates of every product;
2. ``initialize`` turns the averaged products into a first channel guess
   through square-root / geometric-mean identities row by row;
3. ``refine`` runs cyclic coordinate descent on the weighted least-squares
   ML objective, updating one complex entry at a time in closed form.  The
   weight is the Gram matrix of the shared design matrix, and every row
   block of that matrix is (dtheta_l kron x_l) kron I_{M-M_t}, so
   Phi^H Phi = K kron I_{M-M_t} with K the Gram matrix of the N M_t-dim
   pattern rows.  An update of g[n, a] changes only the residuals of IRS
   row n, which couple to the rest through the rows of K of IRS element n,
   so the sweep runs row by row: one product gives the row's gradient, and
   each entry step reads and updates it through the M_t x M_t in-row
   block of K.

The per-row sign vector is *not* resolved here; downstream localization
treats it as a binary nuisance parameter.  ``normalized_error`` scores an
estimate against the truth minimizing over all sign vectors (rows decouple,
so the 2^N minimization collapses to N independent choices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul

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
    sched = obs.schedule
    n, m, m_t = sched.n_elements, sched.m_antennas, sched.m_t
    n_rx = sched.n_rx
    omega = ls_estimates(obs)

    sums = np.zeros((n, m, m), dtype=complex)
    counts = np.zeros((n, m, m), dtype=int)
    for p, (a_set, b_set) in enumerate(sched.subframes):
        block = omega[p].reshape(n, m_t, n_rx)
        ai = np.asarray(a_set)[:, None]
        bj = np.asarray(b_set)[None, :]
        np.add.at(sums, (slice(None), ai, bj), block)
        np.add.at(counts, (slice(None), ai, bj), 1)

    sums = sums + np.swapaxes(sums, 1, 2)
    counts = counts + np.swapaxes(counts, 1, 2)
    off_diag = ~np.eye(m, dtype=bool)
    if np.any(counts[:, off_diag] == 0):
        raise CoverageError("schedule does not cover every antenna pair")
    h_bar = np.full((n, m, m), np.nan, dtype=complex)
    h_bar[:, off_diag] = sums[:, off_diag] / counts[:, off_diag]
    return h_bar


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
    """
    n, m = h_bar.shape[0], h_bar.shape[1]
    if m < 3:
        raise ValueError("initialization needs at least 3 BS antennas")
    if not 0 <= anchor < m:
        raise ValueError(f"anchor column {anchor} out of range")

    g0 = np.empty((n, m), dtype=complex)
    for row in range(n):
        h_row = h_bar[row]
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
        g0[row, col] = g_col
        for a in range(m):
            if a != col:
                g0[row, a] = h_row[col, a] / g_col
    return g0


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
    sign_ambiguous: bool = True
    objective_trace: np.ndarray = field(repr=False, default=None)
    update_objectives: np.ndarray = field(repr=False, default=None)
    ne_trace: np.ndarray = field(repr=False, default=None)


def _pattern_gram(gram: np.ndarray, n_patterns: int, n_rx: int) -> np.ndarray:
    """The pattern Gram matrix K of a weight ``gram`` = K kron I_{n_rx}.

    K is the r = 0 slice of ``gram`` viewed as (n_patterns, n_rx,
    n_patterns, n_rx); raises ValueError when ``gram`` is not K kron I to
    1e-12 relative.
    """
    k = np.ascontiguousarray(
        gram.reshape(n_patterns, n_rx, n_patterns, n_rx)[:, 0, :, 0])
    misfit = np.abs(gram - np.kron(k, np.eye(n_rx))).max()
    if not misfit <= 1e-12 * np.abs(gram).max():
        raise ValueError("weight is not a pattern Gram matrix kron I_{M-M_t} "
                         f"(misfit {misfit:.3g})")
    return k


def _support_tables(subframes, m: int, m_t: int, n_rx: int) -> list:
    """Per channel column a, the index lists of an entry step on g[n, a].

    g[n, a] enters the residual entries (p, n, t, r) of row n through its
    K support triples (p, t, r), each with the cofactor column c whose
    entry multiplies it; the gradient index of (p, t, r) is
    (p M_t + t) n_rx + r.  Triples sharing (p, r) form a group and couple
    through the in-row pattern block Knn.  Where the transmit set of
    subframe p holds a, at position t, every (p, t, r) is a group of one;
    where a is receive antenna r, the M_t triples (p, t, r) are one group.
    The groups fall into sets: per t the one-triple groups at t, and the
    receive groups.  Within a set, each member t has one run of triples,
    one per group.

    A column's tuple holds:

    * ``cols``, ``at``: the K cofactor columns and gradient indices, run
      by run;
    * ``chunks``: per set and per t_u, the terms (t_u M_t + t, start, stop)
      of the entries d[u] = sum_t Knn[t_u, t] cof(run t) of the set's
      groups, the Knn-coupled cofactors that give the curvature and the
      gradient update;
    * ``u_grad``: the gradient index of each entry of d, chunk by chunk;
    * ``u_at``: the position in d of each triple's own (group, t).
    """
    tables = []
    for a in range(m):
        # each set: the base gradient index (p M_t n_rx + r) of its groups,
        # and per member t the cofactor column of each group
        tx_sets = [([], []) for _ in range(m_t)]
        rx_bases, rx_cols = [], [[] for _ in range(m_t)]
        for p, (a_set, b_set) in enumerate(subframes):
            base = p * m_t * n_rx
            if a in a_set:
                bases, cofs = tx_sets[a_set.index(a)]
                bases.extend(base + r for r in range(n_rx))
                cofs.extend(b_set)
            else:
                rx_bases.append(base + b_set.index(a))
                for t, c in enumerate(a_set):
                    rx_cols[t].append(c)
        sets = [(bases, {t: cofs}) for t, (bases, cofs) in enumerate(tx_sets) if bases]
        sets.append((rx_bases, dict(enumerate(rx_cols))))

        cols, at, chunks, u_grad, u_at = [], [], [], [], []
        for bases, members in sets:
            spans = {}
            for t, run in members.items():
                spans[t] = (len(cols), len(cols) + len(run))
                cols.extend(run)
                at.extend(base + t * n_rx for base in bases)
            for t_u in range(m_t):
                if t_u in members:
                    u_at.extend(range(len(u_grad), len(u_grad) + len(bases)))
                chunks.append([(t_u * m_t + t, lo, hi) for t, (lo, hi) in spans.items()])
                u_grad.extend(base + t_u * n_rx for base in bases)
        tables.append((cols, at, chunks, u_grad, u_at))
    return tables


class _MLObjective:
    """Weighted LS objective over all subframes, swept row by row.

    The weight is the common Gram matrix Phi^H Phi (proportional to the
    inverse LS covariance); with sigma2 > 0 the reported objective carries
    the physical 1/(2 sigma^2) scale, otherwise the unnormalized value
    (the minimizer is scale invariant).  Every row block of Phi is
    (dtheta_l kron x_l) kron I_{M-M_t}, so Phi^H Phi = K kron I_{M-M_t}
    with K the (N M_t) x (N M_t) Gram matrix of the pattern rows, and the
    objective is sum_p sum_r e_p[:, r]^H K e_p[:, r] over the residuals
    viewed as (P, N M_t, M - M_t).
    """

    def __init__(self, obs: ObservationSet, g: np.ndarray):
        sched = obs.schedule
        self.n, self.m = sched.n_elements, sched.m_antennas
        self.m_t, self.n_rx = sched.m_t, sched.n_rx
        self.k = _pattern_gram(obs.gram, self.n * self.m_t, self.n_rx)
        self.scale = 1.0 / (2.0 * obs.sigma2) if obs.sigma2 > 0 else 1.0
        self.subframes = sched.subframes
        self.g = g
        n_sub = len(self.subframes)
        self.a_cols = np.array([a_set for a_set, _ in self.subframes])
        self.b_cols = np.array([b_set for _, b_set in self.subframes])
        self.omega_hat = ls_estimates(obs).reshape(n_sub, self.n, self.m_t, self.n_rx)
        self.tables = _support_tables(self.subframes, self.m, self.m_t, self.n_rx)

        self.residuals = np.empty((n_sub, self.n * self.m_t * self.n_rx), dtype=complex)
        for row in range(self.n):
            self.refresh_row(row)

    def refresh_row(self, row: int):
        """Residuals of channel row ``row`` recomputed from g."""
        g = self.g[row]
        prod = g[self.a_cols][:, :, None] * g[self.b_cols][:, None, :]
        self.residuals.reshape(self.omega_hat.shape)[:, row] = \
            self.omega_hat[:, row] - prod

    def value(self) -> float:
        e = self.residuals.reshape(len(self.subframes), self.n * self.m_t, self.n_rx)
        return self.scale * float(np.vdot(e, self.k @ e).real)

    def sweep(self, on_update=None):
        """Exact minimization over every entry of g, in row-major order.

        Per row, one product gives the gradient K[row block] @ e at the
        row's start; each entry step then reads and updates it on plain
        Python complex numbers.  An entry with zero curvature is skipped;
        after every other step, ``on_update(row, col, num, den)`` is called
        with g current and the row's residuals not yet refreshed.  The row
        ends with its residuals recomputed from g.
        """
        m_t = self.m_t
        e = self.residuals.reshape(len(self.subframes), self.n * m_t, self.n_rx)
        for n in range(self.n):
            block = slice(n * m_t, (n + 1) * m_t)
            grad = (self.k[block] @ e).ravel().tolist()
            knn = self.k[block, block].ravel().tolist()
            row = self.g[n].tolist()
            for a, (cols, at, chunks, u_grad, u_at) in enumerate(self.tables):
                cof = list(map(row.__getitem__, cols))
                cof_conj = list(map(complex.conjugate, cof))
                num = sum(map(mul, cof_conj, map(grad.__getitem__, at)))
                d = []
                for terms in chunks:
                    part = None
                    for i, lo, hi in terms:
                        scaled = map(mul, repeat(knn[i]), cof[lo:hi])
                        part = scaled if part is None else map(add, part, scaled)
                    d.extend(part)
                den = sum(map(mul, cof_conj, map(d.__getitem__, u_at))).real
                if den <= 0.0:
                    continue
                step = num / den
                row[a] += step
                self.g[n, a] = row[a]
                for idx, d_u in zip(u_grad, d):
                    grad[idx] -= step * d_u
                if on_update is not None:
                    on_update(n, a, num, den)
            self.refresh_row(n)


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

    def record(row, col, num, den):
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


def estimate_channel(obs: ObservationSet, anchor: int = 0,
                     max_sweeps: int = 300, tol: float = 1e-8,
                     **refine_kwargs) -> ChannelEstimate:
    """Full estimation pipeline: products -> initialization -> refinement."""
    h_bar = pairwise_products(obs)
    g0 = initialize(h_bar, anchor=anchor)
    return refine(obs, g0, max_sweeps=max_sweeps, tol=tol, **refine_kwargs)


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
