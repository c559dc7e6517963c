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
it in O(M) plain-complex work.  For a partly used last pattern the
schedule's ``pattern_gram`` raises ValueError, and ``refine`` with it.

The per-row sign vector is *not* resolved here; downstream localization
treats it as a binary nuisance parameter.  ``normalized_error`` scores an
estimate against the truth minimizing over all sign vectors (rows decouple,
so the 2^N minimization collapses to N independent choices).
"""

from __future__ import annotations

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
        # per column a, each cofactor column c with the pair index of {a, c}
        self.tables = [[(c, pair_of[min(a, c), max(a, c)])
                        for c in range(self.m) if c != a]
                       for a in range(self.m)]
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
        g = self.g[row].tolist()
        self.residuals[row] = [h - g[i] * g[j]
                               for h, (i, j) in zip(self.h_rows[row], self.pairs)]

    def value(self) -> float:
        r = self.residuals
        return self.j0 + self.weight * float(np.vdot(r, self.kp @ r).real)

    def sweep(self, on_update=None):
        """Exact minimization over every entry of g, in row-major order.

        Per row, one product gives the pair gradient G = Kp[row] @ R at the
        row's start; each entry step then reads and updates it on plain
        Python complex numbers, O(M) work.  An entry with zero curvature
        is skipped; after every other step, ``on_update(row, col)`` is
        called with g current and the row's residuals not yet refreshed.
        The row ends with its residuals recomputed from g.
        """
        knn_all = self.kp.diagonal().real.tolist()
        for n in range(self.n):
            grad = (self.kp[n] @ self.residuals).tolist()
            knn = knn_all[n]
            row = self.g[n].tolist()
            for a, support in enumerate(self.tables):
                num = 0j
                nrm = 0.0
                for c, q in support:
                    x = row[c]
                    nrm += x.real * x.real + x.imag * x.imag
                    num += x.conjugate() * grad[q]
                den = knn * nrm
                if den <= 0.0:
                    continue
                step = num / den
                row[a] += step
                self.g[n, a] = row[a]
                k_step = knn * step
                for c, q in support:
                    grad[q] -= k_step * row[c]
                if on_update is not None:
                    on_update(n, a)
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
