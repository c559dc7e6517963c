"""BS-IRS channel recovery from pairwise-product observations.

The pilot stage only ever observes products g_{n,a} g_{n,b} of entries in
the same channel row, so each row of G is identifiable up to a global +-1
factor.  This module recovers that sign-ambiguous estimate in three steps:

1. ``pairwise_products`` averages all LS estimates of every product;
2. ``initialize`` turns the averaged products into a first channel guess
   through square-root / geometric-mean identities row by row;
3. ``refine`` runs cyclic coordinate descent on the weighted least-squares
   ML objective, updating one complex entry at a time in closed form.

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


class _MLObjective:
    """Weighted LS objective over all subframes with O(nnz) coordinate steps.

    The weight is the common Gram matrix Phi^H Phi (proportional to the
    inverse LS covariance); with sigma2 > 0 the reported objective carries
    the physical 1/(2 sigma^2) scale, otherwise the unnormalized value
    (the minimizer is scale invariant).
    """

    def __init__(self, obs: ObservationSet, g: np.ndarray):
        sched = obs.schedule
        self.n, self.m = sched.n_elements, sched.m_antennas
        self.m_t, self.n_rx = sched.m_t, sched.n_rx
        self.weight = obs.gram
        self.scale = 1.0 / (2.0 * obs.sigma2) if obs.sigma2 > 0 else 1.0
        self.omega_hat = ls_estimates(obs)
        self.subframes = sched.subframes
        self.g = g

        # Support of d omega / d g_{n,a} over all subframes, per channel
        # column a: the (subframe, in-block offset, cofactor column) triples,
        # concatenated in subframe order.  Every column has the same count K
        # of triples; ``mask`` keeps the curvature block-diagonal by subframe.
        self.block = self.m_t * self.n_rx
        tables = []
        for a in range(self.m):
            sub, off, cof = [], [], []
            for p, (a_set, b_set) in enumerate(self.subframes):
                if a in a_set:
                    offs = a_set.index(a) * self.n_rx + np.arange(self.n_rx)
                    cols = b_set
                else:
                    offs = np.arange(self.m_t) * self.n_rx + b_set.index(a)
                    cols = a_set
                sub.extend([p] * len(cols))
                off.extend(offs)
                cof.extend(cols)
            tables.append((sub, off, cof))
        self.sub, self.off, self.cof = (np.array(t) for t in zip(*tables))
        self.mask = self.sub[:, :, None] == self.sub[:, None, :]

        self.residuals = np.empty_like(self.omega_hat)
        self.refresh_residuals()

    def omega_of(self, p: int) -> np.ndarray:
        a_set, b_set = self.subframes[p]
        g_a = self.g[:, list(a_set)]
        g_b = self.g[:, list(b_set)]
        prod = np.einsum("ni,nj->nij", g_a, g_b)
        return prod.reshape(-1)

    def refresh_residuals(self):
        for p in range(len(self.subframes)):
            self.residuals[p] = self.omega_hat[p] - self.omega_of(p)

    def value(self) -> float:
        total = 0.0
        for e in self.residuals:
            total += float(np.real(e.conj() @ (self.weight @ e)))
        return self.scale * total

    def step_terms(self, row: int, col: int):
        """Numerator and curvature of the exact step on g[row, col], with
        the (subframe, flat omega index, cofactor) support it acts on."""
        sub = self.sub[col]
        idx = row * self.block + self.off[col]
        cof = self.g[row, self.cof[col]]
        w_rows = self.weight.take(idx, axis=0)
        rowdot = (w_rows * self.residuals.take(sub, axis=0)).sum(axis=1)
        num = cof.conj() @ rowdot
        den = float(np.real(cof.conj() @ ((w_rows[:, idx] * self.mask[col]) @ cof)))
        return num, den, sub, idx, cof

    def update_entry(self, row: int, col: int) -> bool:
        """Exact minimization of the objective over g[row, col]; returns
        False when the coordinate is degenerate (zero curvature)."""
        num, den, sub, idx, cof = self.step_terms(row, col)
        if den <= 0.0:
            return False
        step = num / den
        self.g[row, col] += step
        self.residuals[sub, idx] -= step * cof
        return True


def refine(obs: ObservationSet, g_init: np.ndarray, max_sweeps: int = 300,
           tol: float = 1e-8, record_update_objectives: bool = False,
           g_true: np.ndarray | None = None) -> ChannelEstimate:
    """Cyclic coordinate-descent refinement of the channel estimate.

    Sweeps every entry in row-major order; each single-entry update is the
    exact minimizer of the ML objective over that entry, so the objective
    is nonincreasing update by update.  Stops when the relative objective
    decrease over a full sweep drops below ``tol`` or after ``max_sweeps``.
    """
    state = _MLObjective(obs, np.array(g_init, dtype=complex))
    j_prev = state.value()
    trace = [j_prev]
    per_update = [] if record_update_objectives else None
    ne_trace = [] if g_true is not None else None
    converged = False
    sweeps = 0

    for sweeps in range(1, max_sweeps + 1):
        for row in range(state.n):
            for col in range(state.m):
                state.update_entry(row, col)
                if per_update is not None:
                    per_update.append(state.value())
        state.refresh_residuals()  # kill incremental drift
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
