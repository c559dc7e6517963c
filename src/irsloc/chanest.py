"""BS-IRS channel recovery from pairwise-product observations.

The pilot stage only ever observes products g_{n,a} g_{n,b} of entries in
the same channel row, so each row of G is identifiable up to a global +-1
factor.  This module recovers that sign-ambiguous estimate in three steps:

1. ``pairwise_products`` averages all LS estimates of every product;
2. ``initialize`` turns the averaged products into a first channel guess
   through square-root / geometric-mean identities, all rows in one pass;
3. ``refine`` runs cyclic coordinate descent on the weighted least-squares
   ML objective, updating one complex entry at a time in closed form.

``estimate_channel`` is one ``refine`` call: it averages the products
once and shares them between ``initialize`` and the objective.

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
The objective forms all of R at once from hbar and g.  An update of g[n, a]
changes only row n of R; per IRS row one product G = Kp[n] @ R (taken as
``kp_rows[n].dot(R)`` on row views built once per objective) gives the pair
gradient, and each entry step reads and updates it in O(M) plain-complex
work.  A row's M steps run as one straight-line function, the row kernel,
whose source is generated and compiled once per M (``_row_kernel``): g's
row, its conjugates, its |g|^2 and the pair gradients are its local
variables, and it updates only the gradients the row still reads.  For a
partly used last pattern the schedule's ``pattern_gram`` raises
ValueError, and ``refine`` with it.

``initialize`` computes every row in one pass of array operations, rows
with the same column and usable tuples together.  The initializer, the
row kernel, the residuals and the product averaging round exactly as the
tests' oracles: the per-row ``oracle_initialize``, the per-entry
``oracle_sweep`` and the ``np.add.at`` scatter of
``oracle_average_products``, which they match bit for bit.  numpy's complex
*array* product may fuse multiply-adds and differ from the scalar
product in the last bit, so the initializer and the residuals form their
products from real parts (``_scalar_mul``), and the kernel multiplies
Python complex scalars only.  Layout matters too: a group's boolean
column selection ``vals[rows][:, mask]`` is Fortran-ordered, and its
``mean(axis=1)`` then sums a row in another order than ``np.mean`` of
that row alone (58 of 400 random rows moved in the last bit at M = 5),
so the initializer selects with ``compress``, which keeps C order; the
residuals are C-ordered for the same reason.

The per-row sign vector is *not* resolved here; downstream localization
treats it as a binary nuisance parameter.  ``normalized_error`` scores an
estimate against the truth minimizing over all sign vectors (rows decouple,
so the 2^N minimization collapses to N independent choices).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .pilot import ObservationSet, ls_estimates


class CoverageError(ValueError):
    """A pairwise product required by the estimator was never observed."""


class InitializationError(RuntimeError):
    """A channel row could not be initialized: all its square-root tuples
    were degenerate, or an entry of its estimate is not finite."""


def pairwise_products(obs: ObservationSet) -> np.ndarray:
    """Average the LS estimates of every product g_{n,a} g_{n,b}.

    Returns an (N, M, M) array, symmetric in the last two axes, with the
    (unobservable) diagonal left as NaN.
    """
    return _average_products(obs.schedule, ls_estimates(obs))


def _average_products(sched, omega: np.ndarray) -> np.ndarray:
    """``pairwise_products`` of the LS estimates ``omega`` (P x dim)."""
    n, m, m_t = sched.n_elements, sched.m_antennas, sched.m_t
    n_rx = sched.n_rx

    sums = np.zeros((n, m, m), dtype=complex)
    # a ``build_schedule`` split has disjoint transmit and receive sets of
    # M_t and M - M_t antennas, so (ai, bj) names no cell twice and a plain
    # scatter adds what np.add.at would, in the same subframe order
    for p, (ai, bj) in enumerate(zip(sched.tx_antennas[:, :, None],
                                     sched.rx_antennas[:, None, :])):
        sums[:, ai, bj] += omega[p].reshape(n, m_t, n_rx)

    sums = sums + np.swapaxes(sums, 1, 2)
    counts = sched.pair_counts
    off_diag = ~np.eye(m, dtype=bool)
    if np.any(counts[off_diag] == 0):
        raise CoverageError("schedule does not cover every antenna pair")
    h_bar = np.full((n, m, m), np.nan, dtype=complex)
    h_bar[:, off_diag] = sums[:, off_diag] / counts[off_diag]
    return h_bar


def initialize(h_bar: np.ndarray, anchor: int = 0) -> np.ndarray:
    """Initial channel estimate from averaged products (rows known up to sign).

    For the anchor column, each tuple (p, q) of other columns gives
    sqrt(h[l,p] h[l,q] / h[p,q]) on the principal branch; the row estimate
    is the geometric mean of all usable tuples after aligning their
    (arbitrary) signs to the first one.  Remaining entries follow by
    dividing the averaged products by the anchor estimate.  A tuple is
    usable when its denominator is finite with a modulus above 1e-12 of the
    row's largest product and its root is finite and nonzero.  A row with
    no usable anchor tuple takes the column with the most usable tuples,
    ties going to the strongest denominator above that floor, then to the
    lowest column.  Requires M >= 3.

    All rows are computed in one pass of array operations, grouped by
    their column and usable tuples.  Raises InitializationError naming the
    first row that has no usable tuple at any column, or else the first
    row with a non-finite entry (a NaN or infinite product outside its
    column's usable tuples reaches it).
    """
    n, m = h_bar.shape[0], h_bar.shape[1]
    if m < 3:
        raise ValueError("initialization needs at least 3 BS antennas")
    if not 0 <= anchor < m:
        raise ValueError(f"anchor column {anchor} out of range")

    # nanmax of each row's off-diagonal moduli, without the all-NaN warning
    peak = np.fmax.reduce(np.abs(h_bar[:, ~np.eye(m, dtype=bool)]), axis=1)
    floor = np.where(peak > 0, 1e-12 * peak, 0.0)
    col = np.full(n, anchor)
    with np.errstate(all="ignore"):
        vals, usable, _ = _anchor_tuples(h_bar, anchor, floor)
        lost = np.flatnonzero(~usable.any(axis=1))
        if lost.size:
            # every column's tuples of the lost rows, each M x rows x tuples
            c_vals, c_usable, c_mod = (np.stack(t) for t in zip(*(
                _anchor_tuples(h_bar[lost], c, floor[lost]) for c in range(m))))
            count = c_usable.sum(axis=2)
            strongest = np.where(c_mod > floor[lost, None], c_mod, -1.0).max(axis=2)
            dead = lost[count.max(axis=0) == 0]
            if dead.size:
                raise InitializationError(
                    f"row {dead[0]}: every square-root tuple is degenerate")
            # a stable sort: equal keys keep the lowest column first
            col[lost] = np.lexsort((-strongest, -count), axis=0)[0]
            pick = col[lost], np.arange(lost.size)
            vals[lost], usable[lost] = c_vals[pick], c_usable[pick]

    groups = {}
    for row, key in enumerate(np.column_stack((col, usable)).tolist()):
        groups.setdefault(tuple(key), []).append(row)
    g0 = np.empty((n, m), dtype=complex)
    for (c, *mask), rows in groups.items():
        others = [a for a in range(m) if a != c]
        # compress keeps the group C-ordered: mean(axis=1) then sums each
        # row in the order np.mean sums that row's values alone
        v = vals[rows].compress(mask, axis=1)
        ref = v[:, :1]
        aligned = np.where((v / ref).real >= 0, v, -v)
        g_col = _scalar_mul(ref[:, 0], np.exp(np.log(aligned / ref).mean(axis=1)))
        g0[rows, c] = g_col
        g0[np.ix_(rows, others)] = h_bar[rows, c][:, others] / g_col[:, None]
    bad = np.flatnonzero(~np.isfinite(g0).all(axis=1))
    if bad.size:
        raise InitializationError(f"row {bad[0]}: a non-finite entry, from a "
                                  "non-finite averaged product")
    return g0


def _anchor_tuples(h_bar: np.ndarray, anchor: int, floor: np.ndarray):
    """Column a = ``anchor``'s roots sqrt(h[l,a,p] h[l,a,q] / h[l,p,q]) of
    every tuple (p, q) of the other columns in combinations order, whether
    each is usable above its row's denominator ``floor``, and the
    denominators' moduli: three N x C(M-1, 2) arrays."""
    others = [k for k in range(h_bar.shape[1]) if k != anchor]
    ps, qs = (list(ix) for ix in zip(*itertools.combinations(others, 2)))
    den = h_bar[:, ps, qs]
    vals = np.sqrt(_scalar_mul(h_bar[:, anchor, ps], h_bar[:, anchor, qs]) / den)
    # np.hypot, not np.abs: it rounds as the per-row abs(den) does
    mod = np.hypot(den.real, den.imag)
    usable = (np.isfinite(den) & (mod > floor[:, None])
              & np.isfinite(vals) & (vals != 0))
    return vals, usable, mod


def _scalar_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element-wise x * y of complex arrays, rounded as a scalar product.

    numpy's complex array multiply may fuse multiply-adds and then differ
    from the scalar product in the last bit; the real-part form does not.
    """
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


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
    products = hbar.  ``h_bar`` is ``pairwise_products(obs)``, formed here
    when not given.
    """

    def __init__(self, obs: ObservationSet, g: np.ndarray,
                 h_bar: np.ndarray | None = None):
        sched = obs.schedule
        self.n, self.m = sched.n_elements, sched.m_antennas
        m_t, n_rx = sched.m_t, sched.n_rx
        self.kp = sched.pattern_gram
        self.kp_rows = list(self.kp)
        self.knn = self.kp.diagonal().real.tolist()
        self.g = g

        # the pair order the row kernel reads its gradients and products in
        self.pairs = list(itertools.combinations(range(self.m), 2))
        self.pi, self.pj = pi, pj = [np.array(ix) for ix in zip(*self.pairs)]

        omega = obs.omega_ls  # pairwise_products has read ls_estimates(obs)
        if h_bar is None:
            h_bar = pairwise_products(obs)
        counts = sched.pair_counts[pi, pj]
        if np.any(counts != counts[0]):
            raise ValueError("refinement needs every antenna pair observed "
                             f"equally often, got counts {counts.tolist()}")
        self.h_pairs = h_bar[:, pi, pj]
        self.h_rows = self.h_pairs.tolist()
        # the residuals at products = hbar, one column per support triple
        e0 = (omega.reshape(sched.n_subframes, self.n, m_t, n_rx).transpose(1, 0, 2, 3)
              - h_bar[:, sched.tx_antennas[:, :, None],
                      sched.rx_antennas[:, None, :]]).reshape(self.n, -1)
        scale = 1.0 / (2.0 * obs.sigma2) if obs.sigma2 > 0 else 1.0
        self.j0 = scale * float(np.vdot(e0, self.kp @ e0).real)
        self.weight = scale * int(counts[0])

        self.residuals = np.empty_like(self.h_pairs, order="C")
        self.refresh_row(slice(None))

    def refresh_row(self, row: int | slice):
        """Pair residuals of channel row ``row`` (every row selected by a
        slice) recomputed from g, rounded as the row kernel's scalar
        products (``_scalar_mul``)."""
        g = self.g[row]
        self.residuals[row] = self.h_pairs[row] - _scalar_mul(g[..., self.pi],
                                                              g[..., self.pj])

    def value(self) -> float:
        r = self.residuals
        return self.j0 + self.weight * float(np.vdot(r, self.kp @ r).real)

    def sweep(self, on_update=None):
        """Exact minimization over every entry of g, in row-major order.

        g is held as Python lists for the sweep and written back at its
        end.  Per row, one product gives the pair gradient G = Kp[row] @ R
        at the row's start, and one call of the row kernel for M
        (``_row_kernel``) runs the row's M entry steps and returns its
        pair residuals.  An entry with zero curvature is skipped; after
        every other step ``on_update(row, col)`` is called with g current
        (the kernel's callback variant writes the entry through) and the
        row's residuals not yet refreshed.  ``refine`` passes none; the
        tests watch the per-update state through it.
        """
        kernel = _row_kernel(self.m, on_update is not None)
        residuals, knn, h_rows, g_out = self.residuals, self.knn, self.h_rows, self.g
        rows = g_out.tolist()
        for n, (row, kp_row) in enumerate(zip(rows, self.kp_rows)):
            # kp_row.dot(R) rounds as kp[n] @ R does, at less call overhead
            residuals[n] = kernel(row, kp_row.dot(residuals).tolist(), knn[n],
                                  h_rows[n], n, g_out, on_update)
        g_out[:] = rows


@functools.cache
def _row_kernel(m: int, callback: bool = False):
    """The entry steps of one IRS row of an M-antenna sweep, as one
    straight-line function, built and compiled on first use per M.

    ``kernel(row, grad, knn, h, n, g_out, on_update)`` takes the row of g
    as a list, which it updates in place, the row's pair gradients
    G = Kp[n] @ R and the diagonal weight Kp[n, n] (``knn``), and returns
    the row's pair residuals ``h - g_i g_j`` formed from the averaged
    products ``h``.  g, its conjugates, its |g|^2 and the pair gradients
    are local variables.  Entry a's step is

        num = sum_c conj(g_c) G_{ac},  den = knn sum_c |g_c|^2,
        g_a += num / den,

    over the cofactor columns c != a in increasing order, accumulated from
    0j and 0.0 one term at a time (not with ``sum``, which compensates
    float sums from Python 3.12 on), then G_{ac} -= knn step g_c for the
    pairs with c > a, the only ones the row reads again; it is skipped
    when ``den <= 0.0``, so a NaN curvature still updates.  These are the
    per-entry sweep's operations in its order, so the result is the same
    to the bit.  The callback variant writes each updated entry to
    ``g_out[n, a]`` and calls ``on_update(n, a)``; the plain one ignores
    the last three arguments.  The source is compiled under the file name
    ``<chanest row kernel M=m>`` so that tracebacks and profilers name it.
    """
    pair_of = {pair: q for q, pair in enumerate(itertools.combinations(range(m), 2))}
    entries = ", ".join(f"g{a}" for a in range(m))
    src = ["def row_kernel(row, grad, knn, h, n, g_out, on_update):",
           f"    {entries}, = row",
           f"    {', '.join(f'd{q}' for q in pair_of.values())}, = grad"]
    src += [f"    c{a} = g{a}.conjugate()\n"
            f"    s{a} = g{a}.real * g{a}.real + g{a}.imag * g{a}.imag"
            for a in range(m)]
    for a in range(m):
        support = [(c, pair_of[min(a, c), max(a, c)]) for c in range(m) if c != a]
        src += [f"    # entry {a}", "    nrm = 0.0"]
        src += [f"    nrm += s{c}" for c, _ in support]
        src += ["    num = 0j"]
        src += [f"    num += c{c} * d{q}" for c, q in support]
        src += ["    den = knn * nrm",
                "    if den <= 0.0:",
                "        pass",
                "    else:",
                "        step = num / den",
                f"        g{a} = g{a} + step"]
        if a < m - 1:
            src += [f"        c{a} = g{a}.conjugate()",
                    f"        s{a} = g{a}.real * g{a}.real + g{a}.imag * g{a}.imag",
                    "        k_step = knn * step"]
            src += [f"        d{q} -= k_step * g{c}" for c, q in support if c > a]
        if callback:
            src += [f"        g_out[n, {a}] = g{a}", f"        on_update(n, {a})"]
    src += [f"    row[:] = {entries}",
            f"    {', '.join(f'h{q}' for q in pair_of.values())}, = h",
            "    return [" + ", ".join(f"h{q} - g{i} * g{j}"
                                       for (i, j), q in pair_of.items()) + "]"]
    name = f"<chanest row kernel M={m}{', callback' if callback else ''}>"
    namespace = {}
    exec(compile("\n".join(src) + "\n", name, "exec"), namespace)
    return namespace["row_kernel"]


def refine(obs: ObservationSet, g_init: np.ndarray | None = None,
           max_sweeps: int = 300, tol: float = 1e-8,
           g_true: np.ndarray | None = None) -> ChannelEstimate:
    """Cyclic coordinate-descent refinement of the channel estimate.

    The LS products are averaged once (``pairwise_products``) and shared
    by the objective and, when ``g_init`` is None, by ``initialize``,
    which then gives the starting point.  Sweeps every entry in row-major
    order; each single-entry update is the exact minimizer of the ML
    objective over that entry, so the objective is nonincreasing update by
    update.  Stops when the relative objective decrease over a full sweep
    drops below ``tol`` or after ``max_sweeps``.  With ``g_true``,
    ``ne_trace`` holds the normalized error after every sweep.
    """
    h_bar = pairwise_products(obs)
    if g_init is None:
        g_init = initialize(h_bar)
    state = _MLObjective(obs, np.array(g_init, dtype=complex), h_bar)
    j_prev = state.value()
    trace = [j_prev]
    ne_trace = [] if g_true is not None else None
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        state.sweep()
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
        ne_trace=None if ne_trace is None else np.asarray(ne_trace))


def estimate_channel(obs: ObservationSet,
                     g_true: np.ndarray | None = None) -> ChannelEstimate:
    """Full estimation pipeline: products -> initialization -> refinement,
    at the defaults of ``initialize`` and ``refine``; with ``g_true`` the
    estimate records its per-sweep normalized error."""
    return refine(obs, g_true=g_true)


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
