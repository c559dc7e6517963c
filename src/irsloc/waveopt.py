"""Joint transmit-waveform / IRS-phase design for the next cycle.

The design maximizes the weighted sum of pairwise inter-hypothesis
distances (symmetrized relative entropy between the Gaussian echo laws,
which reduces to scaled squared mean differences).  With the IRS phases
shared between transmission and reception the distance is quartic in the
phase vector theta, so the problem is lifted: Q = theta theta^H turns each
distance into

    phi_ij = s (|a_i|^2 tr(Q^H A_ii Q B_ii)
              - 2 Re{a_i a_j^* tr(Q^H A_ij Q B_ij)}
              + |a_j|^2 tr(Q^H A_jj Q B_jj)),    s = L / sigma^2,

with A_ij fixed per hypothesis pair and B_ij rank-one in the waveform x.

Neither matrix is formed.  With the hypothesis factors U_i = diag(a_i) G_i
(N x M), A_ij = U_j^* U_i^T has rank at most M and B_ij = v_j^* v_i^T with
v_i = U_i x, so every trace is an inner product of M-vector carriers,

    tr(Q^H A_ij Q B_ij) = C_ji^H C_ij,    C_ij = U_i^T Q v_j^* = E_ij x^*,

with E_ij = U_i^T Q U_j^* (M x M), and the weighted sum of all distances
is sum_ij W_ij C_ji^H C_ij for one Hermitian I x I term-weight matrix W
(I hypotheses; scale, pair priorities and alpha products folded in).
One product of the stacked factors with Q forms every E_ij, at
O(I M N^2 + I^2 M^2 N), against O(N^4) per trace term for the dense form.

An inner iteration forms the E blocks once, for the Q its sweep leaves,
and every block after the sweep reads them:

* the x block builds the waveform matrix Z = sum_ij W_ij E_ij^T E_ji^*
  (x^H Z x is the weighted distance at fixed Q) as one product;
* the objective that ends the iteration takes the carriers E_ij x^* of
  the new x;
* the next Q sweep takes its starting gradient weights from those
  carriers.

The theta block reads only Q.  ``weighted_distance`` and
``OptimizerState.objective`` evaluate from scratch.

The Q sweep goes row by row.  Row m's gradient is T[:, m] V (V stacks the
v_i as rows), with I x N gradient weights T read off the carriers at sweep
start; a row's steps move T by one product with the context's
``row_steps``.  Within row m the entries couple only through the N x N
matrix H_m = V^T (W o A_m) V^* (A_m[i, j] = U_i[m] . U_j[m]^*), whose
diagonal is the self-quadratic coefficient chi of each entry.  So a row
costs one product for its starting gradient, O(N) plain-complex work per
entry against the couplings of the entries already updated (the strict
lower triangle of H_m), one write of the row and one product for the
gradient weights of the rows after it.

The rank-1 coupling Q = theta theta^H is enforced by a penalty
(1/2 rho)(Re{theta^H Q theta} - N^2) whose weight grows as rho shrinks
geometrically in an outer loop; the inner loop is block coordinate descent
with closed-form updates:

* each entry of Q is a phase projection of its linear coefficient,
* x is the power-saturated dominant eigenvector of an assembled Hermitian
  matrix,
* each entry of theta is a phase projection against the Hermitian part
  of Q.

Every single update is an exact coordinate maximization, so the penalized
objective never decreases within an inner loop.  A noiseless run
(sigma^2 = 0) drops the 1/sigma^2 normalization; the maximizers are
unaffected by the positive rescaling.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from functools import lru_cache
from operator import mul

import numpy as np


@dataclass
class DistanceContext:
    """Everything the distance objective needs from the current cycle.

    ``channels[i]`` is the hypothesis-i signed channel diag(delta_i) G_hat
    (N x M); ``steering[:, i]`` its grid steering vector; ``alphas[i]`` its
    latest target-coefficient estimate; ``weights[i, j]`` the pair priority
    (posterior product), read from the strict upper triangle.  ``scale`` is
    snapshots / noise_power, or just snapshots when noise_power = 0.

    Derived: ``factors`` stacks U_i = diag(a_i) G_i (I x N x M) and
    ``stacked`` their transposes U_i^T as one I M x N matrix;
    ``term_weights`` is the Hermitian I x I matrix W of the weighted sum
    sum_ij W_ij tr(Q^H A_ij Q B_ij) (self terms W_ii = s |alpha_i|^2
    sum_{j != i} w_ij of every pair hypothesis i belongs to, cross terms
    W_ij = -s w_ij alpha_i alpha_j^* for i < j and W_ji = W_ij^*).
    ``gradient_weights[i, m]`` holds W_ij U_j[m]^* flattened over (j, k)
    (I x N x I M): the weights of row m's gradient.  ``row_steps[a]`` holds
    W_ij (U_i[a] . U_j[b]^*) at [i N + b, j] (N x I N x I): how a step of
    Q's row a moves the gradient weights of every row b.  Its diagonal
    blocks ``row_coupling[m]`` = W o A_m (N x I x I), with
    A_m[i, j] = U_i[m] . U_j[m]^*, weigh Q's in-row coupling.
    """

    channels: list
    steering: np.ndarray
    alphas: np.ndarray
    weights: np.ndarray
    snapshots: int
    noise_power: float
    factors: np.ndarray = field(init=False, repr=False)
    stacked: np.ndarray = field(init=False, repr=False)
    term_weights: np.ndarray = field(init=False, repr=False)
    gradient_weights: np.ndarray = field(init=False, repr=False)
    row_steps: np.ndarray = field(init=False, repr=False)
    row_coupling: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_hyp = len(self.channels)
        if self.steering.shape[1] != n_hyp or self.alphas.size != n_hyp:
            raise ValueError("inconsistent hypothesis count")
        u = self.steering.T[:, :, None] * np.stack(self.channels)
        pairs = np.triu(self.weights, 1)
        w = -(pairs * self.scale) * self.alphas[:, None] * self.alphas.conj()
        w = w + w.conj().T
        w[np.diag_indices_from(w)] = ((pairs + pairs.T).sum(axis=1)
                                      * np.abs(self.alphas) ** 2 * self.scale)
        self.factors = u
        self.stacked = u.transpose(0, 2, 1).reshape(-1, self.n_elements)
        self.term_weights = w
        n = self.n_elements
        by_row = u.transpose(1, 0, 2)  # (N, I, M): U_i[a]
        self.gradient_weights = (w[:, None, :, None] * by_row.conj()
                                 ).reshape(n_hyp, n, -1)
        flat = by_row.reshape(n * n_hyp, -1)
        steps = w[None, :, None, :] * (flat @ flat.conj().T).reshape(
            n, n_hyp, n, n_hyp)
        self.row_steps = steps.reshape(n, n_hyp * n, n_hyp)
        diag = np.arange(n)
        self.row_coupling = steps[diag, :, diag, :]

    @property
    def n_hypotheses(self) -> int:
        return len(self.channels)

    @property
    def n_elements(self) -> int:
        return self.steering.shape[0]

    @property
    def scale(self) -> float:
        if self.noise_power > 0:
            return self.snapshots / self.noise_power
        return float(self.snapshots)


def pair_weights(probs: np.ndarray) -> np.ndarray:
    """Pair priorities p_i p_j, stored strictly upper triangular."""
    return np.triu(np.outer(probs, probs), 1)


def build_context(g_hat: np.ndarray, belief, grid, snapshots: int,
                  noise_power: float) -> DistanceContext:
    """Assemble the context from the belief state of the finished cycle."""
    probs = np.asarray(belief.probs, dtype=float)
    channels = [belief.deltas[i][:, None] * g_hat for i in range(probs.size)]
    return DistanceContext(channels=channels, steering=grid.steering,
                           alphas=np.asarray(belief.alphas, dtype=complex),
                           weights=pair_weights(probs), snapshots=snapshots,
                           noise_power=noise_power)


class _Lift:
    """The one distance evaluator: E_ij = U_i^T Q U_j^* (M x M) at one Q.

    All I^2 blocks come from one product of the stacked factors with Q
    (``e[i, k, j, l]`` = E_ij[k, l]).  At a waveform x they give the
    carriers C_ij = U_i^T Q v_j^* = E_ij x^*, the weighted trace sum
    sum_ij W_ij C_ji^H C_ij, the gradient weights of every Q row, and the
    waveform matrix Z with x^H Z x equal to that sum.
    """

    def __init__(self, ctx: DistanceContext, q: np.ndarray):
        self.ctx = ctx
        self.q = q
        n_hyp, _, m = ctx.factors.shape
        stacked = ctx.stacked
        self.e = (stacked @ (q @ stacked.conj().T)).reshape(n_hyp, m, n_hyp, m)

    def carriers(self, x: np.ndarray) -> np.ndarray:
        """C_ij = E_ij x^* as an I x I x M array."""
        return (self.e @ x.conj()).transpose(0, 2, 1)

    def distance(self, x: np.ndarray) -> float:
        c = self.carriers(x)
        weighted = self.ctx.term_weights[:, :, None] * c
        return float(np.vdot(c.swapaxes(0, 1), weighted).real)

    def gradient_rows(self, x: np.ndarray) -> np.ndarray:
        """T (I x N) with T[i, m] = sum_j W_ij U_j[m]^H C_ij, so that the
        distance's Q-gradient sum_ij W_ij A_ij Q B_ij is T^T V, where V
        stacks the v_i = U_i x as rows."""
        n_hyp = self.e.shape[0]
        c = self.carriers(x).reshape(n_hyp, -1, 1)
        return (self.ctx.gradient_weights @ c).reshape(n_hyp, -1)

    def waveform_matrix(self) -> np.ndarray:
        """Hermitian Z = sum_ij W_ij E_ij^T E_ji^*, one product of the
        weighted blocks with the pair-swapped ones."""
        e = self.e
        m = e.shape[1]
        weighted = (e * self.ctx.term_weights[:, None, :, None]).reshape(-1, m)
        swapped = e.transpose(2, 1, 0, 3).reshape(-1, m)
        z = weighted.T @ swapped.conj()
        return (z + z.conj().T) / 2.0


def in_row_coupling(ctx: DistanceContext, v: np.ndarray) -> np.ndarray:
    """H[m] = V^T (W o A_m) V^* (N x N x N): H[m][n, n'] is the change of
    gradient entry (m, n) per unit step of Q[m, n']; its diagonal is
    chi[m, n] = sum_ij W_ij A_ij(m, m) B_ij(n, n)."""
    return v.T @ ctx.row_coupling @ v.conj()


def pair_distance(ctx: DistanceContext, q: np.ndarray, x: np.ndarray,
                  i: int, j: int) -> float:
    """Inter-hypothesis distance phi_ij evaluated on a lifted matrix Q."""
    if i == j:
        return 0.0
    pair = np.zeros((ctx.n_hypotheses, ctx.n_hypotheses))
    pair[min(i, j), max(i, j)] = 1.0
    return _Lift(replace(ctx, weights=pair), q).distance(x)


def weighted_distance(ctx: DistanceContext, q: np.ndarray, x: np.ndarray) -> float:
    """Weighted sum of pairwise distances at (Q, x)."""
    return _Lift(ctx, q).distance(x)


def penalty_value(q: np.ndarray, theta: np.ndarray, rho: float) -> float:
    n = theta.size
    return float((np.real(theta.conj() @ q @ theta) - n * n) / (2.0 * rho))


def constraint_violation(q: np.ndarray, theta: np.ndarray) -> float:
    """xi = (N^2 - Re{theta^H Q theta}) / N^2; zero iff Q = theta theta^H."""
    n = theta.size
    return float((n * n - np.real(theta.conj() @ q @ theta)) / (n * n))


@dataclass
class OptimizerState:
    """Block variables and penalty bookkeeping of one design run.

    ``lift`` caches the E blocks of the current Q (see :meth:`lifted`).
    """

    q: np.ndarray
    theta: np.ndarray
    x: np.ndarray
    rho: float
    power_budget: float
    lift: _Lift | None = field(default=None, init=False, repr=False)

    def validate(self):
        if np.abs(np.abs(self.q) - 1.0).max() > 1e-9:
            raise ValueError("Q entries must be unit modulus")
        if np.abs(np.abs(self.theta) - 1.0).max() > 1e-9:
            raise ValueError("theta must be unit modulus")
        if np.linalg.norm(self.x) ** 2 > self.power_budget * (1 + 1e-9):
            raise ValueError("waveform exceeds the power budget")

    def lifted(self, ctx: DistanceContext) -> _Lift:
        """The E blocks of the current Q, formed once per new Q: ``update_q``
        drops them after changing Q in place, and a new Q array or another
        context forms them afresh."""
        lift = self.lift
        if lift is None or lift.q is not self.q or lift.ctx is not ctx:
            lift = self.lift = _Lift(ctx, self.q)
        return lift

    def objective(self, ctx: DistanceContext) -> float:
        """Penalized objective, evaluated from scratch."""
        return weighted_distance(ctx, self.q, self.x) \
            + penalty_value(self.q, self.theta, self.rho)


@lru_cache(maxsize=None)
def _lower_triangle(n: int) -> np.ndarray:
    """Flat indices of an n x n strict lower triangle, row-major (read-only)."""
    rows, cols = np.tril_indices(n, -1)
    flat = rows * n + cols
    flat.flags.writeable = False
    return flat


def update_q(state: OptimizerState, ctx: DistanceContext,
             on_update=None) -> OptimizerState:
    """One Gauss-Seidel sweep over all Q entries (phase projections).

    Each entry is set to the phase of its linear coefficient in the
    penalized objective: the weighted distance gradient minus the
    self-quadratic part, plus the penalty's theta theta^H term.  Row m's
    gradient is T[:, m] V, with T read off the carriers of the state's E
    blocks at sweep start; a row's steps d move every row's T by
    ``row_steps[m] (V^* d)``.  Within a row the coefficient is the row's
    starting value ``base`` plus the in-row couplings (the strict lower
    triangle of H[m]) of the steps already taken; the scalar steps run on
    plain Python complex numbers, and the row is written once at its end
    unless ``on_update`` needs Q current after every entry.
    """
    q = state.q
    n = q.shape[0]
    v = ctx.factors @ state.x
    v_conj = v.conj()
    coupling = in_row_coupling(ctx, v)
    t = state.lifted(ctx).gradient_rows(state.x)
    t_flat = t.reshape(-1)
    # Only row m's own steps change row m, so its self-quadratic parts and
    # the penalty terms are known at sweep start.
    static = (np.outer(state.theta, state.theta.conj() / (4.0 * state.rho))
              - q * np.diagonal(coupling, axis1=1, axis2=2))
    lower = coupling.reshape(n, -1)[:, _lower_triangle(n)].tolist()
    row_steps = ctx.row_steps
    for m, row in enumerate(q.tolist()):
        # map stops at the end of ``steps`` before drawing from ``h``, so
        # entry col takes the next col couplings: H[m][col, :col]
        h = iter(lower[m])
        steps = []
        for col, base in enumerate((t[:, m] @ v + static[m]).tolist()):
            mu = base + sum(map(mul, steps, h))
            if mu == 0:
                steps.append(0j)
                continue
            # exp(i phase), not mu / |mu|: the rounded phase absorbs
            # last-bit changes of mu, so Q keeps its bits, and with them
            # the inner stop test, which a tiny distance puts within the
            # penalty's rounding
            new = cmath.exp(1j * cmath.phase(mu))
            steps.append(new - row[col])
            row[col] = new
            if on_update is not None:
                q[m, col] = new
                on_update()
        q[m] = row
        t_flat += row_steps[m] @ (v_conj @ steps)
    state.lift = None
    return state


def dominant_power_vector(z: np.ndarray, power: float) -> np.ndarray:
    """sqrt(power) times the dominant eigenvector of a Hermitian matrix.

    The global phase is fixed by making the largest-magnitude entry real
    positive, for determinism.
    """
    _, evecs = np.linalg.eigh(z)
    v = evecs[:, -1]
    pivot = int(np.argmax(np.abs(v)))
    v = v * np.exp(-1j * np.angle(v[pivot]))
    return np.sqrt(power) * v


def update_x(state: OptimizerState, ctx: DistanceContext) -> OptimizerState:
    """Waveform block: power-saturated dominant eigenvector of Z, built
    from the E blocks of the current Q.

    Keeps the previous waveform when the objective has no x dependence
    (single hypothesis or all-zero weights).
    """
    z = state.lifted(ctx).waveform_matrix()
    norm = np.linalg.norm(z)
    if not np.isfinite(norm):
        raise FloatingPointError("waveform matrix is not finite")
    if norm == 0:
        return state
    state.x = dominant_power_vector(z, state.power_budget)
    return state


def update_theta(state: OptimizerState, on_update=None) -> OptimizerState:
    """One sweep of phase projections of theta against (Q + Q^H) / 2."""
    p = ((state.q + state.q.conj().T) / 2.0).tolist()
    theta = state.theta
    current = theta.tolist()
    for m, row in enumerate(p):
        v = sum(map(mul, row, current)) - row[m] * current[m]
        if v == 0:
            continue
        current[m] = theta[m] = cmath.exp(1j * cmath.phase(v))
        if on_update is not None:
            on_update()
    return state


@dataclass
class WaveformDesign:
    """Result of one penalty-method design run."""

    x: np.ndarray
    theta: np.ndarray
    violation: float
    converged: bool
    outer_iterations: int
    objective: float
    distance: float
    q: np.ndarray = field(repr=False, default=None)
    trace: list = field(repr=False, default_factory=list)


def optimize(ctx: DistanceContext, x_init: np.ndarray, theta_init: np.ndarray,
             power_budget: float, accuracy: float = 1e-7,
             penalty_scale: float = 0.5, inner_tol: float = 1e-6,
             outer_cap: int = 60, inner_cap: int = 100,
             rho_init: float | None = None,
             on_block_update=None) -> WaveformDesign:
    """Penalty method with inner three-block coordinate descent.

    Starts from the feasible lift Q = theta theta^H (zero violation) and a
    power-saturated version of ``x_init``; the outer loop shrinks rho by
    ``penalty_scale`` until the violation indicator falls below
    ``accuracy``.  ``on_block_update``, when given, is called as
    ``f(objective, rho)`` after every single block update (Q entry, x,
    theta entry); objective values are only comparable within one rho
    stage.
    """
    if not 0 < penalty_scale < 1:
        raise ValueError("penalty scale must lie in (0, 1)")
    if accuracy <= 0:
        raise ValueError("accuracy must be positive")
    if rho_init is not None and rho_init <= 0:
        raise ValueError("penalty parameter must be positive")
    theta = np.asarray(theta_init, dtype=complex).copy()
    theta = np.exp(1j * np.angle(theta))
    x = np.asarray(x_init, dtype=complex).copy()
    x_norm = np.linalg.norm(x)
    if x_norm == 0:
        raise ValueError("waveform initialization must be nonzero")
    x = np.sqrt(power_budget) * x / x_norm

    q = np.outer(theta, theta.conj())
    q = np.exp(1j * np.angle(q))  # exact unit modulus
    state = OptimizerState(q=q, theta=theta, x=x, rho=rho_init or 1.0,
                           power_budget=power_budget)
    distance = state.lifted(ctx).distance(x)
    if rho_init is None:
        state.rho = 1e-2 * (distance + 1.0)
    state.validate()

    report = None
    if on_block_update is not None:
        report = lambda: on_block_update(state.objective(ctx), state.rho)  # noqa: E731
    trace = []
    converged = False
    outer = 0
    # ``distance`` is the weighted distance at the current (Q, x), read off
    # the E blocks of the current Q (update_x forms them after each sweep)
    for outer in range(1, outer_cap + 1):
        prev = distance + penalty_value(state.q, state.theta, state.rho)
        for _ in range(inner_cap):
            update_q(state, ctx, on_update=report)
            update_x(state, ctx)
            if report is not None:
                report()
            update_theta(state, on_update=report)
            distance = state.lifted(ctx).distance(state.x)
            cur = distance + penalty_value(state.q, state.theta, state.rho)
            if cur - prev <= inner_tol * abs(prev):
                prev = cur
                break
            prev = cur
        xi = constraint_violation(state.q, state.theta)
        trace.append((outer, state.rho, xi, prev, distance))
        if xi < accuracy:
            converged = True
            break
        state.rho *= penalty_scale
        # Between outer stages, pull Q back toward Hermitian structure if
        # the phase updates let it drift (the theta block only sees the
        # Hermitian part).
        drift = np.abs(state.q - state.q.conj().T).max()
        if drift > 1e-9:
            sym = (state.q + state.q.conj().T) / 2.0
            nonzero = np.abs(sym) > 1e-30
            state.q = np.where(nonzero, np.exp(1j * np.angle(sym)), state.q)
            distance = state.lifted(ctx).distance(state.x)

    state.validate()
    return WaveformDesign(x=state.x, theta=state.theta,
                          violation=constraint_violation(state.q, state.theta),
                          converged=converged, outer_iterations=outer,
                          objective=distance + penalty_value(
                              state.q, state.theta, state.rho),
                          distance=distance, q=state.q, trace=trace)
