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

    tr(Q^H A_ij Q B_ij) = C_ji^H C_ij,    C_ij = U_i^T Q v_j^*,

and the weighted sum of all distances is sum_ij W_ij C_ji^H C_ij for one
Hermitian I x I term-weight matrix W (I hypotheses; scale, pair priorities
and alpha products folded in).  One evaluation costs O(I N^2 + I^2 N M),
against O(N^4) per trace term for the dense form.  The waveform matrix
comes from E_ij = U_i^T Q U_j^* (M x M).

The Q sweep goes row by row.  Within row m the entries couple only through
the N x N matrix H_m = V^T (W o A_m) V^* (V stacks the v_i as rows,
A_m[i, j] = U_i[m] . U_j[m]^*), whose diagonal is the self-quadratic
coefficient chi of each entry.  So a row costs one contraction for its
starting gradient, O(N) plain-complex work per entry against the couplings
of the entries already updated, and one rank-one carrier update at its end.

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

    Derived: ``factors`` stacks U_i = diag(a_i) G_i (I x N x M);
    ``term_weights`` is the Hermitian I x I matrix W of the weighted sum
    sum_ij W_ij tr(Q^H A_ij Q B_ij) (self terms W_ii = s |alpha_i|^2
    sum_{j != i} w_ij of every pair hypothesis i belongs to, cross terms
    W_ij = -s w_ij alpha_i alpha_j^* for i < j and W_ji = W_ij^*).  Per IRS
    row m, ``row_coupling[m]`` is W o A_m with A_m[i, j] = U_i[m] . U_j[m]^*
    (N x I x I) and ``gradient_weights[m, i]`` holds W_ij U_j[m]^* flattened
    over (j, k) (N x I x 1 x I M): the weights of Q's in-row coupling and of
    its gradient entries.
    """

    channels: list
    steering: np.ndarray
    alphas: np.ndarray
    weights: np.ndarray
    snapshots: int
    noise_power: float
    factors: np.ndarray = field(init=False, repr=False)
    term_weights: np.ndarray = field(init=False, repr=False)
    row_coupling: np.ndarray = field(init=False, repr=False)
    gradient_weights: np.ndarray = field(init=False, repr=False)

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
        self.term_weights = w
        self.row_coupling = w * np.einsum("imk,jmk->mij", u, u.conj())
        u_rows = u.conj().transpose(1, 0, 2)  # (N, I, M): U_j[m]^*
        self.gradient_weights = (w[None, :, :, None] * u_rows[:, None]).reshape(
            self.n_elements, n_hyp, 1, -1)

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


class _Carriers:
    """The one distance evaluator: carriers C_ij = U_i^T Q v_j^*, v_j = U_j x.

    With the context's term weights W it gives the weighted trace sum
    sum_ij W_ij C_ji^H C_ij, the Q-gradient entries of row m,
    [sum_ij W_ij A_ij Q B_ij]_{mn} = sum_ij W_ij v_i[n] U_j[m]^H C_ij, and
    the in-row couplings H_m.  Setting Q[m, n] += d moves each C_ij by
    d U_i[m] v_j[n]^*.  ``c`` holds the carriers as an I x I x M array.
    """

    def __init__(self, ctx: DistanceContext, q: np.ndarray, x: np.ndarray):
        self.ctx = ctx
        self.v = ctx.factors @ x
        self.c = np.einsum("inm,jn->ijm", ctx.factors, self.v.conj() @ q.T)

    def distance(self) -> float:
        return float(np.real(np.einsum("ij,jim,ijm->", self.ctx.term_weights,
                                       self.c.conj(), self.c)))

    def coupling(self) -> np.ndarray:
        """H[m] = V^T (W o A_m) V^* (N x N x N): H[m][n, n'] is the change of
        gradient entry (m, n) per unit step of Q[m, n']; its diagonal is
        chi[m, n] = sum_ij W_ij A_ij(m, m) B_ij(n, n)."""
        return self.v.T @ self.ctx.row_coupling @ self.v.conj()

    def row_gradient(self, m: int) -> np.ndarray:
        """Gradient entries (m, n) for every column n at the current Q."""
        n_hyp = self.v.shape[0]
        t = self.ctx.gradient_weights[m] @ self.c.reshape(n_hyp, -1, 1)
        return t.ravel() @ self.v

    def step_row(self, m: int, d) -> None:
        """Track Q[m, :] += d: C_ij += U_i[m] (v_j^H d)."""
        self.c += self.ctx.factors[:, m, None, :] \
            * (self.v.conj() @ np.asarray(d))[None, :, None]


def pair_distance(ctx: DistanceContext, q: np.ndarray, x: np.ndarray,
                  i: int, j: int) -> float:
    """Inter-hypothesis distance phi_ij evaluated on a lifted matrix Q."""
    if i == j:
        return 0.0
    pair = np.zeros((ctx.n_hypotheses, ctx.n_hypotheses))
    pair[min(i, j), max(i, j)] = 1.0
    return _Carriers(replace(ctx, weights=pair), q, x).distance()


def weighted_distance(ctx: DistanceContext, q: np.ndarray, x: np.ndarray) -> float:
    """Weighted sum of pairwise distances at (Q, x)."""
    return _Carriers(ctx, q, x).distance()


def penalty_value(q: np.ndarray, theta: np.ndarray, rho: float) -> float:
    n = theta.size
    return float((np.real(theta.conj() @ q @ theta) - n * n) / (2.0 * rho))


def constraint_violation(q: np.ndarray, theta: np.ndarray) -> float:
    """xi = (N^2 - Re{theta^H Q theta}) / N^2; zero iff Q = theta theta^H."""
    n = theta.size
    return float((n * n - np.real(theta.conj() @ q @ theta)) / (n * n))


@dataclass
class OptimizerState:
    """Block variables and penalty bookkeeping of one design run."""

    q: np.ndarray
    theta: np.ndarray
    x: np.ndarray
    rho: float
    power_budget: float

    def validate(self):
        if np.abs(np.abs(self.q) - 1.0).max() > 1e-9:
            raise ValueError("Q entries must be unit modulus")
        if np.abs(np.abs(self.theta) - 1.0).max() > 1e-9:
            raise ValueError("theta must be unit modulus")
        if np.linalg.norm(self.x) ** 2 > self.power_budget * (1 + 1e-9):
            raise ValueError("waveform exceeds the power budget")

    def objective(self, ctx: DistanceContext) -> float:
        return weighted_distance(ctx, self.q, self.x) \
            + penalty_value(self.q, self.theta, self.rho)


def update_q(state: OptimizerState, ctx: DistanceContext,
             on_update=None) -> OptimizerState:
    """One Gauss-Seidel sweep over all Q entries (phase projections).

    Each entry is set to the phase of its linear coefficient in the
    penalized objective: the weighted distance gradient minus the
    self-quadratic part, plus the penalty's theta theta^H term.  Row by
    row, that coefficient is the row's starting value ``base`` plus the
    in-row couplings of the steps already taken in the row; the scalar
    steps run on plain Python complex numbers, and the carriers take the
    row's steps at its end.
    """
    sweep = _Carriers(ctx, state.q, state.x)
    coupling = sweep.coupling()
    q = state.q
    theta = state.theta
    # Only row m's own steps change row m, so its starting entries, their
    # self-quadratic parts and the penalty terms are known at sweep start.
    static = (np.outer(theta, theta.conj() / (4.0 * state.rho))
              - q * np.diagonal(coupling, axis1=1, axis2=2))
    for m, (h_rows, old) in enumerate(zip(coupling.tolist(), q.tolist())):
        base = (sweep.row_gradient(m) + static[m]).tolist()
        steps = []
        for col, h_row in enumerate(h_rows):
            mu = base[col] + sum(map(mul, steps, h_row))
            if mu == 0:
                steps.append(0j)
                continue
            new = cmath.exp(1j * cmath.phase(mu))
            delta = new - old[col]
            if delta != 0:
                q[m, col] = new
            steps.append(delta)
            if on_update is not None:
                on_update()
        sweep.step_row(m, steps)
    return state


def assemble_waveform_matrix(ctx: DistanceContext, q: np.ndarray) -> np.ndarray:
    """Hermitian matrix Z with x^H Z x = weighted sum distance at fixed Q.

    With E_ij = U_i^T Q U_j^* (M x M), tr(Q^H A_ij Q B_ij) = x^H E_ij^T E_ji^* x.
    """
    u = ctx.factors
    e = np.einsum("ink,jnl->ijkl", u, q @ u.conj())
    z = np.einsum("ij,ijkm,jikn->mn", ctx.term_weights, e, e.conj())
    return (z + z.conj().T) / 2.0


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
    """Waveform block: power-saturated dominant eigenvector of Z.

    Keeps the previous waveform when the objective has no x dependence
    (single hypothesis or all-zero weights).
    """
    z = assemble_waveform_matrix(ctx, state.q)
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
    d0 = weighted_distance(ctx, q, x)
    rho = rho_init if rho_init is not None else 1e-2 * (d0 + 1.0)
    state = OptimizerState(q=q, theta=theta, x=x, rho=rho,
                           power_budget=power_budget)
    state.validate()

    trace = []
    converged = False
    outer = 0
    for outer in range(1, outer_cap + 1):
        prev = state.objective(ctx)
        if on_block_update is not None:
            report = lambda: on_block_update(state.objective(ctx), state.rho)  # noqa: E731
        for _ in range(inner_cap):
            if on_block_update is None:
                update_q(state, ctx)
                update_x(state, ctx)
                update_theta(state)
            else:
                update_q(state, ctx, on_update=report)
                update_x(state, ctx)
                report()
                update_theta(state, on_update=report)
            cur = state.objective(ctx)
            if cur - prev <= inner_tol * abs(prev):
                prev = cur
                break
            prev = cur
        xi = constraint_violation(state.q, state.theta)
        trace.append((outer, state.rho, xi, prev,
                      weighted_distance(ctx, state.q, state.x)))
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

    state.validate()
    return WaveformDesign(x=state.x, theta=state.theta,
                          violation=constraint_violation(state.q, state.theta),
                          converged=converged, outer_iterations=outer,
                          objective=state.objective(ctx),
                          distance=weighted_distance(ctx, state.q, state.x),
                          q=state.q, trace=trace)
