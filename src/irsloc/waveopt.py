"""Joint transmit-waveform / IRS-phase design for the next cycle.

The design maximizes the weighted sum of pairwise inter-hypothesis
distances (symmetrized relative entropy between the Gaussian echo laws,
which reduces to scaled squared mean differences).  With the hypothesis
factors U_i = diag(a_i) G_i (N x M), hypothesis i's echo mean is
alpha_i s_i b_i with the carriers

    b_i = U_i^T theta (M),    s_i = v_i^T theta,    v_i = U_i x,

so the weighted distance is

    D(theta, x) = sum_ij W_ij s_i s_j^* (b_j^H b_i)

for one Hermitian I x I term-weight matrix W (I hypotheses; the scale
L / sigma^2, the pair priorities and the alpha products folded in).  D is
quartic in the IRS phase vector theta, because theta enters both the
transmit and the receive leg.

``optimize`` is an exact element-wise ascent in the theta domain.  With
every other element fixed, the carriers are affine in theta_n = z, so on
the unit circle D = c0 + 2 Re(c1 z + c2 z^2), a degree-2 trigonometric
polynomial whose coefficients are a few I x I / I x M products of the
split carriers.  Its maximizer is a unit-circle root of
2 c2 z^4 + c1 z^3 - c1^* z - 2 c2^* = 0; a Newton iteration on the phase
from the current z finds it, and a stationary z is the global maximizer
exactly when Re(c1 z + 2 c2 z^2) >= 2 |c2| (D(z) - D(z') then factors as
|z - z'|^2 times a degree-1 polynomial that is nonnegative on the circle).
Elements the test does not certify take the best of the quartic's roots.
A round is N element updates followed by the waveform update, the
power-saturated dominant eigenvector of the M x M matrix Z with
x^H Z x = D; every step, and so every round, never decreases D, and the
design stops once a round raises D by less than ``accuracy`` relative.

``penalty_optimize`` is the paper's method, kept as the reference.  It
lifts Q = theta theta^H, which turns each distance into

    phi_ij = s (|a_i|^2 tr(Q^H A_ii Q B_ii)
              - 2 Re{a_i a_j^* tr(Q^H A_ij Q B_ij)}
              + |a_j|^2 tr(Q^H A_jj Q B_jj)),    s = L / sigma^2,

with A_ij fixed per hypothesis pair and B_ij rank-one in the waveform x.

Neither matrix is formed.  A_ij = U_j^* U_i^T has rank at most M and
B_ij = v_j^* v_i^T, so every trace is an inner product of M-vector
carriers,

    tr(Q^H A_ij Q B_ij) = C_ji^H C_ij,    C_ij = U_i^T Q v_j^* = E_ij x^*,

with E_ij = U_i^T Q U_j^* (M x M), and the weighted sum of all distances
is sum_ij W_ij C_ji^H C_ij.  One product of the stacked factors with Q
forms every E_ij, at O(I M N^2 + I^2 M^2 N), against O(N^4) per trace term
for the dense form.

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
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
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

    The Q sweep of ``penalty_optimize`` reads three more tables, built on
    first use: ``gradient_weights[i, m]`` holds W_ij U_j[m]^* flattened
    over (j, k) (I x N x I M): the weights of row m's gradient.
    ``row_steps[a]`` holds W_ij (U_i[a] . U_j[b]^*) at [i N + b, j]
    (N x I N x I): how a step of Q's row a moves the gradient weights of
    every row b.  Its diagonal blocks ``row_coupling[m]`` = W o A_m
    (N x I x I), with A_m[i, j] = U_i[m] . U_j[m]^*, weigh Q's in-row
    coupling.
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

    @cached_property
    def gradient_weights(self) -> np.ndarray:
        by_row = self.factors.transpose(1, 0, 2)  # (N, I, M): U_i[a]
        w = self.term_weights
        return (w[:, None, :, None] * by_row.conj()).reshape(
            self.n_hypotheses, self.n_elements, -1)

    @cached_property
    def row_steps(self) -> np.ndarray:
        n, n_hyp = self.n_elements, self.n_hypotheses
        flat = self.factors.transpose(1, 0, 2).reshape(n * n_hyp, -1)
        steps = self.term_weights[None, :, None, :] * (
            flat @ flat.conj().T).reshape(n, n_hyp, n, n_hyp)
        return steps.reshape(n, n_hyp * n, n_hyp)

    @cached_property
    def row_coupling(self) -> np.ndarray:
        n, n_hyp = self.n_elements, self.n_hypotheses
        diag = np.arange(n)
        return self.row_steps.reshape(n, n_hyp, n, n_hyp)[diag, :, diag, :]

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
    """Result of one design run.

    For ``optimize``, ``outer_iterations`` counts ascent rounds,
    ``objective`` is the distance and ``trace`` lists the distance at the
    start and after every round.  For ``penalty_optimize`` it counts
    penalty stages, and ``trace`` holds one (stage, rho, violation,
    objective, distance) row per stage.
    """

    x: np.ndarray
    theta: np.ndarray
    violation: float
    converged: bool
    outer_iterations: int
    objective: float
    distance: float
    q: np.ndarray = field(repr=False, default=None)
    trace: list = field(repr=False, default_factory=list)


def _start(x_init, theta_init, power_budget: float):
    """Unit-modulus phases and a power-saturated waveform (fresh arrays)."""
    theta = np.exp(1j * np.angle(np.asarray(theta_init, dtype=complex)))
    x = np.asarray(x_init, dtype=complex)
    x_norm = np.linalg.norm(x)
    if x_norm == 0:
        raise ValueError("waveform initialization must be nonzero")
    return theta, np.sqrt(power_budget) * x / x_norm


_EPS = float(np.finfo(float).eps)
_NEWTON_CAP = 16
ROUND_CAP = 1000


def _phase_peak(c1: complex, c2: complex, z: complex) -> complex | None:
    """Newton's method on the phase of Re(c1 z + c2 z^2) from z: the
    stationary point it reaches, or None if it leaves a concave stretch."""
    for _ in range(_NEWTON_CAP):
        lin, quad = c1 * z, c2 * z * z
        curvature = (lin + 4.0 * quad).real  # minus the second derivative
        if curvature <= 0:
            return None
        step = (lin + 2.0 * quad).imag / curvature
        z *= cmath.exp(-1j * step)
        if abs(step) <= 1e-9:  # quadratic convergence: z is stationary
            return z / abs(z)
    return None


def _best_phase(c1: complex, c2: complex, z: complex) -> complex:
    """The unit-modulus maximizer of Re(c1 z + c2 z^2), |c1| + |c2| = 1,
    starting from the current phase z (kept unless beaten).

    At a stationary point z* the drop 2 Re(c1 z* + c2 z*^2) -
    2 Re(c1 z + c2 z^2) factors as |z - z*|^2 (q0 + 2 Re(c2 z* z)) with
    q0 = Re(c1 z* + 2 c2 z*^2), so z* is the global maximizer exactly when
    q0 >= 2 |c2|.  Newton from z usually lands on such a certified point;
    otherwise the best unit-circle root of the stationarity quartic
    2 c2 z^4 + c1 z^3 - c1^* z - 2 c2^* is polished.
    """
    peak = _phase_peak(c1, c2, z)
    if peak is not None and (c1 * peak + 2.0 * c2 * peak * peak).real \
            >= 2.0 * abs(c2):
        return peak

    def value(u):
        return (c1 * u + c2 * u * u).real

    if abs(c2) <= _EPS * abs(c1):
        # the z^2 term is below rounding: the first harmonic's peak
        candidates = [c1.conjugate() / abs(c1)]
    else:
        roots = np.roots([2.0 * c2, c1, 0.0, -c1.conjugate(),
                          -2.0 * c2.conjugate()]).tolist()
        candidates = [r / abs(r) for r in roots if r != 0]
    best = max(candidates, key=value)
    polished = _phase_peak(c1, c2, best)
    if polished is not None and value(polished) > value(best):
        best = polished
    return best if value(best) > value(z) else z


class _PhaseAscent:
    """Carriers of the theta-domain ascent at the current (theta, x).

    ``w`` is W^T scaled by a power of two to a largest magnitude in
    [1/2, 1) (Hermitian, like W), so the ascent does the same arithmetic
    at every distance scale.
    ``rows[n]`` stacks [U_i[n] | v_i[n]] over the hypotheses
    (I x (M + 1)); the carriers ``state`` = [b_i | s_i] are
    sum_n theta_n rows[n], and ``quad[n]`` = w (v_i[n] U_i[n]) is the
    weighted z^2 factor of element n.  With mu_i = s_i b_i the scaled
    distance is vdot(mu, w mu), tracked in ``distance``.
    """

    def __init__(self, ctx: DistanceContext, theta: np.ndarray,
                 x: np.ndarray, w: np.ndarray):
        n_hyp, n, m = ctx.factors.shape
        self.ctx, self.theta, self.w, self.m = ctx, theta, w, m
        self.rows = np.empty((n, n_hyp, m + 1), dtype=complex)
        self.rows[:, :, :m] = ctx.factors.transpose(1, 0, 2)
        self.set_waveform(x)

    def set_waveform(self, x: np.ndarray):
        """Take a new x, re-form the carriers from theta and the distance."""
        m = self.m
        self.x = x
        rows = self.rows
        rows[:, :, m] = (self.ctx.factors @ x).T
        self.quad = self.w @ (rows[:, :, m:] * rows[:, :, :m])
        n, n_hyp, _ = rows.shape
        self.state = (self.theta @ rows.reshape(n, -1)).reshape(n_hyp, m + 1)
        mu = self.state[:, m:] * self.state[:, :m]
        self.distance = float(np.vdot(mu, self.w @ mu).real)

    def step(self, n: int):
        """Set theta_n to the exact maximizer of the distance over it.

        With theta_n = z the carriers are base + z rows[n], so
        mu_i = B0_i + B1_i z + B2_i z^2 and the distance is
        c0 + 2 Re(c1 z + c2 z^2) with c1 = <B0, w B1> + <B1, w B2> and
        c2 = <B0, w B2>.  An element whose coefficients are below the
        distance's rounding is left alone.
        """
        m = self.m
        t = complex(self.theta[n])
        row = self.rows[n]
        base = self.state - t * row
        s0 = base[:, m:]
        b0 = s0 * base[:, :m]
        b1 = row[:, m:] * base[:, :m] + s0 * row[:, :m]
        quad = self.quad[n]
        c2 = complex(np.vdot(b0, quad))
        c1 = complex(np.vdot(self.w @ b0, b1) + np.vdot(b1, quad))
        size = abs(c1) + abs(c2)
        if size <= _EPS * self.distance:
            return
        c1, c2 = c1 / size, c2 / size
        z = _best_phase(c1, c2, t)
        gain = (c1 * z + c2 * z * z - c1 * t - c2 * t * t).real
        if gain > 0:
            self.theta[n] = z
            self.state = base + z * row
            self.distance += 2.0 * gain * size

    def waveform_matrix(self) -> np.ndarray:
        """Hermitian Z (M x M) with x^H Z x the scaled distance at this
        theta: Z = B^H (w o (B^* B^T)) B, B stacking the carriers b_i."""
        b = self.state[:, :self.m]
        z = b.conj().T @ (self.w * (b.conj() @ b.T)) @ b
        return (z + z.conj().T) / 2.0

    def update_waveform(self, power: float):
        """x := the power-saturated dominant eigenvector of Z, or the
        current x when Z is zero (no x dependence)."""
        z = self.waveform_matrix()
        norm = np.linalg.norm(z)
        if not np.isfinite(norm):
            raise FloatingPointError("waveform matrix is not finite")
        self.set_waveform(dominant_power_vector(z, power) if norm > 0
                          else self.x)


def optimize(ctx: DistanceContext, x_init: np.ndarray, theta_init: np.ndarray,
             power_budget: float, accuracy: float = 1e-7) -> WaveformDesign:
    """Exact element-wise ascent in the theta domain.

    Starts from the unit-modulus projection of ``theta_init`` and a
    power-saturated ``x_init``.  A round sets every theta_n in turn to
    the exact maximizer of the distance over it, then x to the
    power-saturated dominant eigenvector of the waveform matrix (the
    previous x is kept when the matrix is zero).  The design stops once a
    round raises the distance by at most ``accuracy`` relative, or after
    ``ROUND_CAP`` rounds (``converged`` False).  With all term weights zero
    (a single hypothesis, or no pair weight) the start is returned.
    """
    if accuracy <= 0:
        raise ValueError("accuracy must be positive")
    theta, x = _start(x_init, theta_init, power_budget)
    w = ctx.term_weights
    top = float(np.abs(w).max())
    rounds, converged, trace = 0, True, [0.0]
    if top > 0:
        # W times 2^-e, |W| < 2^e: exact, and safe for the subnormal weights
        # of a near-certain belief, where dividing by ``top`` overflows
        e = math.frexp(top)[1]
        w = np.ldexp(w.real, -e) + 1j * np.ldexp(w.imag, -e)
        ascent = _PhaseAscent(ctx, theta, x, w.T)
        trace = [math.ldexp(ascent.distance, e)]
        converged = False
        for rounds in range(1, ROUND_CAP + 1):
            before = ascent.distance
            for n in range(theta.size):
                ascent.step(n)
            ascent.update_waveform(power_budget)
            trace.append(math.ldexp(ascent.distance, e))
            if ascent.distance - before <= accuracy * ascent.distance:
                converged = True
                break
        x = ascent.x
    q = np.outer(theta, theta.conj())
    return WaveformDesign(x=x, theta=theta,
                          violation=constraint_violation(q, theta),
                          converged=converged, outer_iterations=rounds,
                          objective=trace[-1], distance=trace[-1], trace=trace)


def penalty_optimize(ctx: DistanceContext, x_init: np.ndarray,
                     theta_init: np.ndarray, power_budget: float,
                     accuracy: float = 1e-7, penalty_scale: float = 0.5,
                     inner_tol: float = 1e-6, outer_cap: int = 60,
                     inner_cap: int = 100, rho_init: float | None = None,
                     on_block_update=None) -> WaveformDesign:
    """The paper's penalty method with inner three-block coordinate descent
    (the reference for ``optimize``).

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
    theta, x = _start(x_init, theta_init, power_budget)
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
