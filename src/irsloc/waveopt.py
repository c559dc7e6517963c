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

``penalty_optimize`` is the paper's method, kept in its literal form as
the reference.  It lifts Q = theta theta^H; with the carriers
C_ij = U_i^T Q v_j^* the weighted distance is sum_ij W_ij C_ji^H C_ij,
the rank-1 coupling is enforced by a penalty
(1/2 rho)(Re{theta^H Q theta} - N^2) whose weight grows as rho shrinks
geometrically, and each stage is block coordinate descent over the
entries of Q, the waveform x and the entries of theta, every block an
exact coordinate maximization.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

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
    W_ij = -s w_ij alpha_i alpha_j^* for i < j and W_ji = W_ij^*).
    """

    channels: list
    steering: np.ndarray
    alphas: np.ndarray
    weights: np.ndarray
    snapshots: int
    noise_power: float
    factors: np.ndarray = field(init=False, repr=False)
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
        self.term_weights = w

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


def pair_distance(ctx: DistanceContext, q: np.ndarray, x: np.ndarray,
                  i: int, j: int) -> float:
    """Inter-hypothesis distance phi_ij evaluated on a lifted matrix Q."""
    if i == j:
        return 0.0
    pair = np.zeros((ctx.n_hypotheses, ctx.n_hypotheses))
    pair[min(i, j), max(i, j)] = 1.0
    return weighted_distance(replace(ctx, weights=pair), q, x)


def weighted_distance(ctx: DistanceContext, q: np.ndarray, x: np.ndarray) -> float:
    """Weighted sum of pairwise distances at (Q, x): sum_ij W_ij C_ji^H C_ij
    over the carriers C_ij = U_i^T Q v_j^*, v_j = U_j x."""
    v = ctx.factors @ x
    c = np.einsum("inm,jn->ijm", ctx.factors, v.conj() @ q.T)
    return float(np.einsum("ij,jim,ijm->", ctx.term_weights, c.conj(), c).real)


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
        """Penalized objective, evaluated from scratch."""
        return weighted_distance(ctx, self.q, self.x) \
            + penalty_value(self.q, self.theta, self.rho)


def update_q(state: OptimizerState, ctx: DistanceContext,
             on_update=None) -> OptimizerState:
    """One Gauss-Seidel sweep over all Q entries (phase projections).

    Entry (m, n) is set to the phase of its linear coefficient in the
    penalized objective: the distance gradient sum_ij W_ij (A_ij Q B_ij)
    at (m, n), read off the carriers C_ij, minus the entry's
    self-quadratic part chi[m, n] Q[m, n], plus the penalty's
    theta_m theta_n^* / (4 rho).  A step of Q[m, n] moves every carrier
    C_ij by U_i[m] v_j[n]^* times the step.  ``on_update`` is called after
    every entry whose coefficient is nonzero; a zero coefficient leaves
    the entry as it is.
    """
    w, u = ctx.term_weights, ctx.factors
    v = u @ state.x
    c = np.einsum("inm,jn->ijm", u, v.conj() @ state.q.T).ravel()
    a_diag = np.einsum("imk,jmk->ijm", u, u.conj())
    b_diag = v[:, None, :] * v.conj()[None, :, :]
    chi = np.einsum("ij,ijm,ijn->mn", w, a_diag, b_diag)
    q, theta = state.q, state.theta
    quarter_rho = 1.0 / (4.0 * state.rho)
    n = ctx.n_elements
    for m in range(n):
        grad = np.einsum("ij,in,jk->nijk", w, v, u[:, m].conj()).reshape(n, -1)
        step = np.einsum("ik,jn->nijk", u[:, m], v.conj()).reshape(n, -1)
        for col in range(n):
            mu = grad[col] @ c
            mu += quarter_rho * theta[m] * np.conj(theta[col])
            mu -= q[m, col] * chi[m, col]
            if mu == 0:
                continue
            # exp(i phase), not mu / |mu|: the rounded phase absorbs
            # last-bit changes of mu, which a tiny distance would otherwise
            # carry into the inner stop test
            new = np.exp(1j * np.angle(mu))
            c += (new - q[m, col]) * step[col]
            q[m, col] = new
            if on_update is not None:
                on_update()
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
    """Waveform block: power-saturated dominant eigenvector of the Hermitian
    Z = sum_ij W_ij E_ij^T E_ji^* over E_ij = U_i^T Q U_j^* (M x M), so that
    x^H Z x is the weighted distance at the current Q.

    Keeps the previous waveform when the objective has no x dependence
    (single hypothesis or all-zero weights).
    """
    u = ctx.factors
    e = np.einsum("ink,jnl->ijkl", u, state.q @ u.conj())
    z = np.einsum("ij,ijkm,jikn->mn", ctx.term_weights, e, e.conj())
    z = (z + z.conj().T) / 2.0
    norm = np.linalg.norm(z)
    if not np.isfinite(norm):
        raise FloatingPointError("waveform matrix is not finite")
    if norm == 0:
        return state
    state.x = dominant_power_vector(z, state.power_budget)
    return state


def update_theta(state: OptimizerState, on_update=None) -> OptimizerState:
    """One sweep of phase projections of theta against (Q + Q^H) / 2."""
    p = (state.q + state.q.conj().T) / 2.0
    theta = state.theta
    for m in range(theta.size):
        v = p[m, :] @ theta - p[m, m] * theta[m]
        if v == 0:
            continue
        theta[m] = np.exp(1j * np.angle(v))
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
    distance = weighted_distance(ctx, q, x)
    if rho_init is None:
        state.rho = 1e-2 * (distance + 1.0)
    state.validate()

    report = None
    if on_block_update is not None:
        report = lambda: on_block_update(state.objective(ctx), state.rho)  # noqa: E731
    trace = []
    converged = False
    outer = 0
    # ``distance`` is the weighted distance at the current (Q, x)
    for outer in range(1, outer_cap + 1):
        prev = distance + penalty_value(state.q, state.theta, state.rho)
        for _ in range(inner_cap):
            update_q(state, ctx, on_update=report)
            update_x(state, ctx)
            if report is not None:
                report()
            update_theta(state, on_update=report)
            distance = weighted_distance(ctx, state.q, state.x)
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
            distance = weighted_distance(ctx, state.q, state.x)

    state.validate()
    return WaveformDesign(x=state.x, theta=state.theta,
                          violation=constraint_violation(state.q, state.theta),
                          converged=converged, outer_iterations=outer,
                          objective=distance + penalty_value(
                              state.q, state.theta, state.rho),
                          distance=distance, q=state.q, trace=trace)
