"""Per-cycle Bayesian multi-hypothesis localization engine.

The angular region of interest is partitioned into I grids; hypothesis i
asserts the target sits in grid i, represented by the grid-center steering
vector.  Each localization cycle:

1. the BS transmits a snapshot-repeated waveform through the IRS and
   receives the echo  y = gamma f + n  with gamma = alpha a^T Theta G x;
2. for every hypothesis the unknown pair (gamma, sign vector delta of the
   channel estimate) is fit by ML -- Dinkelbach iterations of
   :mod:`irsloc.bqp` over the sign vectors plus a closed-form gamma (at
   echo scales they stop after one exact inner solve);
3. the hypothesis probabilities are updated by Bayes' rule on the Gaussian
   echo likelihoods (log-domain with max subtraction);
4. the target coefficient alpha is re-estimated per hypothesis.

Localization terminates once the largest posterior exceeds a threshold;
the winning hypothesis also resolves the channel sign ambiguity, giving
the complete channel diag(delta) G_hat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bqp import DegenerateRatioError, RatioProblem, dinkelbach_solve
from .scene import Scene, SceneConfig, steering_vector
from .util import as_rng, crandn, read_only


class DegenerateHypothesisError(ValueError):
    """A hypothesis produced an identically-zero model response."""


@dataclass
class HypothesisGrid:
    """Uniform partition of the elevation range at fixed azimuth.

    ``steering`` holds one grid-center steering vector per hypothesis,
    column-wise (N x I), read-only: a campaign builds one grid per sweep
    point and every trial of the point reads it.
    """

    theta_edges_deg: np.ndarray
    phi_deg: float
    centers_deg: np.ndarray
    steering: np.ndarray

    @property
    def n_hypotheses(self) -> int:
        return self.centers_deg.size

    def true_hypothesis(self, theta_deg: float) -> int:
        """Index of the grid containing the given elevation angle."""
        edges = self.theta_edges_deg
        if not edges[0] <= theta_deg < edges[-1]:
            raise ValueError(f"the hypothesis grid [{edges[0]}, {edges[-1]}) "
                             f"misses the elevation {theta_deg}")
        return int(np.searchsorted(edges, theta_deg, side="right") - 1)


def build_hypothesis_grid(config: SceneConfig, n_grids: int,
                          theta_lo_deg: float = 52.5,
                          theta_hi_deg: float = 72.5,
                          phi_deg: float = 270.0) -> HypothesisGrid:
    """Divide [theta_lo, theta_hi) uniformly; steer at the grid centers."""
    if n_grids < 1:
        raise ValueError("need at least one hypothesis")
    edges = np.linspace(theta_lo_deg, theta_hi_deg, n_grids + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    phi = np.deg2rad(phi_deg)
    steering = np.column_stack([
        steering_vector(np.deg2rad(c), phi, config) for c in centers])
    return HypothesisGrid(theta_edges_deg=edges, phi_deg=phi_deg,
                          centers_deg=centers, steering=read_only(steering))


def hypothesis_separation(steering: np.ndarray) -> np.ndarray:
    """I x I matrix 1 - |mean_n (a_i,n conj(a_j,n))^2| over the steering
    columns a_i of an N x I grid.

    gamma absorbs a common complex gain and delta per-element signs, so
    hypotheses i and j give the same echo model when a_i = c (a_j o s) for
    a complex c and a sign vector s.  For unit-modulus steering that holds
    exactly when (a_i,n conj(a_j,n))^2 is the same for every element n,
    where the entry is 0; it is 0 on the diagonal.
    """
    prod = steering[:, :, None] * steering[:, None, :].conj()
    return 1.0 - np.abs(np.mean(prod ** 2, axis=0))


@dataclass
class BeliefState:
    """Posterior over hypotheses plus per-hypothesis nuisance estimates."""

    cycle: int
    probs: np.ndarray
    gammas: np.ndarray
    deltas: np.ndarray
    alphas: np.ndarray
    underflow: bool = False

    def validate(self):
        if np.any(self.probs < -1e-12) or abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError("belief is not a probability simplex")

    @property
    def argmax(self) -> int:
        return int(np.argmax(self.probs))


def initial_belief(n_hypotheses: int, n_elements: int) -> BeliefState:
    """Uniform prior, all-ones sign vectors, zero nuisance estimates."""
    return BeliefState(cycle=0,
                       probs=np.full(n_hypotheses, 1.0 / n_hypotheses),
                       gammas=np.zeros(n_hypotheses, dtype=complex),
                       deltas=np.ones((n_hypotheses, n_elements)),
                       alphas=np.zeros(n_hypotheses, dtype=complex))


@dataclass
class CycleIO:
    """Waveform / IRS state driving one cycle and the echo it produced."""

    x: np.ndarray
    theta: np.ndarray
    y: np.ndarray
    snapshots: int


def _check_cycle_inputs(x: np.ndarray, theta: np.ndarray,
                        power_budget: float | None):
    if np.abs(np.abs(theta) - 1.0).max() > 1e-9:
        raise ValueError("IRS phase vector must be unit modulus")
    if power_budget is not None:
        power = float(np.linalg.norm(x) ** 2)
        if power > power_budget * (1 + 1e-9):
            raise ValueError(f"waveform power {power} exceeds budget {power_budget}")


def simulate_echo(scene: Scene, x: np.ndarray, theta: np.ndarray,
                  snapshots: int, seed=None) -> np.ndarray:
    """Vectorized echo of one cycle: alpha G^T Theta a a^T Theta G X + noise.

    The IRS keeps the same phases during transmission and reception, and
    the waveform repeats over ``snapshots`` slots, so the noiseless echo is
    one M-vector tiled L times.
    """
    if snapshots < 1:
        raise ValueError("need at least one snapshot")
    _check_cycle_inputs(x, theta, None)
    rng = as_rng(seed)
    sigma2 = scene.config.noise_power
    mix = theta * scene.a
    receive = scene.G.T @ mix                # G^T Theta a
    transmit = mix @ (scene.G @ x)           # a^T Theta G x
    column = scene.alpha * transmit * receive
    y = np.tile(column, snapshots)
    if sigma2 > 0:
        y = y + np.sqrt(sigma2) * crandn(rng, y.size)
    return y


def hypothesis_design(g_hat: np.ndarray, theta: np.ndarray,
                      steering_j: np.ndarray, snapshots: int) -> np.ndarray:
    """Observation matrix mapping a sign vector to the expected echo.

    Column n is (theta_n a_n) times the n-th channel row replicated over
    snapshots, so that  ybar = gamma Phi delta.
    """
    block = np.tile(g_hat.T, (snapshots, 1))
    return block * (theta * steering_j)[None, :]


def estimate_gamma(phi: np.ndarray, delta: np.ndarray, y: np.ndarray) -> complex:
    """Closed-form LS-optimal echo gain: delta^H Phi^H y / ||Phi delta||^2."""
    model = phi @ delta
    den = float(np.linalg.norm(model) ** 2)
    # zero to below rounding relative to Phi's scale, whatever that scale
    if den <= np.finfo(float).eps ** 2 * float(np.linalg.norm(phi) ** 2):
        raise DegenerateHypothesisError("hypothesis response vanished")
    return complex(model.conj() @ y / den)


@dataclass
class JointMlFit:
    gamma: complex
    delta: np.ndarray
    residual: float


def joint_ml(y: np.ndarray, phi: np.ndarray,
             delta_init: np.ndarray | None = None) -> JointMlFit:
    """ML fit of (gamma, delta) for one hypothesis.

    Profiling out gamma reduces the fit to maximizing the Rayleigh-type
    ratio of Phi^H y y^H Phi over Phi^H Phi on sign vectors, built by
    :meth:`RatioProblem.least_squares` without the matrix checks (a
    non-finite Phi or y raises :class:`DegenerateRatioError`); the residual
    is ||y - gamma Phi delta||^2 at the fitted gamma and delta, formed
    directly, not as ||y||^2 minus the ratio, which cancels.  At echo
    scales the Dinkelbach stop ends the fit after one inner solve, so
    delta need not maximize the ratio.
    """
    prob = RatioProblem.least_squares(phi, y)
    res = dinkelbach_solve(prob, delta_init=delta_init)
    gamma = estimate_gamma(phi, res.delta, y)
    residual = float(np.linalg.norm(y - gamma * (phi @ res.delta)) ** 2)
    return JointMlFit(gamma=gamma, delta=res.delta, residual=residual)


def bayes_update(probs: np.ndarray, residuals: np.ndarray,
                 sigma2: float,
                 echo_energy: float = 0.0) -> tuple[np.ndarray, bool]:
    """Posterior over hypotheses from Gaussian echo likelihoods.

    Works in the log domain with max subtraction; the common
    (pi sigma^2)^{-ML} factor cancels.  With sigma2 = 0 the likelihood
    degenerates to an indicator on the minimal-residual hypotheses; mass
    is split evenly among numerically tied minimizers, i.e. those within
    1e-9 * max(||y||^2, best residual) of the best residual.  The echo
    energy ||y||^2 sets the rounding floor of ||y - gamma Phi delta||^2,
    so hypotheses the IRS cannot tell apart tie instead of being ranked
    by rounding noise.  ``echo_energy`` is ignored when sigma2 > 0.
    """
    probs = np.asarray(probs, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if sigma2 <= 0:
        best = residuals.min()
        band = 1e-9 * max(echo_energy, best)
        mask = (residuals <= best + band) & (probs > 0)
        if not mask.any():
            return probs.copy(), True
        out = np.where(mask, probs, 0.0)
        return out / out.sum(), False
    with np.errstate(divide="ignore"):
        logw = np.log(probs) - residuals / sigma2
    finite = np.isfinite(logw)
    if not finite.any():
        return probs.copy(), True
    w = np.exp(logw - logw[finite].max())
    total = w.sum()
    if not np.isfinite(total) or total <= 0:
        return probs.copy(), True
    return w / total, False


def estimate_alpha(gamma: complex, theta: np.ndarray, delta: np.ndarray,
                   g_hat: np.ndarray, x: np.ndarray, steering_j: np.ndarray,
                   previous: complex = 0.0) -> tuple[complex, bool]:
    """Target coefficient gamma / (a^T Theta diag(delta) G_hat x).

    Returns (alpha, ok); a near-zero denominator keeps the previous value
    with ok=False.
    """
    gx = g_hat @ x
    den = complex(np.sum(steering_j * theta * delta * gx))
    floor = 1e-12 * float(np.linalg.norm(gx)) * np.sqrt(gx.size)
    if abs(den) <= floor:
        return previous, False
    return complex(gamma) / den, True


@dataclass
class CycleDiagnostics:
    """Per-cycle record: one row per hypothesis plus the raw cycle I/O."""

    io: CycleIO = field(repr=False, default=None)
    residuals: np.ndarray = None
    alpha_ok: np.ndarray = None


def run_cycle(scene: Scene, g_hat: np.ndarray, grid: HypothesisGrid,
              belief: BeliefState, x: np.ndarray, theta: np.ndarray,
              snapshots: int, seed=None, power_budget: float | None = None
              ) -> tuple[BeliefState, CycleDiagnostics]:
    """One transmission-reception-calculation round.

    Simulates the echo, fits (gamma, delta) per hypothesis (warm-started
    from the previous cycle's sign vectors), updates the belief, and
    re-estimates alpha per hypothesis.
    """
    belief.validate()
    _check_cycle_inputs(x, theta, power_budget)
    y = simulate_echo(scene, x, theta, snapshots, seed=seed)

    n_hyp = grid.n_hypotheses
    residuals = np.empty(n_hyp)
    gammas = np.empty(n_hyp, dtype=complex)
    deltas = np.empty_like(belief.deltas)
    alphas = np.empty(n_hyp, dtype=complex)
    alpha_ok = np.empty(n_hyp, dtype=bool)
    for j in range(n_hyp):
        phi = hypothesis_design(g_hat, theta, grid.steering[:, j], snapshots)
        try:
            fit = joint_ml(y, phi, delta_init=belief.deltas[j])
        except DegenerateRatioError as exc:
            raise DegenerateHypothesisError(
                f"cycle {belief.cycle + 1}, hypothesis {j}: {exc}") from exc
        residuals[j] = fit.residual
        gammas[j] = fit.gamma
        deltas[j] = fit.delta
        alphas[j], alpha_ok[j] = estimate_alpha(
            fit.gamma, theta, fit.delta, g_hat, x, grid.steering[:, j],
            previous=belief.alphas[j])

    probs, underflow = bayes_update(belief.probs, residuals,
                                    scene.config.noise_power,
                                    echo_energy=float(np.linalg.norm(y) ** 2))
    new_belief = BeliefState(cycle=belief.cycle + 1, probs=probs,
                             gammas=gammas, deltas=deltas, alphas=alphas,
                             underflow=underflow)
    new_belief.validate()
    diag = CycleDiagnostics(io=CycleIO(x=x, theta=theta, y=y, snapshots=snapshots),
                            residuals=residuals, alpha_ok=alpha_ok)
    return new_belief, diag


@dataclass
class TerminationDecision:
    terminated: bool
    winner: int | None = None
    probability: float = 0.0
    resolved_channel: np.ndarray = field(repr=False, default=None)


def check_termination(belief: BeliefState, g_hat: np.ndarray,
                      threshold: float = 0.95) -> TerminationDecision:
    """Stop once the top posterior clears the threshold.

    The winning hypothesis's sign vector resolves the channel ambiguity:
    the complete channel estimate is diag(delta) G_hat.
    """
    belief.validate()
    top = belief.argmax
    p = float(belief.probs[top])
    if p < threshold:
        return TerminationDecision(terminated=False, probability=p)
    resolved = belief.deltas[top][:, None] * g_hat
    return TerminationDecision(terminated=True, winner=top, probability=p,
                               resolved_channel=resolved)
