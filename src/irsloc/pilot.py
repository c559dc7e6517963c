"""Full-duplex differential pilot protocol for BS-IRS channel sounding.

The BS splits its M antennas into a transmit set A (size M_t) and a receive
set B; every C(M, M_t) split gets one subframe.  Within a subframe the IRS
steps through a sequence of phase states and the receive antennas observe,
per difference index l, the change of the reflected pilot between two slots
that share the same transmit vector:

    ytilde_B(p, l) = G_B^T dTheta(p, l) G_A x_A(p, l) + dn_B(p, l)

Differencing removes the static self-interference and environment-scatter
terms exactly; each difference uses its own pair of slots, so the
differenced noise is i.i.d. CN(0, 2 sigma^2 I).  Stacking the C differences
gives the linear model ytilde_B(p) = Phi omega(p) + dn_B(p) with
omega(p) = vec(G_A^T kr G_B^T) (kr = column-wise Kronecker product), whose
coordinates are the pairwise products g_{n,a} g_{n,b}.

The observation model leaves the pattern design free; here the IRS states
are columns of a DFT-phase matrix and dtheta rows are differences of
consecutive columns; with M_t > 1 each pattern is held for M_t difference
slots while the pilot vector cycles through an orthogonal DFT set, which
keeps the stacked design matrix full rank and well conditioned.

Every subframe shares Phi = pattern kron I_{M-M_t}, so the schedule holds
the C x N M_t ``pattern``, its pseudo-inverse (the LS solve of a round is
one product with it), rank check and the N x N pattern Gram matrix Kp of
Phi^H Phi = Kp kron I; ``build_design_matrix`` forms Phi as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from .scene import Scene
from .util import as_rng, crandn, khatri_rao, vec


class IdentifiabilityError(ValueError):
    """Raised when the pilot design cannot identify the channel products."""


@dataclass
class PilotSchedule:
    """Antenna splits, IRS phase-difference patterns and pilot symbols.

    ``delta_theta`` has one row per difference index (C x N); ``irs_base``
    holds the IRS state of the first slot of each difference (the second
    slot state is ``irs_base + delta_theta``).  ``pilots`` has one transmit
    vector per difference index (C x M_t).  All subframes share the same
    sequences, so they share one design matrix and one LS error covariance,
    whose factors below are computed on first use and kept read-only.
    """

    m_antennas: int
    m_t: int
    n_elements: int
    pilot_power: float
    subframes: list = field(repr=False, default_factory=list)
    delta_theta: np.ndarray = field(repr=False, default=None)
    irs_base: np.ndarray = field(repr=False, default=None)
    pilots: np.ndarray = field(repr=False, default=None)

    @property
    def n_subframes(self) -> int:
        return len(self.subframes)

    @property
    def n_diffs(self) -> int:
        return self.delta_theta.shape[0]

    @property
    def n_rx(self) -> int:
        return self.m_antennas - self.m_t

    def validate(self):
        full = set(range(self.m_antennas))
        for a_set, b_set in self.subframes:
            if set(a_set) | set(b_set) != full or set(a_set) & set(b_set):
                raise ValueError(f"invalid antenna split {a_set} / {b_set}")
        if self.n_diffs < self.n_elements * self.m_t:
            raise IdentifiabilityError(
                f"need C >= N*M_t = {self.n_elements * self.m_t} differences, "
                f"got {self.n_diffs}")
        if self.pilots.shape != (self.n_diffs, self.m_t):
            raise ValueError("pilot array shape mismatch")

    @cached_property
    def pattern(self) -> np.ndarray:
        """C x N M_t pattern matrix, row l = dtheta(l)^T kron x^T(l)."""
        pattern = (self.delta_theta[:, :, None] * self.pilots[:, None, :]
                   ).reshape(self.n_diffs, -1)
        pattern.flags.writeable = False
        return pattern

    @cached_property
    def _factor(self) -> tuple[np.ndarray, float]:
        """Pseudo-inverse and condition number of ``pattern`` from one SVD
        (Phi's: pinv kron I, and the same); raises IdentifiabilityError
        below full column rank or past condition number 1e10."""
        u, svals, vh = np.linalg.svd(self.pattern, full_matrices=False)
        if len(svals) < self.pattern.shape[1] or svals[-1] <= svals[0] * 1e-10:
            raise IdentifiabilityError(
                f"design matrix is rank deficient (cond={svals[0] / max(svals[-1], 1e-300):.3g})")
        pinv = (vh.conj().T / svals) @ u.conj().T
        pinv.flags.writeable = False
        return pinv, float(svals[0] / svals[-1])

    @property
    def pattern_pinv(self) -> np.ndarray:
        return self._factor[0]

    @property
    def condition_number(self) -> float:
        return self._factor[1]

    @cached_property
    def pattern_gram(self) -> np.ndarray:
        """The N x N IRS pattern Gram matrix Kp of Phi^H Phi = Kp kron I,
        which needs every pattern held for all M_t pilot vectors, and those
        vectors orthogonal with equal power (as ``build_schedule``'s DFT
        set is).  Raises ValueError when the pattern's Gram misses
        Kp kron I_{M_t} by more than 1e-12 of its largest entry."""
        if self.n_diffs % self.m_t:
            raise ValueError(
                f"n_diffs={self.n_diffs} is not a multiple of m_t={self.m_t} "
                "(a partly used last pattern); channel refinement needs "
                "every IRS pattern held for all m_t pilot vectors")
        first = self.pattern[:, ::self.m_t]  # the columns of pilot entry 0
        kp = first.conj().T @ first
        gram = self.pattern.conj().T @ self.pattern
        misfit = np.abs(gram - np.kron(kp, np.eye(self.m_t))).max()
        if misfit > 1e-12 * np.abs(gram).max():
            raise ValueError(
                f"the pattern Gram misses Kp kron I_{self.m_t} by "
                f"{misfit / np.abs(gram).max():.3g} of its largest entry; "
                "channel refinement needs the pilot vectors of every IRS "
                "pattern orthogonal and of equal power")
        kp.flags.writeable = False
        return kp


def schedule_efficiency(m_antennas: int, m_t: int, n_elements: int) -> float:
    """Product-estimates obtained per pilot slot, 2(M - M_t) / (N M (M-1)).

    With one subframe per antenna split, each row of the channel receives
    M_t (M - M_t) C(M, M_t) product estimates at a cost of C(M, M_t) N M_t
    pilot differences; normalizing by the M(M-1)/2 distinct pairs per row
    gives the closed form.  Maximal at M_t = 1.
    """
    return 2.0 * (m_antennas - m_t) / (n_elements * m_antennas * (m_antennas - 1))


def count_product_estimates(m_antennas: int, m_t: int) -> int:
    """Per-row number of pairwise-product estimates the full schedule yields."""
    return m_t * (m_antennas - m_t) * comb(m_antennas, m_t)


def build_schedule(m_antennas: int, m_t: int, n_elements: int,
                   n_diffs: int | None = None,
                   pilot_power: float = 1.0) -> PilotSchedule:
    """Enumerate all antenna splits and build the IRS / pilot sequences.

    ``n_diffs`` defaults to the identifiability minimum N * M_t.  The
    sequence arrays are read-only.
    """
    if not 1 <= m_t < m_antennas:
        raise ValueError(f"need 1 <= M_t < M, got M_t={m_t}, M={m_antennas}")
    c = n_elements * m_t if n_diffs is None else int(n_diffs)
    if c < n_elements * m_t:
        raise IdentifiabilityError(
            f"C={c} < N*M_t={n_elements * m_t}: design matrix cannot have "
            "full column rank")

    subframes = []
    for a_set in combinations(range(m_antennas), m_t):
        b_set = tuple(i for i in range(m_antennas) if i not in a_set)
        subframes.append((a_set, b_set))

    # IRS states: rows 1..N of a K-point DFT phase matrix, K = n_patterns+1.
    # C >= N*M_t guarantees n_patterns >= N, so every row index stays below
    # K and consecutive-column differences are nonzero for every element.
    n_patterns = -(-c // m_t)  # ceil
    k_pts = n_patterns + 1
    rows = np.arange(1, n_elements + 1)[:, None]
    cols = np.arange(k_pts)[None, :]
    states = np.exp(-2j * np.pi * rows * cols / k_pts)

    dft_mt = np.exp(-2j * np.pi * np.outer(np.arange(m_t), np.arange(m_t)) / m_t)
    pilot_set = np.sqrt(pilot_power / m_t) * dft_mt

    pattern_idx = np.arange(c) // m_t
    pilot_idx = np.arange(c) % m_t
    delta_theta = (states[:, pattern_idx + 1] - states[:, pattern_idx]).T
    irs_base = states[:, pattern_idx].T
    pilots = pilot_set[:, pilot_idx].T

    for arr in (delta_theta, irs_base, pilots):
        arr.flags.writeable = False  # campaigns share one schedule per point
    sched = PilotSchedule(m_antennas=m_antennas, m_t=m_t,
                          n_elements=n_elements, pilot_power=pilot_power,
                          subframes=subframes, delta_theta=delta_theta,
                          irs_base=irs_base, pilots=pilots)
    sched.validate()
    return sched


def build_design_matrix(schedule: PilotSchedule) -> np.ndarray:
    """Stacked design matrix Phi = pattern kron I_{M-M_t} of every subframe,
    C(M-M_t) x N M_t (M-M_t); the reference for the schedule's factors.

    Row block l is dtheta(l)^T kron (x^T(l) kron I_{M-M_t}).
    """
    return np.kron(schedule.pattern, np.eye(schedule.n_rx))


def true_omega(scene: Scene, schedule: PilotSchedule, p: int) -> np.ndarray:
    """Noise-free parameter vector vec(G_A^T kr G_B^T) of subframe p."""
    a_set, b_set = schedule.subframes[p]
    g_a = scene.G[:, list(a_set)]
    g_b = scene.G[:, list(b_set)]
    return vec(khatri_rao(g_a.T, g_b.T))


@dataclass
class ObservationSet:
    """Differential pilot observations of one estimation round.

    ``ytilde`` stacks the C(M - M_t)-dim differential observation of each
    subframe row-wise.  ``omega_ls`` holds the per-subframe LS estimates
    (P x dim, coordinate k (M - M_t) + r for pattern column k and receive
    antenna r), read-only: one product with ``pattern_pinv``.
    """

    schedule: PilotSchedule
    ytilde: np.ndarray
    sigma2: float
    omega_ls: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sched = self.schedule
        per_rx = self.ytilde.reshape(-1, sched.n_diffs, sched.n_rx)
        self.omega_ls = (sched.pattern_pinv @ per_rx).reshape(len(per_rx), -1)
        self.omega_ls.flags.writeable = False


def ls_covariance(gram: np.ndarray, sigma2: float) -> np.ndarray:
    """LS error covariance 2 sigma^2 gram^{-1} of a design with Gram matrix
    ``gram`` = Phi^H Phi."""
    if sigma2 <= 0:
        raise ValueError("covariance defined only for sigma2 > 0")
    return 2.0 * sigma2 * np.linalg.inv(gram)


def simulate_pilot_round(scene: Scene, schedule: PilotSchedule,
                         seed=None) -> ObservationSet:
    """Simulate one full pilot frame and return the stacked observations.

    Per subframe the static channels (self-interference + scatterers) are
    drawn once and cancel exactly in each difference; receiver noise is
    fresh per slot, so the differenced noise is i.i.d. CN(0, 2 sigma^2 I).
    """
    if schedule.n_elements != scene.config.n_elements \
            or schedule.m_antennas != scene.config.m_antennas:
        raise ValueError("schedule dimensions do not match the scene")
    rng = as_rng(seed)
    cfg = scene.config
    sigma2 = cfg.noise_power
    n_rx, c = schedule.n_rx, schedule.n_diffs

    # IRS states of both slots of every difference (C x 2 x N)
    thetas = np.stack([schedule.irs_base,
                       schedule.irs_base + schedule.delta_theta], axis=1)
    ytilde = np.empty((schedule.n_subframes, c * n_rx), dtype=complex)
    for p, (a_set, b_set) in enumerate(schedule.subframes):
        gax = schedule.pilots @ scene.G[:, list(a_set)].T
        g_b = scene.G[:, list(b_set)]
        h_static = (np.sqrt(cfg.si_power) * crandn(rng, n_rx, schedule.m_t)
                    + np.sqrt(cfg.ref_power) * crandn(rng, n_rx, schedule.m_t))
        y = ((thetas * gax[:, None, :]) @ g_b
             + (schedule.pilots @ h_static.T)[:, None, :])
        if sigma2 > 0:
            # the draws of crandn(rng, n_rx) per (difference, slot), in order
            z = rng.standard_normal((c, 2, 2, n_rx))
            y = y + np.sqrt(sigma2) * ((z[:, :, 0] + 1j * z[:, :, 1]) / np.sqrt(2.0))
        ytilde[p] = (y[:, 1] - y[:, 0]).reshape(-1)

    return ObservationSet(schedule=schedule, ytilde=ytilde, sigma2=sigma2)


# perfbench times this layer by wrapping it as chanest.ls_estimates
def ls_estimates(obs: ObservationSet) -> np.ndarray:
    """LS estimates for all subframes, stacked row-wise (P x dim)."""
    return obs.omega_ls
