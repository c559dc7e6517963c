"""Ground-truth physical world for the simulator.

A BS with M antennas, a passive IRS with N = N_x * N_y elements in the
x-y plane, and a point target in the NLoS region of the BS.  The scene
synthesizes everything the "real world" contributes to a simulation run:

* the BS-IRS channel G (N x M, Rayleigh fading scaled by path loss),
* the IRS steering vector a(theta, phi) toward the target,
* the round-trip target coefficient alpha (configured amplitude, random
  phase per Monte Carlo run).

IRS elements are enumerated x-major: element n maps to axis indices
(n // N_y, n % N_y), consistent with the Kronecker factorization
a = a_x kron a_y used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import as_rng, crandn, db2lin, dbm2watt


@dataclass(frozen=True)
class SceneConfig:
    """Geometry and propagation parameters of the simulated deployment.

    Distances are meters, angles degrees, powers in the dB units indicated
    by the field names.  Defaults mirror the reference deployment: IRS
    centered at the origin in the x-y plane, BS at (0, 3, 3), target in the
    (60 deg, 270 deg) direction from the IRS center, carrier wavelength
    0.06 m with half-wavelength element spacing.  The target range enters
    only through ``target_rcs_amplitude``, which sets |alpha| and so
    absorbs the IRS-target round-trip attenuation.  The random draws of a
    scene come from the seed given to :func:`synthesize_scene`.
    """

    m_antennas: int = 4
    n_x: int = 5
    n_y: int = 2
    lambda_c: float = 0.06
    d_x: float = 0.03
    d_y: float = 0.03
    bs_position: tuple[float, float, float] = (0.0, 3.0, 3.0)
    irs_center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    target_theta_deg: float = 60.0
    target_phi_deg: float = 270.0
    c0_db: float = -30.0
    d0_m: float = 1.0
    alpha0: float = 2.2
    sigma2_dbm: float = -120.0
    sigma2_si_db: float = -10.0
    sigma2_ref_db: float = -10.0
    target_rcs_amplitude: float = 1.0

    def __post_init__(self):
        if self.m_antennas < 2:
            raise ValueError("need at least 2 BS antennas (one Tx + one Rx)")
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError("IRS element counts must be >= 1")
        for name in ("lambda_c", "d_x", "d_y", "d0_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def n_elements(self) -> int:
        return self.n_x * self.n_y

    @property
    def bs_irs_distance(self) -> float:
        bs = np.asarray(self.bs_position, dtype=float)
        irs = np.asarray(self.irs_center, dtype=float)
        return float(np.linalg.norm(bs - irs))

    @property
    def noise_power(self) -> float:
        """Receiver noise power in watts; -inf dBm encodes a noiseless run."""
        if np.isinf(self.sigma2_dbm) and self.sigma2_dbm < 0:
            return 0.0
        return dbm2watt(self.sigma2_dbm)

    @property
    def si_power(self) -> float:
        """Self-interference channel power (linear)."""
        if np.isinf(self.sigma2_si_db) and self.sigma2_si_db < 0:
            return 0.0
        return db2lin(self.sigma2_si_db)

    @property
    def ref_power(self) -> float:
        """Environment scattering channel power (linear)."""
        if np.isinf(self.sigma2_ref_db) and self.sigma2_ref_db < 0:
            return 0.0
        return db2lin(self.sigma2_ref_db)


def path_loss(d: float, c0_db: float = -30.0, d0_m: float = 1.0,
              alpha0: float = 2.2) -> float:
    """Distance-dependent power gain C0 * (d / d0)^(-alpha0), linear units.

    ``c0_db`` is the gain at the reference distance ``d0_m`` in dB.
    """
    if d <= 0:
        raise ValueError(f"distance must be positive, got {d}")
    return db2lin(c0_db) * (d / d0_m) ** (-alpha0)


def steering_vector(theta: float, phi: float, config: SceneConfig) -> np.ndarray:
    """Planar-array steering vector a(theta, phi), angles in radians.

    a = a_x kron a_y with a_x(k) = exp(j 2 pi d_x (k-1) sin(theta)cos(phi)
    / lambda_c) and a_y built analogously from sin(theta)sin(phi).  Entries
    are unit modulus and a(1) = 1.
    """
    ux = np.sin(theta) * np.cos(phi)
    uy = np.sin(theta) * np.sin(phi)
    kx = 2.0 * np.pi * config.d_x * ux / config.lambda_c
    ky = 2.0 * np.pi * config.d_y * uy / config.lambda_c
    a_x = np.exp(1j * kx * np.arange(config.n_x))
    a_y = np.exp(1j * ky * np.arange(config.n_y))
    return np.kron(a_x, a_y)


@dataclass
class Scene:
    """One realized world: channel, steering vector, target coefficient.

    The static full-duplex leakage channels (self-interference and
    environment scattering) are not stored here: their shape depends on the
    Tx/Rx antenna split, so the pilot simulator redraws them per subframe
    from the powers recorded in the config.
    """

    config: SceneConfig
    G: np.ndarray
    a: np.ndarray
    alpha: complex

    @property
    def target_angles_rad(self) -> tuple[float, float]:
        return (np.deg2rad(self.config.target_theta_deg),
                np.deg2rad(self.config.target_phi_deg))


def synthesize_scene(config: SceneConfig, seed) -> Scene:
    """Draw a scene realization; deterministic given (config, seed).

    G entries are i.i.d. CN(0, path_loss(d_bs_irs)) (Rayleigh small-scale
    fading), the steering vector points at the configured target angles,
    and alpha has the configured amplitude with phase uniform in [0, 2 pi).
    ``seed`` is an int seed or a ``numpy.random.Generator``.
    """
    rng = as_rng(seed)
    gain = path_loss(config.bs_irs_distance, config.c0_db, config.d0_m,
                     config.alpha0)
    G = np.sqrt(gain) * crandn(rng, config.n_elements, config.m_antennas)
    theta, phi = np.deg2rad(config.target_theta_deg), np.deg2rad(config.target_phi_deg)
    a = steering_vector(theta, phi, config)
    alpha = config.target_rcs_amplitude * np.exp(2j * np.pi * rng.random())
    return Scene(config=config, G=G, a=a, alpha=complex(alpha))
