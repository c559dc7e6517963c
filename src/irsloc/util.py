"""Small shared numerical helpers: dB conversions, vec/Khatri-Rao, RNG plumbing.

Conventions used across the package:

* complex arrays are numpy ``complex128``; a "vector" is 1-D, a "matrix" 2-D;
* ``vec`` stacks matrix columns (Fortran order), matching the usual
  ``vec(A X B) = (B^T kron A) vec(X)`` identities;
* every routine that draws randomness takes an explicit
  ``numpy.random.Generator`` (or an integer seed), never global state.
"""

from __future__ import annotations

import hashlib

import numpy as np


def db2lin(x_db: float) -> float:
    """Power ratio from dB."""
    return float(10.0 ** (x_db / 10.0))


def dbm2watt(x_dbm: float) -> float:
    """Transmit/noise power in watts from dBm."""
    return float(10.0 ** ((x_dbm - 30.0) / 10.0))


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, marked read-only: for arrays computed once and shared."""
    arr.flags.writeable = False
    return arr


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return np.asarray(a).reshape(-1, order="F")


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product of two matrices with equal column count."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column mismatch: {a.shape} vs {b.shape}")
    return np.einsum("in,jn->ijn", a, b).reshape(a.shape[0] * b.shape[0], a.shape[1])


def as_rng(seed_or_rng) -> np.random.Generator:
    """Accept an int seed or a Generator; return a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary hashable labels.

    Used by the experiment harness so that the seed of (master, sweep point,
    trial) does not depend on how many other points share the sweep.
    """
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def crandn(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussian samples, CN(0, 1)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_unit_modulus(rng: np.random.Generator, n: int) -> np.ndarray:
    """Length-n vector of unit-modulus entries with uniform random phases."""
    return np.exp(2j * np.pi * rng.random(n))


def is_hermitian(a: np.ndarray, tol: float = 1e-10,
                 scale: float | None = None) -> bool:
    """A == A^H up to ``tol`` times ``scale`` (default: A's largest entry)."""
    scale = float(np.abs(a).max()) if scale is None else scale
    return bool(np.abs(a - a.conj().T).max() <= tol * scale)
