"""Output checks, computed apart from the program.

Each check either recomputes a reported quantity from the raw inputs with
the benchmark's own numpy code, or tests a property the method must have.
None compares with stored output of an earlier run.  Every function
returns a list of problems (empty when the output passes) so that a caller
can attribute them to the operation that produced the output.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

EXACT_RTOL = 1e-9


# ------------------------------------------------------- channel estimation

def design_matrix(delta_theta: np.ndarray, pilots: np.ndarray,
                  n_rx: int) -> np.ndarray:
    """Stacked pilot design matrix: block l is dtheta_l^T kron x_l^T kron I."""
    eye = np.eye(n_rx)
    return np.vstack([np.kron(dt[None, :], np.kron(xl[None, :], eye))
                      for dt, xl in zip(delta_theta, pilots)])


def products(g: np.ndarray, a_set, b_set) -> np.ndarray:
    """Pairwise products g[n, a] g[n, b] of one subframe, n-major."""
    ga = g[:, list(a_set)]
    gb = g[:, list(b_set)]
    return (ga[:, :, None] * gb[:, None, :]).reshape(-1)


def ls_misfit(g: np.ndarray, ytilde: np.ndarray, phi: np.ndarray,
              subframes) -> float:
    """Gram-weighted distance of a channel's products to the LS products."""
    omega_hat = np.linalg.lstsq(phi, ytilde.T, rcond=None)[0].T
    total = 0.0
    for p, (a_set, b_set) in enumerate(subframes):
        total += float(np.linalg.norm(phi @ (omega_hat[p] - products(g, a_set, b_set))) ** 2)
    return total


def sign_invariant_error(g_hat: np.ndarray, g_true: np.ndarray) -> float:
    """min over row signs of ||diag(d) g_hat - g_true||_F / ||g_true||_F."""
    plus = np.sum(np.abs(g_hat - g_true) ** 2, axis=1)
    minus = np.sum(np.abs(g_hat + g_true) ** 2, axis=1)
    return float(np.sqrt(np.minimum(plus, minus).sum()) / np.linalg.norm(g_true))


def check_estimate(rec, reported_ne: float) -> list[str]:
    problems = []
    trace = np.asarray(rec.objective_trace, dtype=float)
    rises = np.diff(trace) > 1e-12 * np.abs(trace[:-1])
    if rises.any():
        problems.append(f"refinement objective rose at sweep {int(np.argmax(rises)) + 1}")
    phi = design_matrix(rec.delta_theta, rec.pilots, rec.n_rx)
    est = ls_misfit(rec.g_hat, rec.ytilde, phi, rec.subframes)
    true = ls_misfit(rec.g_true, rec.ytilde, phi, rec.subframes)
    if not est <= true * (1 + 1e-9):
        problems.append(f"estimate LS misfit {est:.6g} exceeds the true channel's {true:.6g}")
    ne = sign_invariant_error(rec.g_hat, rec.g_true)
    for label, value in (("returned", rec.ne), ("written", reported_ne)):
        if not abs(value - ne) <= 1e-9 * ne + 1e-15:
            problems.append(f"{label} ne {value!r} != recomputed {ne!r}")
    return problems


# ---------------------------------------------------------- localization

def hypothesis_matrix(rec, j: int) -> np.ndarray:
    """Echo model of hypothesis j: ybar = gamma Phi delta."""
    column_gain = rec.theta * rec.steering[:, j]
    return np.tile(rec.g_hat.T, (rec.snapshots, 1)) * column_gain[None, :]


def bayes_posterior(prior: np.ndarray, residuals: np.ndarray,
                    sigma2: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        logw = np.log(prior) - residuals / sigma2
    logw = logw - logw.max()
    w = np.exp(logw)
    return w / w.sum()


def check_cycle(rec) -> list[str]:
    problems = []
    if not np.all(np.abs(rec.deltas) == 1.0):
        problems.append("a fitted sign vector has an entry other than +-1")
    energy = float(np.linalg.norm(rec.y) ** 2)
    for j in range(rec.residuals.size):
        phi = hypothesis_matrix(rec, j)
        r = float(np.linalg.norm(rec.y - rec.gammas[j] * (phi @ rec.deltas[j])) ** 2)
        if not abs(r - rec.residuals[j]) <= 1e-9 * energy:
            problems.append(f"hypothesis {j}: residual {rec.residuals[j]!r} != "
                            f"||y - gamma Phi delta||^2 = {r!r}")
    post = np.asarray(rec.posterior, dtype=float)
    if np.any(post < 0) or abs(post.sum() - 1.0) > 1e-12:
        problems.append("posterior is off the simplex")
    if rec.sigma2 <= 0:
        problems.append("Bayes check needs a noisy scene")
    else:
        want = bayes_posterior(rec.prior, rec.residuals, rec.sigma2)
        if rec.underflow or np.abs(post - want).max() > 1e-9:
            problems.append("posterior differs from the log-domain Bayes update")
    return problems


def sign_block(n: int, start: int, stop: int) -> np.ndarray:
    """Sign vectors numbered start..stop-1, first entry fixed to +1."""
    idx = np.arange(start, stop, dtype=np.int64)[:, None]
    bits = (idx >> np.arange(n - 2, -1, -1, dtype=np.int64)) & 1
    return np.hstack([np.ones((stop - start, 1)), 1.0 - 2.0 * bits])


def fit_ratio(v: np.ndarray, s: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """|v^H delta|^2 / delta^T S delta for each row delta."""
    return np.abs(deltas @ v.conj()) ** 2 / ((deltas @ s) * deltas).sum(axis=1)


def oracle_ratio(v: np.ndarray, s: np.ndarray, chunk: int = 1 << 15) -> float:
    """Brute-force maximum of the fit ratio over all 2^(N-1) sign vectors."""
    n = v.size
    total = 1 << (n - 1)
    best = -np.inf
    for start in range(0, total, chunk):
        block = sign_block(n, start, min(start + chunk, total))
        best = max(best, float(fit_ratio(v, s, block).max()))
    return best


def fit_exactness(rec) -> list[bool]:
    """Per hypothesis: does the fitted delta reach the brute-force maximum?"""
    exact = []
    for j in range(rec.residuals.size):
        phi = hypothesis_matrix(rec, j)
        v = phi.conj().T @ rec.y
        s = np.real(phi.conj().T @ phi)
        got = float(fit_ratio(v, s, rec.deltas[j][None, :])[0])
        exact.append(got >= oracle_ratio(v, s) * (1 - EXACT_RTOL))
    return exact


def weighted_echo_distance(rec, x: np.ndarray, theta: np.ndarray) -> float:
    """Posterior-weighted sum of pairwise distances of the echo means."""
    means = []
    for i in range(rec.posterior.size):
        g_i = rec.deltas[i][:, None] * rec.g_hat
        mix = theta * rec.steering[:, i]
        means.append(rec.alphas[i] * (mix @ (g_i @ x)) * (g_i.T @ mix))
    total = 0.0
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            total += rec.posterior[i] * rec.posterior[j] \
                * float(np.linalg.norm(means[i] - means[j]) ** 2)
    return total * rec.snapshots / rec.sigma2


def check_design(rec) -> tuple[list[str], float]:
    """Checks of the design that follows a cycle, and its distance gain."""
    d = rec.design
    problems = []
    if np.abs(np.abs(d.theta) - 1.0).max() > 1e-9:
        problems.append("designed IRS phases are not unit modulus")
    power = float(np.linalg.norm(d.x) ** 2)
    if power > d.power_budget * (1 + 1e-9):
        problems.append(f"waveform power {power!r} exceeds budget {d.power_budget!r}")
    if not d.violation < d.accuracy:
        problems.append(f"violation {d.violation!r} not below accuracy {d.accuracy!r}")
    x0 = np.sqrt(d.power_budget) * d.x_init / np.linalg.norm(d.x_init)
    theta0 = np.exp(1j * np.angle(d.theta_init))
    start = weighted_echo_distance(rec, x0, theta0)
    end = weighted_echo_distance(rec, d.x, d.theta)
    if not end >= start * (1 - 1e-9):
        problems.append(f"designed distance {end!r} below the starting {start!r}")
    return problems, end / start if start > 0 else float("inf")


# --------------------------------------------------------------- written

def read_csv(path: Path) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[-1] != "# manifest=manifest.json":
        raise ValueError(f"{path.name}: missing manifest reference")
    return list(csv.DictReader(lines[:-1]))


def check_manifest(out_dir: Path, kind: str, master_seed: int) -> list[str]:
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    problems = []
    if manifest.get("kind") != kind or manifest.get("master_seed") != master_seed:
        problems.append("manifest kind or master seed differs from the run")
    for name in manifest.get("files", []):
        if not (out_dir / name).is_file():
            problems.append(f"manifest lists missing file {name}")
    return problems
