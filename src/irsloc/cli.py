"""Command-line front end: campaign dispatch plus single-algorithm probes.

Subcommands
-----------
``chanest``        channel-estimation campaign (normalized-error sweeps)
``localize``       localization campaign (correct-probability curves)
``full-pipeline``  both stages of the protocol on one configuration
``bqp-solve``      one sign-vector ratio problem, solved and cross-checked
``waveopt-trace``  one run of the paper's penalty-method waveform/phase
                   design (the reference for the campaigns' theta-domain
                   ascent), one trace row per penalty stage

Only the three campaigns take ``--trials`` and ``--desk-scale``.  Campaign
configs are JSON documents mirroring the experiment spec (sections
``scene``, ``pilot``, ``localization`` plus ``sweep``/``points``,
``trials``, ``master_seed``); unknown keys are rejected.  ``bqp-solve``
and ``waveopt-trace`` take small dedicated configs documented in the
README.  Exit codes: 0 success, 2 usage or configuration error (including
a sweep point that a campaign rejects before trial 0), 1 numerical
failure (one JSON error line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bqp, harness, waveopt
from .util import crandn, derive_seed, random_unit_modulus


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsloc",
        description="IRS-aided NLoS localization simulator and optimizer")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("chanest", "run a channel-estimation campaign"),
            ("localize", "run a localization campaign"),
            ("full-pipeline", "run channel estimation plus localization"),
            ("bqp-solve", "solve one sign-vector ratio problem"),
            ("waveopt-trace",
             "trace one design run of the reference penalty method")):
        command = sub.add_parser(name, help=text)
        command.add_argument("--config", type=Path, default=None,
                             help="JSON configuration file")
        command.add_argument("--out", type=Path, default=Path("results"),
                             help="output directory")
        command.add_argument("--seed", type=int, default=None,
                             help="master seed override")
        if name in _CAMPAIGNS:
            command.add_argument("--trials", type=int, default=None,
                                 help="trial count override")
            command.add_argument("--desk-scale", action="store_true",
                                 help="apply the reduced-size preset")
        command.add_argument("-v", "--verbose", action="store_true",
                             help="list the written files on stderr")
    return parser


def _load_json(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


class ConfigError(ValueError):
    pass


def _campaign_spec(args) -> harness.ExperimentSpec:
    data = _load_json(args.config)
    if isinstance(data, dict):  # spec_from_dict refuses any other root
        overrides = {"master_seed": args.seed, "trials": args.trials}
        data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        spec = harness.spec_from_dict(data)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the campaign's own pass checks the scaled points before trial 0
    return harness.apply_desk_scale(spec) if args.desk_scale else spec


def _small_config(args, allowed: dict) -> dict:
    """``allowed`` updated by the config file, then by ``--seed``."""
    data = _load_json(args.config)
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**allowed, **data}
    if args.seed is not None:
        merged["seed"] = args.seed
    return merged


def cmd_chanest(args) -> list[Path]:
    return harness.write_result(
        harness.run_chanest_campaign(_campaign_spec(args)), args.out)


def cmd_localize(args) -> list[Path]:
    return harness.write_result(
        harness.run_localization_campaign(_campaign_spec(args)), args.out)


def cmd_full_pipeline(args) -> list[Path]:
    spec = _campaign_spec(args)
    chan = harness.run_chanest_campaign(spec)
    written = harness.write_result(chan, Path(args.out) / "chanest")
    loc = harness.run_localization_campaign(spec)
    return written + harness.write_result(loc, Path(args.out) / "localization")


def cmd_bqp_solve(args) -> list[Path]:
    cfg = _small_config(args, {
        "n": 10, "seed": 0, "tol": 1e-9, "max_iters": 50})
    n = int(cfg["n"])
    if not 2 <= n <= bqp.EXACT_CAP:
        raise ConfigError(f"n must be in [2, {bqp.EXACT_CAP}] (the exact-solve "
                          f"cap), got {n}")
    rng = np.random.default_rng(derive_seed(cfg["seed"], "bqp-solve"))
    v = crandn(rng, n)
    spread = crandn(rng, n, 2 * n)
    prob = bqp.RatioProblem(numerator=np.outer(v, v.conj()),
                            denominator=spread @ spread.conj().T / n)
    res = bqp.dinkelbach_solve(prob, tol=cfg["tol"],
                               max_iters=int(cfg["max_iters"]))
    payload = {
        "n": n, "seed": cfg["seed"], "delta": res.delta.tolist(),
        "ratio": res.ratio, "y_trace": res.y_trace.tolist(),
        "converged": res.converged,
        "iterations": res.iterations,
    }
    if n <= 12:
        best = max(prob.ratio(d) for d in bqp.sign_vectors(n))
        payload["enumeration_ratio"] = best
        payload["verified"] = bool(abs(best - res.ratio) <= 1e-9 * abs(best))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "bqp_solution.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return [path]


def cmd_waveopt_trace(args) -> list[Path]:
    cfg = _small_config(args, {
        "n_elements": 8, "m_antennas": 4, "n_hypotheses": 4, "seed": 0,
        "snapshots": 8, "noise_power": 1.0, "power_budget": 50.0,
        "accuracy": 1e-7, "penalty_scale": 0.5, "inner_tol": 1e-6,
        "outer_cap": 60})
    rng = np.random.default_rng(derive_seed(cfg["seed"], "waveopt-trace"))
    n, m, n_hyp = (int(cfg[k]) for k in ("n_elements", "m_antennas",
                                         "n_hypotheses"))
    probs = rng.random(n_hyp)
    probs /= probs.sum()
    ctx = waveopt.DistanceContext(
        channels=[crandn(rng, n, m) for _ in range(n_hyp)],
        steering=np.column_stack([random_unit_modulus(rng, n)
                                  for _ in range(n_hyp)]),
        alphas=crandn(rng, n_hyp), weights=waveopt.pair_weights(probs),
        snapshots=int(cfg["snapshots"]),
        noise_power=float(cfg["noise_power"]))
    design = waveopt.penalty_optimize(
        ctx, crandn(rng, m), random_unit_modulus(rng, n),
        power_budget=float(cfg["power_budget"]),
        accuracy=float(cfg["accuracy"]),
        penalty_scale=float(cfg["penalty_scale"]),
        inner_tol=float(cfg["inner_tol"]), outer_cap=int(cfg["outer_cap"]))
    rows = [{"outer_iteration": o, "rho": rho, "violation": xi,
             "objective": obj, "weighted_distance": dist}
            for o, rho, xi, obj, dist in design.trace]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_csv(rows, out / "waveopt_trace.csv")
    summary = {"converged": design.converged,
               "violation": design.violation,
               "outer_iterations": design.outer_iterations,
               "weighted_distance": design.distance,
               "config": {k: cfg[k] for k in sorted(cfg)}}
    (out / "manifest.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return [out / "waveopt_trace.csv", out / "manifest.json"]


_CAMPAIGNS = {
    "chanest": cmd_chanest,
    "localize": cmd_localize,
    "full-pipeline": cmd_full_pipeline,
}
_COMMANDS = {
    **_CAMPAIGNS,
    "bqp-solve": cmd_bqp_solve,
    "waveopt-trace": cmd_waveopt_trace,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        written = _COMMANDS[args.command](args)
    except (ConfigError, harness.PointRejected) as exc:
        print(json.dumps({"error": str(exc), "kind": "config"}),
              file=sys.stderr)
        return 2
    except Exception as exc:  # numerical / internal failure
        print(json.dumps({"error": str(exc), "kind": "numerical",
                          "module": type(exc).__module__,
                          "type": type(exc).__name__}),
              file=sys.stderr)
        return 1
    if args.verbose:
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
