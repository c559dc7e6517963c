"""One measured process of the benchmark; started by ``run.py``.

Prints ``ready`` once set-up is done (imports, building and validating the
first round's spec, installing the instruments), then, unless
``--setup-only``, runs whole rounds until ``--seconds`` have passed, checks
every output, and prints one JSON line of raw results.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from irsloc import bqp, chanest, harness, localize, pilot, waveopt

import checks
import instrument
from workloads import WORKLOADS

PER_LAYER_SPANS = [
    "pilot.simulate_pilot_round", "pilot.ls_estimates",
    "chanest.pairwise_products", "chanest.initialize", "chanest.refine",
    "bqp.dinkelbach_solve", "bqp.quad_binary_max",
    "localize.run_cycle", "localize.joint_ml",
    "waveopt.build_context", "waveopt.optimize", "waveopt.update_q",
    "waveopt.update_x", "waveopt.update_theta", "waveopt.weighted_distance",
    "harness.write_result"]
PER_LAYER_CALLS = [
    "pilot.ls_estimates", "bqp.dinkelbach_solve", "bqp.quad_binary_max",
    "localize.joint_ml", "waveopt.optimize", "waveopt.update_q",
    "waveopt.weighted_distance"]
PER_LAYER_COUNTERS = [
    "chanest.refine.sweeps", "bqp.dinkelbach_solve.iterations",
    "localize.run_cycle.underflows", "waveopt.optimize.outer_iterations",
    "harness.write_result.bytes"]


def run_round(kind: str, spec, out_dir: Path):
    runner = (harness.run_chanest_campaign if kind == "chanest"
              else harness.run_localization_campaign)
    harness.write_result(runner(spec), out_dir)


def check_round(kind: str, spec, out_dir: Path, rec, est_slice, trial_slice):
    """Problems per operation of one round, keyed by operation index.

    Returns (op_ids, {op_id: [problem, ...]}, {op_id: [exact, ...]},
    distance gains of the designs).
    """
    problems = {}
    exactness = {}
    gains = []
    round_wide = checks.check_manifest(out_dir, kind, spec.master_seed)
    trials_csv = checks.read_csv(out_dir / f"{kind}_trials.csv")
    estimates = rec.estimates[est_slice]
    if len(trials_csv) != len(estimates):
        round_wide.append("written trial rows do not match the estimates run")
    if kind == "chanest":
        ops = list(range(est_slice.start, est_slice.stop))
        for op, est, row in zip(ops, estimates, trials_csv):
            problems[op] = checks.check_estimate(est, float(row["ne"]))
    else:
        diag = checks.read_csv(out_dir / "localization_diagnostics.csv")
        ops = []
        d_row = 0
        for (est_idx, cyc_slice), row in zip(rec.trials[trial_slice], trials_csv):
            est_problems = checks.check_estimate(rec.estimates[est_idx], float(row["ne"]))
            for op in range(cyc_slice.start, cyc_slice.stop):
                cyc = rec.cycles[op]
                found = est_problems + checks.check_cycle(cyc)
                n_hyp = cyc.residuals.size
                rows = diag[d_row:d_row + n_hyp]
                d_row += n_hyp
                written = [(float(r["probability"]), float(r["residual"])) for r in rows]
                if written != list(zip(cyc.posterior.tolist(), cyc.residuals.tolist())):
                    found.append("written diagnostics differ from the cycle's output")
                if cyc.design is not None:
                    design_problems, gain = checks.check_design(cyc)
                    found += design_problems
                    gains.append(gain)
                exactness[op] = checks.fit_exactness(cyc)
                problems[op] = found
                ops.append(op)
        if d_row != len(diag):
            round_wide.append("written diagnostics have extra rows")
    for op in ops:
        problems[op] = round_wide + problems[op]
    return ops, problems, exactness, gains


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    harness.spec_from_dict(workload.config())
    patcher = instrument.Patcher()
    tracer = None
    if args.trace:
        tracer = instrument.Tracer(patcher)
        instrument.install_spans(
            tracer, (harness, pilot, chanest, bqp, localize, waveopt))
    rec = instrument.Recorder()
    rec.install(patcher, (harness, pilot, localize, waveopt))
    if tracer is not None:
        # reference samples inside a cycle count as a child span of it
        tracer.span(rec.speed, "sample", "reference.sample")
    print("ready", flush=True)
    if args.setup_only:
        patcher.restore()
        return 0

    shutil.rmtree(args.out, ignore_errors=True)
    rounds = []  # (spec, out_dir, estimate slice, trial slice)
    rec.speed.sample()
    t0 = perf_counter()
    while perf_counter() - t0 < args.seconds:
        rnd = len(rounds)
        spec = harness.spec_from_dict(workload.config())
        out_dir = args.out / f"round{rnd}"
        first_est, first_trial = len(rec.estimates), len(rec.trials)
        run_round(workload.kind, spec, out_dir)
        rounds.append((spec, out_dir, slice(first_est, len(rec.estimates)),
                       slice(first_trial, len(rec.trials))))
    t1 = perf_counter()
    rec.speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    patcher.restore()

    # checks run after the measured window, outside peak_rss_mb
    failed = 0
    unexpected = []
    all_exact = []
    gains = []
    attempted = 0
    for spec, out_dir, est_slice, trial_slice in rounds:
        ops, problems, exactness, round_gains = check_round(
            workload.kind, spec, out_dir, rec, est_slice, trial_slice)
        gains += round_gains
        for op in ops:
            attempted += 1
            exact = exactness.get(op, [])
            all_exact += exact
            unexpected += problems[op]
            if problems[op] or (workload.exactness_fails and not all(exact)):
                failed += 1
    shutil.rmtree(args.out, ignore_errors=True)

    estimates = [(e.start, e.end) for e in rec.estimates]
    ops = estimates if workload.kind == "chanest" else [
        (c.start, c.end) for c in rec.cycles]
    trials = sum(len(r[0].sweep_points()) * r[0].trials for r in rounds)
    norm = rec.speed.normalized
    window = norm(t0, t1)
    out = {
        "correct": not unexpected,
        "problems": unexpected[:20],
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "window_s": t1 - t0,
        "e2e": {
            "trials_per_s": trials / window,
            "estimate_s": statistics.median(norm(a, b) for a, b in estimates),
            "op_s": statistics.median(norm(a, b) for a, b in ops),
            "peak_rss_mb": peak_rss_mb,
        },
        "wall": {
            "trials_per_s": trials / (t1 - t0),
            "estimate_s": statistics.median(b - a for a, b in estimates),
            "op_s": statistics.median(b - a for a, b in ops),
            "reference_sample_s": rec.speed.median_sample_s,
        },
    }
    if tracer is not None:
        out["per_layer"] = per_layer(tracer, attempted, t1 - t0, all_exact, gains)
    print(json.dumps(out), flush=True)
    return 0


def per_layer(tracer, ops: int, window: float, all_exact, gains) -> dict:
    """Per-operation self times, calls and counters of the traced run."""
    layer = {}
    for name in PER_LAYER_SPANS:
        layer[f"{name}.s"] = tracer.self_s[name] / ops
    for name in PER_LAYER_CALLS:
        layer[f"{name}.calls"] = tracer.calls[name] / ops
    for name in PER_LAYER_COUNTERS:
        layer[name] = tracer.counters[name] / ops
    layer["localize.joint_ml.exact"] = (
        float(np.mean(all_exact)) if all_exact else 0.0)
    gains = [g for g in gains if np.isfinite(g)]
    layer["waveopt.optimize.distance_gain"] = (
        float(np.median(gains)) if gains else 0.0)
    layer["trace.overhead"] = tracer.spans * instrument.span_cost_s() / window
    return layer


if __name__ == "__main__":
    sys.exit(main())
