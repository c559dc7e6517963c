"""Benchmark entry point: one workload, one seed, one measured run.

Run from the repository root:

    python3 perfbench/run.py --workload chanest_sweep --seed 1 --seconds 25 --trace 0

It starts the workload's process several times for set-up only (the
median of those start-ups is ``setup_s``), then once more for the measured
run, and prints every metric by name with its unit.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from instrument import Speedometer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
DEADLINE_S = 170.0
BLAS_THREADS = 1


class WorkerError(RuntimeError):
    pass


def start_worker(args, extra, env, deadline):
    """Run worker.py; returns (start, time of its 'ready' line, its last line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(HERE / "out" / f"{args.workload}-{os.getpid()}"), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=Path.cwd())
    timer = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
    timer.start()
    ready = None
    last = ""
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = perf_counter()
            elif line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready is None:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return t0, ready, last


def environment(threads: int) -> dict:
    """What the run's figures depend on, recorded next to them."""
    env = {"python": platform.python_version(), "cores": os.cpu_count(),
           "blas_threads": threads, "revision": None}
    try:
        import numpy
        env["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        env.setdefault("numpy", None)
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.split()
        if Path(top).resolve() == Path.cwd().resolve():
            env["revision"] = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    src = Path.cwd() / "src"
    if not (src / "irsloc" / "__init__.py").is_file():
        print("run from the repository root: src/irsloc not found",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)

    deadline = perf_counter() + DEADLINE_S
    speed = Speedometer()
    try:
        setups = []
        if not args.trace:
            speed.sample()
            for _ in range(SETUP_PROBES):
                setups.append(start_worker(args, ["--setup-only"], env, deadline)[:2])
                speed.sample()
        line = start_worker(args, [], env, deadline)[2]
        raw = json.loads(line)
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = raw["per_layer"]
    else:
        values = {"setup_s": statistics.median(speed.normalized(a, b) for a, b in setups),
                  **raw["e2e"]}
        raw["wall"]["setup_s"] = statistics.median(b - a for a, b in setups)
    if set(values) != set(units):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"workload {args.workload} seed {args.seed}: {raw['rounds']} rounds "
          f"in {raw['window_s']:.2f} s; {raw['attempted']} operations "
          f"attempted, {raw['failed']} failed")
    for problem in raw["problems"]:
        print(f"  check failed: {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        # the traced run's own timings, to set against an untraced run
        for name, value in raw["e2e"].items():
            print(f"  traced {name} = {value:.6g}")
    for name, value in raw["wall"].items():
        print(f"  wall-clock {name} = {value:.6g}")
    print("environment " + json.dumps(environment(threads), sort_keys=True))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
