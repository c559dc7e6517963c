"""Instrumentation installed from outside the program.

Every measurement wraps a public function of an ``irsloc`` module under
the name its caller looks it up by (``chanest.ls_estimates``,
``localize.dinkelbach_solve``, ``waveopt.update_q``, ...), so nothing in
the package changes.  Two kinds of wrapper exist:

* hooks, always installed: they time the benchmark's operations (one
  channel estimate, one localization cycle), time a fixed reference loop
  before and after each (and after each fit inside a cycle), and keep
  references to the inputs and outputs the output checks need;
* spans, installed only in a traced run: each accumulates its calls and
  its self time (its duration minus the time of the spans it encloses).
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


class Patcher:
    """Replaces module attributes and puts the originals back."""

    def __init__(self):
        self._undo = []

    def replace(self, module, attr, make_wrapper):
        original = getattr(module, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(module, attr, wrapper)
        self._undo.append((module, attr, original))

    def restore(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


class Tracer:
    """Span self times and calls per layer name, plus result counters."""

    def __init__(self, patcher: Patcher):
        self.patcher = patcher
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.spans = 0
        self._open = []  # time covered by the children of each open span

    def span(self, module, attr, name, count=None):
        """Trace ``module.attr`` as ``name``; ``count(result)`` returns
        ``{counter: increment}`` read off the call's result."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                tracer._open.append(0.0)
                t0 = perf_counter()
                try:
                    return_value = original(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - t0
                    children = tracer._open.pop()
                    tracer.self_s[name] += elapsed - children
                    tracer.calls[name] += 1
                    tracer.spans += 1
                    if tracer._open:
                        tracer._open[-1] += elapsed
                if count is not None:
                    for key, inc in count(return_value).items():
                        tracer.counters[key] += inc
                return return_value
            return wrapper

        self.patcher.replace(module, attr, make)


def span_cost_s(repeats: int = 20000) -> float:
    """Measured cost of one span around a call, in seconds."""
    class _Box:
        @staticmethod
        def leaf():
            return None

    probe = Tracer(Patcher())
    raw = _Box.leaf
    t0 = perf_counter()
    for _ in range(repeats):
        raw()
    bare = perf_counter() - t0
    probe.span(_Box, "leaf", "probe")
    traced = _Box.leaf
    t0 = perf_counter()
    for _ in range(repeats):
        traced()
    wrapped = perf_counter() - t0
    probe.patcher.restore()
    return max(wrapped - bare, 0.0) / repeats


class Speedometer:
    """Times a fixed reference loop to rescale wall time to one CPU speed.

    The speed of a shared machine drifts: one fixed channel estimate took
    0.20 s to 0.37 s within a minute, in CPU time as in wall time.  Each
    reference sample runs the same mix of small-matrix numpy calls,
    interpreter arithmetic and a 200 x 200 matrix-vector product.  The
    wall time of an operation is rescaled by ``REFERENCE_S`` over the mean
    duration of the samples taken within ``SMOOTH_S`` of it, which gives
    the seconds it would have taken at the speed where one sample takes
    exactly ``REFERENCE_S``.  Sample time inside an operation is left out.
    """

    REFERENCE_S = 0.010
    SMOOTH_S = 5.0

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        self._vec = rng.standard_normal(24) + 0j
        self._large = rng.standard_normal((200, 200))
        self.marks = []  # (start, end) of each reference sample

    def sample(self):
        t0 = perf_counter()
        x = self._vec
        for _ in range(800):
            x = self._small @ x
            x = x / np.linalg.norm(x)
            acc = 0
            for k in range(20):
                acc += k * k
        z = np.ones(200)
        for _ in range(200):
            z = self._large @ z
            z = z / np.linalg.norm(z)
        self.marks.append((t0, perf_counter()))

    def normalized(self, a: float, b: float) -> float:
        """Reference-speed seconds of the wall interval [a, b]."""
        inside = sum(min(e, b) - max(s, a) for s, e in self.marks if s < b and e > a)
        near = [e - s for s, e in self.marks
                if a - self.SMOOTH_S <= s and e <= b + self.SMOOTH_S]
        return (b - a - inside) * self.REFERENCE_S / float(np.mean(near))

    @property
    def median_sample_s(self) -> float:
        return float(np.median([e - s for s, e in self.marks]))


# ------------------------------------------------------------------ records

@dataclass
class EstimateRecord:
    """One channel estimate: truth, estimate, and the pilot observations."""

    start: float
    end: float
    g_true: np.ndarray
    g_hat: np.ndarray
    objective_trace: np.ndarray
    ne: float
    ytilde: np.ndarray
    delta_theta: np.ndarray
    pilots: np.ndarray
    subframes: list
    n_rx: int


@dataclass
class CycleRecord:
    """One localization cycle: its inputs, the echo, and the updated belief."""

    start: float
    g_hat: np.ndarray
    steering: np.ndarray
    prior: np.ndarray
    x: np.ndarray
    theta: np.ndarray
    snapshots: int
    sigma2: float
    y: np.ndarray
    residuals: np.ndarray
    gammas: np.ndarray
    deltas: np.ndarray
    alphas: np.ndarray
    posterior: np.ndarray
    underflow: bool
    end: float = 0.0
    design: "DesignRecord | None" = None


@dataclass
class DesignRecord:
    """One waveform / IRS-phase design that follows a cycle."""

    x_init: np.ndarray
    theta_init: np.ndarray
    power_budget: float
    accuracy: float
    x: np.ndarray
    theta: np.ndarray
    violation: float


@dataclass
class Recorder:
    """Operation timings and the outputs the checks read, in call order."""

    speed: Speedometer = field(default_factory=Speedometer)
    estimates: list = field(default_factory=list)
    cycles: list = field(default_factory=list)
    trials: list = field(default_factory=list)  # (estimate index, cycle slice)
    _obs: object = None

    def install(self, patcher: Patcher, irsloc_modules):
        harness, pilot, localize, waveopt = irsloc_modules
        rec = self

        def keep_obs(original):
            def wrapper(*args, **kwargs):
                obs = original(*args, **kwargs)
                rec._obs = obs
                return obs
            return wrapper

        def time_estimate(original):
            def wrapper(*args, **kwargs):
                rec.speed.sample()
                start = perf_counter()
                scene, est, ne = original(*args, **kwargs)
                end = perf_counter()
                rec.speed.sample()
                obs = rec._obs
                sched = obs.schedule
                rec.estimates.append(EstimateRecord(
                    start=start, end=end, g_true=scene.G, g_hat=est.g_hat,
                    objective_trace=est.objective_trace, ne=ne, ytilde=obs.ytilde,
                    delta_theta=sched.delta_theta, pilots=sched.pilots,
                    subframes=list(sched.subframes), n_rx=sched.n_rx))
                return scene, est, ne
            return wrapper

        def time_trial(original):
            def wrapper(*args, **kwargs):
                first_cycle = len(rec.cycles)
                first_estimate = len(rec.estimates)
                out = original(*args, **kwargs)
                end = perf_counter()
                rec.speed.sample()
                if len(rec.cycles) > first_cycle:
                    rec.cycles[-1].end = end
                rec.trials.append((first_estimate,
                                   slice(first_cycle, len(rec.cycles))))
                return out
            return wrapper

        def time_cycle(original):
            signature = inspect.signature(original)

            def wrapper(*args, **kwargs):
                if rec.cycles and rec.cycles[-1].end == 0.0:
                    rec.cycles[-1].end = perf_counter()
                rec.speed.sample()
                start = perf_counter()
                bound = signature.bind(*args, **kwargs)
                a = bound.arguments
                prior = np.array(a["belief"].probs, copy=True)
                belief, diag = original(*args, **kwargs)
                rec.cycles.append(CycleRecord(
                    start=start, g_hat=a["g_hat"], steering=a["grid"].steering,
                    prior=prior, x=diag.io.x, theta=diag.io.theta,
                    snapshots=a["snapshots"],
                    sigma2=a["scene"].config.noise_power, y=diag.io.y,
                    residuals=diag.residuals, gammas=belief.gammas,
                    deltas=belief.deltas, alphas=belief.alphas,
                    posterior=belief.probs, underflow=belief.underflow))
                return belief, diag
            return wrapper

        def sample_after(original):
            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                rec.speed.sample()
                return out
            return wrapper

        def keep_design(original):
            signature = inspect.signature(original)

            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                x_init = np.array(a["x_init"], copy=True)
                theta_init = np.array(a["theta_init"], copy=True)
                design = original(*args, **kwargs)
                rec.cycles[-1].design = DesignRecord(
                    x_init=x_init, theta_init=theta_init,
                    power_budget=float(a["power_budget"]),
                    accuracy=float(a["accuracy"]), x=design.x,
                    theta=design.theta, violation=float(design.violation))
                return design
            return wrapper

        patcher.replace(pilot, "simulate_pilot_round", keep_obs)
        patcher.replace(harness, "estimate_channel_once", time_estimate)
        patcher.replace(harness, "run_localization_trial", time_trial)
        patcher.replace(localize, "run_cycle", time_cycle)
        # a paper-scale cycle runs for 20 s: sample the speed after each fit
        patcher.replace(localize, "joint_ml", sample_after)
        patcher.replace(waveopt, "optimize", keep_design)


def install_spans(tracer: Tracer, irsloc_modules):
    """Spans on every layer the per-layer metrics name."""
    harness, pilot, chanest, bqp, localize, waveopt = irsloc_modules
    s = tracer.span
    s(pilot, "simulate_pilot_round", "pilot.simulate_pilot_round")
    s(chanest, "ls_estimates", "pilot.ls_estimates")
    s(chanest, "pairwise_products", "chanest.pairwise_products")
    s(chanest, "initialize", "chanest.initialize")
    s(chanest, "refine", "chanest.refine",
      lambda est: {"chanest.refine.sweeps": est.iterations_run})
    s(localize, "run_cycle", "localize.run_cycle",
      lambda out: {"localize.run_cycle.underflows": int(out[0].underflow)})
    s(localize, "joint_ml", "localize.joint_ml")
    s(localize, "dinkelbach_solve", "bqp.dinkelbach_solve",
      lambda res: {"bqp.dinkelbach_solve.iterations": res.iterations})
    s(bqp, "quad_binary_max", "bqp.quad_binary_max")
    s(waveopt, "build_context", "waveopt.build_context")
    s(waveopt, "optimize", "waveopt.optimize",
      lambda d: {"waveopt.optimize.outer_iterations": d.outer_iterations})
    s(waveopt, "update_q", "waveopt.update_q")
    s(waveopt, "update_x", "waveopt.update_x")
    s(waveopt, "update_theta", "waveopt.update_theta")
    s(waveopt, "weighted_distance", "waveopt.weighted_distance")
    s(harness, "write_result", "harness.write_result",
      lambda paths: {"harness.write_result.bytes":
                     sum(p.stat().st_size for p in paths)})
