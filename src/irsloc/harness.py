"""Reproducible Monte Carlo experiment campaigns.

Two campaign families:

* channel-estimation campaigns sweep (SNR, antenna count, IRS size,
  transmit-antenna count) and average the sign-invariant normalized
  channel error over trials;
* localization campaigns run the full pipeline (pilot stage, then
  belief-update cycles with optimized or random waveform/IRS arms) and
  track correct-localization probability per cycle plus
  cycles-to-threshold distributions.

Every trial's randomness derives from hash(master seed, sweep point,
trial index), so results are independent of sweep composition and rerun
byte-identically; a point listed twice is refused.  One pass before trial
0 resolves and checks each point once and builds the pilot schedule and
hypothesis grid its trials share.  Campaign outputs are plain rows;
:func:`write_csv` serializes them with a stable schema and a trailing
manifest reference.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from . import bqp, chanest, localize, pilot, waveopt
from .scene import SceneConfig, path_loss, synthesize_scene
from .util import derive_seed, random_unit_modulus

SCHEMA_VERSION = 1


class PointRejected(ValueError):
    """A campaign spec or sweep point refused before trial 0: a
    configuration error, unlike the numerical failures a trial can raise."""


@dataclass
class PilotParams:
    """Channel-estimation stage configuration."""

    m_t: int = 1
    n_diffs: int | None = None       # None: identifiability minimum N * M_t
    snr_db: float | None = 15.0      # received SNR defining the pilot power
    pilot_power: float | None = None  # overrides snr_db when given


@dataclass
class LocalizationParams:
    """Hypothesis grid, cycle protocol and termination settings."""

    n_grids: int = 4
    theta_lo_deg: float = 52.5
    theta_hi_deg: float = 72.5
    phi_deg: float = 270.0
    snapshots: int = 8
    power_budget: float = 50.0
    threshold: float = 0.95
    max_cycles: int = 20
    optimize_waveform: bool = True

    def validate(self):
        """Refuse settings a localization campaign cannot run or that
        make its threshold decision meaningless."""
        for name in ("n_grids", "snapshots", "max_cycles"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (np.isfinite(self.power_budget) and self.power_budget > 0):
            raise ValueError("power_budget must be finite and > 0, got "
                             f"{self.power_budget}")
        if not 0 < self.threshold <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")


@dataclass
class ExperimentSpec:
    """One campaign: base configuration, sweep axes, trial budget."""

    scene: SceneConfig = field(default_factory=SceneConfig)
    pilot: PilotParams = field(default_factory=PilotParams)
    localization: LocalizationParams = field(default_factory=LocalizationParams)
    sweep: dict = field(default_factory=dict)
    points: list | None = None       # explicit sweep points; overrides sweep
    trials: int = 30
    master_seed: int = 0
    record_convergence: bool = False

    def sweep_points(self) -> list[dict]:
        if self.points is not None:
            if not self.points:
                raise ValueError("explicit point list is empty")
            return [dict(p) for p in self.points]
        if not self.sweep:
            return [{}]
        axes = sorted(self.sweep)
        for axis in axes:
            if not self.sweep[axis]:
                raise ValueError(f"sweep axis {axis!r} is empty")
        return [dict(zip(axes, combo))
                for combo in product(*(self.sweep[a] for a in axes))]

    def validate(self) -> list:
        """Refuse a trial count below 1, an empty axis or point list, a point
        listed twice (it would rerun the same seeded trials) and a point
        ``resolve_point`` or ``LocalizationParams.validate`` refuses.
        Returns (point, cfg, pilot_p, loc_p) per point."""
        if self.trials < 1:
            raise PointRejected("trial count must be >= 1")
        resolved = []
        for point in self.sweep_points():
            if any(point == seen for seen, *_ in resolved):
                raise PointRejected(f"sweep point {point} is listed twice")
            try:
                cfg, pilot_p, loc_p = resolve_point(self, point)
                loc_p.validate()
            except ValueError as exc:
                raise PointRejected(f"sweep point {point}: {exc}") from None
            resolved.append((point, cfg, pilot_p, loc_p))
        return resolved


_POINT_AXES = {
    "snr_db": ("pilot", "snr_db"),
    "pilot_power": ("pilot", "pilot_power"),
    "m_t": ("pilot", "m_t"),
    "n_diffs": ("pilot", "n_diffs"),
    "m_antennas": ("scene", "m_antennas"),
    "n_x": ("scene", "n_x"),
    "n_y": ("scene", "n_y"),
    "power_budget": ("localization", "power_budget"),
    "arm": ("localization", "arm"),
}


def resolve_point(spec: ExperimentSpec, point: dict):
    """Apply one sweep point to copies of the experiment spec's sections."""
    scene_kw = {}
    pilot_p = dataclasses.replace(spec.pilot)
    loc_p = dataclasses.replace(spec.localization)
    for axis, value in point.items():
        if axis not in _POINT_AXES:
            raise ValueError(f"unknown sweep axis {axis!r}")
        section, name = _POINT_AXES[axis]
        if section == "scene":
            scene_kw[name] = value
        elif section == "pilot":
            setattr(pilot_p, name, value)
        elif axis == "arm":
            if value not in ("optimized", "random"):
                raise ValueError(f"unknown arm {value!r}")
            loc_p.optimize_waveform = value == "optimized"
        else:
            setattr(loc_p, name, value)
    return dataclasses.replace(spec.scene, **scene_kw), pilot_p, loc_p


def _resolve_points(spec: ExperimentSpec, localization: bool) -> list:
    """The one pass between a spec and trial 0: ``spec.validate``, then per
    point a refusal of what would fail mid-run, and the pilot schedule and
    (for localization) hypothesis grid that every trial of the point reads.
    Returns (point, cfg, pilot_p, loc_p, schedule, grid or None) per point.
    """
    built = []
    for point, cfg, pilot_p, loc_p in spec.validate():
        try:
            if cfg.m_antennas < 3:
                raise ValueError("channel initialization needs m_antennas "
                                 f">= 3, got {cfg.m_antennas}")
            if localization and cfg.n_elements > bqp.EXACT_CAP:
                raise ValueError(f"n_elements={cfg.n_elements} exceeds the "
                                 f"exact-solve cap {bqp.EXACT_CAP}")
            sched = pilot.build_schedule(
                cfg.m_antennas, pilot_p.m_t, cfg.n_elements,
                n_diffs=pilot_p.n_diffs,
                pilot_power=pilot_power_for(cfg, pilot_p))
            sched.pattern_gram  # refused for a partly used last pattern
            sched.pattern_pinv  # refused for a rank-deficient pattern
            grid = None
            if localization:
                grid = localize.build_hypothesis_grid(
                    cfg, loc_p.n_grids, loc_p.theta_lo_deg, loc_p.theta_hi_deg,
                    loc_p.phi_deg)
                grid.true_hypothesis(cfg.target_theta_deg)  # refused if missed
                # refused for two hypotheses the echo model cannot tell apart
                sep = localize.hypothesis_separation(grid.steering)
                rows, cols = np.nonzero(np.triu(sep <= 1e-9, k=1))
                if rows.size:
                    i, j = int(rows[0]), int(cols[0])
                    raise ValueError(
                        f"hypotheses {i} and {j} are indistinguishable up to "
                        f"gain and element signs (separation {sep[i, j]:.3g})")
        except ValueError as exc:  # IdentifiabilityError included
            raise PointRejected(f"sweep point {point}: {exc}") from exc
        built.append((point, cfg, pilot_p, loc_p, sched, grid))
    return built


def point_key(point: dict) -> tuple:
    return tuple(sorted(point.items()))


def pilot_power_for(cfg: SceneConfig, params: PilotParams) -> float:
    """Transmit power from the received-SNR definition P L(d)^2 / sigma^2."""
    if params.pilot_power is not None:
        return float(params.pilot_power)
    if params.snr_db is None:
        raise ValueError("need either pilot_power or snr_db")
    sigma2 = cfg.noise_power
    if sigma2 <= 0:
        raise ValueError("snr_db needs positive noise power; give pilot_power")
    gain = path_loss(cfg.bs_irs_distance, cfg.c0_db, cfg.d0_m, cfg.alpha0)
    return 10 ** (params.snr_db / 10.0) * sigma2 / gain ** 2


@dataclass
class ExperimentResult:
    """Campaign output: per-point summaries plus raw per-trial rows."""

    kind: str
    point_rows: list
    trial_rows: list
    tables: dict = field(default_factory=dict)
    master_seed: int = 0
    resolved_spec: dict = field(default_factory=dict)


def estimate_channel_once(cfg: SceneConfig, sched: pilot.PilotSchedule,
                          master_seed, key, trial, g_true_trace: bool = False):
    """One pilot round over ``sched`` plus estimation; returns (scene,
    estimate, ne).  The one owner of a trial's scene and pilot seeds: both
    campaigns draw trial ``trial`` of point ``key`` through it, so they
    draw the same channel and pilot noise."""
    scene = synthesize_scene(
        cfg, seed=derive_seed(master_seed, "scene", key, trial))
    obs = pilot.simulate_pilot_round(
        scene, sched, seed=derive_seed(master_seed, "pilot", key, trial))
    est = chanest.estimate_channel(
        obs, g_true=scene.G if g_true_trace else None)
    ne = chanest.normalized_error(est.g_hat, scene.G)
    return scene, est, ne


def run_chanest_campaign(spec: ExperimentSpec) -> ExperimentResult:
    """Average normalized channel error per sweep point."""
    point_rows, trial_rows, conv_rows = [], [], []
    for point, cfg, pilot_p, _, sched, _ in _resolve_points(spec, localization=False):
        key = point_key(point)
        errors = []
        for trial in range(spec.trials):
            _, est, ne = estimate_channel_once(
                cfg, sched, spec.master_seed, key, trial,
                g_true_trace=spec.record_convergence)
            errors.append(ne)
            trial_rows.append({**point, "trial": trial, "ne": ne,
                               "sweeps": est.iterations_run,
                               "objective": est.final_objective,
                               "converged": est.converged})
            if spec.record_convergence:
                for sweep_idx, (j_val, ne_val) in enumerate(
                        zip(est.objective_trace[1:], est.ne_trace), start=1):
                    conv_rows.append({**point, "trial": trial,
                                      "sweep": sweep_idx, "objective": j_val,
                                      "ne": ne_val})
        errors = np.asarray(errors)
        point_rows.append({
            "snr_db": pilot_p.snr_db, "m_antennas": cfg.m_antennas,
            "n_elements": cfg.n_elements, "m_t": pilot_p.m_t,
            "ne_mean": float(errors.mean()), "ne_std": float(errors.std()),
            "trials": spec.trials, **point})
    tables = {"convergence": conv_rows} if spec.record_convergence else {}
    return ExperimentResult(kind="chanest", point_rows=point_rows,
                            trial_rows=trial_rows, tables=tables,
                            master_seed=spec.master_seed,
                            resolved_spec=dataclasses.asdict(spec))


def run_localization_trial(cfg: SceneConfig, sched: pilot.PilotSchedule,
                           grid: localize.HypothesisGrid,
                           loc_p: LocalizationParams, master_seed, key, trial):
    """Full pipeline for one channel realization over the point's shared
    schedule and hypothesis grid; returns trial records."""
    scene, est, ne = estimate_channel_once(cfg, sched, master_seed, key, trial)
    g_hat = est.g_hat

    true_hyp = grid.true_hypothesis(cfg.target_theta_deg)
    belief = localize.initial_belief(loc_p.n_grids, cfg.n_elements)

    rng0 = np.random.default_rng(derive_seed(master_seed, "cycle0", key, trial))
    theta = random_unit_modulus(rng0, cfg.n_elements)
    x = np.sqrt(loc_p.power_budget / cfg.m_antennas) \
        * np.ones(cfg.m_antennas, dtype=complex)

    cycle_records = []
    cycles_to_threshold = None
    winner = None
    for cycle in range(loc_p.max_cycles):
        belief, diag = localize.run_cycle(
            scene, g_hat, grid, belief, x, theta, loc_p.snapshots,
            seed=derive_seed(master_seed, "echo", key, trial, cycle),
            power_budget=loc_p.power_budget)
        cycle_records.append({
            "cycle": belief.cycle, "probs": belief.probs.copy(),
            "residuals": diag.residuals.copy(),
            "gammas": np.abs(belief.gammas), "alphas": np.abs(belief.alphas),
            "correct": belief.argmax == true_hyp})
        if cycles_to_threshold is None:
            # the protocol decision is the first threshold crossing; the
            # simulation keeps cycling so the per-cycle curves stay honest
            decision = localize.check_termination(belief, g_hat,
                                                  loc_p.threshold)
            if decision.terminated:
                cycles_to_threshold = belief.cycle
                winner = decision.winner
        if cycle + 1 >= loc_p.max_cycles:
            break
        if loc_p.optimize_waveform:
            ctx = waveopt.build_context(g_hat, belief, grid, loc_p.snapshots,
                                        cfg.noise_power)
            design = waveopt.optimize(ctx, x, theta, loc_p.power_budget)
            x, theta = design.x, design.theta
        else:
            rng_c = np.random.default_rng(
                derive_seed(master_seed, "arm", key, trial, cycle))
            theta = random_unit_modulus(rng_c, cfg.n_elements)
            direction = (rng_c.standard_normal(cfg.m_antennas)
                         + 1j * rng_c.standard_normal(cfg.m_antennas))
            x = np.sqrt(loc_p.power_budget) * direction / np.linalg.norm(direction)

    return {"ne": ne, "true_hypothesis": true_hyp,
            "cycles": cycle_records,
            "cycles_to_threshold": cycles_to_threshold,
            "winner": winner}


def run_localization_campaign(spec: ExperimentSpec) -> ExperimentResult:
    """Correct-localization probability per cycle and threshold statistics."""
    point_rows, trial_rows, curve_rows, diag_rows = [], [], [], []
    for point, cfg, _, loc_p, sched, grid in _resolve_points(spec, localization=True):
        key = point_key(point)
        max_cycles = loc_p.max_cycles
        correct = np.zeros((spec.trials, max_cycles), dtype=bool)
        top_prob = np.zeros((spec.trials, max_cycles))
        hits, hit_cycles = [], []
        for trial in range(spec.trials):
            rec = run_localization_trial(cfg, sched, grid, loc_p,
                                         spec.master_seed, key, trial)
            for c, cyc in enumerate(rec["cycles"]):
                correct[trial, c] = cyc["correct"]
                top_prob[trial, c] = cyc["probs"].max()
                for j in range(loc_p.n_grids):
                    diag_rows.append({
                        **point, "trial": trial, "cycle": cyc["cycle"],
                        "hypothesis": j,
                        "probability": float(cyc["probs"][j]),
                        "residual": float(cyc["residuals"][j]),
                        "gamma_abs": float(cyc["gammas"][j]),
                        "alpha_abs": float(cyc["alphas"][j])})
            reached = rec["cycles_to_threshold"] is not None
            correct_win = reached and rec["winner"] == rec["true_hypothesis"]
            hits.append(correct_win)
            hit_cycles.append(rec["cycles_to_threshold"]
                              if reached else max_cycles + 1)
            trial_rows.append({**point, "trial": trial, "ne": rec["ne"],
                               "reached": reached,
                               "correct_winner": correct_win,
                               "cycles_to_threshold":
                                   rec["cycles_to_threshold"]})
        for c in range(max_cycles):
            curve_rows.append({**point, "cycle": c + 1,
                               "correct_fraction": float(correct[:, c].mean()),
                               "mean_top_probability": float(top_prob[:, c].mean())})
        point_rows.append({
            **point, "trials": spec.trials,
            "hit_fraction": float(np.mean(hits)),
            "median_cycles_to_threshold": float(np.median(hit_cycles)),
            "final_correct_fraction": float(correct[:, -1].mean())})
    return ExperimentResult(kind="localization", point_rows=point_rows,
                            trial_rows=trial_rows,
                            tables={"curve": curve_rows,
                                    "diagnostics": diag_rows},
                            master_seed=spec.master_seed,
                            resolved_spec=dataclasses.asdict(spec))


# ----------------------------------------------------------------- output

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # numpy 2 spells np.float64 out in repr
    return str(value)


def write_csv(rows: list[dict], path: Path, manifest_name: str = "manifest.json"):
    """Deterministic CSV with a header row and trailing manifest reference."""
    path = Path(path)
    if rows:
        header = list(rows[0].keys())
    else:
        header = []
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(col)) for col in header))
    lines.append(f"# manifest={manifest_name}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_result(result: ExperimentResult, out_dir) -> list[Path]:
    """Write all tables of a campaign plus the JSON manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    base = result.kind
    files = {f"{base}_points.csv": result.point_rows,
             f"{base}_trials.csv": result.trial_rows}
    for name, rows in result.tables.items():
        files[f"{base}_{name}.csv"] = rows
    for name, rows in files.items():
        write_csv(rows, out / name)
        written.append(out / name)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": result.kind,
        "master_seed": result.master_seed,
        "files": sorted(name for name in files),
        "spec": result.resolved_spec,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True,
                                        default=_json_default) + "\n",
                             encoding="utf-8")
    written.append(manifest_path)
    return written


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and not np.isfinite(obj):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


# ------------------------------------------------------------- config I/O

def spec_from_dict(data: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a JSON document; unknown keys error."""
    if not isinstance(data, dict):
        raise ValueError("config root must be an object")
    unknown = set(data) - {f.name for f in dataclasses.fields(ExperimentSpec)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    def build(cls, section):
        payload = data.get(section, {})
        if not isinstance(payload, dict):
            raise ValueError(f"section {section!r} must be an object")
        names = {f.name for f in dataclasses.fields(cls)}
        bad = set(payload) - names
        if bad:
            raise ValueError(f"unknown keys in {section!r}: {sorted(bad)}")
        if cls is SceneConfig:
            for tup in ("bs_position", "irs_center"):
                if tup in payload:
                    payload[tup] = tuple(payload[tup])
        return cls(**payload)

    spec = ExperimentSpec(
        scene=build(SceneConfig, "scene"),
        pilot=build(PilotParams, "pilot"),
        localization=build(LocalizationParams, "localization"),
        sweep=data.get("sweep", {}),
        points=data.get("points"),
        trials=data.get("trials", 30),
        master_seed=data.get("master_seed", 0),
        record_convergence=data.get("record_convergence", False))
    spec.validate()
    return spec


def apply_desk_scale(spec: ExperimentSpec) -> ExperimentSpec:
    """Reduced-size preset: smaller IRS, fewer trials, shorter campaigns.

    Capping ``n_y`` can make sweep values or points equal; the first of
    each is kept and the rest dropped."""
    spec = dataclasses.replace(spec)
    spec.scene = dataclasses.replace(spec.scene, n_y=min(spec.scene.n_y, 2))
    spec.trials = min(spec.trials, 8)
    spec.localization = dataclasses.replace(spec.localization,
                                            max_cycles=min(spec.localization.max_cycles, 12))
    if spec.sweep.get("n_y"):
        spec.sweep = {**spec.sweep, "n_y": list(dict.fromkeys(
            min(v, 2) for v in spec.sweep["n_y"]))}
    if spec.points:
        capped = [{**p, "n_y": min(p["n_y"], 2)} if "n_y" in p else dict(p)
                  for p in spec.points]
        spec.points = [p for i, p in enumerate(capped) if p not in capped[:i]]
    return spec
