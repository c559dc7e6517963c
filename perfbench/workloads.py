"""The benchmark's workloads: the campaign that makes up one round.

A run repeats whole rounds until its measuring time is used up.  A round
is one campaign, built as a JSON-style config the way the CLI reads one,
run through ``harness.run_chanest_campaign`` or
``harness.run_localization_campaign`` and written with
``harness.write_result``.

Every round of a workload is the same campaign, whatever ``--seed`` the
run was given, so a run's operations are whole copies of one fixed set and
its medians do not depend on how many rounds fit in the run.  Inputs drawn
per seed moved the work per operation too much for the run-to-run spread
to stay within the bounds: a channel estimate takes 11 to 300 refinement
sweeps and a design 1 to 8 penalty stages, so the medians of ten runs
spread by 10-25%.  A fixed campaign also keeps the share of failed
operations exactly the same in every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# the IRS of configs/fig5..fig7: 5 x 5 elements
_CHANEST_SCENE = {"m_antennas": 4, "n_x": 5, "n_y": 5, "sigma2_dbm": -120.0}
# the scene of the criterion-9 desk campaign: 5 x 2 elements
_DESK_SCENE = {"m_antennas": 4, "n_x": 5, "n_y": 2, "sigma2_dbm": -120.0,
               "target_rcs_amplitude": 2e-5}
# the scene of configs/fig8 and fig10: 5 x 4 elements
_PAPER_SCENE = {"m_antennas": 4, "n_x": 5, "n_y": 4, "sigma2_dbm": -120.0,
                "target_rcs_amplitude": 2e-5}
_LOCALIZATION = {"n_grids": 4, "theta_lo_deg": 52.5, "theta_hi_deg": 72.5,
                 "snapshots": 8, "power_budget": 50.0, "threshold": 0.95}


def chanest_sweep() -> dict:
    """Three points of the fig5-fig7 family, master seed of configs/fig6."""
    return {"scene": dict(_CHANEST_SCENE),
            "pilot": {"m_t": 1, "snr_db": 15.0},
            "points": [{"m_antennas": 4, "snr_db": 5.0},
                       {"m_antennas": 6, "snr_db": 25.0},
                       {"m_antennas": 6, "m_t": 2, "snr_db": 15.0}],
            "trials": 4, "master_seed": 106}


def loc_desk_optimized() -> dict:
    """The optimized 50 W arm of the criterion-9 desk campaign, cut to four
    trials of four cycles."""
    return {"scene": dict(_DESK_SCENE),
            "pilot": {"m_t": 1, "snr_db": 40.0},
            "localization": {**_LOCALIZATION, "max_cycles": 4},
            "points": [{"arm": "optimized"}],
            "trials": 4, "master_seed": 2026}


def loc_paper_random() -> dict:
    """Trials 0 and 1 of the random arm of configs/fig10, cut to one cycle."""
    return {"scene": dict(_PAPER_SCENE),
            "pilot": {"m_t": 1, "snr_db": 40.0},
            "localization": {**_LOCALIZATION, "max_cycles": 1},
            "points": [{"arm": "random", "m_antennas": 4, "n_y": 4}],
            "trials": 2, "master_seed": 110}


@dataclass(frozen=True)
class Workload:
    config: Callable[[], dict]
    kind: str                 # "chanest" or "localization"
    # fit-exactness failures count as failed operations (otherwise they
    # only feed the localize.joint_ml.exact share)
    exactness_fails: bool = False


WORKLOADS = {
    "chanest_sweep": Workload(chanest_sweep, "chanest"),
    "loc_desk_optimized": Workload(loc_desk_optimized, "localization"),
    "loc_paper_random": Workload(loc_paper_random, "localization",
                                 exactness_fails=True),
}
