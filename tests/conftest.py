import numpy as np
import pytest

from irsloc import chanest


@pytest.fixture
def record_update_objectives(monkeypatch):
    """``record(obs, ...)`` runs ``chanest.refine(obs, ...)`` and returns
    the estimate and the objective after every entry update of its sweeps
    (entries with zero curvature are skipped).  Each sweep runs the
    production sweep with a callback that refreshes the updated row's pair
    residuals and reads the objective."""
    sweep = chanest._MLObjective.sweep

    def record(*args, **kwargs):
        objectives = []

        def recording_sweep(state, on_update=None):
            assert on_update is None

            def on_entry(row, col):
                state.refresh_row(row)
                objectives.append(state.value())

            sweep(state, on_entry)

        with monkeypatch.context() as patch:
            patch.setattr(chanest._MLObjective, "sweep", recording_sweep)
            est = chanest.refine(*args, **kwargs)
        return est, np.asarray(objectives)

    return record
