"""The open-loop flatness replay pinned exactly against values recorded at
commit bbbc33a, where ``integrate_vertical_tabulated`` stepped
``rk4_flat`` over ``vertical_rhs``.  The tabulated step may be rewritten,
but only in ways that keep every floating-point operation of that step.

The replay takes the first 0.5 s of case a's plan at the acceptance-04
settings: the inputs tabulated on the half-step grid of dt = 1e-4 and
reintegrated with the explicit rudder.  The table was printed by

    PYTHONPATH=src python tests/test_pinned_replay.py

run in a checkout of that commit: it plans case a and prints ``record()``.
The test reads the session fixture, so it adds no planning time.
"""

import numpy as np

from flapkit.dynamics import VerticalParams, integrate_vertical_tabulated
from flapkit.flatness import FlatInputSchedule

DT = 1e-4
DURATION = 0.5


def summary(traj) -> dict:
    """Final state and max |x| of every state column of the replay."""
    vparams = VerticalParams()
    n_steps = int(round(DURATION / DT))
    grid = np.arange(2 * n_steps + 1) * DT / 2
    sched = FlatInputSchedule(traj, vparams)
    gamma, f_flap = sched.tabulate(grid)
    log = integrate_vertical_tabulated(
        sched.initial_vertical_state(), vparams, gamma, f_flap, DT,
        rudder_mode="explicit-rudder",
    )
    return {
        "final_state": log.states[-1].tolist(),
        "max_abs": np.max(np.abs(log.states), axis=0).tolist(),
    }


def record() -> dict:
    from flapkit.planning import case_library, plan

    cons, opts, weights = case_library("a")
    traj, _ = plan(cons, weights, opts)
    return summary(traj)


PINNED = {
    "final_state": [
        0.07657615916274145, 0.07657615916274144, -0.03878980075736529,
        0.5516796593635885, 7.888609052210118e-31, -0.16366017943780126,
        0.7853981633974483, 0.0,
    ],
    "max_abs": [
        0.07657615916274145, 0.07657615916274144, 0.03878980075736529,
        0.5516796593635885, 7.888609052210118e-31, 0.16366017943780126,
        0.7853981633974483, 0.0,
    ],
}


def test_replay_matches_recorded_values(case_a):
    assert summary(case_a.traj) == PINNED


if __name__ == "__main__":
    import pprint

    pprint.pprint(record(), width=100)
