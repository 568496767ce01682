"""Shared fixtures: planned demonstration cases and their closed-loop runs.

Planning and closed-loop simulation are the expensive pieces, so each case
is planned and flown once per session and reused across test modules.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from flapkit.dynamics import rk4_flat, vertical_rhs
from flapkit.planning import PlanOptions, PlanReport, case_library, plan
from flapkit.simulate import ClosedLoopResult, run_closed_loop
from flapkit.trajectory import ObjectiveWeights, PiecewiseTrajectory


@dataclass
class PlannedCase:
    name: str
    cons: object
    opts: PlanOptions
    weights: ObjectiveWeights
    traj: PiecewiseTrajectory
    report: PlanReport


def _plan_case(name: str) -> PlannedCase:
    cons, opts, weights = case_library(name)
    traj, report = plan(cons, weights, opts)
    return PlannedCase(name, cons, opts, weights, traj, report)


@pytest.fixture(scope="session")
def case_a() -> PlannedCase:
    return _plan_case("a")


@pytest.fixture(scope="session")
def case_b() -> PlannedCase:
    return _plan_case("b")


@pytest.fixture(scope="session")
def case_c() -> PlannedCase:
    return _plan_case("c")


@pytest.fixture(scope="session")
def case_line() -> PlannedCase:
    return _plan_case("line")


@pytest.fixture(scope="session")
def run_a(case_a) -> ClosedLoopResult:
    return run_closed_loop(case_a.traj, model="vertical")


@pytest.fixture(scope="session")
def run_b(case_b) -> ClosedLoopResult:
    return run_closed_loop(case_b.traj, model="vertical")


@pytest.fixture(scope="session")
def run_c(case_c) -> ClosedLoopResult:
    return run_closed_loop(case_c.traj, model="vertical")


@pytest.fixture(scope="session")
def run_line(case_line) -> ClosedLoopResult:
    return run_closed_loop(case_line.traj, model="vertical")


@pytest.fixture(scope="session")
def rk4_vertical():
    """The vertical model's reference integration, written out here: ``rk4_flat``
    over ``vertical_rhs`` from ``state0``, with input sample 2k read at step k's
    start, 2k + 1 at its midpoint and 2k + 2 at its end.  Returns the state rows."""

    def run(state0, params, samples, dt, rudder_mode="gamma-proxy"):
        states = [state0.as_vector().tolist()]
        for k in range(len(samples) // 2):
            u0, um, u1 = samples[2 * k:2 * k + 3]
            states.append(rk4_flat(vertical_rhs, states[-1], dt, u0, um, u1, params, rudder_mode))
        return np.array(states)

    return run
