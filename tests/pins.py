"""Every pinned value of the suite, built in one place, and the command that
records them all and reports how far each one moved.

The pin files ``tests/test_pinned_{plans,flights,replay,aborts,rhs}.py`` and
``tests/test_trajectory.py``'s ``SAMPLED_DIGESTS`` hold literal tables
recorded at a named commit.  Their tests rebuild each pin with the builders
below and check it against the table.  A builder that needs a
plan takes ``planned(case)``, a callable that returns the planned case (its
``traj`` and ``report``): the tests pass the session fixtures
(``fixture_plans``), the command plans each case once (``planned_once``).

    PYTHONPATH=src python tests/pins.py record OUT.npz

builds every pin and writes its arrays to ``OUT.npz`` as float64, named
``<file>/<pin>/<field>`` (``plans/a/coeffs``, ``flights/line/states``, ...;
a sampled CSV is ``sampled/<case>/csv``, its bytes one entry each).
It prints the literal tables the pin files hold, each under a ``# <file>
<TABLE>`` line, in the ``pprint`` layout the files were recorded in: to
re-record a pin, paste its table.

    PYTHONPATH=src python tests/pins.py compare A.npz B.npz

prints one line per pin of either recording: ``same`` where every field's
digest is unchanged, else ``changed`` and, for each field that changed, the
largest absolute move per column (the last axis; one number for a scalar),
or both shapes where they differ, as where an abort logs another row count.
A change that moves a pin records at its parent and at itself, and states
the table ``compare`` prints.
"""

import argparse
import functools
import hashlib
import math
import os
import pprint
import sys
import tempfile
from types import SimpleNamespace

import numpy as np

from flapkit.dynamics import (
    FwavParams,
    VerticalParams,
    integrate_vertical_tabulated,
    simulate_vertical,
    vertical_rhs,
)
from flapkit.flatness import FlatInputSchedule
from flapkit.planning import case_library, plan
from flapkit.simulate import run_closed_loop

from helpers import (
    MODEL_PARAMS,
    constant_trajectory,
    full_row,
    simulate_full,
    vertical_inputs,
    vertical_row,
)


def digest(array) -> str:
    """The sha256 of an array's little-endian float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


@functools.cache
def planned_once(case: str):
    """``planned(case)`` for the command: the case planned at its default
    options (seed 0) on first use, and only then."""
    cons, opts, weights = case_library(case)
    traj, report = plan(cons, weights, opts)
    return SimpleNamespace(traj=traj, report=report)


def fixture_plans(request):
    """``planned(case)`` for a test: the session fixture ``case_<case>``."""
    return lambda case: request.getfixturevalue(f"case_{case}")


# --- test_pinned_plans.py: the four demonstration plans

CASES = ("a", "b", "c", "line")


def plan_summary(traj, report) -> dict:
    return {
        "objective": report.objective,
        "restart_index": report.restart_index,
        "coeffs": np.stack([seg.coeffs for seg in traj.segments]).tolist(),
    }


# --- test_pinned_flights.py: closed-loop flights and open-loop runs

# (case, model, start offset); the controller and plant run at their defaults
FLIGHTS = {
    "c_vertical": ("c", "vertical", (0.03, -0.02, 0.04)),
    "line_full": ("line", "full", (0.0, 0.0, 0.02)),
}


def fly(planned, key):
    case, model, offset = FLIGHTS[key]
    return run_closed_loop(planned(case).traj, MODEL_PARAMS[model](), perturb_pos=offset)


def flight_summary(result) -> dict:
    """Final state, max |x| and RMS of every control-log column, and the
    discrete-event counts of one flight."""
    rows = result.control_rows
    return {
        "final_state": result.state_log.states[-1].tolist(),
        "control_max_abs": np.max(np.abs(rows), axis=0).tolist(),
        "control_rms": np.sqrt(np.mean(rows**2, axis=0)).tolist(),
        "jumps": len(result.jump_times),
        "ff_saturations": len(result.ff_sat_times),
    }


# (case, start offset) of each full-model closed-loop flight at the defaults,
# whose state and control logs are pinned by digest
FULL_FLIGHTS = {
    "line": ("line", (0.0, 0.0, 0.0)),
    "line_perturbed": ("line", (0.0, 0.0, 0.02)),
    "a": ("a", (0.0, 0.0, 0.0)),
    "a_perturbed": ("a", (0.0, 0.0, -0.03)),
}


def fly_full(planned, key) -> dict:
    """The state and control logs of one full-model flight."""
    case, offset = FULL_FLIGHTS[key]
    result = run_closed_loop(planned(case).traj, FwavParams(), perturb_pos=offset)
    return {"states": result.state_log.states, "control": result.control_rows}


def varying_commands(t: float) -> tuple:
    """A command row (f_flap_c, theta_rud_c, theta_ele_c) schedule that moves
    every stage."""
    f0 = FwavParams().hover_frequency
    return (f0 * (1.0 + 0.05 * math.sin(5.0 * t)), 0.02 * math.sin(3.0 * t),
            -0.03 * math.cos(4.0 * t))


def simulate_varying():
    params = FwavParams()
    return simulate_full(full_row(f_flap=params.hover_frequency), params, varying_commands,
                         dt=1e-3, duration=0.5)


# the rudder mode of each open-loop vertical run
VERTICAL_RUNS = {
    "simulate_vertical_explicit": "explicit-rudder",
    "simulate_vertical_proxy_constrained": "gamma-proxy",
}


def varying_vertical_inputs(t: float) -> tuple:
    """An input row (gx, gy, gz, fflap) schedule that moves every stage; the
    reduced attitude is unit by construction."""
    a, b = 0.08 * math.sin(4.0 * t), 0.03 * math.cos(6.0 * t)
    f0 = VerticalParams().hover_frequency
    return vertical_inputs([math.sin(a) * math.cos(b), math.sin(b), math.cos(a) * math.cos(b)],
                           f0 * (1.0 + 0.05 * math.sin(5.0 * t)))


def simulate_vertical_varying(rudder_mode: str):
    start = vertical_row(vv=[0.5, 0.05, 0.1], psi=0.3, omega_psi=0.2)
    return simulate_vertical(start, VerticalParams(), varying_vertical_inputs, rudder_mode,
                             dt=1e-3, duration=0.5)


# --- test_pinned_replay.py: case a's open-loop flatness replay

REPLAY_DT = 1e-4
REPLAY_DURATION = 0.5


def replay_summary(traj) -> dict:
    """Final state and max |x| of every state column of the replay."""
    vparams = VerticalParams()
    n_steps = int(round(REPLAY_DURATION / REPLAY_DT))
    grid = np.arange(2 * n_steps + 1) * REPLAY_DT / 2
    sched = FlatInputSchedule(traj, vparams)
    gamma, f_flap = sched.tabulate(grid)
    log = integrate_vertical_tabulated(
        sched.initial_vertical_state(), vparams, gamma, f_flap, REPLAY_DT,
        rudder_mode="explicit-rudder",
    )
    return {
        "final_state": log.states[-1].tolist(),
        "max_abs": np.max(np.abs(log.states), axis=0).tolist(),
    }


# --- test_pinned_aborts.py: aborted closed-loop flights

# (model, start position offset, start velocity offset, divergence radius)
ABORTS = {
    "vertical_radius": ("vertical", (0.95, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0),
    "vertical_non_finite": ("vertical", (0.0, 0.0, 0.0), (3000.0, 0.0, 0.0), math.inf),
    "full_stage": ("full", (0.0, 0.0, 0.0), (1e6, 0.0, 0.0), math.inf),
}


def fly_abort(key):
    model, pos, vel, radius = ABORTS[key]
    return run_closed_loop(constant_trajectory([0.0, 0.0, 0.0], T=1.0), MODEL_PARAMS[model](),
                           duration=1.0, perturb_pos=pos, perturb_vel=vel,
                           divergence_radius=radius)


def abort_summary(result) -> dict:
    return {
        "diverged": result.diverged,
        "abort_time": result.abort_time,
        "rows": len(result.state_log.t),
        "ticks": len(result.control_t),
        "last_row": result.state_log.states[-1].tolist(),
    }


# --- test_pinned_rhs.py: vertical_rhs rows in both rudder modes

def unit(gx, gy) -> tuple:
    """A unit reduced attitude with the given gx and gy and gz > 0."""
    return gx, gy, math.sqrt(1.0 - gx * gx - gy * gy)


# (state row, input row (gx, gy, gz, fflap))
RHS_ROWS = [
    ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], (0.0, 0.0, 1.0, 15.08)),
    ([-0.0, 0.0, -0.0, -0.0, -0.0, 0.0, -0.0, -0.0], (-0.0, -0.0, 1.0, 0.0)),
    ([0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0], (0.0, -0.0, 1.0, 12.0)),
    ([0.3, -0.2, 1.1, 0.8, -0.15, 0.4, 0.7, -1.3], (*unit(0.2, -0.3), 14.0)),
    ([-1.0, 2.0, -0.5, -1.2, 0.35, -0.9, -2.9, 2.4], (*unit(-0.4, 0.1), 18.5)),
    ([0.0, 0.0, 0.0, 2.5, -0.0, -3.0, 40.0, 0.0], (*unit(-0.0, 0.35), 9.0)),
    ([5.0, -5.0, 2.0, -0.0, 1.5, 0.0, -1e3, -0.0], (*unit(0.6, -0.0), 0.0)),
    ([0.0, 0.0, 0.0, 0.05, 0.02, -0.01, math.pi / 2, 6.0], (*unit(0.1, 0.5), 22.0)),
]

RHS_MODES = ["gamma-proxy", "explicit-rudder"]


def rhs_rows(mode: str) -> list:
    return [list(vertical_rhs(state, u, VerticalParams(), mode)) for state, u in RHS_ROWS]


# --- test_trajectory.py: each plan's sampled CSV, by digest

def sampled_csv(traj) -> np.ndarray:
    """The bytes of a plan's sampled CSV at the default dt, one entry each."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sampled.csv")
        traj.to_sampled_csv(path)
        with open(path, "rb") as fh:
            return np.frombuffer(fh.read(), dtype=np.uint8)


def csv_digest(csv) -> str:
    """The sha256 of a CSV's bytes, given as ``sampled_csv`` returns them or
    as their float64 recording."""
    return hashlib.sha256(np.asarray(csv, dtype=np.uint8).tobytes()).hexdigest()


# --- every pin at once

def build(planned) -> dict:
    """Every pin's values, {file: {pin: {field: value}}}: a number or nested
    list of numbers where the pin file holds the value, the logged array
    where it holds its digest.  An abort's pin also carries its state log."""
    flights = {key: flight_summary(fly(planned, key)) for key in FLIGHTS}
    flights.update({key: fly_full(planned, key) for key in FULL_FLIGHTS})
    flights["simulate_full_varying"] = {"states": simulate_varying().states}
    flights.update({key: {"states": simulate_vertical_varying(mode).states}
                    for key, mode in VERTICAL_RUNS.items()})
    aborts = {}
    for key in ABORTS:
        result = fly_abort(key)
        aborts[key] = {**abort_summary(result), "states": result.state_log.states}
    return {
        "plans": {case: plan_summary(planned(case).traj, planned(case).report)
                  for case in CASES},
        "flights": flights,
        "replay": {"a": replay_summary(planned("a").traj)},
        "aborts": aborts,
        "rhs": {mode: {"xdot": rhs_rows(mode)} for mode in RHS_MODES},
        "sampled": {case: {"csv": sampled_csv(planned(case).traj)} for case in CASES},
    }


def arrays(values: dict) -> dict:
    """``build``'s values as float64 arrays named ``<file>/<pin>/<field>``."""
    return {f"{file}/{pin}/{field}": np.asarray(value, dtype=np.float64)
            for file, pins in values.items() for pin, fields in pins.items()
            for field, value in fields.items()}


def tables(values: dict) -> dict:
    """The literal tables the pin files hold, built from ``build``'s values,
    by ``<file> <TABLE>``."""
    flights = values["flights"]
    return {
        "test_pinned_plans.py PINNED": values["plans"],
        "test_pinned_flights.py PINNED": {key: flights[key] for key in FLIGHTS},
        "test_pinned_flights.py DIGESTS": {
            key: {field: digest(log) for field, log in flights[key].items()}
            for key in flights if key not in FLIGHTS},
        "test_pinned_replay.py PINNED": values["replay"]["a"],
        "test_pinned_aborts.py PINNED": {
            key: {field: value for field, value in pin.items() if field != "states"}
            for key, pin in values["aborts"].items()},
        "test_pinned_rhs.py PINNED": {mode: pin["xdot"] for mode, pin in values["rhs"].items()},
        "test_trajectory.py SAMPLED_DIGESTS": {
            case: csv_digest(pin["csv"]) for case, pin in values["sampled"].items()},
    }


def table_texts(values: dict) -> dict:
    """Each table of ``tables`` as ``record`` prints it: the plans' compact,
    every other one a line per leaf list."""
    return {title: pprint.pformat(table, width=100, compact=title.startswith("test_pinned_plans"))
            for title, table in tables(values).items()}


# --- the comparison of two recordings

def load(path) -> dict:
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def by_pin(recording: dict) -> dict:
    pins = {}
    for name, array in recording.items():
        pin, _, field = name.rpartition("/")
        pins.setdefault(pin, {})[field] = array
    return pins


def column_moves(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The largest absolute difference per column (the last axis) of two
    arrays of one shape; a scalar is one column.  Equal entries and two NaNs
    move by 0, an infinity against any other value by inf."""
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.where((x == y) | (np.isnan(x) & np.isnan(y)), 0.0, np.abs(x - y))
    diff = np.atleast_1d(diff)
    return np.max(diff.reshape(math.prod(diff.shape[:-1]), diff.shape[-1]), axis=0, initial=0.0)


def compare(a: dict, b: dict) -> dict:
    """{pin: {field: move}} over the pins of two recordings (name -> array).
    A field is listed where its shape or digest differs: its move is the pair
    of shapes where they differ (None on a side without the field), else
    ``column_moves``.  A pin with no field listed did not move."""
    a, b = by_pin(a), by_pin(b)
    out = {}
    for pin in sorted({*a, *b}):
        x_fields, y_fields = a.get(pin, {}), b.get(pin, {})
        moved = {}
        for field in sorted({*x_fields, *y_fields}):
            x, y = x_fields.get(field), y_fields.get(field)
            if x is None or y is None or x.shape != y.shape:
                moved[field] = (getattr(x, "shape", None), getattr(y, "shape", None))
            elif digest(x) != digest(y):
                moved[field] = column_moves(x, y)
        out[pin] = moved
    return out


def compare_lines(moves: dict) -> list:
    """One line per pin of ``compare``'s result."""
    lines = []
    for pin, moved in moves.items():
        parts = [f"{pin}: {'changed' if moved else 'same'}"]
        for field, move in moved.items():
            if isinstance(move, tuple):
                parts.append(f"{field} shape {move[0]} -> {move[1]}")
            else:
                parts.append(f"{field} max |move| by column " + " ".join(f"{m:.2g}" for m in move))
        lines.append("; ".join(parts))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tests/pins.py", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    record = sub.add_parser("record", help="write every pin's arrays and print the pin tables")
    record.add_argument("out", help="the .npz file to write")
    comparison = sub.add_parser("compare", help="print how far each pin moved from A to B")
    comparison.add_argument("a", help="a recording (.npz)")
    comparison.add_argument("b", help="a recording (.npz)")
    args = parser.parse_args(argv)
    if args.command == "record":
        values = build(planned_once)
        np.savez(args.out, **arrays(values))
        for title, text in table_texts(values).items():
            print(f"# {title}\n{text}")
    else:
        print("\n".join(compare_lines(compare(load(args.a), load(args.b)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
