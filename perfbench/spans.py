"""Span recorder for the traced benchmark run.

The tracer wraps flapkit's public functions at the names their callers look
up (module globals and class attributes), so flapkit itself is unchanged.
Spans hold a name, start, end and the span that was open when they started;
they stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import inspect
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy.optimize

import flapkit.cli
import flapkit.dynamics
import flapkit.flatness
import flapkit.io
import flapkit.planning
import flapkit.simulate
from flapkit.control import TrackingController
from flapkit.dynamics import FullLog, VerticalLog
from flapkit.flatness import FlatInputSchedule
from flapkit.metrics import MetricsReport
from flapkit.simulate import ClosedLoopResult
from flapkit.trajectory import PiecewiseTrajectory


def _minimize_info(args, kwargs, res):
    return {"nfev": int(res.nfev), "status": int(res.status)}


def _plan_info(args, kwargs, result):
    opts = args[2]  # flapkit.cli calls run_planner(cons, weights, opts)
    restarts = result[1].restarts
    feasible = sum(1 for r in restarts if r.max_excess <= opts.feas_tol)
    return {"restarts": len(restarts), "feasible": feasible}


def _flight_info(args, kwargs, res):
    return {
        "steps": len(res.state_log.t) - 1,
        "jumps": res.jump_episodes(),
        "sats": len(res.ff_sat_times),
    }


def _steps_info(args, kwargs, log):
    return {"steps": len(log.t) - 1}


def _bytes_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}  # args: (self, path)


# (owner, attribute, span name, hook turning (args, kwargs, result) into info)
WRAPS = [
    (flapkit.cli, "run_planner", "planning.plan", _plan_info),
    (flapkit.planning, "solve_qp_equality_full", "planning.qp", None),
    (flapkit.planning, "constraint_residuals", "planning.residuals", None),
    (scipy.optimize, "minimize", "planning.minimize", _minimize_info),
    (PiecewiseTrajectory, "eval", "trajectory.eval", None),
    (PiecewiseTrajectory, "eval_many", "trajectory.eval", None),
    (PiecewiseTrajectory, "flat_sample", "trajectory.eval", None),
    (TrackingController, "update", "control.tick", None),
    (flapkit.simulate, "vertical_rhs", "dynamics.vertical_rhs", None),
    (flapkit.simulate, "full_rhs", "dynamics.full_rhs", None),
    (flapkit.dynamics, "integrate_vertical_tabulated", "dynamics.tabulated", _steps_info),
    (flapkit.cli, "run_closed_loop", "simulate.run", _flight_info),
    (FlatInputSchedule, "tabulate", "flatness.tabulate", None),
    (flapkit.flatness, "flat_to_full", "flatness.flat_to_full", None),
    (flapkit.cli, "compute_metrics", "metrics.compute", None),
    (PiecewiseTrajectory, "to_coeff_csv", "io.write", _bytes_info),
    (PiecewiseTrajectory, "to_sampled_csv", "io.write", _bytes_info),
    (VerticalLog, "to_csv", "io.write", _bytes_info),
    (FullLog, "to_csv", "io.write", _bytes_info),
    (ClosedLoopResult, "control_to_csv", "io.write", _bytes_info),
    (MetricsReport, "to_csv", "io.write", _bytes_info),
    (PiecewiseTrajectory, "from_coeff_csv", "io.read", None),
    (flapkit.io, "load_state_log", "io.read", None),
]


class Tracer:
    """Records spans while ``active``; wrappers are installed per traced cycle."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.info: dict[int, dict] = {}
        self.cycles: list[tuple[int, int]] = []  # span index ranges, one per traced cycle
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def operation(self, name: str):
        """Record a root span around one benchmark operation and, while it
        runs, the spans of the wrapped functions it calls.  Records nothing
        while the wrappers are not installed (an untraced cycle)."""
        if not self._saved:
            yield
            return
        idx = self._open(self._id(name))
        self.active = True
        self.start[idx] = perf_counter()
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.active = False
            self._stack.pop()

    def _wrap(self, fn, name: str, hook):
        tracer = self
        name_id = self._id(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            tracer.start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                tracer.info[idx] = hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, hook in WRAPS:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, hook))
            else:
                new = self._wrap(raw, name, hook)
            setattr(owner, attr, new)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        """Wrappers in place for the duration of the block."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write_csv(self, path) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,info\n")
            for idx in range(len(self.start)):
                info = self.info.get(idx)
                extra = ";".join(f"{k}={v}" for k, v in info.items()) if info else ""
                fh.write(
                    f"{idx},{self.parent[idx]},{self.names[self.name[idx]]},"
                    f"{self.start[idx]:.9f},{self.end[idx]:.9f},{extra}\n"
                )
        return len(self.start)


# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "planning.plan_s": ("s", "lower"),
    "planning.qp_s": ("s", "lower"),
    "planning.residuals_s": ("s", "lower"),
    "planning.inner_solves": ("count", "lower"),
    "planning.nfev": ("count", "lower"),
    "planning.us_per_eval": ("us", "lower"),
    "planning.converged_frac": ("ratio", "higher"),
    "planning.feasible_frac": ("ratio", "higher"),
    "trajectory.eval_calls": ("count", "lower"),
    "trajectory.eval_us": ("us", "lower"),
    "control.ticks": ("count", "lower"),
    "control.tick_us": ("us", "lower"),
    "control.jump_episodes": ("count", "lower"),
    "control.ff_saturations": ("count", "lower"),
    "dynamics.vertical_rhs_calls": ("count", "lower"),
    "dynamics.vertical_rhs_us": ("us", "lower"),
    "dynamics.full_rhs_calls": ("count", "lower"),
    "dynamics.full_rhs_us": ("us", "lower"),
    "dynamics.tabulated_step_us": ("us", "lower"),
    "simulate.step_us": ("us", "lower"),
    "simulate.self_s": ("s", "lower"),
    "flatness.tabulate_s": ("s", "lower"),
    "flatness.flat_to_full_ms": ("ms", "lower"),
    "flatness.samples": ("count", "lower"),
    "metrics.compute_s": ("s", "lower"),
    "io.write_s": ("s", "lower"),
    "io.read_s": ("s", "lower"),
    "io.bytes_written": ("bytes", "lower"),
}
OVERHEAD = ("trace.overhead", "ratio", "lower")


def layer_samples(tr: Tracer) -> dict[str, list[float]]:
    """Per-layer samples: one per span, per plan or per traced cycle."""
    names = np.frombuffer(tr.name, dtype=np.int32)
    parent = np.frombuffer(tr.parent, dtype=np.int32)
    dur = np.frombuffer(tr.end) - np.frombuffer(tr.start)
    has_parent = parent >= 0
    child_sum = np.zeros(len(dur))
    np.add.at(child_sum, parent[has_parent], dur[has_parent])
    ids = {name: i for i, name in enumerate(tr.names)}

    def where(name):
        return np.flatnonzero(names == ids.get(name, -1))

    def info(idx, key):
        return tr.info[int(idx)][key]

    out: dict[str, list[float]] = {}
    plans = where("planning.plan")
    solves = where("planning.minimize")
    out["planning.plan_s"] = list(dur[plans])
    out["planning.qp_s"] = list(dur[where("planning.qp")])
    out["planning.residuals_s"] = list(dur[where("planning.residuals")])
    per_plan = [solves[parent[solves] == p] for p in plans]
    out["planning.inner_solves"] = [len(s) for s in per_plan]
    out["planning.nfev"] = [sum(info(i, "nfev") for i in s) for s in per_plan]
    out["planning.us_per_eval"] = [
        dur[i] / info(i, "nfev") * 1e6 for i in solves if info(i, "nfev")
    ]
    out["planning.converged_frac"] = [
        sum(info(i, "status") == 0 for i in s) / len(s) for s in per_plan if len(s)
    ]
    out["planning.feasible_frac"] = [
        info(p, "feasible") / info(p, "restarts") for p in plans
    ]
    evals = where("trajectory.eval")
    out["trajectory.eval_us"] = list(dur[evals] * 1e6)
    out["control.tick_us"] = list(dur[where("control.tick")] * 1e6)
    out["dynamics.vertical_rhs_us"] = list(dur[where("dynamics.vertical_rhs")] * 1e6)
    out["dynamics.full_rhs_us"] = list(dur[where("dynamics.full_rhs")] * 1e6)
    out["dynamics.tabulated_step_us"] = [
        dur[i] / info(i, "steps") * 1e6 for i in where("dynamics.tabulated")
    ]
    runs = where("simulate.run")
    out["simulate.step_us"] = [dur[i] / info(i, "steps") * 1e6 for i in runs]
    out["simulate.self_s"] = list(dur[runs] - child_sum[runs])
    out["flatness.tabulate_s"] = list(dur[where("flatness.tabulate")])
    out["flatness.flat_to_full_ms"] = list(dur[where("flatness.flat_to_full")] * 1e3)
    out["metrics.compute_s"] = list(dur[where("metrics.compute")])
    writes = where("io.write")
    out["io.write_s"] = list(dur[writes])
    out["io.read_s"] = list(dur[where("io.read")])

    counted = {
        "trajectory.eval_calls": "trajectory.eval",
        "control.ticks": "control.tick",
        "dynamics.vertical_rhs_calls": "dynamics.vertical_rhs",
        "dynamics.full_rhs_calls": "dynamics.full_rhs",
        "flatness.samples": "flatness.flat_to_full",
    }
    summed = ("control.jump_episodes", "control.ff_saturations", "io.bytes_written")
    out.update({metric: [] for metric in (*counted, *summed)})
    for lo, hi in tr.cycles:
        for metric, span_name in counted.items():
            out[metric].append(int(np.sum(names[lo:hi] == ids.get(span_name, -1))))
        cycle_runs = runs[(runs >= lo) & (runs < hi)]
        cycle_writes = writes[(writes >= lo) & (writes < hi)]
        out["control.jump_episodes"].append(sum(info(i, "jumps") for i in cycle_runs))
        out["control.ff_saturations"].append(sum(info(i, "sats") for i in cycle_runs))
        out["io.bytes_written"].append(sum(info(i, "bytes") for i in cycle_writes))
    return {key: [float(v) for v in out[key]] for key in LAYER_METRICS}


def median_and_tail(values: list[float]) -> tuple[float, float, str]:
    """Median, and the highest order statistic with ten samples above it.

    Returns the tail's label: its percentile and the sample count, or
    ``max`` when there are too few samples for any such percentile.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, "n=0"
    ordered = sorted(values)
    median = float(np.median(ordered))
    if n < 11:
        return median, ordered[-1], f"max of n={n}"
    return median, ordered[n - 11], f"p{100.0 * (n - 10) / n:.3f} of n={n}"
