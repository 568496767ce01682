"""The four benchmark workloads and the checks on their outputs.

Each workload loads its inputs in ``__init__`` (part of set-up), may run a
``prelude`` of timed commands once, and then repeats ``cycle`` until the
run's time is used up.  Every command or call is one operation: it fails on
a non-zero exit code, an exception, or a failed output check, and a failure
never aborts the run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import flapkit.cli
import flapkit.dynamics
import flapkit.flatness
from flapkit import (
    FlatInputSchedule,
    FwavParams,
    PiecewiseTrajectory,
    VerticalParams,
    case_library,
    compute_metrics,
    constraint_residuals,
    reference_tracking_errors,
    snap_objective,
    solve_qp_equality,
)

REPLAY_DT = 1e-4  # the acceptance-04 integration step
REPLAY_DEV_MAX = 0.02  # the acceptance-04 deviation bound, m
WAYPOINT_PERTURB = 0.05  # per-axis half-width of the case-c start offsets, m
# Altitude only: on the full model a lateral start offset of even 1 mm
# pushes case line's cross-track RMS over its reference envelope.
FULL_PERTURB_Z = 0.04  # half-width of the full-loop altitude offsets, m


@dataclass
class Op:
    name: str
    cycle: int
    wall_s: float = 0.0
    exit_code: int | None = None
    ok: bool = False
    note: str = ""
    argv: list[str] = field(default_factory=list)


class Session:
    """Runs operations, times them, checks them and keeps the results."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.tracer = None  # a spans.Tracer in a traced run
        self.pacer = None  # a pace.Pacer while calibration samples are taken
        self.ops: list[Op] = []
        self.cycle = -1  # -1 is the prelude
        self.paths: list[dict] = []  # flown or replayed paths
        self.objectives: list[float] = []
        self._qp_objective: dict[str, float] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _timed(self, op: Op, fn):
        recording = self.tracer.operation(op.name) if self.tracer else contextlib.nullcontext()
        pacer = self.pacer
        with recording:
            spent = pacer.spent if pacer else 0.0
            t0 = perf_counter()
            try:
                return fn()
            finally:
                op.wall_s = perf_counter() - t0
                if pacer:  # calibration samples taken during the operation
                    op.wall_s -= pacer.spent - spent

    def _check(self, op: Op, check, result) -> None:
        if check is None:
            op.ok = True
            return
        try:
            op.note = check(result) or ""
        except Exception:
            op.note = "check raised: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
            return
        op.ok = not op.note

    def command(self, argv: list[str], check=None) -> bool:
        """One ``flapkit`` command through ``flapkit.cli.main``."""
        op = Op("cli." + argv[0], self.cycle, argv=list(argv))
        self.ops.append(op)
        out, err = io.StringIO(), io.StringIO()

        def run():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return flapkit.cli.main(argv)

        try:
            op.exit_code = self._timed(op, run)
        except Exception:
            op.note = "raised: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
            return False
        if op.exit_code != 0:
            op.note = err.getvalue().strip()[-300:] or f"exit code {op.exit_code}"
            return False
        self._check(op, check, out.getvalue())
        return True

    def call(self, name: str, fn, check=None):
        """One call into the public Python API; returns its result or None."""
        op = Op(name, self.cycle)
        self.ops.append(op)
        try:
            result = self._timed(op, fn)
        except Exception:
            op.note = "raised: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
            return None
        op.exit_code = 0
        self._check(op, check, result)
        return result

    # -- shared output checks ------------------------------------------------

    def qp_objective(self, case: str) -> float:
        """Objective of the equality-QP minimizer under the case weights."""
        if case not in self._qp_objective:
            cons, opts, weights = case_library(case)
            qp = solve_qp_equality(cons, None, opts)
            self._qp_objective[case] = snap_objective(qp, weights)
        return self._qp_objective[case]

    def check_plan(self, case: str, traj_path: str) -> str:
        cons, _, weights = case_library(case)
        traj = PiecewiseTrajectory.from_coeff_csv(traj_path)
        res = constraint_residuals(traj, cons)
        if not res.all_within():
            return (f"plan violates case {case}: equality {res.max_equality:.3e}, "
                    f"inequality {res.max_aggregate:.3e}")
        self.objectives.append(snap_objective(traj, weights) / self.qp_objective(case))
        return ""

    def check_flight(self, traj_path: str, state_path: str) -> str:
        duration = PiecewiseTrajectory.from_coeff_csv(traj_path).duration
        with open(state_path, encoding="utf-8") as fh:
            last = fh.readlines()[-1].split(",")
        t_end = float(last[0])
        if not all(math.isfinite(float(x)) for x in last):
            return "state log ends in a non-finite state"
        if abs(t_end - duration) > 1e-6:
            return f"flight stopped at t={t_end:.3f} s of {duration:.3f} s"
        self.paths.append({"sim_s": t_end, "wall_s": self.ops[-1].wall_s})
        return ""

    def check_metrics(self, metrics_path: str, reference: str | None) -> str:
        with open(metrics_path, encoding="utf-8") as fh:
            cells = fh.read().strip().splitlines()[1].split(",")
        row = [float(x) for x in cells[1:7]]
        self.paths[-1]["err_m"] = max(row[1], row[3], row[5])
        if reference is None:
            return ""
        limit = reference_tracking_errors()[reference].row()
        over = [f"{v:.3f}>{r:.3f}" for v, r in zip(row, limit) if v > r]
        return f"outside the {reference} reference envelope: {over}" if over else ""


# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, session: Session, seed: int, data_dir: str):
        self.s = session
        self.seed = seed
        self.rng = np.random.default_rng(seed)  # draws the flights' start offsets
        self.perturbations: list[list[float]] = []

    def prelude(self) -> None:
        pass

    def cycle(self) -> None:
        raise NotImplementedError

    def fly(self, traj: str, tag: str, reference: str | None, extra: list[str]) -> None:
        """simulate -> metrics of one planned trajectory."""
        s = self.s
        state = s.path(f"state_{tag}.csv")
        ctrl = s.path(f"control_{tag}.csv")
        met = s.path(f"metrics_{tag}.csv")
        _remove(state, ctrl, met)
        ok = s.command(
            ["simulate", "--traj", traj, "--out-state", state, "--out-control", ctrl, *extra],
            lambda _: s.check_flight(traj, state),
        )
        if ok and s.ops[-1].ok:
            s.command(
                ["metrics", "--state", state, "--traj", traj, "--case", tag, "--out", met],
                lambda _: s.check_metrics(met, reference),
            )

    def plan(self, case: str) -> str | None:
        traj = self.s.path(f"traj_{case}.csv")
        _remove(traj)
        ok = self.s.command(
            ["plan", "--scenario", case, "--out", traj, "--seed", str(self.seed)],
            lambda _: self.s.check_plan(case, traj),
        )
        return traj if ok else None

    def draw(self, half_width) -> str:
        offset = [float(x) for x in self.rng.uniform(-1.0, 1.0, 3) * np.asarray(half_width)]
        self.perturbations.append(offset)
        # the "=" form: argparse rejects "--perturb -0.1,0,0" as a missing value
        return "--perturb=" + ",".join(f"{x:.6f}" for x in offset)


class ObstaclePlan(Workload):
    """plan -> simulate -> metrics of cases a and b, unperturbed."""

    name = "obstacle-plan"

    def cycle(self) -> None:
        for case in ("a", "b"):
            traj = self.plan(case)
            if traj is not None:
                self.fly(traj, case, case, [])


class WaypointLoop(Workload):
    """plan case c once, then flights of it from seeded perturbed starts."""

    name = "waypoint-loop"

    def prelude(self) -> None:
        self.traj = self.plan("c")

    def cycle(self) -> None:
        if self.traj is not None:
            self.fly(self.traj, "c", None, [self.draw(WAYPOINT_PERTURB)])


class FullLoop(Workload):
    """plan case line once, then full-model flights from seeded altitude offsets."""

    name = "full-loop"

    def prelude(self) -> None:
        self.traj = self.plan("line")

    def cycle(self) -> None:
        if self.traj is not None:
            perturb = self.draw([0.0, 0.0, FULL_PERTURB_Z])
            self.fly(self.traj, "line", "line", ["--model", "full", perturb])


class FlatReplay(Workload):
    """Open-loop reintegration of stored case a/b plans through flatness."""

    name = "flat-replay"

    def __init__(self, session, seed, data_dir):
        super().__init__(session, seed, data_dir)
        self.vparams, self.fparams = VerticalParams(), FwavParams()
        self.trajs: dict[str, PiecewiseTrajectory] = {}
        self.invalid: dict[str, str] = {}
        for case in ("a", "b"):
            traj = PiecewiseTrajectory.from_coeff_csv(os.path.join(data_dir, f"case_{case}.csv"))
            res = constraint_residuals(traj, case_library(case)[0])
            if not res.all_within():
                self.invalid[case] = (
                    f"stored case {case} plan violates its constraints: equality "
                    f"{res.max_equality:.3e}, inequality {res.max_aggregate:.3e}"
                )
            self.trajs[case] = traj
            weights = case_library(case)[2]
            session.objectives.append(snap_objective(traj, weights) / session.qp_objective(case))

    def cycle(self) -> None:
        for case, traj in self.trajs.items():
            self.replay(case, traj)

    def replay(self, case: str, traj: PiecewiseTrajectory) -> None:
        s, vp = self.s, self.vparams
        bad_input = self.invalid.get(case, "")
        n_steps = int(round(traj.duration / REPLAY_DT))
        grid = np.minimum(np.arange(2 * n_steps + 1) * REPLAY_DT / 2, traj.duration)

        def tabulate():
            sched = FlatInputSchedule(traj, vp)
            return sched, sched.tabulate(grid)

        def finite_table(out):
            gamma, f_flap = out[1]
            if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(f_flap))):
                return "non-finite input table"
            return bad_input

        table = s.call(f"replay.tabulate.{case}", tabulate, finite_table)
        if table is None:
            return
        sched, (gamma, f_flap) = table

        def integrate():
            return flapkit.dynamics.integrate_vertical_tabulated(
                sched.initial_vertical_state(), vp, gamma, f_flap, REPLAY_DT,
                rudder_mode="explicit-rudder",
            )

        def deviation(log):
            ref = traj.eval_many(log.t[::10], 0)
            dev = float(np.max(np.linalg.norm(log.states[::10, 0:3] - ref, axis=1)))
            if not dev < REPLAY_DEV_MAX:
                return f"replay deviates {dev:.3e} m from the plan"
            metrics = compute_metrics(log.states[:, 0:3], log.t, traj, case=case)
            s.paths.append({
                "sim_s": float(log.t[-1]), "wall_s": s.ops[-1].wall_s,
                "err_m": max(metrics.along.rms, metrics.cross.rms, metrics.altitude.rms),
                "dev_m": dev,
            })
            return bad_input

        s.call(f"replay.integrate.{case}", integrate, deviation)

        out = s.path(f"flat_{case}.csv")
        _remove(out)

        def dumped(rows):
            with open(out, encoding="utf-8") as fh:
                lines = fh.read().strip().splitlines()
            if rows < 1 or len(lines) != rows + 1:
                return f"dump wrote {len(lines) - 1} rows, reported {rows}"
            last = [float(x) for x in lines[-1].split(",")]
            if not all(math.isfinite(x) for x in last):
                return "non-finite recovered state"
            return bad_input

        s.call(
            f"replay.dump.{case}",
            lambda: flapkit.flatness.dump_flat_states(traj, vp, self.fparams, out),
            dumped,
        )


WORKLOADS = {w.name: w for w in (ObstaclePlan, WaypointLoop, FullLoop, FlatReplay)}


def _remove(*paths: str) -> None:
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
