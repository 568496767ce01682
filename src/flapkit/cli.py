"""Command-line interface.

Subcommands: ``cases`` (dump a published scenario), ``plan``, ``simulate``,
``track`` (plan + simulate + metrics), ``metrics``, ``identify``.  A case
name of ``cases`` and ``track`` is always the published case.  Exit
codes: 0 success, 1 usage error (a flight too large for memory too), 2
planner infeasibility, 3 closed-loop divergence.  ``simulate`` and
``track`` check every flight setting first.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import re
import sys

import numpy as np

from . import io as kvio
from .control import ControllerGains
from .dynamics import FwavParams, VerticalLog, VerticalParams, _schedule
from .errors import FlapkitError, InvalidInputError, PlanInfeasibleError
from .identify import identify_drag_from_log
from .metrics import compute_metrics
from .planning import case_library, plan as run_planner
from .simulate import run_closed_loop
from .trajectory import PiecewiseTrajectory

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_DIVERGED = 3

CASE_NAMES = ("a", "b", "c", "line")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing reads it and
    changes nothing in it."""
    parser = _Parser(prog="flapkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cases = sub.add_parser("cases", help="dump a published case scenario")
    p_cases.add_argument("name", choices=CASE_NAMES)
    p_cases.add_argument("--out", help="write the scenario file here")

    p_plan = sub.add_parser("plan", help="plan a trajectory from a scenario")
    p_plan.add_argument("--scenario", required=True,
                        help="scenario file path or a case name")
    p_plan.add_argument("--out", required=True, help="coefficient CSV output")
    p_plan.add_argument("--sampled", help="optional sampled-trajectory CSV")
    p_plan.add_argument("--restarts", type=int)
    p_plan.add_argument("--seed", type=int)

    p_sim = sub.add_parser("simulate", help="closed-loop tracking of a trajectory")
    p_sim.add_argument("--traj", required=True, help="coefficient CSV to track")
    p_sim.add_argument("--out-state", required=True)
    p_sim.add_argument("--out-control", required=True)
    _sim_args(p_sim)

    p_track = sub.add_parser("track", help="plan a case and track it")
    p_track.add_argument("--case", required=True, choices=CASE_NAMES)
    p_track.add_argument("--out-dir", required=True)
    p_track.add_argument("--restarts", type=int)
    p_track.add_argument("--seed", type=int, default=0, help="planner seed")
    _sim_args(p_track)

    p_met = sub.add_parser("metrics", help="tracking metrics from logs")
    p_met.add_argument("--state", required=True, help="state-log CSV")
    p_met.add_argument("--traj", required=True, help="coefficient CSV")
    p_met.add_argument("--case", default="run")
    p_met.add_argument("--out")

    p_id = sub.add_parser("identify", help="drag identification from a log")
    p_id.add_argument("--state", required=True, help="vertical state-log CSV")
    p_id.add_argument("--params", help="vertical parameter file")
    return parser


def _sim_args(p) -> None:
    p.add_argument("--model", choices=("vertical", "full"), default="vertical")
    p.add_argument("--params", help="parameter file (model-matching)")
    p.add_argument("--gains", help="controller gain file")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--rate", type=float, default=100.0)
    p.add_argument("--duration", type=float)
    p.add_argument("--perturb", default="0,0,0",
                   help="initial position offset 'x,y,z' or scalar x-offset")


def _attach_negative_perturb(argv: list[str]) -> list[str]:
    """Rewrite '--perturb -0.1,0,0' as '--perturb=-0.1,0,0': argparse takes
    a separate token with a leading minus for an option, not a value."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--perturb" and re.match(r"-[\d.]", token):
            out[-1] = f"--perturb={token}"
        else:
            out.append(token)
    return out


def _parse_perturb(text: str) -> np.ndarray:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        raise _UsageError(f"--perturb wants numbers, got {text!r}") from None
    if not np.isfinite(parts).all():
        raise InvalidInputError(f"--perturb wants finite numbers, got {text!r}")
    if len(parts) == 1:
        return np.array([parts[0], 0.0, 0.0])
    if len(parts) != 3:
        raise _UsageError("--perturb wants one or three comma-separated numbers")
    return np.array(parts)


def _scenario(data: dict):
    """The scenario of a parsed kv file and its name; a file that names a
    published case and nothing else is that case."""
    name = str(data.get("name", "custom"))
    if name in CASE_NAMES and len(data) == 1:
        return case_library(name), name
    return kvio.scenario_from_dict(data), name


def _load_scenario(source: str):
    """The scenario of ``plan --scenario``: a file, or else a case name."""
    if source in CASE_NAMES and not os.path.isfile(source):
        return case_library(source), source
    return kvio.load_kv(source, _scenario)


def _params(cls, path):
    """The parameter or gain dataclass ``cls`` read from the kv file at
    ``path``, or its defaults without one."""
    return kvio.load_kv(path, functools.partial(kvio.params_from_dict, cls)) if path else cls()


def _planner_flags(opts, args):
    """The scenario's planner options with the --restarts and --seed given."""
    flags = {key: getattr(args, key) for key in ("restarts", "seed")}
    return dataclasses.replace(opts, **{k: v for k, v in flags.items() if v is not None})


def _flight_settings(args) -> dict:
    """``run_closed_loop``'s keyword arguments from the command's options, every
    file read and the steps checked: a rejected setting plans and writes nothing."""
    _schedule(args.dt, 0.0 if args.duration is None else args.duration, args.rate)
    return dict(
        model=args.model,
        vparams=_params(VerticalParams, args.model == "vertical" and args.params),
        fparams=_params(FwavParams, args.model == "full" and args.params),
        gains=_params(ControllerGains, args.gains),
        dt=args.dt, rate_hz=args.rate, duration=args.duration,
        perturb_pos=_parse_perturb(args.perturb),
    )


def _fly(traj, settings, state_path, control_path):
    """Closed-loop flight of traj under ``_flight_settings``; writes the state
    and control logs and reports divergence on stderr."""
    result = run_closed_loop(traj, **settings)
    result.state_log.to_csv(state_path)
    result.control_to_csv(control_path)
    if result.diverged:
        print(f"diverged at t={result.abort_time:.3f} s", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_negative_perturb(argv))
        return _dispatch(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except PlanInfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (FlapkitError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as err:  # a flight's logs are allocated for every step up front
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    if args.command == "cases":
        (cons, opts, weights), name = case_library(args.name), args.name
        text = kvio.format_kv(
            kvio.scenario_to_pairs(cons, opts, weights, name),
            comment=f"published demonstration case {name}",
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")
        return EXIT_OK

    if args.command == "plan":
        (cons, opts, weights), _ = _load_scenario(args.scenario)
        traj, report = run_planner(cons, weights, _planner_flags(opts, args))
        traj.to_coeff_csv(args.out)
        if args.sampled:
            traj.to_sampled_csv(args.sampled)
        print(report.summary())
        return EXIT_OK

    if args.command == "simulate":
        settings = _flight_settings(args)
        traj = PiecewiseTrajectory.from_coeff_csv(args.traj)
        result = _fly(traj, settings, args.out_state, args.out_control)
        return EXIT_DIVERGED if result.diverged else EXIT_OK

    if args.command == "track":
        (cons, opts, weights), name = case_library(args.case), args.case
        opts, settings = _planner_flags(opts, args), _flight_settings(args)
        traj, report = run_planner(cons, weights, opts)
        os.makedirs(args.out_dir, exist_ok=True)
        traj.to_coeff_csv(os.path.join(args.out_dir, "traj.csv"))
        result = _fly(
            traj, settings, os.path.join(args.out_dir, "state.csv"),
            os.path.join(args.out_dir, "control.csv"),
        )
        if result.diverged:
            return EXIT_DIVERGED
        log = result.state_log
        metrics = compute_metrics(log.positions, log.t, traj, case=name)
        metrics.to_csv(os.path.join(args.out_dir, "metrics.csv"))
        summary = "\n".join([
            report.summary(), metrics.summary(),
            f"hysteresis jump episodes {result.jump_episodes()}",
            f"heading-rate cap saturations {len(result.ff_sat_times)}",
        ])
        with open(os.path.join(args.out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
            fh.write(summary + "\n")
        print(metrics.summary())
        return EXIT_OK

    if args.command == "metrics":
        traj = PiecewiseTrajectory.from_coeff_csv(args.traj)
        log = kvio.load_state_log(args.state)
        metrics = compute_metrics(log.positions, log.t, traj, case=args.case)
        if args.out:
            metrics.to_csv(args.out)
        print(metrics.summary())
        return EXIT_OK

    if args.command == "identify":
        log = kvio.load_state_log(args.state)
        if not isinstance(log, VerticalLog):
            raise _UsageError("identification expects a vertical-model log")
        est = identify_drag_from_log(log, _params(VerticalParams, args.params))
        print(
            f"k_d/m = {est.k_d_over_m:.6f} 1/m "
            f"(residual {est.residual_norm:.3e}, {est.sample_count} samples)"
        )
        return EXIT_OK

    raise _UsageError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
