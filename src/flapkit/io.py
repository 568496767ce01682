"""Flat key/value file format for parameters, gains, and scenarios.

One ``key = value`` pair per line; values are JSON literals (numbers,
arrays) with bare strings allowed; ``#`` starts a comment.  Repeated keys
(obstacles, waypoints) collect into lists in declaration order.
"""

from __future__ import annotations

import difflib
import json
import warnings

import numpy as np

from .control import ControllerGains
from .dynamics import FullLog, FwavParams, VerticalLog, VerticalParams, _open_text
from .errors import InvalidInputError
from .planning import (
    BoundaryConditions,
    ConstraintSet,
    CylinderX,
    PlanOptions,
    Sphere,
    Waypoint,
)
from .trajectory import ObjectiveWeights

_REPEATED_KEYS = {"sphere", "cylinder_x", "waypoint"}


class _Repeated(list):
    """The values of a repeated key in file order, with the line of each."""

    def __init__(self):
        super().__init__()
        self.lines: list[int] = []


def parse_kv(text: str) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        if key in _REPEATED_KEYS:
            out.setdefault(key, _Repeated()).append(parsed)
            out[key].lines.append(lineno)
        elif key in out:
            raise InvalidInputError(f"line {lineno}: duplicate key {key!r}")
        else:
            out[key] = parsed
    return out


def load_kv(path) -> dict:
    """``parse_kv`` of a file; its errors name the file."""
    with _open_text(path) as fh:
        text = fh.read()
    try:
        return parse_kv(text)
    except InvalidInputError as err:
        raise InvalidInputError(f"{path}, {err}") from None


def format_kv(pairs, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines += [f"# {line}" for line in comment.splitlines()]
    for key, value in pairs:
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if isinstance(value, (list, tuple)):
            value = json.dumps(list(value))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _check_keys(data: dict, schema: str, known) -> None:
    """Reject any key outside a schema, naming the nearest valid key."""
    for key in data:
        if key not in known:
            near = difflib.get_close_matches(key, sorted(known), n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise InvalidInputError(f"unknown {schema} key {key!r}{hint}")


# ---------------------------------------------------------------------------
# parameter and gain files
# ---------------------------------------------------------------------------

_FWAV_SCALARS = [
    "m", "g", "k_tf", "k_d_x", "k_d_y", "k_d_z", "k_tau_x", "k_tau_y",
    "k_tau_z", "k_flap_x", "k_flap_y", "k_flap_z", "k_flap_c", "k_rud_c",
    "k_ele_c",
]


_J_KEYS = [f"j{row}{col}" for i, row in enumerate("xyz") for col in "xyz"[i:]]


def fwav_params_from_dict(data: dict) -> FwavParams:
    _check_keys(data, "full-model parameter", {*_FWAV_SCALARS, *_J_KEYS})
    kwargs = {name: float(data[name]) for name in _FWAV_SCALARS if name in data}
    j_mat = np.array(FwavParams().J)
    for i, row in enumerate("xyz"):
        for j, col in enumerate("xyz"):
            if j >= i and f"j{row}{col}" in data:
                j_mat[i, j] = j_mat[j, i] = float(data[f"j{row}{col}"])
    return FwavParams(J=j_mat, **kwargs)


_VERTICAL_SCALARS = [
    "m", "g", "k_tf", "vk_d_x", "vk_d_y", "vk_d_z", "vk_gamma", "vk_damp",
    "vk_tau_x", "vk_flap_x", "kbar_gamma", "kbar_flap_x", "l_gamma_min",
    "l_gamma_max",
]


def vertical_params_from_dict(data: dict) -> VerticalParams:
    _check_keys(data, "vertical-model parameter", {*_VERTICAL_SCALARS, "lateral_mode"})
    kwargs = {name: float(data[name]) for name in _VERTICAL_SCALARS if name in data}
    if "lateral_mode" in data:
        kwargs["lateral_mode"] = str(data["lateral_mode"])
    return VerticalParams(**kwargs)


_GAIN_SCALARS = [
    "k_psi", "k_omega", "delta", "l_gamma_min", "l_gamma_max", "k_rud",
    "k_ele", "k_omega_x", "k_omega_y", "filter_wn", "filter_zeta",
    "psi_rate_ff_cap", "gamma_yd_limit",
]


def gains_from_dict(data: dict) -> ControllerGains:
    _check_keys(data, "gain", {*_GAIN_SCALARS, "kp", "kv"})
    kwargs = {name: float(data[name]) for name in _GAIN_SCALARS if name in data}
    for vec in ("kp", "kv"):
        if vec in data:
            kwargs[vec] = np.asarray(data[vec], dtype=float)
    return ControllerGains(**kwargs)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------


def scenario_to_pairs(
    cons: ConstraintSet,
    opts: PlanOptions,
    weights: ObjectiveWeights,
    name: str = "custom",
) -> list:
    b = cons.boundary
    pairs = [
        ("name", name),
        ("segments", opts.segments),
        ("order", opts.order),
        ("segment_duration", opts.T),
        ("restarts", opts.restarts),
        ("seed", opts.seed),
        ("mu_p", weights.mu_p),
        ("mu_v", weights.mu_v),
        ("start_pos", b.start_pos), ("start_vel", b.start_vel), ("start_acc", b.start_acc),
        ("end_pos", b.end_pos), ("end_vel", b.end_vel), ("end_acc", b.end_acc),
        ("v_h_max", cons.v_h_max),
        ("v_v_max", cons.v_v_max),
        ("psi_rate_max", cons.psi_rate_max),
        ("sample_interval", cons.sample_interval),
    ]
    for wp in cons.waypoints:
        pairs.append(("waypoint", [wp.segment, wp.t_local, *wp.position]))
    for ob in cons.obstacles:
        if isinstance(ob, Sphere):
            pairs.append(("sphere", [*ob.center, ob.radius]))
        else:
            pairs.append(("cylinder_x", [*ob.center_yz, ob.radius]))
    return pairs


_SCENARIO_KEYS = {
    "name", "segments", "order", "segment_duration", "restarts", "seed", "mu_p", "mu_v",
    "start_pos", "start_vel", "start_acc", "end_pos", "end_vel", "end_acc",
    "v_h_max", "v_v_max", "psi_rate_max", "sample_interval", *_REPEATED_KEYS,
}


def _numbered(data: dict, key: str):
    """(line, value) of each value of a repeated key; 0 for a plain list's."""
    values = data.get(key, [])
    return zip(getattr(values, "lines", [0] * len(values)), values)


def scenario_from_dict(data: dict):
    _check_keys(data, "scenario", _SCENARIO_KEYS)
    boundary = BoundaryConditions(
        start_pos=data.get("start_pos", [0, 0, 0]),
        start_vel=data.get("start_vel", [0, 0, 0]),
        start_acc=data.get("start_acc", [0, 0, 0]),
        end_pos=data.get("end_pos", [0, 0, 0]),
        end_vel=data.get("end_vel", [0, 0, 0]),
        end_acc=data.get("end_acc", [0, 0, 0]),
    )
    waypoints = [
        Waypoint(int(w[0]), float(w[1]), w[2:5]) for w in data.get("waypoint", [])
    ]
    # mixed obstacle lines keep their file order; plain lists put spheres first
    shapes = [(n, Sphere(center=s[0:3], radius=float(s[3]))) for n, s in _numbered(data, "sphere")]
    shapes += [(n, CylinderX(center_yz=c[0:2], radius=float(c[2])))
               for n, c in _numbered(data, "cylinder_x")]
    obstacles = [ob for _, ob in sorted(shapes, key=lambda pair: pair[0])]
    cons = ConstraintSet(
        boundary=boundary,
        waypoints=waypoints,
        obstacles=obstacles,
        v_h_max=float(data.get("v_h_max", 1.5)),
        v_v_max=float(data.get("v_v_max", 0.5)),
        psi_rate_max=float(data.get("psi_rate_max", 1.5)),
        sample_interval=float(data.get("sample_interval", 0.15)),
    )
    opts_kwargs: dict = {}
    for key, target, cast in [
        ("segments", "segments", int), ("order", "order", int),
        ("segment_duration", "T", float), ("restarts", "restarts", int),
        ("seed", "seed", int),
    ]:
        if key in data:
            opts_kwargs[target] = cast(data[key])
    opts = PlanOptions(**opts_kwargs)
    weights = ObjectiveWeights(
        mu_p=float(data.get("mu_p", 1.0)), mu_v=float(data.get("mu_v", 0.1))
    )
    return cons, opts, weights


# ---------------------------------------------------------------------------
# log readers
# ---------------------------------------------------------------------------


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header cells and the float rows below them; a non-numeric cell, a row
    of another width than the first or no rows at all raise InvalidInputError
    naming the file and, for a bad row, its line."""
    with _open_text(path) as fh:
        header = fh.readline().strip().split(",")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # no rows: checked below
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except UnicodeDecodeError:  # a ValueError too: _open_text names it
            raise
        except ValueError as err:
            fh.seek(0)
            raise InvalidInputError(_row_fault(path, fh) or f"{path}: {err}") from None
    if rows.size == 0:
        raise InvalidInputError(f"{path}: no data rows")
    return header, rows


def _row_fault(path, lines) -> str | None:
    """Where and why the body of a CSV's lines is not a float table, as
    np.loadtxt reads it: "<path>, line N: ..." of its first non-numeric cell
    or row of another width than the first, or None."""
    width = None
    for lineno, line in enumerate(lines, start=1):
        cells = line.split("#", 1)[0].strip().split(",")
        if lineno == 1 or cells == [""]:
            continue
        for cell in cells:
            try:
                float(cell)
            except ValueError:
                return f"{path}, line {lineno}: could not convert {cell.strip()!r} to a float"
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            return (f"{path}, line {lineno}: the number of columns changed from {width} "
                    f"to {len(cells)}")
    return None


def load_state_log(path) -> VerticalLog | FullLog:
    """Load a state-log CSV, detecting the model by its header; each row needs
    one cell per header name, and at least the model's 13 (vertical) or 17
    (full)."""
    header, rows = _read_csv(path)
    if header[:8] == ["t", "px", "py", "pz", "vvx", "vvy", "vvz", "psi"]:
        width = 13
    elif header[:8] == ["t", "px", "py", "pz", "vx", "vy", "vz", "qw"]:
        width = 17
    else:
        raise InvalidInputError(f"unrecognized state-log header in {path}")
    if not width <= rows.shape[1] == len(header):
        raise InvalidInputError(f"{path}: rows of {rows.shape[1]} cells under {len(header)} "
                                f"names, where this model's log has {width}")
    if width == 13:
        return VerticalLog(rows[:, 0], rows[:, 1:9], rows[:, 9:13])
    return FullLog(rows[:, 0], rows[:, 1:17])
