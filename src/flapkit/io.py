"""Flat key/value file format for parameters, gains, and scenarios.

One ``key = value`` pair per line; values are JSON literals (numbers,
arrays) with bare strings allowed; ``#`` starts a comment.  Repeated keys
(obstacles, waypoints) collect into lists in declaration order.  The keys
are the fields of the dataclasses the files fill, and each value is read
as the type of its field's default (``_read``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import difflib
import json
import warnings

import numpy as np

from .dynamics import FULL_LOG_HEADER, VERTICAL_LOG_HEADER, FullLog, VerticalLog, _open_text
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


def load_kv(path, read=None):
    """``parse_kv`` of a file, passed to ``read`` if given (``scenario_from_dict``,
    say); every InvalidInputError either raises names the file."""
    with _open_text(path) as fh:
        text = fh.read()
    try:
        data = parse_kv(text)
        return data if read is None else read(data)
    except InvalidInputError as err:
        sep = "," if str(err).startswith("line ") else ":"
        raise InvalidInputError(f"{path}{sep} {err}") from None


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


def _read(key: str, raw, default):
    """The value ``raw`` of ``key`` read as the type of its field's ``default``:
    a string, a float array of the default's shape, an integer (7 or 7.0, not
    1.5) or a number.  No number is a string, a bool or NaN; an infinity is
    left to the dataclass's own checks."""
    if isinstance(default, str):
        if isinstance(raw, str):
            return raw
        wants = "a string"
    else:
        shape, integer = np.shape(default), isinstance(default, int)
        items = raw if isinstance(raw, list) else [raw]
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in items):
            with contextlib.suppress(OverflowError):  # an integer beyond float range
                value = np.array(raw, dtype=float)
                if (value.shape == shape and not np.isnan(value).any()
                        and (not integer or float(value).is_integer())):
                    return int(raw) if integer else value if shape else float(value)
        wants = (f"a list of {shape[0]} numbers" if shape
                 else "an integer" if integer else "a number")
    raise InvalidInputError(f"key {key!r} wants {wants}, not {raw!r}")


def _defaults(cls) -> dict:
    """Each field of a dataclass with a default, by name, and that default."""
    instance = cls()
    return {fld.name: getattr(instance, fld.name) for fld in dataclasses.fields(cls)}


# ---------------------------------------------------------------------------
# parameter and gain files
# ---------------------------------------------------------------------------

# the full model's inertia J: one key per entry of its upper triangle
_J_KEYS = {f"j{row}{col}": (i, j) for i, row in enumerate("xyz")
           for j, col in enumerate("xyz") if j >= i}


def params_from_dict(cls, data: dict):
    """The parameter or gain dataclass ``cls`` (``FwavParams``, ``VerticalParams``,
    ``ControllerGains``) of a parsed kv file: one key per field, each read as the
    type of its default, and the default where a key is absent.  ``FwavParams``'
    symmetric J is read from the keys jxx, jxy, ..., jzz instead."""
    fields = _defaults(cls)
    inertia = fields.pop("J", None)
    _check_keys(data, cls.__name__, [*fields, *(_J_KEYS if inertia is not None else ())])
    kwargs = {key: _read(key, data[key], default)
              for key, default in fields.items() if key in data}
    if inertia is not None:
        for key, (i, j) in _J_KEYS.items():
            if key in data:
                inertia[i, j] = inertia[j, i] = _read(key, data[key], 0.0)
        kwargs["J"] = inertia
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

# each key of a scenario file but the name and the repeated keys, in file
# order, and the dataclass field it sets
_SCENARIO_FIELDS = {
    "segments": (PlanOptions, "segments"), "order": (PlanOptions, "order"),
    "segment_duration": (PlanOptions, "T"), "restarts": (PlanOptions, "restarts"),
    "seed": (PlanOptions, "seed"),
    "mu_p": (ObjectiveWeights, "mu_p"), "mu_v": (ObjectiveWeights, "mu_v"),
    **{key: (BoundaryConditions, key) for key in (
        "start_pos", "start_vel", "start_acc", "end_pos", "end_vel", "end_acc")},
    **{key: (ConstraintSet, key) for key in (
        "v_h_max", "v_v_max", "psi_rate_max", "sample_interval")},
}


def scenario_to_pairs(cons: ConstraintSet, opts: PlanOptions, weights: ObjectiveWeights,
                      name: str = "custom") -> list:
    objects = {PlanOptions: opts, ObjectiveWeights: weights,
               BoundaryConditions: cons.boundary, ConstraintSet: cons}
    pairs = [("name", name)]
    pairs += [(key, getattr(objects[cls], fld)) for key, (cls, fld) in _SCENARIO_FIELDS.items()]
    pairs += [("waypoint", [wp.segment, wp.t_local, *wp.position]) for wp in cons.waypoints]
    return pairs + [("sphere", [*ob.center, ob.radius]) if isinstance(ob, Sphere)
                    else ("cylinder_x", [*ob.center_yz, ob.radius]) for ob in cons.obstacles]


def _numbered(data: dict, key: str, width: int):
    """(line, floats) of each value of a repeated key, ``width`` numbers each;
    the line is 0 for a plain list's."""
    values = data.get(key, [])
    lines = getattr(values, "lines", [0] * len(values))
    return [(n, _read(key, value, np.zeros(width)).tolist()) for n, value in zip(lines, values)]


def scenario_from_dict(data: dict):
    """(ConstraintSet, PlanOptions, ObjectiveWeights) of a parsed scenario file;
    an absent key keeps its field's default."""
    _check_keys(data, "scenario", {"name", *_SCENARIO_FIELDS, *_REPEATED_KEYS})
    kwargs: dict = {cls: {} for cls, _ in _SCENARIO_FIELDS.values()}
    defaults = {cls: _defaults(cls) for cls in kwargs}
    for key, (cls, fld) in _SCENARIO_FIELDS.items():
        if key in data:
            kwargs[cls][fld] = _read(key, data[key], defaults[cls][fld])
    waypoints = []
    for _, (segment, t_local, *position) in _numbered(data, "waypoint", 5):
        if not segment.is_integer():
            raise InvalidInputError(f"key 'waypoint' wants an integral segment, not {segment!r}")
        waypoints.append(Waypoint(int(segment), t_local, position))
    # mixed obstacle lines keep their file order; plain lists put spheres first
    shapes = [(n, Sphere(center=s[0:3], radius=s[3])) for n, s in _numbered(data, "sphere", 4)]
    shapes += [(n, CylinderX(center_yz=c[0:2], radius=c[2]))
               for n, c in _numbered(data, "cylinder_x", 3)]
    cons = ConstraintSet(
        boundary=BoundaryConditions(**kwargs[BoundaryConditions]), waypoints=waypoints,
        obstacles=[ob for _, ob in sorted(shapes, key=lambda pair: pair[0])],
        **kwargs[ConstraintSet],
    )
    return cons, PlanOptions(**kwargs[PlanOptions]), ObjectiveWeights(**kwargs[ObjectiveWeights])


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
    """Load a state-log CSV, detecting the model by the first 8 names of its
    header; each row needs one cell per header name, and at least one per
    name of the model's log (``VERTICAL_LOG_HEADER`` or ``FULL_LOG_HEADER``)."""
    header, rows = _read_csv(path)
    vertical, full = VERTICAL_LOG_HEADER.split(","), FULL_LOG_HEADER.split(",")
    names = vertical if header[:8] == vertical[:8] else full if header[:8] == full[:8] else None
    if names is None:
        raise InvalidInputError(f"unrecognized state-log header in {path}")
    width = len(names)
    if not width <= rows.shape[1] == len(header):
        raise InvalidInputError(f"{path}: rows of {rows.shape[1]} cells under {len(header)} "
                                f"names, where this model's log has {width}")
    if names is full:
        return FullLog(rows[:, 0], rows[:, 1:width])
    inputs = names.index("gx")  # the states end where the applied inputs begin
    return VerticalLog(rows[:, 0], rows[:, 1:inputs], rows[:, inputs:width])
