"""``tests/pins.py``: the tables ``record`` prints read back as the arrays it
writes, and ``compare`` reports which pins moved, how far and in which
column.  Every pin is built once for this module, from the session's
planned cases."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pins

PINS = Path(pins.__file__)
SRC = PINS.parents[1] / "src"
_BUILT = {}


def built(request) -> dict:
    """``pins.build`` over the session's planned cases, run once."""
    if not _BUILT:
        _BUILT.update(pins.build(pins.fixture_plans(request)))
    return _BUILT


class _Inf(ast.NodeTransformer):
    def visit_Name(self, node):
        return ast.Constant(math.inf) if node.id == "inf" else node


def read_table(text: str):
    """A printed table's value by ``ast.literal_eval``, its name ``inf`` read
    as the pin files define it (``inf = math.inf``); any other name fails."""
    return ast.literal_eval(_Inf().visit(ast.parse(text, mode="eval")))


def bits(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64).view(np.int64)


def test_printed_tables_read_back_as_the_written_arrays(request):
    values = built(request)
    arrays = pins.arrays(values)
    read = {title: read_table(text) for title, text in pins.table_texts(values).items()}
    checked = set()

    def check(value, name):
        # as bits: an infinity and a signed zero must read back as written
        assert np.shape(value) == arrays[name].shape, name
        assert np.array_equal(bits(value), bits(arrays[name])), name
        checked.add(name)

    for file in ("plans", "flights", "aborts"):
        for pin, fields in read[f"test_pinned_{file}.py PINNED"].items():
            for field, value in fields.items():
                check(value, f"{file}/{pin}/{field}")
    for pin, fields in read["test_pinned_flights.py DIGESTS"].items():
        for field, value in fields.items():
            assert value == pins.digest(arrays[f"flights/{pin}/{field}"]), (pin, field)
            checked.add(f"flights/{pin}/{field}")
    for field, value in read["test_pinned_replay.py PINNED"].items():
        check(value, f"replay/a/{field}")
    for mode, rows in read["test_pinned_rhs.py PINNED"].items():
        check(rows, f"rhs/{mode}/xdot")
    for case, value in read["test_trajectory.py SAMPLED_DIGESTS"].items():
        assert value == pins.csv_digest(arrays[f"sampled/{case}/csv"]), case
        checked.add(f"sampled/{case}/csv")
    # only the aborts' state logs are written and not printed
    assert set(arrays) - checked == {f"aborts/{key}/states" for key in pins.ABORTS}
    assert np.isinf(arrays["aborts/vertical_non_finite/last_row"]).any()
    assert np.signbit(arrays["rhs/gamma-proxy/xdot"][arrays["rhs/gamma-proxy/xdot"] == 0]).any()


def recorded_twice(request, tmp_path) -> tuple:
    """The pins' arrays written to two files."""
    paths = tmp_path / "a.npz", tmp_path / "b.npz"
    for path in paths:
        np.savez(path, **pins.arrays(built(request)))
    return paths


def moved(moves: dict) -> dict:
    return {pin: fields for pin, fields in moves.items() if fields}


def test_compare_with_itself_moves_no_pin(request, tmp_path):
    a, b = recorded_twice(request, tmp_path)
    moves = pins.compare(pins.load(a), pins.load(b))
    assert set(moves) == {name.rpartition("/")[0] for name in pins.arrays(built(request))}
    assert len(moves) == 23 and moved(moves) == {}


def perturb_one_flight(path) -> float:
    """Moves one cell of flight a_perturbed's state log by 1e-9 in the file
    and returns that cell's move as float64 arithmetic makes it."""
    recording = pins.load(path)
    states = recording["flights/a_perturbed/states"]
    before = states[40, 2]
    states[40, 2] += 1e-9
    np.savez(path, **recording)
    return abs(states[40, 2] - before)


def test_compare_reports_a_flight_move_on_that_pin_alone(request, tmp_path):
    a, b = recorded_twice(request, tmp_path)
    step = perturb_one_flight(b)
    moves = moved(pins.compare(pins.load(a), pins.load(b)))
    assert list(moves) == ["flights/a_perturbed"]
    assert list(moves["flights/a_perturbed"]) == ["states"]
    want = np.zeros(16)
    want[2] = step
    np.testing.assert_array_equal(moves["flights/a_perturbed"]["states"], want)
    assert step == pytest.approx(1e-9, rel=1e-6)


def test_compare_reports_another_abort_row_count_as_a_shape_change(request, tmp_path):
    a, b = recorded_twice(request, tmp_path)
    recording = pins.load(b)
    recording["aborts/vertical_radius/states"] = recording["aborts/vertical_radius/states"][:-1]
    np.savez(b, **recording)
    moves = moved(pins.compare(pins.load(a), pins.load(b)))
    assert moves == {"aborts/vertical_radius": {"states": ((57, 8), (56, 8))}}
    assert pins.compare_lines(moves) == [
        "aborts/vertical_radius: changed; states shape (57, 8) -> (56, 8)"]


def test_compare_command_prints_one_line_per_pin(request, tmp_path):
    a, b = recorded_twice(request, tmp_path)
    perturb_one_flight(b)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, str(PINS), "compare", str(a), str(b)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 23
    changed = [line for line in lines if not line.endswith(": same")]
    assert changed == ["flights/a_perturbed: changed; states max |move| by column "
                       + " ".join(["0", "0", "1e-09", *["0"] * 13])]
