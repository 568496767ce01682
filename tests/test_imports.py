"""Every import in a flapkit module or a test file is used, every private
module-level name is read somewhere in the package, every public one is read
by a caller, and importing flapkit loads no scipy: only the planner's
fallback imports it, inside the function, and a rank-deficient equality QP
names its dependent rows with numpy alone.  The planner's L-BFGS-B solve
needs scipy's reverse-communication routine ``setulb`` (its integer-task
protocol dates from scipy 1.15) and loads it from scipy's
``optimize/_lbfgsb`` extension file alone, found from scipy's spec without
importing the package, so a ``plan``, a ``track`` or a rank-deficient
equality QP loads no scipy module; these tests guard that private file layout, the fallback to the
normal import, and scipy's own ``scipy.optimize._lbfgsb`` beside it.  No
command or replay loads ``numpy.ma`` either.  Every name the benchmark
tracer wraps by lookup still exists.

``__init__.py`` is exempt from the unused-import check: its imports are the
package's re-exports.  For the same reason it is no caller: a public name
counts as read where a flapkit module, the benchmark or the acceptance suite
reads it.  A name only the other tests read is a test helper, and lives in
``tests/helpers.py``.
"""

import ast
import importlib.machinery
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize._lbfgsb

import flapkit.dynamics
import flapkit.planning
import flapkit.simulate
from flapkit.dynamics import VerticalParams
from flapkit.flatness import FlatInputSchedule
from flapkit.planning import case_library

from helpers import MODEL_PARAMS, restarts_digest, single_segment

SRC = Path(__file__).resolve().parents[1] / "src" / "flapkit"
TESTS = Path(__file__).resolve().parent
SPANS = SRC.parents[1] / "perfbench" / "spans.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CALLERS = [*MODULES, *sorted(SPANS.parent.glob("*.py")), TESTS / "test_acceptance.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in ``source``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def is_public(name: str) -> bool:
    return not name.startswith("_")


def unreferenced_names(sources: dict[str, str], readers, kind=is_private) -> list[str]:
    """Module-level functions, classes and constants of the given kind defined
    in ``sources`` (module name -> source) that no source in ``readers``
    reads: a name counts as read where it is loaded, taken as an attribute or
    imported."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(name, f"{module}:{node.lineno}") for name in names if kind(name)]
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{name} ({where})" for name, where in defined if name not in read]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau as full_turn\n"
        "x = np.zeros(3) * pi\n"
    )
    assert unused_imports(source) == ["os (line 2)", "full_turn (line 4)"]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert unreferenced_names(sources, sources.values()) == []


def test_every_public_name_has_a_caller():
    sources = {path.name: path.read_text() for path in MODULES}
    assert unreferenced_names(sources, [p.read_text() for p in CALLERS], is_public) == []


def test_detects_unreferenced_private_names():
    sources = {
        "a.py": (
            "_LIMIT = 1.0\n"
            "_A, _B = 1, 2\n"
            "__all__ = []\n"
            "def _used(): return _LIMIT + _A\n"
            "def _dead(): return _used()\n"
            "class _Base: pass\n"
            "class _Orphan(_Base): pass\n"
        ),
        "b.py": "from .a import _Orphan\n",
    }
    assert unreferenced_names(sources, sources.values()) == ["_B (a.py:2)", "_dead (a.py:5)"]


def test_detects_unreferenced_public_names():
    sources = {
        "a.py": (
            "LIMIT = 1.0\n"
            "A, B = 1, 2\n"
            "_HIDDEN = 0\n"
            "def used(): return LIMIT + A\n"
            "def test_only(): return used()\n"
            "class Base: pass\n"
            "class Exported(Base): pass\n"
        ),
        "b.py": "from .a import Exported\n",
    }
    callers = [*sources.values(), "import a\na.used()\n"]
    tests_only = "from a import B, test_only\n"
    assert unreferenced_names(sources, callers, is_public) == [
        "B (a.py:2)", "test_only (a.py:5)"]
    assert unreferenced_names(sources, [*callers, tests_only], is_public) == []


def import_time_modules(source: str) -> list[str]:
    """Modules imported by statements that run when ``source`` is imported:
    every import outside a function body (class bodies run at import).  A
    ``from m import x`` counts as ``m.x``, which may be a submodule."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.extend(f"{node.module}.{alias.name}" for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_time_scipy(path):
    modules = import_time_modules(path.read_text())
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_time_importlib_resources(path):
    # reference_tracking_errors imports it on first use: where no site .pth
    # file has loaded it (`python -S`), it is ~10 ms of `import flapkit`
    modules = import_time_modules(path.read_text())
    assert [m for m in modules if m.split(".")[:2] == ["importlib", "resources"]] == []


def test_detects_import_time_modules():
    source = (
        "import scipy.linalg\n"
        "from . import io\n"
        "from importlib import resources\n"
        "class A:\n"
        "    from scipy import optimize\n"
        "def f():\n"
        "    import scipy.optimize\n"
        "    from importlib.resources import files\n"
        "g = lambda: __import__('scipy')\n"
    )
    assert import_time_modules(source) == [
        "scipy.linalg", "importlib.resources", "scipy.optimize"]


def modules_after(code: str, cwd) -> list[str]:
    """The modules that enter ``sys.modules`` from ``import flapkit.cli`` on,
    that import's own included, when it and then ``code`` run in a fresh
    interpreter with this checkout's ``src`` first on the path."""
    probe = (
        "import json, sys\n"
        "_start = set(sys.modules)\n"
        "import flapkit.cli\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - _start)))\n"
    )
    path = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def in_package(modules: list[str], package: str) -> list[str]:
    """The modules of ``modules`` that are ``package`` or one of its submodules."""
    return [m for m in modules if m == package or m.startswith(package + ".")]


SIMULATE_AND_METRICS = (
    "from flapkit.cli import main\n"
    "for model in ('vertical', 'full'):\n"
    "    assert main(['simulate', '--traj', 'traj.csv', '--model', model,\n"
    "                 '--out-state', 's.csv', '--out-control', 'c.csv']) == 0\n"
    "    assert main(['metrics', '--state', 's.csv', '--traj', 'traj.csv',\n"
    "                 '--case', 'line', '--out', 'm.csv']) == 0\n"
)
FLAT_REPLAY = (
    "import numpy as np\n"
    "from flapkit import FlatInputSchedule, FwavParams, PiecewiseTrajectory, VerticalParams\n"
    "from flapkit.dynamics import integrate_vertical_tabulated\n"
    "from flapkit.flatness import dump_flat_states\n"
    "traj = PiecewiseTrajectory.from_coeff_csv('traj.csv')\n"
    "vp, dt = VerticalParams(), 1e-3\n"
    "n = int(round(traj.duration / dt))\n"
    "grid = np.minimum(np.arange(2 * n + 1) * dt / 2, traj.duration)\n"
    "sched = FlatInputSchedule(traj, vp)\n"
    "gamma, f = sched.tabulate(grid)\n"
    "log = integrate_vertical_tabulated(sched.initial_vertical_state(), vp, gamma, f, dt,\n"
    "                                   rudder_mode='explicit-rudder')\n"
    "assert np.all(np.isfinite(log.states))\n"
    "assert dump_flat_states(traj, vp, FwavParams(), 'flat.csv') > 0\n"
)
PLAN_AND_TRACK = (
    "from flapkit.cli import main\n"
    "from flapkit.planning import case_library, plan\n"
    "cons, opts, weights = case_library('line')\n"
    "plan(cons, weights, opts)\n"
    "assert main(['track', '--case', 'c', '--out-dir', 'out']) == 0\n"
)


def test_cli_import_loads_no_scipy(tmp_path):
    assert in_package(modules_after("", tmp_path), "scipy") == []


def test_simulate_and_metrics_load_no_scipy(tmp_path, case_line):
    case_line.traj.to_coeff_csv(tmp_path / "traj.csv")
    assert in_package(modules_after(SIMULATE_AND_METRICS, tmp_path), "scipy") == []
    assert (tmp_path / "m.csv").is_file()


def test_flat_replay_loads_no_scipy(tmp_path, case_a):
    case_a.traj.to_coeff_csv(tmp_path / "traj.csv")
    assert in_package(modules_after(FLAT_REPLAY, tmp_path), "scipy") == []


def test_rank_deficient_equality_qp_loads_no_scipy(tmp_path):
    # the dependent rows are named by a greedy rank rule in numpy
    code = (
        "from flapkit.errors import RankDeficientConstraintsError\n"
        "from flapkit.planning import BoundaryConditions, ConstraintSet, PlanOptions, Waypoint\n"
        "from flapkit.planning import solve_qp_equality\n"
        "cons = ConstraintSet(boundary=BoundaryConditions(end_pos=[1.0, 0.0, 0.0]),\n"
        "                     waypoints=[Waypoint(0, 0.0, [0.0, 0.0, 0.0])])\n"
        "try:\n"
        "    solve_qp_equality(cons, None, PlanOptions(T=3.0))\n"
        "    raise AssertionError('no rank deficiency')\n"
        "except RankDeficientConstraintsError as err:\n"
        "    assert err.rows == ['waypoint0:seg0@0'], err.rows\n"
    )
    assert in_package(modules_after(code, tmp_path), "scipy") == []


def test_plan_and_track_load_no_scipy_optimize(tmp_path):
    # the L-BFGS-B extension file is found without importing scipy
    assert in_package(modules_after(PLAN_AND_TRACK, tmp_path), "scipy") == []
    assert (tmp_path / "out").is_dir()


def test_a_run_loads_only_what_it_calls(tmp_path):
    # plan, simulate on both models, metrics, track and the replay API on
    # one interpreter: no scipy package and no numpy.ma, but the planner's
    # own L-BFGS-B extension; numpy.random enters for the restarts' draws,
    # so no exact list is asserted
    cli_plan = (
        "from flapkit.cli import main\n"
        "assert main(['cases', 'line', '--out', 'line.scn']) == 0\n"
        "assert main(['plan', '--scenario', 'line.scn', '--out', 'traj.csv']) == 0\n"
    )
    modules = modules_after(cli_plan + PLAN_AND_TRACK + SIMULATE_AND_METRICS + FLAT_REPLAY,
                            tmp_path)
    assert in_package(modules, "scipy") == []
    assert in_package(modules, "numpy.ma") == []
    assert "flapkit._lbfgsb" in modules
    assert (tmp_path / "m.csv").is_file() and (tmp_path / "flat.csv").is_file()


def test_lbfgsb_extension_is_scipys_file():
    # the planner reads scipy's private file layout: the extension it loads
    # is the file scipy.optimize._lbfgsb is, and it holds setulb
    spec = flapkit.planning._lbfgsb_spec()
    assert spec is not None and spec.name == "flapkit._lbfgsb"
    assert isinstance(spec.loader, importlib.machinery.ExtensionFileLoader)
    assert Path(spec.origin).parent == Path(scipy.__file__).parent / "optimize"
    assert spec.origin == scipy.optimize._lbfgsb.__file__
    setulb = flapkit.planning._setulb()
    assert callable(setulb) and setulb.__module__ == "flapkit._lbfgsb"


def test_scipy_optimize_lbfgsb_imports_after_a_plan(tmp_path):
    # the private module leaves scipy.optimize._lbfgsb to scipy: imported
    # after a plan, its setulb resolves and minimize's L-BFGS-B runs
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from flapkit.planning import _setulb, case_library, plan\n"
        "cons, opts, weights = case_library('line')\n"
        "plan(cons, weights, opts)\n"
        "assert _setulb().__module__ == 'flapkit._lbfgsb'\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "import scipy.optimize._lbfgsb\n"
        "assert callable(scipy.optimize._lbfgsb.setulb)\n"
        "res = scipy.optimize.minimize(lambda x: float(((x - 1.0) ** 2).sum()), np.zeros(3),\n"
        "                              method='L-BFGS-B')\n"
        "assert res.success and np.allclose(res.x, 1.0), res\n"
    )
    assert "scipy.optimize._lbfgsb" in modules_after(code, tmp_path)


def test_fallback_plans_are_the_direct_plans(tmp_path):
    # where no extension file is found, the planner imports setulb through
    # scipy.optimize: the restarts are the direct path's, bit for bit
    assert flapkit.planning._setulb().__module__ == "flapkit._lbfgsb"
    want = {}
    for name in ("a", "line"):
        cons, opts, weights = case_library(name)
        want[name] = restarts_digest(flapkit.planning.plan(cons, weights, opts)[1].restarts)
    code = (
        "import sys\n"
        "import flapkit.planning as planning\n"
        "planning._lbfgsb_spec = lambda: None\n"
        "restarts = {}\n"
        "for name in ('a', 'line'):\n"
        "    cons, opts, weights = planning.case_library(name)\n"
        "    restarts[name] = planning.plan(cons, weights, opts)[1].restarts\n"
        "assert planning._setulb() is sys.modules['scipy.optimize._lbfgsb'].setulb\n"
        f"sys.path.insert(0, {str(TESTS)!r})\n"
        "from helpers import restarts_digest\n"
        "got = {name: restarts_digest(r) for name, r in restarts.items()}\n"
        f"assert got == {want!r}, got\n"
    )
    assert "scipy.optimize._lbfgsb" in modules_after(code, tmp_path)


def test_extension_file_miss_plans_through_scipy_optimize(tmp_path):
    # where the path finder finds no _lbfgsb file in scipy's optimize/
    # directory, setulb is scipy.optimize._lbfgsb's and case line's plan is
    # the direct path's, bit for bit
    cons, opts, weights = case_library("line")
    traj, report = flapkit.planning.plan(cons, weights, opts)
    want = [restarts_digest(report.restarts), [s.coeffs.tobytes() for s in traj.segments]]
    code = (
        "import importlib.machinery, sys\n"
        "import flapkit.planning as planning\n"
        "find_spec = importlib.machinery.PathFinder.find_spec\n"
        "importlib.machinery.PathFinder.find_spec = classmethod(\n"
        "    lambda cls, name, path=None, target=None:\n"
        "    None if name == '_lbfgsb' else find_spec(name, path, target))\n"
        "assert planning._lbfgsb_spec() is None\n"
        "cons, opts, weights = planning.case_library('line')\n"
        "traj, report = planning.plan(cons, weights, opts)\n"
        "assert planning._setulb() is sys.modules['scipy.optimize._lbfgsb'].setulb\n"
        f"sys.path.insert(0, {str(TESTS)!r})\n"
        "from helpers import restarts_digest\n"
        "got = [restarts_digest(report.restarts), [s.coeffs.tobytes() for s in traj.segments]]\n"
        f"assert got == {want!r}, got\n"
    )
    modules = modules_after(code, tmp_path)
    assert "scipy.optimize._lbfgsb" in modules and "flapkit._lbfgsb" not in modules


def test_no_scipy_finds_no_extension_file(monkeypatch):
    # without scipy on the path the spec is None, as for a missed file
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *a: None if name == "scipy" else find_spec(name, *a))
    assert flapkit.planning._lbfgsb_spec() is None


def test_plan_drives_scipy_setulb(monkeypatch):
    # every step of every inner solve is one call of scipy's L-BFGS-B
    # routine: one per evaluation request (the start's included), one per
    # iteration, and the one that ends the solve
    calls = [0]
    setulb = flapkit.planning._setulb()

    def counting(*args):
        calls[0] += 1
        return setulb(*args)

    monkeypatch.setattr(flapkit.planning, "_setulb", lambda: counting)
    cons, opts, weights = case_library("line")
    traj, report = flapkit.planning.plan(cons, weights, opts)
    solves = [s for r in report.restarts for s in r.solves]
    assert solves and calls[0] == sum(nfev + nit + 1 for _, _, nit, nfev, _ in solves)
    assert np.isfinite(report.objective)


def load_spans():
    """The benchmark's ``perfbench/spans.py``, loaded from this checkout."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_targets_exist():
    # perfbench/spans.py wraps (owner, attribute) pairs by lookup, so a name
    # deleted here would otherwise fail only a traced benchmark run
    spans = load_spans()
    missing = []
    for owner, attr, *_ in spans.WRAPS:
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{owner.__name__}.{attr}")
    assert len(spans.WRAPS) >= 20
    assert missing == []


def test_scalar_eval_is_one_traced_span():
    # the tracer wraps eval and eval_many under one span name: a scalar eval
    # that went through eval_many would count twice in trajectory.eval_calls
    tracer = load_spans().Tracer()
    traj = single_segment([[0.0, 1.0], [0.0, 2.0], [1.0, 0.0]], 2.0)
    with tracer.installed(), tracer.operation("probe"):
        traj.eval(0.5)
    assert [tracer.names[i] for i in tracer.name] == ["probe", "trajectory.eval"]


@pytest.mark.parametrize("model, rhs", [("vertical", "dynamics.vertical_rhs"),
                                        ("full", "dynamics.full_rhs")])
def test_traced_flight_span_counts(case_line, model, rhs):
    # the per-layer metrics count what the wrapped names are called: a tick
    # per controller tick, one plant RHS per tick (the held input's check and
    # first stage), and five reference reads per flight (the start's position
    # and velocity, the start heading's scan and the two tick tables)
    tracer = load_spans().Tracer()
    with tracer.installed(), tracer.operation("flight"):
        res = flapkit.simulate.run_closed_loop(case_line.traj, MODEL_PARAMS[model]())
    ticks = len(res.control_t)
    assert ticks == 300 and not res.diverged
    counts = {}
    for i in tracer.name:
        counts[tracer.names[i]] = counts.get(tracer.names[i], 0) + 1
    assert counts == {"flight": 1, "control.tick": ticks, rhs: ticks, "trajectory.eval": 5}


def test_traced_replay_span_counts(case_a):
    # flat-replay's per-layer metrics: one tabulation and one replay span per
    # replayed window, the replay's steps its table's and no plant RHS call,
    # so dynamics.tabulated_step_us is the time of one replay step
    n, dt, params = 300, 1e-3, VerticalParams()
    sched = FlatInputSchedule(case_a.traj, params)
    state0 = sched.initial_vertical_state()
    tracer = load_spans().Tracer()
    with tracer.installed(), tracer.operation("replay"):
        gamma, f = sched.tabulate(np.arange(2 * n + 1) * dt / 2)
        flapkit.dynamics.integrate_vertical_tabulated(state0, params, gamma, f, dt,
                                                      rudder_mode="explicit-rudder")
    counts = {}
    for i in tracer.name:
        counts[tracer.names[i]] = counts.get(tracer.names[i], 0) + 1
    assert counts == {"replay": 1, "flatness.tabulate": 1, "dynamics.tabulated": 1}
    [replay] = [k for k, i in enumerate(tracer.name) if tracer.names[i] == "dynamics.tabulated"]
    assert tracer.info == {replay: {"steps": n}}
