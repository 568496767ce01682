"""Every import in a flapkit module is used, every private module-level
name is read somewhere in the package, and importing flapkit loads no
scipy: only ``plan`` (for ``scipy.optimize.minimize``) and the
rank-deficiency error path import it, inside the function.  Every name the
benchmark tracer wraps by lookup still exists.

``__init__.py`` is exempt from the unused-import check: its imports are the
package's re-exports.
"""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import flapkit.planning
from flapkit.planning import case_library

SRC = Path(__file__).resolve().parents[1] / "src" / "flapkit"
SPANS = SRC.parents[1] / "perfbench" / "spans.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants defined in
    ``sources`` (module name -> source) that no module reads: a name counts
    as read where it is loaded, taken as an attribute or imported."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{name} ({where})" for name, where in defined.items() if name not in read]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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
    assert unreferenced_private_names(sources) == []


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
    assert unreferenced_private_names(sources) == ["_B (a.py:2)", "_dead (a.py:5)"]


def import_time_modules(source: str) -> list[str]:
    """Modules imported by statements that run when ``source`` is imported:
    every import outside a function body (class bodies run at import)."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_time_scipy(path):
    modules = import_time_modules(path.read_text())
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_detects_import_time_modules():
    source = (
        "import scipy.linalg\n"
        "from . import io\n"
        "class A:\n"
        "    from scipy import optimize\n"
        "def f():\n"
        "    import scipy.optimize\n"
        "g = lambda: __import__('scipy')\n"
    )
    assert import_time_modules(source) == ["scipy.linalg", "scipy"]


def scipy_modules_after(code: str, cwd) -> list[str]:
    """The scipy modules in ``sys.modules`` after ``code`` runs in a fresh
    interpreter with this checkout's ``src`` first on the path."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    path = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after("import flapkit.cli", tmp_path) == []


def test_simulate_and_metrics_load_no_scipy(tmp_path, case_line):
    case_line.traj.to_coeff_csv(tmp_path / "traj.csv")
    code = (
        "from flapkit.cli import main\n"
        "for model in ('vertical', 'full'):\n"
        "    assert main(['simulate', '--traj', 'traj.csv', '--model', model,\n"
        "                 '--out-state', 's.csv', '--out-control', 'c.csv']) == 0\n"
        "    assert main(['metrics', '--state', 's.csv', '--traj', 'traj.csv',\n"
        "                 '--case', 'line', '--out', 'm.csv']) == 0\n"
    )
    assert scipy_modules_after(code, tmp_path) == []
    assert (tmp_path / "m.csv").is_file()


def test_flat_replay_loads_no_scipy(tmp_path, case_a):
    case_a.traj.to_coeff_csv(tmp_path / "traj.csv")
    code = (
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
    assert scipy_modules_after(code, tmp_path) == []


def test_plan_imports_scipy_optimize(tmp_path):
    code = (
        "import sys\n"
        "from flapkit.planning import case_library, plan\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "cons, opts, weights = case_library('line')\n"
        "plan(cons, weights, opts)\n"
    )
    assert "scipy.optimize" in scipy_modules_after(code, tmp_path)


def test_plan_calls_scipy_optimize_minimize(monkeypatch):
    calls = []
    minimize = scipy.optimize.minimize

    def counting(*args, **kwargs):
        calls.append(kwargs["method"])
        return minimize(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", counting)
    cons, opts, weights = case_library("line")
    traj, report = flapkit.planning.plan(cons, weights, opts)
    assert calls and set(calls) == {"L-BFGS-B"}
    assert np.isfinite(report.objective)


def test_benchmark_tracer_targets_exist():
    # perfbench/spans.py wraps (owner, attribute) pairs by lookup, so a name
    # deleted here would otherwise fail only a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for owner, attr, *_ in spans.WRAPS:
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{owner.__name__}.{attr}")
    assert len(spans.WRAPS) >= 20
    assert missing == []
