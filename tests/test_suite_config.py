"""The test suite's own configuration: under its warnings-as-errors filter a
failing property test still reports its falsifying example and the run goes
on to the next test, while a warning raised by a test stays an error; and a
misspelt marker fails collection rather than run its test in tier-1."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10
"""

MISSPELT_MARKER = """
import pytest


@pytest.mark.slwo
def test_sweep():
    pass
"""

WARNING = """
import warnings


def test_warns():
    warnings.warn("deprecated here", DeprecationWarning)
"""


def test_failing_property_test_reports_and_the_run_goes_on(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a_property.py").write_text(FAILING_PROPERTY)
    (tests / "test_b_warning.py").write_text(WARNING)
    (tests / "test_c_pass.py").write_text("def test_passes():\n    pass\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
    assert "DeprecationWarning: deprecated here" in out
    assert "2 failed, 1 passed" in out


def test_misspelt_marker_fails_collection(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a_marked.py").write_text(MISSPELT_MARKER)
    (tests / "test_b_pass.py").write_text("def test_passes():\n    pass\n")
    # also with the unknown-mark warning ignored: the warnings-as-errors filter
    # alone then lets the test run
    for flags in [], ["-W", "ignore::pytest.PytestUnknownMarkWarning"]:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               *flags], cwd=tmp_path, capture_output=True, text=True, timeout=120)
        out = proc.stdout + proc.stderr
        assert proc.returncode == 2, (flags, out)  # interrupted: collection errors
        assert "ERROR tests/test_a_marked.py" in out and "slwo" in out
