"""The pytest configuration in ``pyproject.toml`` reports a failing test as a failure."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after_it():
    pass
'''


def test_a_failing_property_test_fails_without_an_internal_error(tmp_path):
    # hypothesis's failure report must not trip the warnings-as-errors filter
    probe = tmp_path / "test_probe.py"
    probe.write_text(FAILING_PROPERTY)
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(probe)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv], capture_output=True, text=True, cwd=tmp_path, timeout=60
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in proc.stdout
