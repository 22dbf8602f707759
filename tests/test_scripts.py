"""The scripts under scripts/ run end to end at small budgets."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("gap_demo", ["--n", "56", "--k", "7", "--W", "5", "--seed", "3"]),
        ("estimator_budget_curve", ["--trials", "5", "--budgets", "2,8", "--seed", "1"]),
        ("probability_panel", ["--trials", "50", "--seed", "1"]),
    ],
)
def test_script_runs_and_exits_zero(tmp_path, capsys, name, argv):
    out = [] if name == "gap_demo" else ["--out", str(tmp_path / "rows.csv")]
    assert load(name).main(argv + out) == 0
    if out:
        assert (tmp_path / "rows.csv").read_text().startswith("suite,params,metric,")
    else:
        text = capsys.readouterr().out
        assert "theta = 0" in text and "theta = 1" in text and "mst       : weight" in text
