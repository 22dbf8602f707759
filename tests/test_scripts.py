"""The scripts under scripts/ run end to end at small budgets."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from ngc_lab.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv", [("gap_demo", ["--n", "56", "--k", "7", "--W", "5", "--seed", "3"])]
)
def test_script_runs_and_exits_zero(capsys, name, argv):
    assert load(name).main(argv) == 0
    text = capsys.readouterr().out
    assert "theta = 0" in text and "theta = 1" in text and "mst       : weight" in text


def test_probability_panel_rows_are_the_cli_bytes(tmp_path):
    # the panel's first width runs at the panel's seed, as the CLI run does
    panel, rows = tmp_path / "panel.csv", tmp_path / "rows.csv"
    assert load("probability_panel").main(["--trials", "50", "--seed", "1", "--out", str(panel)]) == 0
    main(["partition-stats", "--w", "2", "--trials", "50", "--seed", "1", "--out", str(rows)])
    header, *lines = panel.read_bytes().splitlines(keepends=True)
    width_two = [line for line in lines if line.startswith(b"partition-stats,w=2,")]
    assert width_two and header + b"".join(width_two) == rows.read_bytes()
