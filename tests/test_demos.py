"""Every demo runs to completion against the package in src/: each Python
demo, and the shell tour of the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
TOUR = ROOT / "demos" / "07_cli_tour.sh"


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_cli_tour_runs(tmp_path):
    # the tour calls the spherecodes entry point; a shim first on PATH runs
    # it from src/ with this interpreter, whether or not the package is installed
    shim = tmp_path / "spherecodes"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m spherecodes.expcli "$@"\n')
    shim.chmod(0o755)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PATH": f"{tmp_path}{os.pathsep}{os.environ['PATH']}"}
    out = subprocess.run(["bash", str(TOUR)], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "== net statistics ==" in out.stdout
