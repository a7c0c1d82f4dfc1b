"""Smoke test: the scripts in scripts/ run end to end against src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_tube_sweep_round_trips():
    result = run_script("tube_sweep.py", "--p", "3")
    assert result.returncode == 0, result.stderr
    assert "0 round-trip mismatches" in result.stdout


def test_worked_examples_run():
    result = run_script("worked_examples.py")
    assert result.returncode == 0, result.stderr
