"""Smoke test: the scripts in scripts/ and ``python -m jordanquiver`` run
end to end against src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def run_script(*argv):
    return run_python(str(ROOT / "scripts" / argv[0]), *argv[1:])


def test_tube_sweep_round_trips():
    result = run_script("tube_sweep.py", "--p", "3")
    assert result.returncode == 0, result.stderr
    assert "0 round-trip mismatches" in result.stdout


def test_worked_examples_run():
    result = run_script("worked_examples.py")
    assert result.returncode == 0, result.stderr


def test_python_m_runs_the_cli():
    result = run_python("-m", "jordanquiver", "oracle", "heisenberg", "--p", "13")
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "[13]+2[12]+2[11]+2[10]+2[9]+2[8]+2[7]+2[6]+2[5]+2[4]+2[3]+2[2]+2[1] PASS\n"
    )
