"""Every metric of every workload, in one command.

    python3 perfbench/report.py [--seed 1] [--seconds 20]

Runs each workload untraced (end-to-end metrics, error_rate, digest and
environment) and then traced (per-layer metrics and
trace.overhead_ratio), one process per run, and prints each run's report
and result line under a heading.  ``--seconds`` defaults to the
benchmark's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
