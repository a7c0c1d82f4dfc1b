#!/usr/bin/env python3
"""Record benchmark runs of a checkout in one BENCH_<pr>.json file.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T`` from
the root of the checkout, one child process at a time, for each workload
and each seed, and writes one JSON object:

- ``pr``, ``git_sha`` (HEAD of the checkout), ``dirty`` (whether its
  tracked files differ from HEAD) and ``src_sha256``, a digest of every
  file under ``src/``, which names the measured code even when it is not
  committed;
- ``runs``: per run its ``workload``, ``seed``, ``seconds`` and
  ``returncode``, and the three lines of ``run.py``'s report kept here:
  ``env`` (the parsed ``env`` JSON line), ``digest`` (the ``digest``
  line as printed) and ``result`` (the parsed final JSON line, with
  ``correct``, ``attempted``, ``failed`` and the end-to-end metrics).

A run that exits nonzero or lacks one of the three lines keeps what it
printed, and the script then exits 1 once the file is written.

Run:  python3 scripts/bench_record.py --pr N [--seeds 1 2 3] [--seconds 25]
      [--workload oracle-crosscheck ...] [--root CHECKOUT] [--out FILE]
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def git(root, *args):
    result = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def src_digest(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def record_run(root, workload, seed, seconds):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    run = {"workload": workload, "seed": seed, "seconds": seconds,
           "returncode": proc.returncode, "env": None, "digest": None, "result": None}
    for line in lines:
        if line.startswith("env "):
            run["env"] = json.loads(line[len("env "):])
        elif line.startswith("digest "):
            run["digest"] = line
    if lines and lines[-1].startswith("{"):
        run["result"] = json.loads(lines[-1])
    if proc.returncode or None in (run["env"], run["digest"], run["result"]):
        run["stderr"] = proc.stderr[-4000:]
    return run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--root", type=Path, default=REPO, help="the checkout to run")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json in this repo")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    workloads = args.workload or [
        w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    sha = git(root, "rev-parse", "HEAD")
    dirty = sha and bool(git(root, "status", "--porcelain", "--untracked-files=no"))
    bench = {"pr": args.pr, "git_sha": sha, "dirty": dirty, "src_sha256": src_digest(root),
             "runs": []}
    for workload in workloads:
        for seed in args.seeds:
            run = record_run(root, workload, seed, args.seconds)
            bench["runs"].append(run)
            metrics = (run["result"] or {}).get("metrics", {})
            print(f"{workload} seed {seed}: exit {run['returncode']}, "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in sorted(metrics.items())),
                  flush=True)
    out = args.out or REPO / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    return int(any("stderr" in run for run in bench["runs"]))


if __name__ == "__main__":
    sys.exit(main())
