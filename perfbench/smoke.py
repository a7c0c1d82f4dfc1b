"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at minimum length, twice untraced with one seed and
once traced, and checks that

- the last line has exactly the result keys, and every metric
  BENCHMARK.json declares is there with its unit;
- the report names every metric, error_rate included;
- the digest of the first round repeats for the same seed;
- the written spans nest (each inside its parent and op, no negative
  self time), so that layer self times add up to the op's traced time.

Exits 1 and lists what failed, or prints "smoke ok".
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
# named in the report though not in BENCHMARK.json: error_rate is 0 on most
# workloads, and a layer time is 0 ms on workloads that never reach the layer
REPORT_ONLY = {0: ["error_rate"], 1: ["error_rate", "cli.parse_ms", "cli.self_ms", "components.cartan_ms",
               "components.profile_ms", "components.solve_ms", "components.row_ms",
               "oracle.model_ms", "oracle.rank_ms", "oracle.matmul_ms", "quiver.window_ms",
               "quiver.check_ms", "quiver.dot_ms", "quiver.minimal_additive_ms", "classify.ms"]}
LAYERS = ("cli", "jtypes", "components", "oracle", "quiver", "classify", "bench")


def run(workload: str, trace: int) -> tuple[list, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def check_result(result: dict, declared: list, extra: list, report: list, problems: list,
                 where: str):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: metric {m['name']} [{m['unit']}] missing or wrong: {got}")
    text = "\n".join(report)
    for name in [m["name"] for m in declared] + extra:
        if not re.search(rf"^\s+{re.escape(name)}\s", text, re.M):
            problems.append(f"{where}: report does not name {name}")


def check_spans(path: Path, report: list, problems: list, where: str):
    doc = json.loads(path.read_text())
    spans = doc["spans"]
    names = doc["names"]
    own = [s[2] - s[1] for s in spans]
    op_time: dict = {}
    op_self: dict = {}
    for i, (name, start, end, parent, op, _, _) in enumerate(spans):
        if parent >= 0:
            ps = spans[parent]
            if not (ps[1] <= start <= end <= ps[2] and ps[4] == op):
                problems.append(f"{where}: span {i} {names[name]} leaves parent {parent}")
                return
            own[parent] -= end - start
        else:
            op_time[op] = end - start
    for i, s in enumerate(spans):
        if own[i] < -1e-9:
            problems.append(f"{where}: span {i} {names[s[0]]} has self time {own[i]}")
            return
        op_self[s[4]] = op_self.get(s[4], 0.0) + own[i]
    for op, total in op_time.items():
        if abs(op_self[op] - total) > 1e-6:
            problems.append(f"{where}: op {op} self times sum to {op_self[op]}, op took {total}")
    # the reported layer self times must add up to the traced op time as well
    values = {}
    for line in report:
        parts = line.split()
        if len(parts) == 3:
            values[parts[0]] = float(parts[1])
    layers = sum(values[f"{layer}.self_ms"] for layer in LAYERS)
    if abs(layers - values["trace.op_ms"]) > 1e-3 * max(values["trace.op_ms"], 1e-3):
        problems.append(f"{where}: layer self times {layers} ms vs traced op {values['trace.op_ms']} ms")
    if doc["spans_written"] == 0:
        problems.append(f"{where}: no spans written")


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list = []
    for workload in WORKLOADS:
        digests = []
        for trace in (0, 0, 1):
            where = f"{workload} trace={trace}"
            report, result = run(workload, trace)
            section = "per_layer" if trace else "end_to_end"
            check_result(result, bench[section], REPORT_ONLY[trace], report, problems, where)
            digests += [line.split()[1] for line in report if line.startswith("digest ")]
            if trace:
                check_spans(ROOT / ".bench_trace" / f"{workload}.json", report, problems, where)
        if len(digests) != 3 or len(set(digests)) != 1:
            problems.append(f"{workload}: digests differ for seed {SEED}: {digests}")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    if problems:
        return 1
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
