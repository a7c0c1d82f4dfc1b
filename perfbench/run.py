"""Closed-loop benchmark of jordanquiver, one workload per run.

    python3 perfbench/run.py --workload tube-table --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One process and one client: the next op starts when the previous one has
finished.  CLI ops call ``jordanquiver.cli.main(argv)`` with stdout and
stderr captured in memory, so parsing, validation, compute and rendering
all fall inside the timed op.

The first round of ops is a warm-up whose outputs are checked and
digested but not timed.  With ``--trace 0`` the run then times whole
rounds until ``--seconds`` have passed and reports the end-to-end
metrics, with times scaled to a nominal machine speed (see Speed).  With ``--trace 1`` it runs a fixed set of rounds, each op once
plain and once with every public callable of the library wrapped in
spans, and reports per-layer metrics; the spans of the first ops are
written to ``.bench_trace/<workload>.json``.

Everything before the last line is a report for people; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``correct`` is false when a well-formed op gives a wrong
answer.  ``failed`` counts every op without its correct outcome,
including malformed inputs that crash or are accepted.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
SETUP_CODE = "import jordanquiver.cli as c; c.build_parser()"


def load_library() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    from jordanquiver import classify, cli, components, jtypes, oracle, quiver

    if Path(cli.__file__).resolve().parent != SRC / "jordanquiver":
        raise RuntimeError(f"jordanquiver imported from {cli.__file__}, not from {SRC}")
    return SimpleNamespace(cli=cli, jtypes=jtypes, components=components,
                           oracle=oracle, quiver=quiver, classify=classify)


# A shared virtual machine can drop to between half and two thirds of its
# speed for spells of a few seconds, several times a minute (seen on a
# 2-vCPU Intel Xeon VM), so raw wall times of two runs of this benchmark
# differed there by 20-50 % whatever their length.
# Every time reported is therefore scaled to a nominal machine speed: a
# fixed pure-Python kernel is timed at least every CALIBRATE_EVERY_S, and
# each measured time is multiplied by KERNEL_NOMINAL_S over the kernel's
# latest time.  Where the kernel takes KERNEL_NOMINAL_S, reported times
# are wall times; the report prints the raw wall-time figures beside them.
KERNEL_NOMINAL_S = 0.001
CALIBRATE_EVERY_S = 0.25


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def value(self, q):
        return self.a * q + self.b


def _kernel() -> int:
    """About 1 ms of the work the library does: modular row reduction, small
    objects and method calls, string rendering, dict and sort."""
    rows = [[(i * 31 + j) % 13 for j in range(24)] for i in range(24)]
    pivot = rows[0]
    for r in range(1, 24):
        f = rows[r][0]
        rows[r] = [(x - f * y) % 13 for x, y in zip(rows[r], pivot)]
    items = [_Item(i % 5, i % 3) for i in range(600)]
    total = sum(it.value(q) for it in items for q in (1, 2, 3))
    text = "\n".join(f"{i}\t{it.a}\t{it.value(i)}" for i, it in enumerate(items))
    seen = {}
    for i in range(1500):
        key = (i % 37, i % 11)
        seen[key] = seen.get(key, 0) + 1
    order = sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
    return total + len(text) + len(order) + rows[5][5]


class Speed:
    """Scale factor from measured to nominal-speed time, kept fresh by the kernel."""

    def __init__(self):
        self.at = float("-inf")
        self.factor = 1.0
        self.factors: list = []

    def calibrate(self) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
        self.factor = KERNEL_NOMINAL_S / statistics.median(times)
        self.factors.append(self.factor)
        self.at = time.perf_counter()
        return self.factor

    def current(self) -> float:
        if time.perf_counter() - self.at >= CALIBRATE_EVERY_S:
            return self.calibrate()
        return self.factor


def measure_setup(speed: Speed) -> tuple[list, list]:
    """Wall times of fresh interpreters that import the CLI and build its parser.

    One unmeasured launch first writes the bytecode cache, so every
    measured one finds it, as an installed package would.  The cache goes
    to its own directory whatever the caller's bytecode settings.
    Returns (scaled, raw) times.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(ROOT / ".bench_cache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "-c", SETUP_CODE]
    scaled, raw = [], []
    for k in range(SETUP_RUNS + 1):
        before = speed.calibrate()
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        dt = time.perf_counter() - t0
        if k:
            raw.append(dt)
            scaled.append(dt * (before + speed.calibrate()) / 2)
    return scaled, raw


# ------------------------------------------------------------------- ops


def run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = lib.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught exception is the op's outcome
            rc = 1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_call(lib, call):
    try:
        rc, out = call(lib)
    except Exception:
        return 1, "", traceback.format_exc()
    return rc, out, ""


def thunk(lib, op):
    if op.argv is not None:
        return lambda: run_cli(lib, op.argv)
    return lambda: run_call(lib, op.call)


def passed(op, rc, out, err) -> bool:
    if op.malformed:
        return rc in (2, 3) and bool(err.strip()) and "Traceback" not in err
    try:
        return rc == op.rc and op.check(out)
    except (ValueError, IndexError, KeyError, TypeError, AttributeError):
        return False


class Tally:
    """Outcomes of every op run, and the digest of the first round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict = {}
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def record(self, op, rc, out, err, digest=False):
        self.attempted += 1
        if not passed(op, rc, out, err):
            self.failed += 1
            self.wrong += not op.malformed
            key = f"{op.kind} rc={rc} {' '.join(op.argv or [])[:60]}"
            self.failures[key] = self.failures.get(key, 0) + 1
        if digest:
            data = out.encode()
            self.digest.update(f"{rc} {len(data)}\n".encode())
            self.digest.update(data)
            self.digest_ops += 1


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def segment_stats(lat_s: list) -> dict:
    ms = sorted(x * 1e3 for x in lat_s)
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return {"p50": statistics.median(ms), "p90": p90, "n": len(ms),
            "above_p90": sum(1 for x in ms if x > p90)}


# ------------------------------------------------------------------ runs

# Scaling leaves part of each slow spell in the figures, since the kernel
# and the workloads slow down by different amounts.  So ops_per_s is the
# median over rounds of each round's throughput, and the latency
# percentiles are medians over segments of whole rounds with at least
# SEGMENT_OPS ops each (enough for ten samples above the p90).  Workloads
# with long ops get one or two such segments.
SEGMENT_OPS = 100


def run_plain(lib, workload, rng, seconds, tally, speed) -> dict:
    # Only the two newest segments keep per-op latencies, so the harness's
    # memory does not grow with the number of ops a faster program completes.
    stats, older, newest = [], None, []  # segments of (scaled, raw) latencies
    throughput = []  # (scaled, raw) ops per second of each round

    def close(segment):
        stats.append((segment_stats([x for x, _ in segment]), segment_stats([x for _, x in segment])))

    t_end = time.perf_counter() + seconds
    while not throughput or time.perf_counter() < t_end:
        if len(newest) >= SEGMENT_OPS:
            if older is not None:
                close(older)
            older, newest = newest, []
        ops = workload.round(rng)
        busy = [0.0, 0.0]
        for op in ops:
            before = speed.current()
            (rc, out, err), dt = timed(thunk(lib, op))
            # an op longer than CALIBRATE_EVERY_S gets a fresh factor after it too
            scaled = dt * (before + speed.current()) / 2
            newest.append((scaled, dt))
            busy[0] += scaled
            busy[1] += dt
            tally.record(op, rc, out, err)
        throughput.append((len(ops) / busy[0], len(ops) / busy[1]))
    if older is None:
        close(newest)
    elif len(newest) < SEGMENT_OPS:
        close(older + newest)
    else:
        close(older)
        close(newest)

    def median(key, raw=False):
        return statistics.median(s[raw][key] for s in stats)

    return {
        "metrics": {
            "ops_per_s": (statistics.median(x for x, _ in throughput), "1/s"),
            "latency_p50_ms": (median("p50"), "ms"),
            "latency_p90_ms": (median("p90"), "ms"),
        },
        "raw": {"ops_per_s": statistics.median(x for _, x in throughput),
                "latency_p50_ms": median("p50", True), "latency_p90_ms": median("p90", True)},
        "rounds": len(throughput),
        "ops": sum(s["n"] for s, _ in stats),
        "segments": [s for s, _ in stats],
    }


def run_traced(lib, workload, rng, tally, spans_path, meta) -> dict:
    from spans import Tracer, layer_metrics

    ops = [op for _ in range(workload.trace_rounds) for op in workload.round(rng)]
    tracer = Tracer()
    tracer.prepare(lib)
    plain = traced = 0.0
    stdout_bytes = 0
    # each op runs plain and traced back to back, in alternating order, so
    # a slow spell of the machine lands on both sides of the overhead ratio
    for k, op in enumerate(ops):
        for with_spans in ((False, True) if k % 2 else (True, False)):
            if with_spans:
                tracer.install()
                try:
                    (rc, out, err), dt = timed(lambda: tracer.run_op(k, thunk(lib, op)))
                finally:
                    tracer.uninstall()
                traced += dt
                stdout_bytes += len(out.encode())
            else:
                (rc, out, err), dt = timed(thunk(lib, op))
                plain += dt
            tally.record(op, rc, out, err)
    metrics = layer_metrics(tracer, len(ops))
    metrics["cli.stdout_bytes"] = (stdout_bytes / len(ops), "bytes")
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    nesting_errors = tracer.nesting_errors()
    tracer.dump(spans_path, **meta)
    return {"metrics": metrics, "ops": len(ops), "spans": len(tracer.start),
            "nesting_errors": nesting_errors}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jordanquiver" / "cli.py").is_file():
        print(f"perfbench: no library source at {SRC / 'jordanquiver'}; "
              "run from the root of a jordanquiver checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    speed = Speed()
    setup = None if args.trace else measure_setup(speed)
    lib = load_library()
    rng = random.Random(f"{workload.name}/{args.seed}")
    tally = Tally()
    for op in workload.round(rng):  # warm-up round: checked and digested, not timed
        rc, out, err = thunk(lib, op)()
        tally.record(op, rc, out, err, digest=True)

    meta = {"workload": workload.name, "seed": args.seed}
    if args.trace:
        result = run_traced(lib, workload, rng, tally,
                            ROOT / ".bench_trace" / f"{workload.name}.json", meta)
    else:
        result = run_plain(lib, workload, rng, args.seconds, tally, speed)
        result["metrics"]["setup_s"] = (statistics.median(setup[0]), "s")
        result["raw"]["setup_s"] = statistics.median(setup[1])
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"]["peak_rss_mb"] = (peak_kib / 1024.0, "MB")

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu": cpu_model(), **meta, "seconds": args.seconds, "trace": args.trace,
           "ops_timed": result["ops"],
           "attempted": tally.attempted}
    print(f"env {json.dumps(env)}")
    print(f"digest sha256={tally.digest.hexdigest()} ops={tally.digest_ops} (exit code and stdout of the first round)")
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"  {name:34s} {value:16.6f} {unit}")
    print(f"  {'error_rate':34s} {tally.failed / tally.attempted:16.6f} ratio"
          f" ({tally.failed} failed of {tally.attempted} attempted)")
    if args.trace:
        print(f"  traced {result['ops']} ops, {result['spans']} spans, "
              f"{result['nesting_errors']} nesting errors")
    else:
        segs = result["segments"]
        print(f"  {result['ops']} ops in {result['rounds']} rounds; ops_per_s is the median over rounds, "
              f"latencies are medians over {len(segs)} segments of {min(s['n'] for s in segs)}-{max(s['n'] for s in segs)} ops, "
              f"each with at least {min(s['above_p90'] for s in segs)} samples above its p90; "
              f"setup_s is the median of {SETUP_RUNS} interpreters")
        factors = speed.factors
        print(f"  times scaled to nominal speed; speed factor median {statistics.median(factors):.4f}, "
              f"range {min(factors):.4f}-{max(factors):.4f} over {len(factors)} calibrations; raw wall-time "
              + ", ".join(f"{k}={v:.6g}" for k, v in sorted(result["raw"].items())))
    for key, k in sorted(tally.failures.items()):
        print(f"  failed x{k}: {key}")

    section = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: dict(zip(("value", "unit"), result["metrics"][m["name"]])) for m in section}
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
