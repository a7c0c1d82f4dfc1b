"""Spans recorded from outside the library, by wrapping its public callables.

``Tracer.install`` replaces every public function and method of the
package modules (and a few named dunders) with a wrapper that records a
span: name, start, end, parent span and op id.  Spans live in flat arrays
until the run ends; nothing is written while ops run.  ``uninstall`` puts
the originals back, so the same process can time an op with and without
spans, and end-to-end runs never pay for them.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from array import array
from enum import Enum

LAYERS = ("cli", "jtypes", "components", "oracle", "quiver", "classify")

# Dunders that do a layer's work: validation on every JordanType, and the
# rank sequence computed when a NilpotentModel is built.
EXTRA = {"jtypes.JordanType.__post_init__", "oracle.NilpotentModel.__init__"}


def _rank_cells(args, rank):
    # computed, not measured: cells of the rows below each pivot row,
    # i.e. the most a dense elimination of an m x n matrix can update
    m = len(args[0])
    n = len(args[0][0]) if m else 0
    return n * (rank * (m - 1) - rank * (rank - 1) // 2)


def _matmul_cells(args, _):
    a, b = args[0], args[1]
    return len(a) * len(b) * (len(b[0]) if b else 0)


# work counted at a span from its arguments and result
COUNTERS = {
    "oracle.rank_mod_p": _rank_cells,
    "oracle.mat_mul_mod_p": _matmul_cells,
    "oracle.NilpotentModel.__init__": lambda args, _: args[0].dim,
    "quiver.build_window": lambda args, window: len(window.vertices),
    "quiver.check_admissible": lambda args, report: report.tested,
    "quiver.classify_function": lambda args, _: len(args[0].window.interior),
}

OP = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.err = array("b")
        self.work = array("q")
        self.stack = [-1]
        self.op_id = -1
        self._patches: list = []  # (owner, attribute, original, wrapper)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        counter = COUNTERS.get(name)
        names, start, end, parent, ops, err, work = (
            self.name, self.start, self.end, self.parent, self.op, self.err, self.work)
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            ops.append(tracer.op_id)
            err.append(0)
            work.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                err[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                work[i] = counter(args, result)
            return result

        return span

    def run_op(self, op_id: int, thunk):
        """Run one op inside its root span."""
        self.op_id = op_id
        return self.wrap(OP, thunk)()

    # ------------------------------------------------------------ patching

    def prepare(self, lib) -> None:
        """Build the wrappers; ``install`` and ``uninstall`` then swap them in and out."""
        package = [m for n, m in sys.modules.items()
                   if n == "jordanquiver" or n.startswith("jordanquiver.")]
        for layer in LAYERS:
            mod = getattr(lib, layer)
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    wrapped = self.wrap(f"{layer}.{attr}", val)
                    # rebind every name the package holds for it, so calls
                    # through `from .x import f` are traced too
                    for other in package:
                        for name, v in vars(other).items():
                            if v is val:
                                self._patches.append((other, name, val, wrapped))
                elif inspect.isclass(val) and not issubclass(val, (Enum, BaseException)):
                    self._prepare_class(layer, val)
        # argument parsing is the cli layer's other half next to build_parser
        self._patches.append((lib.cli._Parser, "parse_args", _MISSING,
                              self.wrap("cli.parse_args", argparse.ArgumentParser.parse_args)))

    def _prepare_class(self, layer: str, cls) -> None:
        for attr, val in vars(cls).items():
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_") and name not in EXTRA:
                continue
            if isinstance(val, classmethod):
                wrapped = classmethod(self.wrap(name, val.__func__))
            elif isinstance(val, staticmethod):
                wrapped = staticmethod(self.wrap(name, val.__func__))
            elif inspect.isfunction(val):
                wrapped = self.wrap(name, val)
            else:
                continue
            self._patches.append((cls, attr, val, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def nesting_errors(self, eps: float = 1e-9) -> int:
        """Spans that leave their parent's interval or op, or have negative self time."""
        bad = 0
        start, end, parent, op = self.start, self.end, self.parent, self.op
        for i, p in enumerate(parent):
            if p >= 0 and not (start[p] <= start[i] <= end[i] <= end[p] and op[p] == op[i]):
                bad += 1
        return bad + sum(1 for x in self.self_times() if x < -eps)

    def dump(self, path, limit: int = 50_000, **meta) -> None:
        """Write the spans of whole ops, from the first, up to ``limit`` spans.

        Spans are stored in start order, so each op's spans are contiguous;
        the op that crosses the limit is written whole.
        """
        keep = len(self.start)
        if keep > limit:
            cut = self.op[limit] + 1
            keep = next((i for i, o in enumerate(self.op) if o >= cut), keep)
        rows = [[self.name[i], self.start[i], self.end[i], self.parent[i], self.op[i],
                 self.err[i], self.work[i]] for i in range(keep)]
        doc = {**meta, "names": self.names,
               "columns": ["name", "start", "end", "parent", "op", "err", "work"],
               "spans_total": len(self.start), "spans_written": keep, "spans": rows}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


_MISSING = object()


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-op layer numbers from the spans: (value, unit) by metric name."""
    names = [tracer.names[i] for i in tracer.name]
    parent = tracer.parent
    own = tracer.self_times()
    count: dict = {}
    incl: dict = {}
    ok: dict = {}
    work: dict = {}
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    inverted_ranks = 0
    classify_calls = 0
    classify_s = 0.0
    for i, name in enumerate(names):
        dur = tracer.end[i] - tracer.start[i]
        p = parent[i]
        pname = names[p] if p >= 0 else ""
        count[name] = count.get(name, 0) + 1
        if pname != name:  # a recursive call is inside its caller's time already
            incl[name] = incl.get(name, 0.0) + dur
        if not tracer.err[i]:
            ok[name] = ok.get(name, 0) + 1
        work[name] = work.get(name, 0) + tracer.work[i]
        layer = name.split(".", 1)[0]
        layer_self[layer] += own[i]
        if name == "oracle.rank_mod_p" and pname == "oracle.random_invertible":
            inverted_ranks += 1
        if layer == "classify" and not pname.startswith("classify."):
            classify_calls += 1
            classify_s += dur

    op_s = incl.get(OP, 0.0)
    per = 1.0 / max(n_ops, 1)

    def n(*keys):
        return sum(count.get(k, 0) for k in keys) * per

    def ms(*keys):
        return sum(incl.get(k, 0.0) for k in keys) * per * 1e3

    def ratio(num, den):
        return num / den if den else 0.0

    models = count.get("oracle.NilpotentModel.__init__", 0)
    out = {
        "trace.op_ms": (op_s * per * 1e3, "ms"),
        "cli.parse_ms": (ms("cli.build_parser", "cli.parse_args"), "ms"),
        "cli.self_ms": (sum(own[i] for i, x in enumerate(names) if x == "cli.main") * per * 1e3, "ms"),
        "jtypes.new_count": (n("jtypes.JordanType.__post_init__"), "count"),
        "jtypes.validate_ms": (ms("jtypes.JordanType.__post_init__"), "ms"),
        "components.cartan_builds": (n("components.build_cartan_pair"), "count"),
        "components.cartan_ms": (ms("components.build_cartan_pair"), "ms"),
        "components.profile_builds": (n("components.tube_profile_from_seed"), "count"),
        "components.profile_ms": (ms("components.tube_profile_from_seed"), "ms"),
        "components.solve_calls": (n("components.solve_multiplicities"), "count"),
        "components.solve_ms": (ms("components.solve_multiplicities"), "ms"),
        "components.accept_ratio": (ratio(ok.get("components.tube_profile_from_seed", 0),
                                          count.get("components.tube_profile_from_seed", 0)), "ratio"),
        "components.rows": (n("components.TubeProfile.jordan_type_at", "components.split_propagate"), "count"),
        "components.row_ms": (ms("components.TubeProfile.jordan_type_at", "components.split_propagate"), "ms"),
        "oracle.model_count": (n("oracle.NilpotentModel.__init__"), "count"),
        "oracle.model_ms": (ms("oracle.NilpotentModel.__init__"), "ms"),
        "oracle.rank_calls": (n("oracle.rank_mod_p"), "count"),
        "oracle.rank_ms": (ms("oracle.rank_mod_p"), "ms"),
        "oracle.rank_cells": (work.get("oracle.rank_mod_p", 0) * per, "count"),
        "oracle.matmul_calls": (n("oracle.mat_mul_mod_p"), "count"),
        "oracle.matmul_ms": (ms("oracle.mat_mul_mod_p"), "ms"),
        "oracle.matmul_cells": (work.get("oracle.mat_mul_mod_p", 0) * per, "count"),
        "oracle.invertible_accept_ratio": (ratio(ok.get("oracle.random_invertible", 0), inverted_ranks), "ratio"),
        "oracle.dim_mean": (ratio(work.get("oracle.NilpotentModel.__init__", 0), models), "count"),
        "quiver.window_ms": (ms("quiver.build_window"), "ms"),
        "quiver.vertices": (work.get("quiver.build_window", 0) * per, "count"),
        "quiver.check_ms": (ms("quiver.check_admissible", "quiver.classify_function"), "ms"),
        "quiver.vertices_tested": ((work.get("quiver.check_admissible", 0)
                                    + work.get("quiver.classify_function", 0)) * per, "count"),
        "quiver.dot_ms": (ms("quiver.window_to_dot", "quiver.valued_graph_to_dot"), "ms"),
        "quiver.minimal_additive_ms": (ms("quiver.minimal_additive_function"), "ms"),
        "classify.calls": (classify_calls * per, "count"),
        "classify.ms": (classify_s * per * 1e3, "ms"),
    }
    for layer, s in layer_self.items():
        out[f"{layer}.self_ms"] = (s * per * 1e3, "ms")
    # Each time also as a share of the op.  BENCHMARK.json declares the
    # shares for layers some workload never reaches: there the time would
    # read a constant 0 ms, which is indistinguishable from a time not measured.
    op_ms = out["trace.op_ms"][0]
    for name, (value, unit) in list(out.items()):
        if unit == "ms" and name != "trace.op_ms":
            out[name[:-2] + "pct"] = (100.0 * value / op_ms if op_ms else 0.0, "%")
    return out
