#!/usr/bin/env python3
"""List the package statements that the benchmark traffic never runs.

Runs one round of each named workload of ``perfbench/workloads.py`` at
seeds 1, 2 and 3, calling every op as ``perfbench/run.py`` does, with a
line tracer on the frames of ``src/jordanquiver`` only.  The tracer is on
from before the package is imported, so what runs at import counts too.
Prints one ``<unexecuted>\t<statements>\t<module>.<qualname>`` line per
package function with a statement that no op ran, in source order, then
``<unexecuted>\t<statements>\ttotal`` summed over those lines.

A statement is one of the function's own: a docstring is none, and a
nested function's body belongs to the nested function.  It ran when a
line of it ran; a compound statement's lines are those of its header.

Run:  python3 scripts/traffic_lines.py [WORKLOAD ...]   (default: all four)
"""

import argparse
import ast
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jordanquiver"
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: how an op is called)
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)


def _header(stmt: ast.stmt) -> range:
    """The lines of a statement that hold its own code."""
    first = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", ()))])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(first + 1, body[0].lineno))
    return range(first, stmt.end_lineno + 1)


def _statements(body: list) -> list:
    """The statements in ``body`` and in the blocks they hold, but not in a nested body."""
    found = []
    for stmt in body:
        found.append(stmt)
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            blocks = [getattr(stmt, field, []) for field in ("body", "orelse", "finalbody")]
            for block in blocks + [handler.body for handler in getattr(stmt, "handlers", [])]:
                found += _statements(block)
    return found


def functions(node: ast.AST, prefix: str = ""):
    """(qualname, statements) of every function under ``node``, in source order."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            body = child.body[1:] if ast.get_docstring(child) is not None else child.body
            yield prefix + child.name, _statements(body)
            yield from functions(child, prefix + child.name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from functions(child, prefix + child.name + ".")
        elif not isinstance(child, ast.Lambda):
            yield from functions(child, prefix)


def traced_lines(names: list) -> set:
    """(file, line) pairs of the package that one round of each workload at each seed runs."""
    package, seen = str(PACKAGE) + os.sep, set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(on_call)
    try:
        lib = run.load_library()
        for workload in map(WORKLOADS.get, names):
            for seed in SEEDS:
                for op in workload.round(random.Random(f"{workload.name}/{seed}")):
                    run.thunk(lib, op)()
    finally:
        sys.settrace(None)
    return seen


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"one of {', '.join(sorted(WORKLOADS))}")
    names = parser.parse_args().workloads or sorted(WORKLOADS)
    if unknown := sorted(set(names) - WORKLOADS.keys()):
        parser.error(f"unknown workload {', '.join(unknown)}")
    seen = traced_lines(names)
    unrun = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, stmts in functions(tree):
            missed = sum(not any((str(path), line) in seen for line in _header(stmt))
                         for stmt in stmts)
            if missed:
                unrun, total = unrun + missed, total + len(stmts)
                print(f"{missed}\t{len(stmts)}\t{path.stem}.{qualname}")
    print(f"{unrun}\t{total}\ttotal")


if __name__ == "__main__":
    main()
