"""Command-line surface.

Subcommands: jt (Jordan-type arithmetic), component (propagation tables
and the inverse multiplicity problem), oracle (named matrix models with
cross-checks), quiver (window construction, DOT export, additivity
overlays), classify (rule engine for kernel modules of cohomology
classes).

Exit codes: 0 success, 2 validation failure (mathematically inconsistent
input), 3 parse error (malformed command line, type string, or JSON).
Identical inputs always produce byte-identical output.

Each subcommand returns ``(exit code, text)``, where the text of a
component table is a generator of chunks, rendered by one ``%`` template
per table with its constant columns written in; ``main`` is the only code
that writes stdout.  A subcommand imports the modules it runs when it
runs, so a process loads only those.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from pathlib import Path
from typing import Iterator

from .errors import ParseError, ValidationError, require_printable
from .jtypes import (
    DominanceConvention, JordanType, dominance_compare, pi_point_sweep, restrict, restrict_type,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # validation failures, so remap usage errors to the parse-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)


def _load_json_arg(text: str):
    """Accept inline JSON or @path / plain path to a JSON file."""
    try:
        if text.startswith("@"):
            text = Path(text[1:]).read_text(encoding="utf-8")
        elif not text.lstrip().startswith(("{", "[")):
            text = Path(text).read_text(encoding="utf-8")
        return json.loads(text)
    # ValueError also covers a file that is not UTF-8 and an over-long integer
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}") from exc


_DECIMAL = re.compile(r"-?[0-9]+")


def _int(text: str) -> int:
    """Read plain ASCII decimal with an optional "-"; int() would also take
    "1_0", "+5", " 5" and non-ASCII digits."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(text)
    return int(text)


# argparse names the type in its message: "invalid int value: '1_0'"
_int.__name__ = "int"


def _read_options(args, mode: str, unread=(), **defaults) -> None:
    """Refuse each option in ``unread`` that was given, then fill in ``defaults``.

    ``mode`` does not read the options in ``unread``.  The parser gives
    each such option the default None, so a given one is told apart from
    a left-out one, whose default is set here.
    """
    for flag in unread:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ParseError(f"{flag} is not read by {mode}")
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


# ------------------------------------------------------------------------ jt

# op -> result, from a parser of type strings at --p and the parsed args.
# Names are looked up when the op runs, so a wrapper installed after import
# (a profiler's, say) sees every call.
_JT_OPS = {
    "dim": lambda jt, args: jt(args.jt).dimension(),
    "ker": lambda jt, args: jt(args.jt).ker_dim(args.m),
    "image": lambda jt, args: jt(args.jt).image_dim(args.m),
    "psi": lambda jt, args: jt(args.jt).psi(args.m),
    "stable": lambda jt, args: jt(args.jt).stable_part(),
    "syzygy": lambda jt, args: jt(args.jt).syzygy(),
    # a single block --i is restricted without parsing --jt
    "restrict": lambda jt, args: (
        restrict(args.i, args.j, args.p) if args.i is not None
        else restrict_type(jt(args.jt), args.j)
    ),
    "dominance": lambda jt, args: dominance_compare(
        jt(args.a), jt(args.b), DominanceConvention(args.convention)
    ).value,
}
# the options each jt op does not read; restrict reads --jt only without --i
_JT_UNREAD = {
    **dict.fromkeys(["dim", "stable", "syzygy"],
                    ["--m", "--i", "--j", "--a", "--b", "--convention"]),
    **dict.fromkeys(["ker", "image", "psi"], ["--i", "--j", "--a", "--b", "--convention"]),
    "restrict": ["--m", "--a", "--b", "--convention"],
    "restrict --i": ["--jt", "--m", "--a", "--b", "--convention"],
    "dominance": ["--jt", "--m", "--i", "--j"],
}


def _cmd_jt(args) -> tuple[int, str]:
    if args.p is None:
        raise ParseError("this command requires --p")
    mode = "restrict --i" if args.op == "restrict" and args.i is not None else args.op
    _read_options(args, f"jt {mode}", _JT_UNREAD[mode],
                  jt="", m=1, j=1, a="", b="", convention="image")
    result = _JT_OPS[args.op](lambda text: JordanType.from_string(args.p, text), args)
    if not isinstance(result, str):
        require_printable(result.mult if isinstance(result, JordanType) else [result], "the result")
    if args.format == "json":
        return EXIT_OK, json.dumps(
            result.to_json_dict() if isinstance(result, JordanType) else result
        )
    return EXIT_OK, str(result)


# ----------------------------------------------------------------- component


def _cmd_component(args) -> tuple[int, str | Iterator[str]]:
    from . import components as comp

    _read_options(args, "component --solve", ["--ql-max"] if args.solve else [], ql_max=5)
    profile = comp.profile_from_json(_load_json_arg(args.spec))
    if args.p is not None and profile.p != args.p:
        raise ValidationError(f"--p {args.p} disagrees with spec p={profile.p}")
    if args.solve:
        if not isinstance(profile, comp.TubeProfile):
            raise ValidationError("--solve applies to tube profiles")
        result = comp.solve_multiplicities(profile)
        require_printable(result.multiplicities, "a recovered multiplicity")
        if args.format == "json":
            return EXIT_OK, json.dumps({
                "multiplicities": list(result.multiplicities),
                "locally_split": result.locally_split,
                "note": result.note,
            })
        n = "n = (" + ", ".join(map(str, result.multiplicities)) + ")"
        return EXIT_OK, "\n".join(filter(None, [n, result.note]))
    if args.ql_max < 1:
        raise ValidationError(f"--ql-max must be >= 1, got {args.ql_max}")
    columns = comp.profile_columns(profile, args.ql_max)
    # the last row holds the largest entries, so it is checked before any row is written
    require_printable([c[-1] if isinstance(c, range) else c for c in columns], "a table entry")
    p = profile.p
    size = max(1, _CHUNK_CELLS // p)  # rows per chunk
    # one % template per table: a constant (slope 0) column is written into it
    # once as its text, each moving column fills a %d slot.  Every entry is an
    # exact int, so %d writes it as str() and json.dumps do, and the constants
    # are entries of the last row checked above.  A chunk is a ql range: its
    # rows come from O(1) slices of ql and of the moving columns
    cells = ["%d" if isinstance(c, range) else str(c) for c in columns]
    ql = range(1, args.ql_max + 1)
    if args.format == "json":
        moving = [c for c in columns if isinstance(c, range)]
        # what json.dumps writes for {"ql": q, "type": {"p": p, "mult": [a_1, ...]}}
        row = '{"ql": %%d, "type": {"p": %d, "mult": [%s]}}' % (p, ", ".join(cells))
        return EXIT_OK, _table_chunks(
            "[", lambda lo, hi: map(row.__mod__, zip(ql[lo:hi], *(c[lo:hi] for c in moving))),
            args.ql_max, size, ", ", "]")
    # the p lines of one ql: "%s\t1\t%d\n%s\t2\t7...".  ql fills a %s slot on
    # each line from its text, made once per row of a chunk
    row = "\n".join(f"%s\t{i}\t{cell}" for i, cell in enumerate(cells, 1))

    def rows(lo: int, hi: int) -> Iterator[str]:
        q = list(map(str, ql[lo:hi]))
        return map(row.__mod__, zip(*(s for c in columns
                                      for s in ((q, c[lo:hi]) if isinstance(c, range) else (q,)))))

    return EXIT_OK, _table_chunks("ql\ti\talpha_i\n", rows, args.ql_max, size, "\n", "\n")


# multiplicities rendered into one chunk, or one row if a row has more: a
# table's text is held one chunk at a time, whatever its --ql-max
_CHUNK_CELLS = 20_000


def _table_chunks(head: str, rows, n: int, size: int, sep: str, tail: str) -> Iterator[str]:
    """``head``, the ``n`` rows joined by ``sep``, then ``tail``.

    The rows come in chunks of ``size``: ``rows(lo, hi)`` gives rows lo to
    hi - 1 (clipped at ``n``), which it builds from slices of lazy ranges,
    so any ``n`` works, past ``sys.maxsize`` too.
    """
    yield head
    for lo in range(0, n, size):
        yield (sep if lo else "") + sep.join(rows(lo, lo + size))
    yield tail


# -------------------------------------------------------------------- oracle

# the options each oracle mode does not read
_ORACLE_UNREAD = {
    **dict.fromkeys(["heisenberg", "rank2", "ga2"], ["--i", "--base-block", "--module"]),
    "sl2s": ["--base-block", "--module"],
    "sweep": ["--i", "--module", "--fuzz", "--seed"],
    "json": ["--p", "--i", "--base-block"],
}
# model name -> [(model, expected Jordan type or None)], from the oracle
# module, the modulus p and the parsed args.  Each model is built before its
# expected type, so a bad p or --i is reported by the model's constructor.
_ORACLE_MODELS = {
    "heisenberg": lambda oracle, p, args: [(
        oracle.heisenberg_model(p),
        JordanType.from_counts(p, {**dict.fromkeys(range(1, p), 2), p: 1}),
    )],
    "rank2": lambda oracle, p, args: zip(
        oracle.abelian_rank2_models(p),
        (JordanType.block(p, 1, p), JordanType.from_counts(p, {1: p - 2, 2: 1})),
    ),
    "ga2": lambda oracle, p, args: zip(
        oracle.ga2_model(p), (JordanType.block(p, 1, p), restrict(p, 2, p).with_modulus(p))
    ),
    "sl2s": lambda oracle, p, args: zip(
        oracle.sl2s_models(p, args.i),
        (JordanType.from_counts(p, {args.i: 1, p - args.i: 1}), JordanType.block(p, p)),
    ),
    "json": lambda oracle, p, args: [
        (oracle.NilpotentModel.from_json_dict(_load_json_arg(args.module)), None)
    ],
}


def _cmd_oracle(args) -> tuple[int, str]:
    _read_options(args, f"oracle {args.model}", _ORACLE_UNREAD[args.model],
                  p=5, i=1, fuzz=0, seed=0)
    if args.fuzz < 0:
        raise ValidationError(f"--fuzz must be >= 0, got {args.fuzz}")
    if args.model == "sweep":
        # a closed form on Jordan types, so the oracle module is not loaded for it
        if args.base_block is None:
            raise ParseError("sweep needs --base-block")
        types = pi_point_sweep(JordanType.block(args.p, args.base_block))
        lines = [f"{len(types)} distinct types"]
        for jt in sorted(types, key=lambda t: (t.dimension(), t.mult)):
            lines.append(str(jt) if not jt.is_zero() else "(projective)")
        return EXIT_OK, "\n".join(lines)
    from . import oracle

    if args.model == "json" and args.module is None:
        raise ParseError("json oracle needs --module with model JSON")
    lines, checked, code = [], [], EXIT_OK
    for model, expected in _ORACLE_MODELS[args.model](oracle, args.p, args):
        got = oracle.jordan_type_of(model)
        checked.append((model, got))
        if expected is None:
            lines.append(str(got))
        elif got == expected:
            lines.append(f"{got} PASS")
        else:
            lines.append(f"{got} FAIL (expected {expected})")
            code = EXIT_VALIDATION
    if args.fuzz:
        rng = random.Random(args.seed)
        for model, got in checked:
            for _ in range(args.fuzz):
                if oracle.jordan_type_of(oracle.random_conjugate(model, rng)) != got:
                    lines.append("fuzz FAIL: conjugation changed the Jordan type")
                    return EXIT_VALIDATION, "\n".join(lines)
        lines.append(f"fuzz PASS ({args.fuzz} conjugations per model)")
    return code, "\n".join(lines)


# -------------------------------------------------------------------- quiver


def _overlay_function(window, name: str):
    from . import quiver

    if name == "ql":
        return quiver.VertexFunction.from_ql(window, lambda q: q)
    if name == "qlm1":
        return quiver.VertexFunction.from_ql(window, lambda q: q - 1)
    if name.startswith("const:"):
        try:
            c = _int(name.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad constant overlay {name!r}") from exc
        return quiver.VertexFunction.constant(window, c)
    raise ParseError(f"unknown overlay {name!r} (use ql, qlm1, or const:<c>)")


def _cmd_quiver(args) -> tuple[int, str]:
    from . import quiver
    from .trees import TreeClass

    if args.minimal_additive is not None:
        _read_options(args, "quiver --minimal-additive",
                      ["--spec", "--admissible", "--check-additive"])
        tc = TreeClass(args.minimal_additive)
        result = quiver.minimal_additive_function(tc)
        if args.format == "dot":
            return EXIT_OK, quiver.valued_graph_to_dot(result.graph, result.values)
        if args.format == "json":
            return EXIT_OK, json.dumps({
                "tree_class": str(tc),
                "values": {str(k): v for k, v in result.values.items()},
                "image_size": result.image_size,
            })
        lines = [f"{k}\t{result.values[k]}" for k in result.graph.nodes]
        size = "unbounded" if result.image_size is None else str(result.image_size)
        return EXIT_OK, "\n".join([*lines, f"image_size\t{size}"])
    if args.spec is None:
        raise ParseError("quiver needs --spec or --minimal-additive")
    if args.format != "dot":
        raise ParseError(f"--format {args.format}: windows are DOT only")
    admissible = args.admissible is not None
    _read_options(args, "quiver --admissible", ["--check-additive"] if admissible else [])
    window = quiver.build_window(_load_json_arg(args.spec))
    if admissible:
        report = quiver.check_admissible(window, args.admissible)
        if report.admissible:
            return EXIT_OK, f"admissible (tested {report.tested} vertices)"
        return EXIT_OK, f"violation at {report.violation}"
    if args.check_additive is not None:
        overlay = _overlay_function(window, args.check_additive)
        report = quiver.classify_function(overlay)
        level = "none" if report.eventual_level is None else str(report.eventual_level)
        trailer = (
            f"// subadditive={report.is_subadditive} additive={report.is_additive} "
            f"eventual_level={level}"
        )
        return EXIT_OK, "\n".join([quiver.window_to_dot(window, overlay), trailer])
    return EXIT_OK, quiver.window_to_dot(window)


# ------------------------------------------------------------------ classify


def _cmd_classify(args) -> tuple[int, str]:
    from . import classify as clf

    desc = clf.CohomologyClassDescriptor.from_json_dict(_load_json_arg(args.descriptor))
    if args.p is not None and desc.p != args.p:
        raise ValidationError(f"--p {args.p} disagrees with descriptor p={desc.p}")
    types = clf.carlson_type_set(desc)
    verdict = clf.carlson_indecomposability(desc)
    if args.format == "json":
        payload = {
            "patterns": [str(pat) for pat in types.patterns],
            "verdict": verdict.kind.value,
            "rule": verdict.rule,
            "citation": verdict.citation,
        }
        if desc.dim_total is not None:
            payload["types"] = [
                jt.to_json_dict()
                for jt in sorted(types.types, key=lambda t: t.mult)
            ]
        return EXIT_OK, json.dumps(payload)
    return EXIT_OK, " ; ".join(filter(None, [str(types), verdict.kind.value, verdict.rule]))


# -------------------------------------------------------------------- driver


def _add_common(sp):
    sp.add_argument("--p", type=_int, default=None, help="prime modulus")
    sp.add_argument("--format", choices=("tsv", "json"), default="tsv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Every call returns the same parser, so ``main`` does not rebuild the
    argparse tree per command.  The parser is shared: do not mutate it
    (no ``add_argument``, ``set_defaults`` or changed attributes).
    """
    parser = _Parser(prog="jordanquiver")
    sub = parser.add_subparsers(dest="command", required=True)

    jt = sub.add_parser(
        "jt", help="Jordan-type arithmetic", description="Jordan-type arithmetic"
    )
    jt.add_argument("op", choices=list(_JT_OPS))
    _add_common(jt)
    # an option an op does not read is refused, so every default is None
    # here and the one that applies is set by _cmd_jt
    jt.add_argument("--jt", default=None, help="Jordan type, e.g. '2[3]+[1]' (default '')")
    jt.add_argument("--m", type=_int, default=None, help="power of t (default 1)")
    jt.add_argument("--i", type=_int, default=None, help="block size (restrict)")
    jt.add_argument("--j", type=_int, default=None, help="subalgebra power (restrict, default 1)")
    jt.add_argument("--a", default=None, help="left type (dominance, default '')")
    jt.add_argument("--b", default=None, help="right type (dominance, default '')")
    jt.add_argument("--convention", choices=["image", "tail"], default=None,
                    help="dominance convention (default image)")
    jt.set_defaults(func=_cmd_jt)

    component = sub.add_parser("component", help="propagate profiles over a component")
    _add_common(component)
    component.add_argument("--spec", required=True, help="component spec JSON (inline or @file)")
    component.add_argument("--ql-max", type=_int, default=None, help="rows to table (default 5)")
    component.add_argument("--solve", action="store_true", help="recover multiplicities")
    component.set_defaults(func=_cmd_component)

    orc = sub.add_parser("oracle", help="named matrix models and cross-checks")
    orc.add_argument(
        "model", choices=["heisenberg", "rank2", "ga2", "sl2s", "sweep", "json"]
    )
    # an option a mode does not read is refused, so every default is None
    # here and the one that applies is set by _cmd_oracle
    orc.add_argument("--p", type=_int, default=None, help="prime modulus (default 5)")
    orc.add_argument("--i", type=_int, default=None, help="highest weight, sl2s (default 1)")
    orc.add_argument("--base-block", type=_int, default=None, help="base block size, sweep")
    orc.add_argument("--module", default=None, help="model JSON, json (inline or @file)")
    orc.add_argument("--fuzz", type=_int, default=None, help="random conjugations (default 0)")
    orc.add_argument("--seed", type=_int, default=None, help="seed of the conjugations (default 0)")
    orc.set_defaults(func=_cmd_oracle)

    qv = sub.add_parser("quiver", help="windows, DOT export, additive overlays")
    qv.add_argument("--format", choices=("dot", "tsv", "json"), default="dot")
    qv.add_argument("--spec", default=None, help="window spec JSON (inline or @file)")
    qv.add_argument("--check-additive", default=None, help="overlay: ql, qlm1, const:<c>")
    qv.add_argument("--admissible", type=_int, default=None, help="test <tau^N> admissibility")
    qv.add_argument(
        "--minimal-additive", default=None, help="tree class, e.g. E8_tilde"
    )
    qv.set_defaults(func=_cmd_quiver)

    cls = sub.add_parser("classify", help="kernel-module rule engine")
    _add_common(cls)
    cls.add_argument("--descriptor", required=True, help="descriptor JSON (inline or @file)")
    cls.set_defaults(func=_cmd_classify)

    # name -> subcommand parser, whose actions _plain reads a plain argv by
    parser.subcommands = sub.choices
    return parser


@functools.cache
def _plain_table(name: str):
    """What ``_plain`` reads a ``name`` command with, taken from that
    subcommand's parser on the first command that names it.

    The namespace's defaults, each action by its option string (help left
    out), the positional actions, and the dests of the required options.
    The subcommands hold only store actions, which take one value, and
    store_true flags, which take none.
    """
    sub = build_parser().subcommands[name]
    actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
    # what parse_args sets before it reads a word: each action's default,
    # the parser's own defaults for any other dest, and the command's name
    defaults = {**sub._defaults, **{a.dest: a.default for a in actions}, "command": name}
    options = {flag: a for a in actions for flag in a.option_strings}
    positionals = [a for a in actions if not a.option_strings]
    required = {a.dest for a in actions if a.required and a.option_strings}
    return defaults, options, positionals, required


def _plain_value(action: argparse.Action, text: str):
    """``text`` read by ``action``'s type and checked against its choices;
    ValueError where argparse could read it otherwise or refuse it."""
    # argparse reads "-3" as a value, and "-x" as an option
    if text.startswith("-"):
        raise ValueError(text)
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(text)
    return value


def _plain(argv: list[str]) -> argparse.Namespace | None:
    """What ``build_parser().parse_args(argv)`` gives for a plain argv, or
    None for any other.

    A plain argv is a subcommand name, then words that are each an exact
    option string or a positional not starting with "-".  Each option but
    a flag is followed by its value, which does not start with "-"; every
    value passes its action's type and choices, and every positional and
    required option is given.  Anything else ("=" forms, abbreviations,
    "-h", "--", a value such as "-3", an unknown word, a bad int or
    choice, a missing option) is left to argparse.
    """
    if not argv or argv[0] not in build_parser().subcommands:
        return None
    defaults, options, positionals, required = _plain_table(argv[0])
    values, seen, words = dict(defaults), set(), []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            action = options.get(token)
            if action is None:
                # a positional; _plain_value refuses it if it starts with "-"
                words.append(token)
                continue
            # a missing value reads as "-", which _plain_value refuses too
            values[action.dest] = (action.const if action.nargs == 0
                                   else _plain_value(action, next(tokens, "-")))
            seen.add(action.dest)
        if len(words) != len(positionals) or not required <= seen:
            return None
        for action, word in zip(positionals, words):
            values[action.dest] = _plain_value(action, word)
    # what argparse turns into a usage error
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` gives, parsing argv once.

    A plain argv is read by ``_plain``; argparse parses every other one,
    and so writes every help text, usage line and error.
    """
    args = _plain(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Run one command and write its text to stdout; the only stdout writer."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        code, text = args.func(args)
        # a table comes as chunks, each written as it is made; no copy of
        # the text is made to add "\n"
        last = ""
        for last in [text] if isinstance(text, str) else text:
            sys.stdout.write(last)
        if not last.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`), which is not an input error.
        # Point stdout at devnull so the interpreter's final flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
