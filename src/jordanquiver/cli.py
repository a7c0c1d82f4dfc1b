"""Command-line surface.

Subcommands: jt (Jordan-type arithmetic), component (propagation tables
and the inverse multiplicity problem), oracle (named matrix models with
cross-checks), quiver (window construction, DOT export, additivity
overlays), classify (rule engine for kernel modules of cohomology
classes).

Exit codes: 0 success, 2 validation failure (mathematically inconsistent
input), 3 parse error (malformed command line, type string, or JSON).
Identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from pathlib import Path

from . import classify as clf
from . import components as comp
from . import oracle, quiver
from .errors import ParseError, ValidationError
from .jtypes import DominanceConvention, JordanType, dominance_compare, restrict, restrict_type

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


def _emit(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


# ------------------------------------------------------------------------ jt


def _cmd_jt(args) -> int:
    p = args.p
    op = args.op
    if op == "dim":
        _emit(str(JordanType.from_string(p, args.jt).dimension()))
    elif op == "ker":
        _emit(str(JordanType.from_string(p, args.jt).ker_dim(args.m)))
    elif op == "image":
        _emit(str(JordanType.from_string(p, args.jt).image_dim(args.m)))
    elif op == "psi":
        _emit(str(JordanType.from_string(p, args.jt).psi(args.m)))
    elif op == "stable":
        _emit(str(JordanType.from_string(p, args.jt).stable_part()))
    elif op == "syzygy":
        _emit(str(JordanType.from_string(p, args.jt).syzygy()))
    elif op == "restrict":
        if args.i is not None:
            result = restrict(args.i, args.j, p)
        else:
            result = restrict_type(JordanType.from_string(p, args.jt), args.j)
        if args.format == "json":
            _emit(json.dumps(result.to_json_dict()))
        else:
            _emit(str(result))
        return EXIT_OK
    elif op == "dominance":
        a = JordanType.from_string(p, args.a)
        b = JordanType.from_string(p, args.b)
        convention = (
            DominanceConvention.TAIL_DIM
            if args.convention == "tail"
            else DominanceConvention.IMAGE_DIM
        )
        _emit(dominance_compare(a, b, convention).value)
    else:
        raise ParseError(f"unknown jt operation {op!r}")
    return EXIT_OK


# ----------------------------------------------------------------- component


def _cmd_component(args) -> int:
    spec = _load_json_arg(args.spec)
    profile = comp.profile_from_json(spec)
    if args.p is not None and profile.p != args.p:
        raise ValidationError(f"--p {args.p} disagrees with spec p={profile.p}")
    if args.solve:
        if not isinstance(profile, comp.TubeProfile):
            raise ValidationError("--solve applies to tube profiles")
        result = comp.solve_multiplicities(profile)
        if args.format == "json":
            _emit(
                json.dumps(
                    {
                        "multiplicities": list(result.multiplicities),
                        "locally_split": result.locally_split,
                        "note": result.note,
                    }
                )
            )
        else:
            _emit("n = (" + ", ".join(map(str, result.multiplicities)) + ")")
            if result.note:
                _emit(result.note)
        return EXIT_OK
    if args.ql_max < 1:
        raise ValidationError(f"--ql-max must be >= 1, got {args.ql_max}")
    rows = comp.profile_rows(profile, args.ql_max)
    p = profile.p
    if args.format == "json":
        _emit(json.dumps([{"ql": q, "type": {"p": p, "mult": m}} for q, m in enumerate(rows, 1)]))
    else:
        columns = [f"\t{i}\t" for i in range(1, p + 1)]
        lines = [f"{q}{c}{a}" for q, m in enumerate(rows, 1) for c, a in zip(columns, m)]
        _emit("\n".join(["ql\ti\talpha_i", *lines]))
    return EXIT_OK


# -------------------------------------------------------------------- oracle


def _oracle_report(model, expected: JordanType) -> str:
    got = oracle.jordan_type_of(model)
    status = "PASS" if got == expected else f"FAIL (expected {expected})"
    return f"{got} {status}"


def _cmd_oracle(args) -> int:
    p = args.p if args.p is not None else 5
    name = args.model
    lines = []
    if name == "heisenberg":
        model = oracle.heisenberg_model(p)
        expected = JordanType.from_counts(p, {**{i: 2 for i in range(1, p)}, p: 1})
        lines.append(_oracle_report(model, expected))
        models = [model]
    elif name == "rank2":
        alpha, beta = oracle.abelian_rank2_models(p)
        lines.append(_oracle_report(alpha, JordanType.block(p, 1, p)))
        lines.append(_oracle_report(beta, JordanType.from_counts(p, {1: p - 2, 2: 1})))
        models = [alpha, beta]
    elif name == "ga2":
        alpha, beta = oracle.ga2_model(p)
        lines.append(_oracle_report(alpha, JordanType.block(p, 1, p)))
        expected = restrict(p, 2, p).with_modulus(p)
        lines.append(_oracle_report(beta, expected))
        models = [alpha, beta]
    elif name == "sl2s":
        i = args.i if args.i is not None else 1
        e_model, f_model = oracle.sl2s_models(p, i)
        lines.append(_oracle_report(e_model, JordanType.from_counts(p, {i: 1, p - i: 1})))
        lines.append(_oracle_report(f_model, JordanType.block(p, p)))
        models = [e_model, f_model]
    elif name == "sweep":
        if args.base_block is None:
            raise ParseError("sweep needs --base-block")
        base = JordanType.block(p, args.base_block)
        types = oracle.pi_point_sweep(base)
        lines.append(f"{len(types)} distinct types")
        for jt in sorted(types, key=lambda t: (t.dimension(), t.mult)):
            lines.append(str(jt) if not jt.is_zero() else "(projective)")
        models = []
    elif name == "json":
        if args.module is None:
            raise ParseError("json oracle needs --module with model JSON")
        model = oracle.NilpotentModel.from_json_dict(_load_json_arg(args.module))
        lines.append(str(oracle.jordan_type_of(model)))
        models = [model]
    else:
        raise ParseError(f"unknown model {name!r}")
    if args.fuzz and models:
        rng = random.Random(args.seed)
        for model in models:
            jt = oracle.jordan_type_of(model)
            for _ in range(args.fuzz):
                if oracle.jordan_type_of(oracle.random_conjugate(model, rng)) != jt:
                    lines.append("fuzz FAIL: conjugation changed the Jordan type")
                    _emit("\n".join(lines))
                    return EXIT_VALIDATION
        lines.append(f"fuzz PASS ({args.fuzz} conjugations per model)")
    _emit("\n".join(lines))
    return EXIT_VALIDATION if any(" FAIL " in line for line in lines) else EXIT_OK


# -------------------------------------------------------------------- quiver


def _overlay_function(window, name: str):
    if name == "ql":
        return quiver.VertexFunction.from_ql(window, lambda q: q)
    if name == "qlm1":
        return quiver.VertexFunction.from_ql(window, lambda q: q - 1)
    if name.startswith("const:"):
        text = name.split(":", 1)[1]
        try:
            if not re.fullmatch(r"-?[0-9]+", text):
                # int() would also take "1_0", " +2" and non-ASCII digits
                raise ValueError(text)
            c = int(text)
        except ValueError as exc:
            raise ParseError(f"bad constant overlay {name!r}") from exc
        return quiver.VertexFunction.constant(window, c)
    raise ParseError(f"unknown overlay {name!r} (use ql, qlm1, or const:<c>)")


def _cmd_quiver(args) -> int:
    if args.minimal_additive:
        tc = quiver.TreeClass.parse(args.minimal_additive)
        result = quiver.minimal_additive_function(tc)
        if args.format == "dot":
            _emit(quiver.valued_graph_to_dot(result.graph, result.values))
        elif args.format == "json":
            _emit(
                json.dumps(
                    {
                        "tree_class": str(tc),
                        "values": {str(k): v for k, v in result.values.items()},
                        "image_size": result.image_size,
                    }
                )
            )
        else:
            lines = [f"{k}\t{result.values[k]}" for k in result.graph.nodes]
            size = "unbounded" if result.image_size is None else str(result.image_size)
            lines.append(f"image_size\t{size}")
            _emit("\n".join(lines))
        return EXIT_OK
    if args.spec is None:
        raise ParseError("quiver needs --spec or --minimal-additive")
    window = quiver.build_window(_load_json_arg(args.spec))
    if args.admissible is not None:
        report = quiver.check_admissible(window, args.admissible)
        if report.admissible:
            _emit(f"admissible (tested {report.tested} vertices)")
        else:
            _emit(f"violation at {report.violation}")
        return EXIT_OK
    overlay = None
    if args.check_additive:
        overlay = _overlay_function(window, args.check_additive)
        report = quiver.classify_function(overlay)
        _emit(quiver.window_to_dot(window, overlay))
        level = "none" if report.eventual_level is None else str(report.eventual_level)
        _emit(
            f"// subadditive={report.is_subadditive} additive={report.is_additive} "
            f"eventual_level={level}"
        )
        return EXIT_OK
    _emit(quiver.window_to_dot(window))
    return EXIT_OK


# ------------------------------------------------------------------ classify


def _cmd_classify(args) -> int:
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
        _emit(json.dumps(payload))
    else:
        parts = [str(types), verdict.kind.value]
        if verdict.rule:
            parts.append(verdict.rule)
        _emit(" ; ".join(parts))
    return EXIT_OK


# -------------------------------------------------------------------- driver


def _add_common(sp, default_format="tsv", formats=("tsv", "json")):
    sp.add_argument("--p", type=int, default=None, help="prime modulus")
    sp.add_argument("--format", choices=formats, default=default_format)


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
    jt.add_argument(
        "op",
        choices=["dim", "ker", "image", "psi", "stable", "syzygy", "restrict", "dominance"],
    )
    _add_common(jt)
    jt.add_argument("--jt", default="", help="Jordan type, e.g. '2[3]+[1]'")
    jt.add_argument("--m", type=int, default=1, help="power of t")
    jt.add_argument("--i", type=int, default=None, help="block size (restrict)")
    jt.add_argument("--j", type=int, default=1, help="subalgebra power (restrict)")
    jt.add_argument("--a", default="", help="left type (dominance)")
    jt.add_argument("--b", default="", help="right type (dominance)")
    jt.add_argument("--convention", choices=["image", "tail"], default="image")
    jt.set_defaults(func=_cmd_jt, needs_p=True)

    component = sub.add_parser("component", help="propagate profiles over a component")
    _add_common(component)
    component.add_argument("--spec", required=True, help="component spec JSON (inline or @file)")
    component.add_argument("--ql-max", type=int, default=5)
    component.add_argument("--solve", action="store_true", help="recover multiplicities")
    component.set_defaults(func=_cmd_component, needs_p=False)

    orc = sub.add_parser("oracle", help="named matrix models and cross-checks")
    orc.add_argument(
        "model", choices=["heisenberg", "rank2", "ga2", "sl2s", "sweep", "json"]
    )
    _add_common(orc)
    orc.add_argument("--i", type=int, default=None, help="highest-weight parameter")
    orc.add_argument("--base-block", type=int, default=None, help="sweep base block size")
    orc.add_argument("--module", default=None, help="model JSON (inline or @file)")
    orc.add_argument("--fuzz", type=int, default=0, help="random conjugations to run")
    orc.add_argument("--seed", type=int, default=0)
    orc.set_defaults(func=_cmd_oracle, needs_p=False)

    qv = sub.add_parser("quiver", help="windows, DOT export, additive overlays")
    _add_common(qv, default_format="dot", formats=("dot", "tsv", "json"))
    qv.add_argument("--spec", default=None, help="window spec JSON (inline or @file)")
    qv.add_argument("--check-additive", default=None, help="overlay: ql, qlm1, const:<c>")
    qv.add_argument("--admissible", type=int, default=None, help="test <tau^N> admissibility")
    qv.add_argument(
        "--minimal-additive", default=None, help="tree class, e.g. E8_tilde"
    )
    qv.set_defaults(func=_cmd_quiver, needs_p=False)

    cls = sub.add_parser("classify", help="kernel-module rule engine")
    _add_common(cls)
    cls.add_argument("--descriptor", required=True, help="descriptor JSON (inline or @file)")
    cls.set_defaults(func=_cmd_classify, needs_p=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "needs_p", False) and args.p is None:
            raise ParseError("this command requires --p")
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
