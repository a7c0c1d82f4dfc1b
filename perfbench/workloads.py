"""The four seeded workloads and the checks on their outputs.

Each workload is an endless stream of rounds.  A round draws one op of
every kind the workload mixes, in fixed proportions, from the seeded
generator and shuffles them, so every seed gives the same mix and the
seed moves only sizes, parameters and order.  Expected outputs come from
``derive``, never from the code under test.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Callable

import derive as d


@dataclass
class Op:
    """One closed-loop operation.

    ``argv`` ops call ``jordanquiver.cli.main``; ``call`` ops call the
    library directly and return (exit code, text).  A well-formed op
    passes when its exit code is ``rc`` and ``check(stdout)`` holds.  A
    malformed op passes when it exits 2 or 3 with a message on stderr and
    no traceback.
    """

    kind: str
    argv: list | None = None
    call: Callable | None = None
    check: Callable[[str], bool] | None = None
    rc: int = 0
    malformed: bool = False


def _lines(out: str) -> list:
    return out.rstrip("\n").split("\n")


def _equals(expected: str) -> Callable[[str], bool]:
    return lambda out: out == expected


def _json_check(pred: Callable) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        try:
            return pred(json.loads(out))
        except (ValueError, KeyError, TypeError):
            return False

    return check


def _js(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------- component


def tube_spec(rng: random.Random, p: int, include_p: bool, solvable: bool = False):
    """A tube spec whose profile stays in N_0: seed, multiplicities n, spec JSON.

    With ``solvable`` and include_p off, n_{p-1} = 0, so padding the
    unasserted p-th intercept with 0 loses nothing and --solve recovers n.
    """
    while True:
        n = [rng.randint(0, 2) for _ in range(p - 1)]
        if solvable and not include_p:
            n[-1] = 0
        if any(n):
            break
    t = d.stencil(n + [0])
    last = p if include_p else p - 1
    seed = []
    for i in range(p):
        if i < last:
            # slope s >= 0 and s + t >= 0 keep s*ql + t >= 0 for every ql >= 1
            seed.append(max(0, -t[i]) + rng.randint(0, 2) + t[i])
        else:
            seed.append(rng.randint(0, 2))
    spec = {"kind": "tube", "p": p, "seed": {"p": p, "mult": seed},
            "multiplicities": n, "include_p": include_p}
    return seed, n, spec


def component_op(rng, p, include_p, ql_max, fmt, kind="component") -> Op:
    seed, n, spec = tube_spec(rng, p, include_p)
    slopes, intercepts = d.tube_affine(seed, n)

    def check(out: str) -> bool:
        rows = d.tube_rows(slopes, intercepts, include_p, ql_max)
        if fmt == "tsv":
            return out == d.rows_tsv(rows)
        try:
            return json.loads(out) == d.rows_json(rows, p)
        except ValueError:
            return False

    argv = ["component", "--spec", _js(spec), "--ql-max", str(ql_max), "--format", fmt]
    return Op(kind, argv=argv, check=check)


def solve_op(rng, p, include_p, fmt) -> Op:
    _, n, spec = tube_spec(rng, p, include_p, solvable=True)
    argv = ["component", "--spec", _js(spec), "--solve", "--format", fmt]
    if fmt == "json":
        check = _json_check(lambda o: o["multiplicities"] == n and o["locally_split"] is False)
    else:
        head = "n = (" + ", ".join(map(str, n)) + ")"
        # without include_p the solver adds a note line about the padded p-th intercept
        check = lambda out: _lines(out)[0] == head and len(_lines(out)) == (1 if include_p else 2)
    return Op("component.solve", argv=argv, check=check)


def split_op(rng, p, ql_max, fmt) -> Op:
    dvec = d.random_type(rng, p - 1, top=2)
    spec = {"kind": "split", "p": p, "d": dvec,
            "tree_class": rng.choice(("A_inf", "D_inf", "E6_tilde"))}
    rows = [[x * q for x in dvec] + [0] for q in range(1, ql_max + 1)]
    check = (_equals(d.rows_tsv(rows)) if fmt == "tsv"
             else _json_check(lambda o: o == d.rows_json(rows, p)))
    argv = ["component", "--spec", _js(spec), "--ql-max", str(ql_max), "--format", fmt]
    return Op("component.split", argv=argv, check=check)


def tube_table_round(rng: random.Random) -> list:
    ops = [
        component_op(rng, p, include_p, rng.randint(8000, 12000), fmt)
        for p in (5, 7, 11)
        for include_p in (True, False)
        for fmt in ("tsv", "json")
    ]
    ops += [solve_op(rng, rng.choice((5, 7, 11)), rng.random() < 0.5, fmt)
            for fmt in ("tsv", "json")]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- roundtrip


def _roundtrip(lib, p, seed_mult, n):
    seed = lib.jtypes.JordanType(p, tuple(seed_mult))
    try:
        profile = lib.components.tube_profile_from_seed(seed, n, include_p=True)
    except lib.components.NegativeMultiplicityError as err:
        return 2, f"{err.index} {err.ql} {err.value}"
    return 0, " ".join(map(str, lib.components.solve_multiplicities(profile).multiplicities))


def roundtrip_op(rng, p) -> Op:
    seed = [rng.randint(0, 3) for _ in range(p)]
    while True:
        n = [rng.randint(0, 2) for _ in range(p - 1)]
        if any(n):
            break
    neg = d.first_negative(*d.tube_affine(seed, n), include_p=True)
    if neg is None:
        expected, rc = " ".join(map(str, n)), 0
    else:
        expected, rc = " ".join(map(str, neg)), 2
    return Op(f"roundtrip.p{p}", call=lambda lib: _roundtrip(lib, p, seed, n),
              check=_equals(expected), rc=rc)


def tube_roundtrip_round(rng: random.Random) -> list:
    # the criterion-09 grid ranges (seed entries 0..3, n entries 0..2),
    # sampled at p = 3, 5 and at the larger p = 7, 11
    ops = [roundtrip_op(rng, p) for p in (3, 5, 7, 11) for _ in range(256)]
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------- oracle


def _report(*types) -> str:
    return "".join(f"{d.type_str(t)} PASS\n" for t in types)


def named_model_op(rng, model: str, p: int, fuzz: int = 0) -> Op:
    argv = ["oracle", model, "--p", str(p)]
    if model == "heisenberg":
        expected = _report(d.heisenberg_type(p))
    elif model == "sl2s":
        i = rng.randint(1, p - 1)
        argv += ["--i", str(i)]
        expected = _report(d.counts(p, {i: 1, p - i: 1}), d.counts(p, {p: 1}))
    elif model == "ga2":
        # u_0 acts as zero; u_0 + u_1^2 is the square of the full shift on p dims
        expected = _report(d.counts(p, {1: p}), d.counts(p, {(p + 1) // 2: 1, p // 2: 1}))
    else:  # rank2: zero operator, and the map e_0 -> e_{p-1}
        expected = _report(d.counts(p, {1: p}), d.counts(p, {1: p - 2, 2: 1}))
    kind = f"oracle.{model}"
    if fuzz:
        argv += ["--fuzz", str(fuzz), "--seed", str(rng.randrange(1 << 30))]
        expected += f"fuzz PASS ({fuzz} conjugations per model)\n"
        kind += ".fuzz"
    return Op(kind, argv=argv, check=_equals(expected))


def dense_model_op(rng, p: int) -> Op:
    # dimension 4p with one block [p]: the rank sequence then runs to N^p,
    # so every seed costs about the same and only the type varies
    mult = d.random_partition(rng, p, 3 * p)
    mult[p - 1] += 1
    module = d.conjugated_model(rng, p, mult)
    argv = ["oracle", "json", "--module", _js(module)]
    return Op("oracle.json", argv=argv, check=_equals(d.type_str(mult) + "\n"))


def oracle_round(rng: random.Random) -> list:
    # Nine ops cost less than the dense p=7 models and ga2 p=23 (about 20-25
    # ms on a 2-vCPU Xeon) and nine cost more, so the median op falls inside
    # that cluster and the p90 between the two dense p=13 models, not on a
    # gap between clusters where a small shift moves the percentile a lot.
    ops = [named_model_op(rng, "heisenberg", p) for p in (5, 7, 11)]
    ops += [named_model_op(rng, "sl2s", p) for p in (5, 11, 13, 19, 31)]
    ops += [named_model_op(rng, "ga2", p) for p in (5, 11, 23, 29)]
    ops += [named_model_op(rng, "rank2", p) for p in (7, 31)]
    ops += [dense_model_op(rng, p) for p in (5, 7, 7, 7, 7, 11, 13, 13)]
    ops.append(named_model_op(rng, "heisenberg", 5, fuzz=2))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------ cli-mix


def _jt_ops(rng) -> list:
    p = rng.choice((3, 5, 7, 11))
    a = d.random_type(rng, p)
    s = d.type_str(a)
    m = rng.randint(1, p - 1)
    j = rng.randint(1, p)
    i = rng.randint(1, p)
    b = d.random_partition(rng, p, d.dimension(a))
    convention = rng.choice(("image", "tail"))
    fmt = rng.choice(("tsv", "json"))
    restricted = d.restrict_type(a, j)
    restricted_out = (json.dumps({"p": len(restricted), "mult": restricted})
                      if fmt == "json" else d.type_str(restricted))
    table = [
        ("dim", [], d.dimension(a)),
        ("ker", ["--m", str(m)], d.ker_dim(a, m)),
        ("image", ["--m", str(m)], d.image_dim(a, m)),
        ("psi", ["--m", str(m)], d.psi(a, m)),
        ("stable", [], d.type_str(d.stable(a))),
        ("syzygy", [], d.type_str(d.syzygy(a))),
        ("restrict", ["--j", str(j), "--format", fmt], restricted_out),
    ]
    ops = []
    for op, extra, expected in table:
        argv = ["jt", op, "--p", str(p), "--jt", s] + extra
        ops.append(Op(f"jt.{op}", argv=argv, check=_equals(f"{expected}\n")))
    ops.append(Op("jt.restrict", argv=["jt", "restrict", "--p", str(p), "--i", str(i), "--j", str(j)],
                  check=_equals(d.type_str(d.restrict_block(i, j, p)) + "\n")))
    ops.append(Op("jt.dominance",
                  argv=["jt", "dominance", "--p", str(p), "--a", s, "--b", d.type_str(b),
                        "--convention", convention],
                  check=_equals(d.dominance(a, b, convention) + "\n")))
    return ops


_TRAILER = re.compile(r"// subadditive=(True|False) additive=(True|False) eventual_level=(\d+|none)")
_ADMISSIBLE = re.compile(r"admissible \(tested \d+ vertices\)|violation at .+")
TREE_CLASSES = ("A_inf", "A_inf_inf", "A12_tilde", "D_inf", "E6_tilde", "E7_tilde", "E8_tilde")


def _window(rng) -> tuple[dict, int, int]:
    """A window spec with its vertex and translation-arrow counts."""
    if rng.random() < 0.5:
        rank, max_ql = rng.randint(1, 4), rng.randint(3, 8)
        return {"kind": "tube", "rank": rank, "max_ql": max_ql}, rank * max_ql, rank * max_ql
    width, max_ql = rng.randint(3, 6), rng.randint(3, 6)
    spec = {"kind": "zt", "max_ql": max_ql, "n_min": 0, "n_max": width - 1}
    return spec, width * max_ql, (width - 1) * max_ql


def _dot_check(vertices: int, tau: int, trailer: bool) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        lines = _lines(out)
        if trailer:
            if not _TRAILER.fullmatch(lines.pop()):
                return False
        return (lines[0] == "digraph window {" and lines[-1] == "}"
                and sum('[label="(' in x for x in lines) == vertices
                and sum("[style=dashed]" in x for x in lines) == tau)
    return check


def _quiver_ops(rng) -> list:
    ops = []
    for _ in range(2):
        spec, vertices, tau = _window(rng)
        ops.append(Op("quiver.dot", argv=["quiver", "--spec", _js(spec)],
                      check=_dot_check(vertices, tau, False)))
        overlay = rng.choice(("ql", "qlm1", f"const:{rng.randint(1, 3)}"))
        ops.append(Op("quiver.check_additive",
                      argv=["quiver", "--spec", _js(spec), "--check-additive", overlay],
                      check=_dot_check(vertices, tau, True)))
        ops.append(Op("quiver.admissible",
                      argv=["quiver", "--spec", _js(spec), "--admissible", str(rng.randint(0, 4))],
                      check=lambda out: bool(_ADMISSIBLE.fullmatch(out.rstrip("\n")))))
    for tc in TREE_CLASSES + (f"D{rng.randint(4, 8)}_tilde",):
        for fmt in ("dot", "tsv", "json"):
            if fmt == "json":
                check = _json_check(lambda o, tc=tc: o["tree_class"] == tc and
                                    all(v >= 1 for v in o["values"].values()))
            elif fmt == "tsv":
                check = lambda out: _lines(out)[-1].startswith("image_size\t")
            else:
                check = lambda out: out.startswith("graph orbits {\n") and out.endswith("}\n")
            ops.append(Op("quiver.minimal_additive",
                          argv=["quiver", "--minimal-additive", tc, "--format", fmt], check=check))
    return ops


_VERDICTS = ("Indecomposable", "TwoEndotrivialSummands", "Decomposable", "Unknown")


def _descriptor(rng) -> dict:
    p = rng.choice((3, 5, 7, 11))
    degree = rng.randint(1, 6)
    nilpotent = rng.random() < 0.5
    odd = rng.choice(("mixed", "all-vanish", "none-vanish"))
    desc = {"p": p, "degree": degree, "nilpotent": nilpotent, "odd_pullback": odd,
            "ambient": {"srk": rng.randint(0, 3), "is_finite_group": rng.random() < 0.5,
                        "equidim": True, "variety_dim": rng.randint(1, 6),
                        "ambient_dim": rng.randint(1, 8)}}
    k = rng.randint(1, 4)
    # a total dimension consistent with every predicted pattern, where one exists
    if degree % 2 == 0:
        desc["dim_total"] = k * p if not nilpotent else p + k * p
    elif odd == "all-vanish":
        desc["dim_total"] = 2 * (p - 1) + k * p
    elif odd == "none-vanish":
        desc["dim_total"] = p - 2 + k * p
    return desc


def _classify_op(rng) -> Op:
    fmt = rng.choice(("tsv", "json"))
    if fmt == "json":
        check = _json_check(lambda o: o["verdict"] in _VERDICTS and len(o["patterns"]) >= 1)
    else:
        check = lambda out: len(_lines(out)) == 1 and out.split(" ; ")[1].strip() in _VERDICTS
    return Op("classify", argv=["classify", "--descriptor", _js(_descriptor(rng)), "--format", fmt],
              check=check)


def _sweep_check(out: str) -> bool:
    lines = _lines(out)
    m = re.fullmatch(r"(\d+) distinct types", lines[0])
    return bool(m) and int(m.group(1)) == len(lines) - 1


_HEIS_SPEC = {"kind": "tube", "p": 3, "seed": {"p": 3, "mult": [2, 2, 1]},
              "multiplicities": [1, 0], "include_p": True}

# Inputs whose correct outcome is exit 2 or 3 with a message and no
# traceback.  The first nine are the open input-boundary defects: each
# currently crashes or succeeds silently, and counts as a failed op until
# the CLI handles it.
MALFORMED = [
    ["classify", "--descriptor",
     '{"p":5,"degree":3,"odd_pullback":"all-vanish","ambient":{"srk":"3"}}'],
    ["component", "--spec", '{"kind":"tube","p":1e400,"slopes":[0],"intercepts":[0]}'],
    ["component", "--spec", '{"kind":"split","p":3,"d":[1,0],"tree_class":5}'],
    ["oracle", "heisenberg", "--p", "4"],
    ["oracle", "sl2s", "--p", "9"],
    ["classify", "--descriptor", '{"p":4,"degree":2}'],
    ["component", "--spec",
     '{"kind":"tube","p":3,"seed":{"p":3,"mult":[2.7,1,0]},"multiplicities":[1,0]}'],
    ["oracle", "json", "--module", '{"p":5,"dim":-1,"entries":[]}'],
    ["component", "--spec", _js(_HEIS_SPEC), "--ql-max", "-3"],
    ["jt", "dim", "--p", "5", "--jt", "2[3"],
    ["jt", "dim", "--jt", "[2]"],
    ["component", "--spec", "{bad json"],
    ["jt", "dominance", "--p", "5", "--a", "[3]", "--b", "[2]"],
    ["quiver", "--spec", '{"kind":"tube","rank":2,"max_ql":4}', "--check-additive", "sideways"],
    ["quiver", "--minimal-additive", "Q9"],
    ["oracle", "json", "--module", '{"p":5,"dim":2,"entries":[[0,1,1],[1,0,1]]}'],
    ["component", "--spec",
     '{"kind":"tube","p":3,"seed":{"p":3,"mult":[0,0,0]},"multiplicities":[1,0]}'],
    ["frobnicate"],
]


def cli_mix_round(rng: random.Random) -> list:
    ops = _jt_ops(rng) + _jt_ops(rng) + _quiver_ops(rng)
    ops += [_classify_op(rng) for _ in range(8)]
    ops += [component_op(rng, p, rng.random() < 0.5, rng.randint(3, 8), fmt, "component.small")
            for p, fmt in ((3, "tsv"), (5, "json"))]
    ops += [split_op(rng, p, rng.randint(3, 8), fmt) for p, fmt in ((3, "json"), (5, "tsv"))]
    ops += [named_model_op(rng, model, rng.choice((3, 5, 7))) for model in ("sl2s", "ga2", "rank2")]
    p = rng.choice((3, 5, 7))
    ops.append(Op("oracle.sweep", argv=["oracle", "sweep", "--p", str(p),
                                        "--base-block", str(rng.randint(1, p))], check=_sweep_check))
    ops += [Op("malformed", argv=list(argv), malformed=True) for argv in MALFORMED]
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable[[random.Random], list]
    trace_rounds: int  # rounds in the traced run, about 1-2 s untraced


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tube-table", tube_table_round, 1),
        Workload("tube-roundtrip", tube_roundtrip_round, 6),
        Workload("oracle-crosscheck", oracle_round, 1),
        Workload("cli-mix", cli_mix_round, 10),
    )
}
