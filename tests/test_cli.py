import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanquiver.cli import (
    _CHUNK_CELLS, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, _int, _parse, _plain, build_parser, main,
)
from jordanquiver.classify import (
    CohomologyClassDescriptor, VerdictKind, carlson_indecomposability,
)
from jordanquiver.components import (
    TubeProfile,
    apply_a,
    profile_from_json,
    split_propagate,
)
from jordanquiver.errors import ParseError
from jordanquiver.jtypes import JordanType


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------------ jt


def test_jt_restrict(capsys):
    code, out, _ = run(capsys, "jt", "restrict", "--p", "5", "--i", "5", "--j", "2")
    assert code == EXIT_OK and out == "[3]+[2]\n"


def test_jt_restrict_whole_type(capsys):
    code, out, _ = run(capsys, "jt", "restrict", "--p", "5", "--jt", "[5]+[4]", "--j", "2")
    assert code == EXIT_OK and out == "[3]+3[2]\n"


def test_jt_dominance(capsys):
    code, out, _ = run(
        capsys, "jt", "dominance", "--p", "3", "--a", "2[3]+[1]", "--b", "[3]+2[2]"
    )
    assert code == EXIT_OK and out == "Greater\n"
    code, out, _ = run(
        capsys, "jt", "dominance", "--p", "3", "--a", "2[3]+[1]", "--b", "[3]+2[2]",
        "--convention", "tail",
    )
    assert code == EXIT_OK and out == "Incomparable\n"


def test_jt_dim_empty(capsys):
    code, out, _ = run(capsys, "jt", "dim", "--p", "5", "--jt", "")
    assert code == EXIT_OK and out == "0\n"


def test_jt_ker_image_psi_syzygy(capsys):
    assert run(capsys, "jt", "ker", "--p", "3", "--jt", "2[2]+[3]", "--m", "1")[1] == "3\n"
    assert run(capsys, "jt", "image", "--p", "3", "--jt", "[3]+[1]", "--m", "1")[1] == "2\n"
    assert run(capsys, "jt", "psi", "--p", "5", "--jt", "[1]+[4]+3[5]", "--m", "4")[1] == "5\n"
    assert run(capsys, "jt", "syzygy", "--p", "5", "--jt", "[2]")[1] == "[3]\n"
    assert run(capsys, "jt", "stable", "--p", "5", "--jt", "[1]+2[5]")[1] == "[1]\n"


def test_jt_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "jt", "dim", "--p", "5", "--jt", "2[3]+oops")
    assert code == EXIT_PARSE and "parse error" in err


def test_jt_validation_error_exit_code(capsys):
    code, _, err = run(capsys, "jt", "dominance", "--p", "5", "--a", "[2]", "--b", "[3]")
    assert code == EXIT_VALIDATION and "validation error" in err


def test_jt_requires_p(capsys):
    code, _, err = run(capsys, "jt", "dim", "--jt", "[2]")
    assert code == EXIT_PARSE


def test_usage_error_is_parse_error(capsys):
    code, _, _ = run(capsys, "jt", "frobnicate", "--p", "5")
    assert code == EXIT_PARSE
    code, _, _ = run(capsys, "component", "--spec", "{}", "--jobs", "2")
    assert code == EXIT_PARSE


# per subcommand, an argv that runs with exit 0 without the integer option
_VALID_ARGV = {
    "jt": ["jt", "dim", "--p", "5", "--jt", "[1]"],
    "component": ["component", "--spec", '{"kind":"split","p":3,"d":[1,0]}'],
    "oracle": ["oracle", "heisenberg"],
    "quiver": ["quiver", "--spec", '{"kind":"tube","rank":1,"max_ql":3}'],
    "classify": ["classify", "--descriptor", '{"p":5,"degree":4}'],
}
# every option read by the strict integer reader, found in the parser itself
INTEGER_OPTIONS = [
    (name, flag)
    for name, sub in next(a for a in build_parser()._actions if a.dest == "command").choices.items()
    for action in sub._actions if action.type is _int
    for flag in action.option_strings
]


@pytest.mark.parametrize("text", ["1_1", "+5", " 5", "５", "٣"],
                         ids=["underscore", "plus", "space", "fullwidth", "arabic-indic"])
@pytest.mark.parametrize("command,flag", INTEGER_OPTIONS)
def test_integer_options_take_plain_decimal_only(capsys, command, flag, text):
    # int() alone would read these as 11, 5, 5, 5 and 3
    assert run(capsys, *_VALID_ARGV[command])[0] == EXIT_OK
    code, out, err = run(capsys, *_VALID_ARGV[command], flag, text)
    assert (code, out) == (EXIT_PARSE, "")
    assert err.endswith(f"parse error: argument {flag}: invalid int value: {text!r}\n")


def test_every_integer_option_is_read_strictly(capsys):
    assert len(INTEGER_OPTIONS) == 13
    assert {flag for _, flag in INTEGER_OPTIONS} == {
        "--p", "--m", "--i", "--j", "--ql-max", "--base-block", "--fuzz", "--seed", "--admissible",
    }
    # a negative value is plain decimal, and is then checked by its command
    code, out, err = run(capsys, *_VALID_ARGV["component"], "--ql-max", "-1")
    assert (code, out, err) == (EXIT_VALIDATION, "", "validation error: --ql-max must be >= 1, got -1\n")


@pytest.mark.parametrize("flags,text,term,position", [
    (("--jt",), "[５]", "[５]", 0),
    (("--jt",), "[٣]", "[٣]", 0),
    (("--jt",), "２[3]", "２[3]", 0),
    (("--jt",), "[1]+٢[2]", "٢[2]", 4),
    (("--a", "--b"), "[٣]", "[٣]", 0),
    (("--a", "--b"), "2[3]+[\U0001d7d1]", "[\U0001d7d1]", 5),
    (("--b", "--a"), "१[1]", "१[1]", 0),
    (("--b", "--a"), "[1]+[３]", "[３]", 4),
])
def test_jordan_types_take_ascii_digits_only(capsys, flags, text, term, position):
    # \d alone would match any Unicode digit and read "[５]" as [5]
    op = "dim" if flags == ("--jt",) else "dominance"
    argv = ["jt", op, "--p", "5", flags[0], text]
    if len(flags) == 2:
        argv += [flags[1], "[1]"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"parse error: bad Jordan-type term {term!r} at position {position}\n"


@pytest.mark.parametrize("text,term,position", [
    ("2\u3000[3]", "2\u3000[3]", 0),
    ("[3]\u3000", "[3]\u3000", 0),
    ("\u3000", "\u3000", 0),
    ("\u00a0[2]", "\u00a0[2]", 0),
    ("[\u20022]", "[\u20022]", 0),
    ("[2]+\u2003[1]", "\u2003[1]", 4),
    ("[1] +\x85[2]", "\x85[2]", 5),
    ("[1]\x1f", "[1]\x1f", 0),
])
def test_jordan_types_take_ascii_whitespace_only(capsys, text, term, position):
    # a Unicode \s or str.strip() would read "2\u3000[3]" as 2[3] and "\u3000" as
    # the zero module; ASCII spacing around and inside a term is still read
    code, out, err = run(capsys, "jt", "dim", "--p", "5", "--jt", text)
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"parse error: bad Jordan-type term {term!r} at position {position}\n"
    spaced = text.translate(dict.fromkeys(map(ord, "\u3000\u00a0\u2002\u2003\x85\x1f"), " \t"))
    assert run(capsys, "jt", "dim", "--p", "5", "--jt", spaced)[0] == EXIT_OK


@pytest.mark.parametrize("p", ["-5", "0", "1"])
@pytest.mark.parametrize("flag,text", [
    ("--jt", ""), ("--jt", "[1]"), ("--jt", "[7]"), ("--jt", "2[3]+oops"), ("--a", "[1]"),
])
def test_a_bad_p_is_refused_before_the_type_is_read(capsys, p, flag, text):
    # the block sizes of --jt were checked against p first, so "[1]" at
    # --p -5 exited 3 ("block size 1 out of range 1..-5") and "" exited 2
    argv = ["jt", "dominance" if flag == "--a" else "dim", "--p", p, flag, text]
    assert run(capsys, *argv) == (
        EXIT_VALIDATION, "", f"validation error: p must be an integer >= 2, got {p}\n"
    )


def _jt_string(sizes, rng):
    return "+".join(f"[{s}]" if c == 1 else f"{c}[{s}]"
                    for s, c in ((s, rng.randint(1, 3)) for s in sizes))


def _jt_corpus():
    """argv of every jt op at moduli 1..31 on random, malformed and edge types,
    with powers and block sizes just outside their ranges."""
    rng = random.Random("jt-corpus")
    for p in (1, 2, 3, 4, 5, 7, 11, 13, 31):
        powers = sorted({-1, 0, 1, 2, p // 2, p - 1, p, p + 1})
        types = ["", "[1]", f"[{p}]", f"2[{p}]+[1]", "[0]", f"[{p + 1}]", "2[3]+oops"]
        types += [_jt_string(rng.sample(range(1, p + 1), min(p, rng.randint(1, 4))), rng)
                  for _ in range(8)]
        for t in types:
            typed = ("--p", str(p), "--jt", t)
            for op in ("dim", "stable", "syzygy"):
                yield ("jt", op, *typed)
            for op in ("ker", "image", "psi"):
                for m in powers:
                    yield ("jt", op, *typed, "--m", str(m))
            for j in powers:
                for fmt in ("tsv", "json"):
                    yield ("jt", "restrict", *typed, "--j", str(j), "--format", fmt)
        for i in range(-1, p + 2):
            for j in powers:
                yield ("jt", "restrict", "--p", str(p), "--i", str(i), "--j", str(j))
        for t in types[:3] + types[7:]:
            # an equal-dimension partner split at random, and a random other type
            dim = sum(int(c or 1) * int(s) for c, s in re.findall(r"(\d*)\[(\d+)\]", t))
            sizes = []
            while dim > 0:
                sizes.append(rng.randint(1, min(p, dim)))
                dim -= sizes[-1]
            for other in ("+".join(f"[{s}]" for s in sizes), rng.choice(types)):
                for convention in ("image", "tail"):
                    yield ("jt", "dominance", "--p", str(p), "--a", t, "--b", other,
                           "--convention", convention)


def test_jt_output_is_pinned(capsys):
    # sha256 over argv, exit code, stdout and stderr of every jt op, captured
    # when kernel sums, restriction and dominance keys were computed per entry;
    # re-captured when `restrict --p 1 --i ...` began to reject p < 2 first,
    # and when `--p 1 --jt "[2]"` (69 argv) did too, exit 2 where it was 3
    digest = hashlib.sha256()
    for argv in _jt_corpus():
        code, out, err = run(capsys, *argv)
        digest.update(f"{argv}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == "2a9b1b8af1a6a6ad71afa9ef8eac9f70fe489656648c7301fb9ea196f98f09f9"


@pytest.mark.parametrize("p", ["1", "0", "-3"])
def test_jt_restrict_rejects_small_p(capsys, p):
    # `restrict --p 1 --i 1 --j 1` used to print [1]
    for i in ("1", "2"):
        code, out, err = run(capsys, "jt", "restrict", "--p", p, "--i", i, "--j", "1")
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"validation error: p must be an integer >= 2, got {p}\n"


_PRIME_PAST_MAXSIZE = 2**64 - 59


@pytest.mark.parametrize("argv,p", [
    (["jt", "dim", "--p", "99999999999999999999", "--jt", ""], 99999999999999999999),
    (["jt", "restrict", "--p", "99999999999999999999", "--i", "1", "--j", "1"],
     99999999999999999999),
    (["oracle", "sweep", "--p", "99999999999999999999", "--base-block", "1"],
     99999999999999999999),
    (["jt", "dim", "--p", str(sys.maxsize + 1), "--jt", "[1]"], sys.maxsize + 1),
    # a prime p passes require_prime, and is refused before a list of length p + 1
    (["oracle", "rank2", "--p", str(_PRIME_PAST_MAXSIZE)], _PRIME_PAST_MAXSIZE),
    (["oracle", "ga2", "--p", str(_PRIME_PAST_MAXSIZE)], _PRIME_PAST_MAXSIZE),
    # and before a named model builds its p^2 or 2(p - 1) entries
    (["oracle", "heisenberg", "--p", str(_PRIME_PAST_MAXSIZE)], _PRIME_PAST_MAXSIZE),
    (["oracle", "sl2s", "--p", str(_PRIME_PAST_MAXSIZE)], _PRIME_PAST_MAXSIZE),
    (["oracle", "json", "--module", '{"p":%d,"dim":1,"entries":[]}' % _PRIME_PAST_MAXSIZE],
     _PRIME_PAST_MAXSIZE),
    (["classify", "--descriptor", '{"p":%d,"degree":2}' % _PRIME_PAST_MAXSIZE],
     _PRIME_PAST_MAXSIZE),
], ids=["jt-dim", "jt-restrict", "oracle-sweep", "maxsize+1", "oracle-rank2", "oracle-ga2",
        "oracle-heisenberg", "oracle-sl2s", "oracle-json", "classify"])
def test_a_p_past_maxsize_is_refused_with_a_message(capsys, argv, p):
    # [0] * p raised OverflowError, a traceback with exit 1
    assert run(capsys, *argv) == (
        EXIT_VALIDATION, "", f"validation error: p must be at most sys.maxsize = {sys.maxsize}, "
        f"got {p}\n"
    )


# ----------------------------------------------------------------- component


HEIS_SPEC = json.dumps(
    {
        "kind": "tube",
        "p": 5,
        "seed": {"p": 5, "mult": [2, 2, 2, 2, 1]},
        "multiplicities": [1, 0, 0, 0],
        "rank": 1,
    }
)


def test_component_table_matches_formulas(capsys):
    code, out, _ = run(capsys, "component", "--spec", HEIS_SPEC, "--ql-max", "4")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "ql\ti\talpha_i"
    table = {}
    for line in lines[1:]:
        q, i, alpha = (int(x) for x in line.split("\t"))
        table[(q, i)] = alpha
    for q in range(1, 5):
        assert table[(q, 1)] == 2
        assert table[(q, 2)] == 3 * q - 1
        assert table[(q, 3)] == 2 * q
        assert table[(q, 4)] == 2 * q
        assert table[(q, 5)] == q


def test_component_solve(capsys):
    code, out, _ = run(capsys, "component", "--spec", HEIS_SPEC, "--solve")
    assert code == EXIT_OK and out.startswith("n = (1, 0, 0, 0)")


def test_component_solve_sl2(capsys):
    spec = json.dumps(
        {
            "kind": "tube",
            "p": 5,
            "slopes": [0, 0, 0, 0, 1],
            "intercepts": [0, 1, 1, 0, -1],
            "include_p": True,
        }
    )
    code, out, _ = run(capsys, "component", "--spec", spec, "--solve")
    assert code == EXIT_OK and out == "n = (1, 2, 2, 1)\n"


def test_component_solve_additive_flags_locally_split(capsys):
    spec = json.dumps(
        {"kind": "tube", "p": 5, "slopes": [1, 0, 2, 0, 0],
         "intercepts": [0, 0, 0, 0, 0], "include_p": False}
    )
    code, out, _ = run(capsys, "component", "--spec", spec, "--solve")
    assert code == EXIT_OK and "locally split" in out


def test_component_validation_failure_names_offender(capsys):
    spec = json.dumps(
        {
            "kind": "tube",
            "p": 5,
            "seed": {"p": 5, "mult": [1, 1, 0, 0, 0]},
            "multiplicities": [1, 0, 0, 0],
            "rank": 1,
        }
    )
    code, _, err = run(capsys, "component", "--spec", spec, "--ql-max", "3")
    assert code == EXIT_VALIDATION
    assert "alpha_" in err and "ql=" in err


def test_component_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "component", "--spec", HEIS_SPEC, "--ql-max", "2", "--format", "json"
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0]["ql"] == 1
    assert rows[0]["type"] == {"p": 5, "mult": [2, 2, 2, 2, 1]}


def test_component_split_table(capsys):
    spec = json.dumps({"kind": "split", "p": 5, "d": [1, 0, 0, 1], "tree_class": "A_inf"})
    code, out, _ = run(capsys, "component", "--spec", spec, "--ql-max", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()[1:]
    table = {}
    for line in lines:
        q, i, alpha = (int(x) for x in line.split("\t"))
        table[(q, i)] = alpha
    for q in (1, 2, 3):
        assert table[(q, 1)] == q and table[(q, 4)] == q and table[(q, 5)] == 0


def test_component_rejects_ql_max_below_one(capsys):
    for ql_max in ("0", "-3"):
        code, out, err = run(capsys, "component", "--spec", HEIS_SPEC, "--ql-max", ql_max)
        assert code == EXIT_VALIDATION and out == ""
        assert "--ql-max" in err


def _seeded_spec(rng, p, kind):
    """A component spec of the given kind whose table stays in N_0.

    Table shapes: "tube-constant" has every slope 0, "tube-moving" none,
    "split-zero-d" a zero d_i at every odd i; a "tube" leaves its a_p row
    unasserted, a constant 0 column.
    """
    if kind == "tube-constant":
        return {"kind": "tube", "p": p, "slopes": [0] * p,
                "intercepts": [rng.randint(0, 3) for _ in range(p)], "include_p": True}
    if kind == "tube-moving":
        slopes = [rng.randint(1, 3) for _ in range(p)]
        return {"kind": "tube", "p": p, "slopes": slopes,
                "intercepts": [rng.randint(-s, 2) for s in slopes], "include_p": True}
    if kind == "split-zero-d":
        return {"kind": "split", "p": p,
                "d": [0 if i % 2 else rng.randint(1, 3) for i in range(1, p)]}
    if kind.startswith("split"):
        spec = {"kind": "split", "p": p, "d": [rng.randint(0, 3) for _ in range(p - 1)]}
        if kind == "split-tree":
            spec["tree_class"] = rng.choice(["A_inf", "D_inf", "E6_tilde"])
        return spec
    include_p = kind == "tube-include-p"
    n = [0] * (p - 1)
    while not any(n):
        n = [rng.randint(0, 2) for _ in range(p - 1)]
    t = apply_a(n + [0])
    last = p if include_p else p - 1
    # slope s >= 0 and seed = s + t >= 0 keep s*ql + t >= 0 for every ql >= 1;
    # an unasserted row p may hold anything
    seed = [max(0, -x) + rng.randint(0, 2) + x if i < last else rng.randint(0, 3)
            for i, x in enumerate(t)]
    return {"kind": "tube", "p": p, "seed": {"p": p, "mult": seed},
            "multiplicities": n, "include_p": include_p}


def _per_vertex_table(profile, ql_max, fmt):
    """The table rendered one JordanType per row, as the CLI used to."""
    types = [
        profile.jordan_type_at(q) if isinstance(profile, TubeProfile)
        else split_propagate(profile, q)
        for q in range(1, ql_max + 1)
    ]
    if fmt == "json":
        rows = [{"ql": q, "type": jt.to_json_dict()} for q, jt in enumerate(types, 1)]
        return json.dumps(rows) + "\n"
    lines = ["ql\ti\talpha_i"]
    for q, jt in enumerate(types, 1):
        lines += [f"{q}\t{i}\t{a}" for i, a in enumerate(jt.mult, 1)]
    return "\n".join(lines) + "\n"


TABLE_SHAPES = ["tube-constant", "tube-moving", "split-zero-d"]


@pytest.mark.parametrize("kind", ["tube-include-p", "tube", "split-tree", "split", *TABLE_SHAPES])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_component_table_matches_per_vertex_types(capsys, p, kind):
    rng = random.Random(f"{kind}-{p}")
    for _ in range(3):
        spec = _seeded_spec(rng, p, kind)
        profile = profile_from_json(spec)
        for ql_max in (1, 2, 50):
            for fmt in ("tsv", "json"):
                code, out, _ = run(capsys, "component", "--spec", json.dumps(spec),
                                   "--ql-max", str(ql_max), "--format", fmt)
                assert code == EXIT_OK
                assert out == _per_vertex_table(profile, ql_max, fmt), (spec, ql_max, fmt)


GOLDEN_SPEC = json.dumps(
    {"kind": "tube", "p": 11, "seed": {"p": 11, "mult": [3, 0, 4, 0, 3, 0, 1, 1, 3, 0, 1]},
     "multiplicities": [1, 0, 2, 0, 1, 0, 0, 1, 2, 0], "rank": 1}
)


@pytest.mark.parametrize("fmt,digest", [
    pytest.param("tsv", "1f97f2c9d3abd841ba4ae5c4262c2c31"
                 "80c1e4572a15a5ebb74910a43b8bf25c", id="tsv"),
    pytest.param("json", "13026d877a5503c1a12311d3baaafc0f"
                 "0751173ef19baf7f2104181d1ece5063", id="json"),
])
def test_component_large_table_is_pinned(capsys, fmt, digest):
    # sha256 of the stdout of the per-row JordanType renderer, 55,000 cells
    code, out, _ = run(capsys, "component", "--spec", GOLDEN_SPEC, "--ql-max", "5000",
                       "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("p", [2, 5, 11, _CHUNK_CELLS // 2 + 1])
def test_component_table_chunks_join_to_the_whole_table(capsys, p):
    # the chunked templates write the per-vertex table around and across the
    # chunk boundaries; a chunk holds at least one row, however large p
    size = max(1, _CHUNK_CELLS // p)
    rng = random.Random(f"chunks-{p}")
    specs = ([_seeded_spec(rng, p, kind) for kind in ["tube", *TABLE_SHAPES]] if p < 100
             else [{"kind": "split", "p": p, "d": [1] * (p - 1)}])
    for spec in specs:
        profile = profile_from_json(spec)
        for ql_max in sorted({1, size - 1, size, size + 1, 2 * size + 1} - {0}):
            for fmt in ("json", "tsv"):
                argv = ["component", "--spec", json.dumps(spec), "--ql-max", str(ql_max),
                        "--format", fmt]
                args = build_parser().parse_args(argv)
                code, chunks = args.func(args)
                # the header, one chunk per `size` rows, the trailer
                assert (code, len(list(chunks))) == (EXIT_OK, 2 - (-ql_max // size))
                assert run(capsys, *argv) == (EXIT_OK, _per_vertex_table(profile, ql_max, fmt),
                                              ""), (spec, ql_max, fmt)


@pytest.mark.parametrize("fmt,tail", [("tsv", "\n"), ("json", "]\n")])
def test_component_table_is_made_one_chunk_at_a_time(capsys, fmt, tail):
    # the first two chunks of a 10^6-row table are made without the rest:
    # the ql text of the whole table alone would take about 60 MB
    spec = json.dumps({"kind": "tube", "p": 5, "slopes": [0, 1, 0, 2, 1],
                       "intercepts": [3, 0, 1, 0, 0], "include_p": True})
    args = build_parser().parse_args(["component", "--spec", spec, "--ql-max", "1000000",
                                      "--format", fmt])
    tracemalloc.start()
    try:
        code, chunks = args.func(args)
        head = list(islice(chunks, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    # the header and two chunks are the table of their rows, but its tail
    size = _CHUNK_CELLS // 5
    assert (code, "".join(head) + tail) == run(
        capsys, "component", "--spec", spec, "--ql-max", str(2 * size), "--format", fmt)[:2]


COMPONENT_TREE_CLASSES = (
    None, "A_inf", "A_inf_inf", "A12_tilde", "D_inf", "E6_tilde", "E7_tilde", "E8_tilde",
    "D4_tilde", "D9_tilde", "A5", "Q9",
)


def _component_corpus():
    """argv of seed and direct tube specs under every include_p/rank setting,
    realizable or with a negative-multiplicity witness, and of split specs
    over every tree class, each tabled and solved in both formats."""
    rng = random.Random("component-corpus")
    modes = [("--ql-max", "0")]
    modes += [("--ql-max", q, "--format", f) for q in ("1", "7") for f in ("tsv", "json")]
    modes += [("--solve", "--format", f) for f in ("tsv", "json")]
    for p in (2, 3, 5, 7):
        n = [rng.randint(0, 2) for _ in range(p - 1)]
        n[-1] += 1
        t = apply_a(n + [0])
        tubes = [
            # slopes >= 0 keep every row in N_0; then random seeds and rows,
            # which mostly leave N_0 somewhere
            {"seed": {"p": p, "mult": [max(0, -x) + x + rng.randint(0, 2) for x in t]},
             "multiplicities": n},
            {"seed": {"p": p, "mult": [rng.randint(0, 3) for _ in range(p)]},
             "multiplicities": [rng.randint(0, 2) for _ in range(p - 1)]},
            {"seed": {"p": p, "mult": [rng.randint(0, 1) for _ in range(p)]},
             "multiplicities": [rng.randint(0, 3) for _ in range(p - 1)]},
            {"slopes": [rng.randint(0, 2) for _ in range(p)], "intercepts": t},
            {"slopes": [rng.randint(-1, 2) for _ in range(p)],
             "intercepts": [rng.randint(-2, 3) for _ in range(p)]},
            {"slopes": [rng.randint(0, 2) for _ in range(p - 1)] + [-2],
             "intercepts": [rng.randint(0, 3) for _ in range(p - 1)] + [1]},
        ]
        for body in tubes:
            for include_p in (None, True, False):
                for rank in (1, 3):
                    spec = {"kind": "tube", "p": p, **body, "rank": rank}
                    if include_p is not None:
                        spec["include_p"] = include_p
                    for mode in modes:
                        yield ("component", "--spec", json.dumps(spec), *mode)
        d = [rng.randint(0, 2) for _ in range(p - 1)]
        for tc in COMPONENT_TREE_CLASSES:
            spec = {"kind": "split", "p": p, "d": d}
            if tc is not None:
                spec["tree_class"] = tc
            for mode in modes[3:]:
                yield ("component", "--spec", json.dumps(spec), *mode)


def test_component_output_is_pinned(capsys):
    # sha256 over argv, exit code, stdout and stderr of tube and split
    # tables and solves, captured when an unasserted i = p row was still
    # stored as given and zeroed on every read
    digest = hashlib.sha256()
    for argv in _component_corpus():
        code, out, err = run(capsys, *argv)
        digest.update(f"{argv}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == "f8059f1197136c81a977c1bf5d601f4c70a5a3830781facac4958b148844f32a"


def test_component_bad_json_exit(capsys):
    code, _, err = run(capsys, "component", "--spec", "{not json")
    assert code == EXIT_PARSE


# -------------------------------------------------------------------- oracle


def test_oracle_heisenberg(capsys):
    code, out, _ = run(capsys, "oracle", "heisenberg", "--p", "5")
    assert code == EXIT_OK
    assert out == "[5]+2[4]+2[3]+2[2]+2[1] PASS\n"


def test_oracle_ga2(capsys):
    code, out, _ = run(capsys, "oracle", "ga2", "--p", "7")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "7[1] PASS"
    assert lines[1] == "[4]+[3] PASS"


def test_oracle_rank2(capsys):
    code, out, _ = run(capsys, "oracle", "rank2", "--p", "5")
    assert code == EXIT_OK
    assert out == "5[1] PASS\n[2]+3[1] PASS\n"


def test_oracle_sl2s(capsys):
    code, out, _ = run(capsys, "oracle", "sl2s", "--p", "5", "--i", "2")
    assert code == EXIT_OK
    assert out == "[3]+[2] PASS\n[5] PASS\n"


def test_oracle_sweep(capsys):
    code, out, _ = run(capsys, "oracle", "sweep", "--base-block", "4", "--p", "7")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "4 distinct types"


def test_oracle_sweep_costs_its_largest_block_not_p(capsys):
    # j stops at the largest block, so p = 1000003 sweeps one power
    assert run(capsys, "oracle", "sweep", "--p", "1000003", "--base-block", "1") == (
        EXIT_OK, "1 distinct types\n[1]\n", "")


def test_oracle_fuzz(capsys):
    code, out, _ = run(capsys, "oracle", "heisenberg", "--p", "3", "--fuzz", "3")
    assert code == EXIT_OK and "fuzz PASS" in out


@pytest.mark.parametrize("argv", [
    ["heisenberg", "--p", "5"], ["rank2"], ["ga2", "--p", "3"], ["sl2s", "--i", "2"],
    ["json", "--module", '{"p":5,"dim":1,"entries":[]}'],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("fuzz", ["-1", "-7"])
def test_a_negative_fuzz_is_refused(capsys, argv, fuzz):
    # it printed "fuzz PASS (-1 conjugations per model)" with exit 0
    assert run(capsys, "oracle", *argv, "--fuzz", fuzz) == (
        EXIT_VALIDATION, "", f"validation error: --fuzz must be >= 0, got {fuzz}\n"
    )


def test_oracle_json_model(capsys):
    model = json.dumps({"p": 5, "dim": 3, "entries": [[1, 0, 1], [2, 1, 1]]})
    code, out, _ = run(capsys, "oracle", "json", "--module", model)
    assert code == EXIT_OK and out == "[3]\n"


@pytest.mark.parametrize(
    "entries,expected",
    [([], "100000[1]\n"), ([[1, 0, 1], [2, 1, 1], [99999, 99998, 3]], "[3]+[2]+99995[1]\n")],
)
def test_oracle_json_model_costs_its_entries(capsys, entries, expected):
    # a dense 10^5 x 10^5 matrix would need tens of GB
    model = json.dumps({"p": 5, "dim": 100000, "entries": entries})
    code, out, _ = run(capsys, "oracle", "json", "--module", model)
    assert code == EXIT_OK and out == expected
    if not entries:
        # the zero model is its own conjugate: no dim-long walk of transvections
        code, out, _ = run(capsys, "oracle", "json", "--module", model, "--fuzz", "1")
        assert code == EXIT_OK and out == expected + "fuzz PASS (1 conjugations per model)\n"


def test_oracle_fuzz_takes_a_dim_past_ssize_t(capsys):
    # the conjugation's draws are randrange calls, so any dim works; a draw
    # through rng.sample(range(dim), k) ended in an OverflowError traceback
    model = '{"p":5,"dim":1000000000000000000000000000000,"entries":[[1,0,1],[2,1,1]]}'
    expected = "[3]+999999999999999999999999999997[1]\n"
    assert run(capsys, "oracle", "json", "--module", model) == (EXIT_OK, expected, "")
    assert run(capsys, "oracle", "json", "--module", model, "--fuzz", "1") == (
        EXIT_OK, expected + "fuzz PASS (1 conjugations per model)\n", "")


def test_oracle_json_takes_a_dim_past_any_float(capsys):
    # no float holds a dim past about 1.8e308, so the route rule compares ints
    dim = 10**400
    zero = json.dumps({"p": 5, "dim": dim, "entries": []})
    assert run(capsys, "oracle", "json", "--module", zero) == (EXIT_OK, f"{dim}[1]\n", "")
    model = json.dumps({"p": 5, "dim": dim, "entries": [[1, 0, 1], [2, 1, 1]]})
    assert run(capsys, "oracle", "json", "--module", model, "--fuzz", "2") == (
        EXIT_OK, f"[3]+{dim - 3}[1]\nfuzz PASS (2 conjugations per model)\n", "")
    # a dim of 4300 digits, the most int() reads, and N = E_00 with N^5 != 0
    model = json.dumps({"p": 5, "dim": 10**4299, "entries": [[0, 0, 1]]})
    assert run(capsys, "oracle", "json", "--module", model) == (
        EXIT_VALIDATION, "",
        "validation error: matrix is not nilpotent of order <= 5 (rank of N^5 is 1)\n")


def test_oracle_rejects_non_prime_p(capsys):
    for argv in (["heisenberg", "--p", "4"], ["sl2s", "--p", "9"], ["sl2s", "--p", "9", "--i", "3"]):
        code, out, err = run(capsys, "oracle", *argv)
        assert code == EXIT_VALIDATION and out == "", argv
        assert "validation error" in err and "Traceback" not in err, argv


def test_oracle_failed_cross_check_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(
        "jordanquiver.oracle.jordan_type_of", lambda model: JordanType.block(model.p, 1, model.dim)
    )
    code, out, _ = run(capsys, "oracle", "rank2", "--p", "5")
    assert code == EXIT_VALIDATION
    assert out == "5[1] PASS\n5[1] FAIL (expected [2]+3[1])\n"


def test_oracle_json_rejects_malformed_model(capsys):
    for model in (
        '{"p":5,"dim":-1,"entries":[]}',
        '{"p":1e400,"dim":2,"entries":[]}',
        '{"p":5,"dim":3,"entries":[[1,0,1],[2,1,1],[2,0,1.7]]}',
        '{"p":5,"dim":3,"entries":5}',
    ):
        code, out, err = run(capsys, "oracle", "json", "--module", model)
        assert code == EXIT_PARSE and out == "", model
        assert err.startswith("parse error: ") and "Traceback" not in err, model


def test_oracle_unknown_model(capsys):
    code, _, _ = run(capsys, "oracle", "nonsense", "--p", "5")
    assert code == EXIT_PARSE


ORACLE_JSON_MODELS = (
    {"p": 5, "dim": 3, "entries": [[1, 0, 1], [2, 1, 1]]},
    {"p": 7, "dim": 6, "entries": [[1, 0, 3], [2, 1, 5], [4, 3, 1], [5, 0, 2]]},
    {"p": 3, "dim": 4, "entries": []},
    {"p": 5, "dim": 0, "entries": []},
    {"p": 5, "dim": 3, "entries": [[1, 0, 5], [2, 1, -4]]},  # reduced mod p
    {"p": 5, "dim": 3, "entries": [[3, 0, 1]]},  # out of range
    {"p": 5, "dim": 3, "entries": [[1, -1, 1]]},
    {"p": 5, "dim": 3, "entries": [[1, 0, 1], [1, 0, 2]]},  # repeated
    {"p": 5, "dim": 3, "entries": [[1, 0, 1.5]]},  # non-int
    {"p": 5, "dim": 3, "entries": [[1, 0, True]]},
    {"p": 5, "dim": 3, "entries": [["1", 0, 1]]},
    {"p": 5, "dim": 3, "entries": [[1, 0]]},
    {"p": 5, "dim": 2.0, "entries": []},
    {"p": 4, "dim": 2, "entries": []},
    {"p": 5, "dim": 2, "entries": [[0, 1, 1], [1, 0, 1]]},  # not nilpotent
    {"p": 2, "dim": 3, "entries": [[1, 0, 1], [2, 1, 1]]},  # N^2 != 0
    {"p": 5, "dim": 3},
)


def _oracle_corpus():
    """argv of every named model at prime and non-prime moduli, sl2s weights
    and sweep base blocks just outside their ranges, fuzzed runs under two
    seeds, and valid and malformed JSON models."""
    for p in (1, 2, 3, 4, 5, 7, 9, 11, 13, 31):
        for model in ("heisenberg", "rank2", "ga2", "sl2s"):
            yield ("oracle", model, "--p", str(p))
        for i in range(p + 1):
            yield ("oracle", "sl2s", "--p", str(p), "--i", str(i))
        for b in range(p + 2):
            yield ("oracle", "sweep", "--p", str(p), "--base-block", str(b))
        yield ("oracle", "sweep", "--p", str(p))
    yield ("oracle", "heisenberg")
    for p in (3, 5, 7):
        for model in ("heisenberg", "rank2", "ga2", "sl2s"):
            for fuzz in ("0", "2"):
                for seed in ("0", "11"):
                    yield ("oracle", model, "--p", str(p), "--fuzz", fuzz, "--seed", seed)
    for model in ORACLE_JSON_MODELS:
        yield ("oracle", "json", "--module", json.dumps(model))
        yield ("oracle", "json", "--module", json.dumps(model), "--fuzz", "2", "--seed", "3")
    yield ("oracle", "json")


def test_oracle_output_is_pinned(capsys):
    # sha256 over argv, exit code, stdout and stderr of every named model,
    # sweep and JSON model, captured when the sweep still went through a
    # per-power helper and block models had their own constructor, and
    # re-captured when an out-of-range entry came to name its JSON path
    digest = hashlib.sha256()
    for argv in _oracle_corpus():
        code, out, err = run(capsys, *argv)
        digest.update(f"{argv}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == "a3f44880460a74ef123945fc73ebe49d1755c7bf37c2a8ae1ea03f8138438ab3"


# three 5 x 5 strictly lower triangular blocks: 30 entries, N^5 = 0 at p = 5
_BLOCKS_30 = [[5 * b + r, 5 * b + c, 1 + (r + 2 * c + b) % 4]
              for b in range(3) for r in range(5) for c in range(r)]


def _entry_faults(entry, other):
    """(name, item) for each way one item of ``entries`` can be malformed;
    ``entry`` is the valid item it replaces, ``other`` another valid item."""
    r, c, v = entry
    yield from [("non-list", 7), ("non-list", "0,1,1"), ("non-list", None),
                ("non-list", {"r": r}), ("short", []), ("short", [r, c]),
                ("long", [r, c, v, 0])]
    for k in range(3):
        for bad in (1.5, True, "1", None):
            yield f"type-{k}", [*entry[:k], bad, *entry[k + 1:]]
    yield from [("range-r", [15, c, v]), ("range-c", [r, 10**30, v]),
                ("negative-r", [-1, c, v]), ("negative-c", [r, -3, v]), ("repeat", other)]


def _malformed_models(p):
    """Models with one fault first, in the middle or last of a valid
    30-entry model, and models with two faults, where the first is named."""
    n = len(_BLOCKS_30)
    for at in (0, n // 2, n - 1):
        # a repeat at position 0 makes the later copy the repeat
        other = _BLOCKS_30[at - 1 if at else 1]
        for _, item in _entry_faults(_BLOCKS_30[at], other):
            entries = list(_BLOCKS_30)
            entries[at] = item
            yield {"p": p, "dim": 15, "entries": entries}
    firsts = list(_entry_faults(_BLOCKS_30[3], _BLOCKS_30[2]))
    seconds = list(_entry_faults(_BLOCKS_30[20], _BLOCKS_30[19]))
    for (name, first), (_, second) in zip(firsts, seconds[3:] + seconds[:3]):
        entries = list(_BLOCKS_30)
        entries[3], entries[20] = first, second
        yield {"p": p, "dim": 15, "entries": entries}
        if name in ("type-0", "type-1"):
            # a second bad slot later in the same item: the first is named
            entries[3] = [*first[:2], 0.5]
            yield {"p": p, "dim": 15, "entries": entries}


def test_malformed_oracle_models_are_pinned(capsys):
    # sha256 over argv, exit code, stdout and stderr, captured when
    # from_json_dict checked each entry and __init__ checked it again, and
    # re-captured when an out-of-range entry came to name its JSON path
    valid = {"p": 5, "dim": 15, "entries": _BLOCKS_30}
    assert run(capsys, "oracle", "json", "--module", json.dumps(valid)) == (EXIT_OK, "3[5]\n", "")
    assert run(capsys, "oracle", "json", "--module", json.dumps({**valid, "p": 4})) == (
        EXIT_VALIDATION, "", "validation error: p must be prime, got 4\n"
    )
    outside = {**valid, "entries": [*_BLOCKS_30[:3], [15, 0, 1]]}
    assert run(capsys, "oracle", "json", "--module", json.dumps(outside)) == (
        EXIT_PARSE, "", "parse error: entries[3] has entry (15,0) outside a 15x15 matrix\n"
    )
    digest = hashlib.sha256()
    count = 0
    for p in (5, 4, _PRIME_PAST_MAXSIZE):
        for model in _malformed_models(p):
            argv = ("oracle", "json", "--module", json.dumps(model))
            code, out, err = run(capsys, *argv)
            digest.update(f"{argv}\0{code}\0{out}\0{err}\0".encode())
            # an entry error comes before a non-prime p or a p past sys.maxsize
            assert (code, out) == (EXIT_PARSE, ""), argv
            assert err.startswith("parse error: ") and "Traceback" not in err, argv
            count += 1
    assert count == 3 * 104
    assert digest.hexdigest() == "fbefeab9cdf86c7a81c5cde3f02e90af799c1e99351ac63aa6cef66ec490dffb"


# -------------------------------------------------------------------- quiver


def test_quiver_dot_output(capsys):
    spec = json.dumps({"kind": "tube", "rank": 3, "max_ql": 3})
    code, out, _ = run(capsys, "quiver", "--spec", spec)
    assert code == EXIT_OK
    assert out.startswith("digraph") and "style=dashed" in out


def test_quiver_additive_overlay_all_pass(capsys):
    spec = json.dumps({"kind": "zt", "max_ql": 5, "n_min": 0, "n_max": 3})
    code, out, _ = run(capsys, "quiver", "--spec", spec, "--check-additive", "ql")
    assert code == EXIT_OK
    assert "PASS" in out and "FAIL" not in out
    assert "eventual_level=1" in out


def test_quiver_constant_overlay_takes_plain_digits_only(capsys):
    spec = json.dumps({"kind": "tube", "rank": 1, "max_ql": 3})
    # int() alone read these as 10, 2, 2 and 2
    for text in ("const:1_0", "const: +2", "const:+2", "const:\uff12", "const:", "const:2 "):
        code, out, err = run(capsys, "quiver", "--spec", spec, "--check-additive", text)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"parse error: bad constant overlay {text!r}\n"
    code, out, err = run(capsys, "quiver", "--spec", spec, "--check-additive", "const:-2")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == "validation error: value at (0, 1) must be a nonnegative integer\n"
    code, out, _ = run(capsys, "quiver", "--spec", spec, "--check-additive", "const:02")
    assert code == EXIT_OK and 'label="(0,1) f=2' in out


def test_quiver_admissibility_report(capsys):
    spec = json.dumps({"kind": "zt", "max_ql": 4, "n_min": 0, "n_max": 3})
    code, out, _ = run(capsys, "quiver", "--spec", spec, "--admissible", "1")
    assert code == EXIT_OK and out.startswith("admissible")
    bad = json.dumps(
        {
            "kind": "zt",
            "tree": {"vertices": ["s", "t"], "arrows": [["s", "t"], ["t", "s"]]},
            "n_min": 0,
            "n_max": 3,
        }
    )
    code, out, _ = run(capsys, "quiver", "--spec", bad, "--admissible", "1")
    assert code == EXIT_OK and out.startswith("violation")


def test_quiver_minimal_additive(capsys):
    code, out, _ = run(capsys, "quiver", "--minimal-additive", "E8_tilde", "--format", "tsv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[-1] == "image_size\t6"
    assert len(lines) == 10  # 9 labeled nodes + the image line
    code, out, _ = run(capsys, "quiver", "--minimal-additive", "E8_tilde")
    assert code == EXIT_OK and out.startswith("graph")


@pytest.mark.parametrize("n", ["1000000", "1000000000", "9" * 5000])
def test_quiver_minimal_additive_refuses_a_graph_past_the_bound(capsys, n):
    # D~n has n + 1 nodes; past 10**6 it is refused before any is built,
    # also where n has more digits than int() reads
    code, out, err = run(capsys, "quiver", "--minimal-additive", f"D{n}_tilde", "--format", "tsv")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == (f"validation error: orbit graph of D{n}_tilde has n + 1 nodes, "
                   "more than the bound of 1000000\n")


MINIMAL_ADDITIVE_CLASSES = (
    ["A_inf", "A_inf_inf", "A12_tilde", "D_inf", "E6_tilde", "E7_tilde", "E8_tilde"]
    + [f"D{n}_tilde" for n in range(4, 41)]
    + ["A5", "Q9", "D3_tilde", "Dx_tilde"]  # the error paths
)


def test_quiver_minimal_additive_output_is_pinned(capsys):
    # sha256 over argv, exit code, stdout and stderr of every class and
    # format, captured when Euclidean classes were still solved by
    # elimination on their Cartan matrices
    digest = hashlib.sha256()
    for tc in MINIMAL_ADDITIVE_CLASSES:
        for fmt in ("dot", "tsv", "json"):
            argv = ("quiver", "--minimal-additive", tc, "--format", fmt)
            code, out, err = run(capsys, *argv)
            digest.update(f"{argv}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == "83bb8c1614fe5f9b7f5f975084b86b880275eb8675c8606a071f0c17405fa86a"


WINDOW_TREES = (
    {"vertices": ["s", "t"], "arrows": [["s", "t"], ["t", "s"]]},  # the 2-cycle
    {"vertices": ["v"], "arrows": []},
    {"vertices": ["a", "b", "c"], "arrows": [["a", "b"], ["c", "b"]]},
    {"vertices": ["c", "x", "y", "z"], "arrows": [["x", "c"], ["c", "y"], ["c", "z"]]},
)
WINDOW_SPECS = (
    [{"kind": "tube", "rank": r, "max_ql": q} for r in range(1, 6) for q in range(1, 9)]
    + [{"kind": "zt", "max_ql": q, "n_min": lo, "n_max": lo + w}
       for lo in (-3, 0) for w in range(4) for q in (1, 2, 3, 5, 6)]
    + [{"kind": "zt", "tree": t, "n_min": lo, "n_max": hi}
       for t in WINDOW_TREES for lo, hi in ((0, 0), (-1, 2), (0, 3))]
)
WINDOW_MODES = (
    [()]
    + [("--admissible", str(k)) for k in range(5)]
    + [("--check-additive", o) for o in ("ql", "qlm1", "const:1", "const:3", "bad")]
)


def test_quiver_window_output_is_pinned(capsys):
    # sha256 over argv, exit code, stdout and stderr of plain DOT,
    # admissibility and additive overlays on tubes, Z[A_inf] and explicit
    # trees, captured when windows were still frozensets sorted per use
    digest = hashlib.sha256()
    for spec in WINDOW_SPECS:
        for mode in WINDOW_MODES:
            argv = ("quiver", "--spec", json.dumps(spec), *mode)
            code, out, err = run(capsys, *argv)
            digest.update(f"{argv}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == "add2ad46c838c0026c084ac2ca961fb5279158402a56f18c046e645bf31ad041"


def test_quiver_needs_spec_or_class(capsys):
    code, _, _ = run(capsys, "quiver")
    assert code == EXIT_PARSE


# ------------------------------------------------------------------ classify


def test_classify_even_nilpotent(capsys):
    desc = json.dumps({"p": 5, "degree": 4, "nilpotent": True, "dim_total": 15})
    code, out, _ = run(capsys, "classify", "--descriptor", desc)
    assert code == EXIT_OK
    assert out == "{2[5]+[4]+[1]} ; Indecomposable ; CNED1\n"


def test_classify_odd_srk(capsys):
    desc = json.dumps(
        {"p": 5, "degree": 3, "odd_pullback": "all-vanish", "ambient": {"srk": 2}}
    )
    code, out, _ = run(capsys, "classify", "--descriptor", desc)
    assert code == EXIT_OK
    assert "Indecomposable ; COD3" in out


def test_classify_unknown(capsys):
    desc = json.dumps({"p": 5, "degree": 3, "odd_pullback": "all-vanish"})
    code, out, _ = run(capsys, "classify", "--descriptor", desc)
    assert code == EXIT_OK and out.rstrip().endswith("Unknown")


def test_classify_json_format(capsys):
    desc = json.dumps({"p": 5, "degree": 4, "nilpotent": True, "dim_total": 15})
    code, out, _ = run(capsys, "classify", "--descriptor", desc, "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "Indecomposable" and payload["rule"] == "CNED1"
    assert payload["types"] == [{"p": 5, "mult": [1, 0, 0, 1, 2]}]


def test_classify_inconsistent_dims(capsys):
    desc = json.dumps({"p": 5, "degree": 4, "nilpotent": True, "dim_total": 14})
    code, _, err = run(capsys, "classify", "--descriptor", desc)
    assert code == EXIT_VALIDATION


def test_classify_p_mismatch(capsys):
    desc = json.dumps({"p": 5, "degree": 4, "nilpotent": True})
    code, _, _ = run(capsys, "classify", "--descriptor", desc, "--p", "7")
    assert code == EXIT_VALIDATION


CLASSIFY_AMBIENTS = (
    # odd degree of constant type: COD3 on srk or srk_quotient, then COD5
    [{"srk": s} for s in (0, 1, 2, 3)]
    + [{"srk": 2, "srk_quotient": q} for q in (1, 2)]
    + [{"srk": 1, "srk_quotient": q} for q in (1, 2)]
    + [{"is_finite_group": g, "srk": 1} for g in (False, True)]
    # even non-nilpotent: CNN1 needs 2n >= m + 3
    + [{"ambient_dim": 5, "equidim": e, "variety_dim": n} for e in (False, True) for n in (3, 4)]
    + [{"ambient_dim": 5, "min_component_dim": n} for n in (3, 4)]
    + [{"ambient_dim": 4, "equidim": True, "variety_dim": 3, "min_component_dim": 4}]
    + [{"equidim": True, "variety_dim": 9}]
    + [{"pi_dim": 2, "trigonalizable": True}]
)
CLASSIFY_BAD = (
    [{"p": p, "degree": 2} for p in (1, 2, 4, 9, -5, "5", 5.0, True, None)]
    + [{"p": 5, "degree": d} for d in (0, -1, "2", 2.5, True)]
    + [{"degree": 2}, {"p": 5}, {"p": 5, "degree": 2, "colour": "red"}]
    + [{"p": 5, "degree": 2, "nilpotent": v} for v in ("true", 1, None)]
    + [{"p": 5, "degree": 2, "dim_total": v} for v in (-1, "5", 5.5, True)]
    + [{"p": 5, "degree": 3, "odd_pullback": v} for v in ("bogus", 3, True)]
    + [{"p": 5, "degree": 3, "ambient": a}
       for a in ([], 5, {"colour": 1}, {"srk": -1}, {"srk": "2"}, {"srk": True},
                 {"equidim": 1}, {"is_finite_group": "yes"})]
    + [[], [{"p": 5, "degree": 2}]]
)


def _classify_corpus():
    """argv of every degree parity, nilpotency and odd-pullback mode with and
    without dim_total, ambient data on each side of each rule, and malformed
    descriptors, each in both formats."""
    descs = []
    for p in (3, 5, 7):
        dims = (None, 0, 1, p - 2, p, 2 * p - 2, 3 * p, 3 * p - 2, 4 * p - 2)
        for degree in (1, 2, 3, 4):
            for nilpotent in (None, False, True):
                for odd in (None, "mixed", "all-vanish", "none-vanish"):
                    for dim in dims:
                        desc = {"p": p, "degree": degree}
                        for key, value in (("nilpotent", nilpotent), ("odd_pullback", odd),
                                           ("dim_total", dim)):
                            if value is not None:
                                desc[key] = value
                        descs.append(desc)
        for degree, odd in ((2, None), (3, "all-vanish"), (5, "none-vanish"), (3, "mixed")):
            for ambient in CLASSIFY_AMBIENTS:
                descs.append({"p": p, "degree": degree, "odd_pullback": odd or "mixed",
                              "ambient": ambient})
    descs += CLASSIFY_BAD
    for desc in descs:
        for fmt in ("tsv", "json"):
            yield ("classify", "--descriptor", json.dumps(desc), "--format", fmt)
    for flags in (("--p", "5"), ("--p", "7"), ("--p", "4")):
        yield ("classify", "--descriptor", json.dumps({"p": 5, "degree": 2}), *flags)


def test_classify_output_is_pinned(capsys):
    # sha256 over argv, exit code, stdout and stderr of the rule engine,
    # captured before the library's pass-through wrappers were removed
    digest = hashlib.sha256()
    for argv in _classify_corpus():
        code, out, err = run(capsys, *argv)
        digest.update(f"{argv}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == "0c8bc7e86549cfd15c42afd8accac77655fac9542c77aa4d55d1a1b41f2d91d1"


def test_every_decided_verdict_of_the_corpus_carries_a_rule_tag():
    # Verdict does not check this itself: carlson_indecomposability builds
    # every decided verdict with a literal tag, and this holds it to that
    decided = 0
    for argv in _classify_corpus():
        try:
            desc = CohomologyClassDescriptor.from_json_dict(json.loads(argv[2]))
        except ValueError:  # a malformed descriptor, refused before any rule runs
            continue
        verdict = carlson_indecomposability(desc)
        if verdict.kind is not VerdictKind.UNKNOWN:
            decided += 1
            assert verdict.rule, argv
    assert decided > 100


# ---------------------------------------------------------------- determinism


def test_outputs_are_byte_identical_across_runs(capsys):
    for argv in [
        ("jt", "restrict", "--p", "5", "--i", "5", "--j", "2"),
        ("component", "--spec", HEIS_SPEC, "--ql-max", "5"),
        ("oracle", "sweep", "--base-block", "3", "--p", "7"),
        ("quiver", "--spec", json.dumps({"kind": "tube", "rank": 2, "max_ql": 4})),
        ("quiver", "--minimal-additive", "D_inf", "--format", "json"),
    ]:
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


PARSER_REUSE_ARGV = [
    [],
    ["jt"],
    ["jt", "dim", "--m", "x"],
    ["frobnicate"],
    ["--help"],
    ["jt", "dim", "--p", "5", "--jt", "2[3]+[1]"],
    ["jt", "--help"],
    ["jt", "dim", "--jt", "[2]"],
    ["jt", "dominance", "--p", "5", "--a", "[2]", "--b", "[3]"],
    ["jt", "restrict", "--p", "5", "--jt", "[5]+[4]", "--j", "2", "--format", "json"],
    ["jt", "dim", "--p", "5", "--bogus"],
    ["component", "--spec", "{}"],
    ["component", "--spec", HEIS_SPEC, "--ql-max", "3"],
    ["component", "--spec", "{bad"],
    ["component", "--help"],
    ["component", "--spec", HEIS_SPEC, "--solve", "--format", "json"],
    ["oracle", "nosuch"],
    ["oracle", "heisenberg", "--p", "3", "--fuzz", "2"],
    ["oracle", "heisenberg", "--p", "4"],
    ["oracle", "json"],
    ["oracle", "--help"],
    ["oracle", "sweep", "--base-block", "3", "--p", "7"],
    ["quiver"],
    ["quiver", "--minimal-additive", "Q9"],
    ["quiver", "--minimal-additive", "E7_tilde", "--format", "json"],
    ["quiver", "--help"],
    ["quiver", "--spec", json.dumps({"kind": "tube", "rank": 2, "max_ql": 3}),
     "--check-additive", "ql"],
    ["quiver", "--spec", json.dumps({"kind": "tube", "rank": 2.5, "max_ql": 3})],
    ["classify"],
    ["classify", "--descriptor", json.dumps({"p": 4, "degree": 2})],
    ["classify", "--descriptor", json.dumps({"p": 5, "degree": 4, "nilpotent": True,
                                             "dim_total": 15}), "--format", "json"],
    ["classify", "--help"],
    ["jt", "dim", "--p", "7", "--jt", "[1]"],
]


def _outcome(capsys, argv):
    try:
        return run(capsys, *argv)
    except SystemExit as exc:  # --help
        captured = capsys.readouterr()
        return ("SystemExit", exc.code), captured.out, captured.err


def test_shared_parser_leaks_no_state(capsys):
    assert build_parser() is build_parser()
    fresh = []
    for argv in PARSER_REUSE_ARGV:
        build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    shared = [_outcome(capsys, argv) for _ in range(2) for argv in PARSER_REUSE_ARGV]
    assert shared == fresh * 2
    codes = {code for code, _, _ in fresh}
    assert {EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, ("SystemExit", 0)} <= codes


_J = ["jt", "dim", "--p", "5", "--jt", "[2]"]
_SPLIT = '{"kind":"split","p":3,"d":[1,0]}'
# argv at the edges of the dispatch: help, "--", options before and after
# positionals, "=" and abbreviated options, unknown words and subcommands
EDGE_ARGV = [
    [], ["--help"], ["-h"], ["--"], ["--", "--", *_J], ["--help", "jt"], ["-h", "jt", "dim"],
    ["jt", "-h"], ["jt", "dim", "--p", "5", "-h"], [*_J, "--help"], [*_J, "--h"],
    ["oracle", "--help"], ["component", "-h"], ["quiver", "-h"], ["classify", "-h"],
    [*_J, "extra"], [*_J, "--bogus"], [*_J, "extra", "--bogus", "x"], [*_J, "--bogus=1"],
    [*_J, "-"], [*_J, "--"], [*_J, "--", "extra"], ["jt", "--", "dim", "--p", "5"],
    ["oracle", "heisenberg", "--p", "5", "extra"],
    ["classify", "--descriptor", '{"p":5,"degree":4}', "trailing"],
    ["quiver", "--minimal-additive", "A5", "--bogus=1"],
    ["jt", "dim", "--p=5", "--jt=[2]"], ["component", "--sp", _SPLIT, "--ql", "2"],
    ["component", "--s", _SPLIT], ["jt", "--p", "5", "dim", "--jt", "[2]"], [*_J, "--p", "7"],
    ["frobnicate"], ["JT", "dim", "--p", "5"], ["j", "dim"], [" jt", "dim"],
    ["--p", "5", "jt", "dim"], ["--version"],
    [*_J, "--format", "xml"], ["quiver", "--format", "xml", "--minimal-additive", "A5"],
    ["jt"], ["jt", "dim"], ["jt", "--p", "5"], ["jt", "di", "--p", "5"], ["jt", "dim", "--p"],
    ["jt", "dim", "--P", "5"], ["jt", "dim", "--p", "5", "--jt", "-x"],
    ["component", "--spec", _SPLIT, "--ql-max"], ["oracle"], ["quiver"], ["classify"],
    [*_J, "--format", "json"],
]


def test_dispatch_edge_argv_are_pinned(capsys, monkeypatch):
    # sha256 over argv, exit code, stdout and stderr, captured when the
    # top-level parser parsed every argv and passed it on to the subcommand's
    # parser.  argparse wraps usage and help to the terminal width, and
    # Python 3.13 wraps them differently: at 200 columns no line wraps.
    monkeypatch.setenv("COLUMNS", "200")
    digest = hashlib.sha256()
    for argv in EDGE_ARGV:
        code, out, err = _outcome(capsys, argv)
        # later Python patch releases list argparse's choices without quotes
        err = re.sub(r"\(choose from [^)]*\)", lambda m: m[0].replace("'", ""), err)
        digest.update(f"{argv}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == "76739da45c5a2b22e986332516415a2861df17f2042ac45eb7823a8fc770e1a5"


def _pinned_argv():
    """Every argv of the pinned jt, component, oracle, quiver and classify outputs."""
    yield from _jt_corpus()
    yield from _component_corpus()
    yield from _oracle_corpus()
    for tc in MINIMAL_ADDITIVE_CLASSES:
        for fmt in ("dot", "tsv", "json"):
            yield ("quiver", "--minimal-additive", tc, "--format", fmt)
    for spec in WINDOW_SPECS:
        for mode in WINDOW_MODES:
            yield ("quiver", "--spec", json.dumps(spec), *mode)
    yield from _classify_corpus()


# what the mutations put in: negative numbers, "=" and abbreviated options,
# help, "--", words that are empty, underscored, padded or unknown, and the
# options, values and words of the subcommands
_EDGE_POOL = [
    "-5", "-3", "--p=5", "--jt=[2]", "-h", "--help", "--", "-", "--ql", "--h", "--s", "",
    "1_0", " 5", "x", "--bogus", "--p", "5", "7", "--jt", "[2]", "--m", "2", "--format",
    "json", "tsv", "dot", "xml", "--spec", _SPLIT, "--ql-max", "--solve", "--i", "--fuzz",
    "--seed", "--descriptor", '{"p":5,"degree":4}', "--minimal-additive", "E6_tilde",
    "dim", "restrict", "heisenberg", "sweep", "jt", "component", "oracle", "quiver", "classify",
]


def _mutants(seed, count):
    """``count`` argv, each a pinned argv with one to three tokens inserted,
    deleted or replaced from ``_EDGE_POOL``, or a pair of its tokens repeated."""
    rng = random.Random(seed)
    bases = [*EDGE_ARGV, *islice(_pinned_argv(), 0, None, 25)]
    for _ in range(count):
        argv = list(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(argv))
            kind = rng.randrange(4) if argv else 0
            if kind == 0:
                argv.insert(i, rng.choice(_EDGE_POOL))
            elif kind == 1:
                del argv[i - 1]
            elif kind == 2:
                argv[i - 1] = rng.choice(_EDGE_POOL)
            else:
                argv[i:i] = argv[max(0, i - 2):i]  # an option given again, say
        yield argv


def test_dispatch_matches_the_top_level_parser(capsys):
    # a plain argv is read from a table taken off the parser, any other by
    # the top-level parser.  Whatever the interpreter's argparse does (a
    # leading "--" is refused by 3.13.0 and skipped by later 3.13 releases,
    # so it is not pinned), main parses as the top-level parser does.
    def outcome(parse, argv):
        try:
            got = vars(parse(list(argv)))
            got.pop("command", None)  # the top-level parser's name for the subcommand
        except (ParseError, SystemExit) as exc:
            got = type(exc), str(exc)
        return got, capsys.readouterr()

    read = 0
    for argv in [*EDGE_ARGV, ["--", *_J], *_mutants("dispatch", 4000)]:
        expected = outcome(build_parser().parse_args, argv)
        assert outcome(_parse, argv) == expected, argv
        if _plain(list(argv)) is not None:
            read += 1
            assert outcome(_plain, argv) == expected, argv
    # the reader fires on a good share of the mutants, not only on untouched argv
    assert read > 200


def test_plain_reads_every_pinned_argv_that_parses_without_a_negative_number(capsys):
    # argparse reads "-3" as a value, which the reader leaves to it; every
    # other pinned argv that parses is read from the table, so a reader
    # that stopped firing shows here and not only as a slower benchmark
    read = 0
    for argv in _pinned_argv():
        try:
            expected = build_parser().parse_args(list(argv))
        except ParseError:
            capsys.readouterr()
            continue
        if any(re.fullmatch(r"-[0-9]+", token) for token in argv):
            continue
        assert _plain(list(argv)) == expected, argv
        read += 1
    assert read > 3000


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["jordanquiver", *_J])
    assert main() == EXIT_OK
    assert capsys.readouterr() == ("2\n", "")


# ------------------------------------------------------------------- formats


WINDOW_SPEC = json.dumps({"kind": "tube", "rank": 2, "max_ql": 3})
FORMAT_SUBCOMMANDS = {
    "jt-type": ("jt", "stable", "--p", "5", "--jt", "2[5]+[3]"),
    "jt-restrict-block": ("jt", "restrict", "--p", "5", "--i", "5", "--j", "2"),
    "jt-dominance": ("jt", "dominance", "--p", "3", "--a", "2[3]+[1]", "--b", "[3]+2[2]"),
    "component": ("component", "--spec", HEIS_SPEC, "--ql-max", "2"),
    "component-solve": ("component", "--spec", HEIS_SPEC, "--solve"),
    "oracle": ("oracle", "rank2", "--p", "5"),
    "quiver-window": ("quiver", "--spec", WINDOW_SPEC),
    "quiver-admissible": ("quiver", "--spec", WINDOW_SPEC, "--admissible", "1"),
    "quiver-minimal-additive": ("quiver", "--minimal-additive", "E6_tilde"),
    "classify": ("classify", "--descriptor", json.dumps({"p": 5, "degree": 4, "nilpotent": True})),
}
# what each --format value does next to the default: "same" bytes (it is
# the default), "changes" the bytes, or is "refused" with exit 3
FORMAT_OUTCOMES = {
    "jt-type": {"tsv": "same", "json": "changes"},
    "jt-restrict-block": {"tsv": "same", "json": "changes"},
    "jt-dominance": {"tsv": "same", "json": "changes"},
    "component": {"tsv": "same", "json": "changes"},
    "component-solve": {"tsv": "same", "json": "changes"},
    "oracle": {"tsv": "refused", "json": "refused"},
    "quiver-window": {"dot": "same", "tsv": "refused", "json": "refused"},
    "quiver-admissible": {"dot": "same", "tsv": "refused", "json": "refused"},
    "quiver-minimal-additive": {"dot": "same", "tsv": "changes", "json": "changes"},
    "classify": {"tsv": "same", "json": "changes"},
}


@pytest.mark.parametrize("case,fmt,outcome", [
    pytest.param(case, fmt, outcome, id=f"{case}-{fmt}")
    for case, outcomes in FORMAT_OUTCOMES.items() for fmt, outcome in outcomes.items()
])
def test_every_format_is_honoured_or_refused(capsys, case, fmt, outcome):
    argv = FORMAT_SUBCOMMANDS[case]
    code, default, _ = run(capsys, *argv)
    assert code == EXIT_OK and default
    code, out, err = run(capsys, *argv, "--format", fmt)
    if outcome == "refused":
        assert (code, out) == (EXIT_PARSE, "") and "--format" in err
    else:
        assert code == EXIT_OK and (out == default) == (outcome == "same")


# argv that give an option the chosen mode does not read: each exits 3
# naming the option
REFUSED_OPTIONS = [
    (("quiver", "--minimal-additive", "E6_tilde", "--spec", WINDOW_SPEC), "--spec"),
    (("quiver", "--minimal-additive", "E6_tilde", "--admissible", "1"), "--admissible"),
    (("quiver", "--minimal-additive", "E6_tilde", "--check-additive", "ql"), "--check-additive"),
    (("quiver", "--spec", WINDOW_SPEC, "--admissible", "1", "--check-additive", "ql"),
     "--check-additive"),
    (("quiver", "--minimal-additive", "E6_tilde", "--p", "5"), "--p"),
    (("oracle", "heisenberg", "--i", "2"), "--i"),
    (("oracle", "sweep", "--p", "5", "--base-block", "2", "--i", "2"), "--i"),
    (("oracle", "rank2", "--base-block", "2"), "--base-block"),
    (("oracle", "sl2s", "--module", "{}"), "--module"),
    (("oracle", "sweep", "--p", "5", "--base-block", "2", "--fuzz", "0"), "--fuzz"),
    (("oracle", "sweep", "--p", "5", "--base-block", "2", "--seed", "1"), "--seed"),
    (("oracle", "json", "--module", '{"p":5,"dim":1,"entries":[]}', "--p", "5"), "--p"),
    (("component", "--spec", HEIS_SPEC, "--solve", "--ql-max", "0"), "--ql-max"),
    (("jt", "dim", "--p", "5", "--jt", "[2]", "--m", "3"), "--m"),
    (("jt", "restrict", "--p", "5", "--i", "2", "--jt", "[3]", "--j", "1"), "--jt"),
    (("jt", "restrict", "--p", "5", "--jt", "[3]", "--m", "2"), "--m"),
    (("jt", "stable", "--p", "5", "--jt", "[3]", "--j", "2"), "--j"),
    (("jt", "syzygy", "--p", "5", "--jt", "[3]", "--i", "2"), "--i"),
    (("jt", "ker", "--p", "5", "--jt", "[3]", "--convention", "tail"), "--convention"),
    (("jt", "psi", "--p", "5", "--jt", "[3]", "--a", "[3]"), "--a"),
    (("jt", "dominance", "--p", "5", "--a", "[3]", "--b", "[3]", "--jt", "[3]"), "--jt"),
    (("jt", "dominance", "--p", "5", "--a", "[3]", "--b", "[3]", "--m", "2"), "--m"),
]


@pytest.mark.parametrize("argv,flag", [
    pytest.param(argv, flag, id=f"{argv[0]}-{argv[1]}-{flag}") for argv, flag in REFUSED_OPTIONS
])
def test_every_option_is_read_or_refused(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_PARSE, "") and flag in err and "Traceback" not in err


def test_left_out_options_keep_their_defaults(capsys):
    assert run(capsys, "oracle", "heisenberg") == run(capsys, "oracle", "heisenberg", "--p", "5")
    assert run(capsys, "oracle", "sl2s") == run(capsys, "oracle", "sl2s", "--i", "1")
    assert (run(capsys, "component", "--spec", HEIS_SPEC)
            == run(capsys, "component", "--spec", HEIS_SPEC, "--ql-max", "5"))
    assert run(capsys, "jt", "dim", "--p", "5") == run(capsys, "jt", "dim", "--p", "5", "--jt", "")
    ker = ("jt", "ker", "--p", "5", "--jt", "2[5]+[3]")
    assert run(capsys, *ker) == run(capsys, *ker, "--m", "1")
    for restrict in (("jt", "restrict", "--p", "5", "--jt", "[5]+[4]"),
                     ("jt", "restrict", "--p", "5", "--i", "4")):
        assert run(capsys, *restrict) == run(capsys, *restrict, "--j", "1")
    dominance = ("jt", "dominance", "--p", "3", "--a", "2[3]+[1]", "--b", "[3]+2[2]")
    assert run(capsys, *dominance) == run(capsys, *dominance, "--convention", "image")
    assert (run(capsys, "jt", "dominance", "--p", "3")
            == run(capsys, "jt", "dominance", "--p", "3", "--a", "", "--b", ""))


@pytest.mark.parametrize("argv,kind", [
    (("dim", "--jt", "2[5]+[3]"), int),
    (("ker", "--jt", "2[5]+[3]", "--m", "2"), int),
    (("image", "--jt", "2[5]+[3]", "--m", "2"), int),
    (("psi", "--jt", "2[5]+[3]", "--m", "4"), int),
    (("stable", "--jt", "2[5]+[3]"), dict),
    (("stable", "--jt", "2[5]"), dict),
    (("syzygy", "--jt", "[3]+[1]"), dict),
    (("restrict", "--jt", "[5]+[4]", "--j", "2"), dict),
    (("restrict", "--i", "4", "--j", "3"), dict),
    (("dominance", "--a", "2[5]", "--b", "[5]+[3]+[2]"), str),
    (("dominance", "--a", "2[5]", "--b", "[5]+[3]+[2]", "--convention", "tail"), str),
])
def test_jt_json_output_parses(capsys, argv, kind):
    code, text, _ = run(capsys, "jt", *argv, "--p", "5")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "jt", *argv, "--p", "5", "--format", "json")
    assert code == EXIT_OK
    value = json.loads(out)
    assert type(value) is kind
    if kind is dict:
        # a type's JSON round-trips, and names the type the default format prints
        jt = JordanType.from_json_dict(value)
        assert jt.to_json_dict() == value and f"{jt}\n" == text
    else:
        assert f"{value}\n" == text


# -------------------------------------------------------------- strict JSON


def _case(case_id, argv, message, code=EXIT_PARSE, file_bytes=None):
    return pytest.param(argv, file_bytes, code, message, id=case_id)


# specs that each reader accepts, with room for one more field
_TUBE = '{"kind":"tube","p":3,"slopes":[0,0,1],"intercepts":[0,1,0]%s}'
_SEEDED = '{"kind":"tube","p":3,"seed":{"p":3,"mult":[2,0,0]%s},"multiplicities":[1,0]%s}'
_TREE = '{"kind":"zt","tree":{"vertices":["a","b"],"arrows":[["a","b"]]%s}%s}'


@pytest.mark.parametrize(
    "argv,file_bytes,code,message",
    [
        _case("ambient-srk-string", ["classify", "--descriptor",
              '{"p":5,"degree":3,"odd_pullback":"all-vanish","ambient":{"srk":"3"}}'],
              "ambient.srk must be a JSON integer, got '3'"),
        _case("component-p-overflow", ["component", "--spec",
              '{"kind":"tube","p":1e400,"slopes":[0],"intercepts":[0]}'],
              "p must be a JSON integer, got inf"),
        _case("tree-class-int", ["component", "--spec",
              '{"kind":"split","p":3,"d":[1,0],"tree_class":5}'],
              "tree_class must be a JSON string, got 5"),
        _case("seed-mult-float", ["component", "--spec",
              '{"kind":"tube","p":3,"seed":{"p":3,"mult":[2.7,1,0]},"multiplicities":[1,0]}'],
              "seed.mult[0] must be a JSON integer, got 2.7"),
        _case("classify-p-not-prime", ["classify", "--descriptor", '{"p":4,"degree":2}'],
              "p must be prime, got 4", code=EXIT_VALIDATION),
        _case("ambient-dim-negative", ["classify", "--descriptor",
              '{"p":5,"degree":2,"ambient":{"min_component_dim":0,"ambient_dim":-5}}'],
              "ambient.ambient_dim must be >= 0, got -5", code=EXIT_VALIDATION),
        _case("ambient-srk-negative", ["classify", "--descriptor",
              '{"p":5,"degree":3,"odd_pullback":"all-vanish","ambient":{"srk":-1}}'],
              "ambient.srk must be >= 0, got -1", code=EXIT_VALIDATION),
        _case("nilpotent-string", ["classify", "--descriptor",
              '{"p":5,"degree":4,"nilpotent":"false","dim_total":15}'],
              "nilpotent must be a JSON boolean, got 'false'"),
        _case("equidim-string", ["classify", "--descriptor",
              '{"p":5,"degree":2,"ambient":{"equidim":"no"}}'],
              "ambient.equidim must be a JSON boolean, got 'no'"),
        _case("include-p-string", ["component", "--spec",
              '{"kind":"tube","p":5,"slopes":[0,0,0,0,1],"intercepts":[0,1,1,0,-1],'
              '"include_p":"no"}'],
              "include_p must be a JSON boolean, got 'no'"),
        _case("quiver-rank-float", ["quiver", "--spec", '{"kind":"tube","rank":2.9,"max_ql":4}'],
              "rank must be a JSON integer, got 2.9"),
        _case("degree-float", ["classify", "--descriptor", '{"p":5,"degree":2.5}'],
              "degree must be a JSON integer, got 2.5"),
        _case("dim-total-string", ["classify", "--descriptor",
              '{"p":5,"degree":4,"dim_total":"10"}'],
              "dim_total must be a JSON integer, got '10'"),
        _case("slopes-string", ["component", "--spec",
              '{"kind":"tube","p":5,"slopes":["1",0,0,0,1],"intercepts":[0,1,1,0,-1]}'],
              "slopes[0] must be a JSON integer, got '1'"),
        _case("ambient-null", ["classify", "--descriptor", '{"p":5,"degree":2,"ambient":null}'],
              "ambient must be an object, got null"),
        _case("zt-max-ql-overflow", ["quiver", "--spec", '{"kind":"zt","max_ql":1e400}'],
              "max_ql must be a JSON integer, got inf"),
        _case("file-not-utf8", ["component", "--spec", "@FILE"], "bad JSON: ",
              file_bytes=b"\xff\xfe{"),
        _case("tree-arrow-string", ["quiver", "--spec",
              '{"kind":"zt","tree":{"vertices":["a","b"],"arrows":["ab"]}}'],
              "tree.arrows[0] must be a list, got str"),
        _case("tree-class-digit-separator", ["component", "--spec",
              '{"kind":"split","p":3,"d":[1,0],"tree_class":"D1_0_tilde"}'],
              "bad tree class 'D1_0_tilde'"),
        _case("tree-class-spaces", ["component", "--spec",
              '{"kind":"split","p":3,"d":[1,0],"tree_class":" E6_tilde "}'],
              "unknown tree class ' E6_tilde '"),
        _case("minimal-additive-sign", ["quiver", "--minimal-additive", "D+5_tilde"],
              "bad tree class 'D+5_tilde'"),
        _case("tube-too-large", ["quiver", "--spec", '{"kind":"tube","rank":10000000,"max_ql":1}'],
              "rank * max_ql = 10000000 vertices", code=EXIT_VALIDATION),
        _case("zt-too-large", ["quiver", "--spec", '{"kind":"zt","max_ql":1000000000}'],
              "(n_max - n_min + 1) * max_ql = 4000000000 vertices", code=EXIT_VALIDATION),
        _case("tree-window-too-large", ["quiver", "--spec",
              '{"kind":"zt","tree":{"vertices":["a"],"arrows":[]},"n_max":1000000}'],
              "(n_max - n_min + 1) * len(tree.vertices) = 1000001 vertices",
              code=EXIT_VALIDATION),
        _case("nesting-too-deep", ["component", "--spec", "[" * 100_000], "bad JSON: "),
        _case("file-long-integer", ["component", "--spec", "@FILE"], "bad JSON: ",
              file_bytes=b'{"kind":"tube","p":' + b"9" * 4301 + b"}"),
        # each reader with a field that it does not read
        _case("tube-unknown-field", ["component", "--spec", _TUBE % ',"include_P":true'],
              "unknown tube fields ['include_P']"),
        _case("tube-seed-data", ["component", "--spec", _TUBE % ',"multiplicities":[1,0]'],
              "unknown tube fields ['multiplicities']"),
        _case("seeded-tube-slopes", ["component", "--spec", _SEEDED % ("", ',"slopes":[0,0,1]')],
              "unknown seeded tube fields ['slopes']"),
        _case("seed-unknown-field", ["component", "--spec", _SEEDED % (',"colour":1', "")],
              "unknown seed fields ['colour']"),
        _case("split-seed", ["component", "--spec",
              '{"kind":"split","p":3,"d":[1,0],"seed":{"p":3,"mult":[1,0,0]}}'],
              "unknown split fields ['seed']"),
        _case("tube-window-zt-fields", ["quiver", "--spec",
              '{"kind":"tube","rank":2,"max_ql":3,"n_min":0,'
              '"tree":{"vertices":["a"],"arrows":[]}}'],
              "unknown tube window fields ['n_min', 'tree']"),
        _case("zt-window-rank", ["quiver", "--spec", '{"kind":"zt","max_ql":3,"rank":2}'],
              "unknown zt window fields ['rank']"),
        _case("tree-window-max-ql", ["quiver", "--spec", _TREE % ("", ',"max_ql":3')],
              "unknown zt window fields ['max_ql']"),
        _case("tree-unknown-field", ["quiver", "--spec", _TREE % (',"edges":[]', "")],
              "unknown tree fields ['edges']"),
        _case("model-unknown-field", ["oracle", "json", "--module",
              '{"p":5,"dim":1,"entries":[],"colour":"red"}'], "unknown model fields ['colour']"),
        _case("descriptor-unknown-field", ["classify", "--descriptor",
              '{"p":5,"degree":2,"degre":2}'], "unknown descriptor fields ['degre']"),
        _case("ambient-unknown-field", ["classify", "--descriptor",
              '{"p":5,"degree":2,"ambient":{"srk2":1}}'], "unknown ambient fields ['srk2']"),
    ],
)
def test_json_input_is_strict_in_every_subcommand(capsys, tmp_path, argv, file_bytes, code, message):
    if file_bytes is not None:
        path = tmp_path / "spec.json"
        path.write_bytes(file_bytes)
        argv = [a.replace("@FILE", f"@{path}") for a in argv]
    got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    assert message in err and "Traceback" not in err


_NINES = "9" * 4300  # the most digits str() and int() take by default


@pytest.mark.parametrize("argv,code,message", [
    pytest.param(["component", "--ql-max", "12", "--spec",
                  '{"kind":"tube","p":2,"slopes":[%s,0],"intercepts":[0,0]}' % _NINES[1:]],
                 EXIT_VALIDATION, "a table entry has more than 4300 digits", id="table"),
    pytest.param(["jt", "dim", "--p", "5", "--jt", _NINES + "9[3]"],
                 EXIT_PARSE, "a number at position 0 has more than 4300 digits", id="count"),
    pytest.param(["jt", "dim", "--p", "5", "--jt", f"[3]+[{_NINES}9]"],
                 EXIT_PARSE, "a number at position 4 has more than 4300 digits", id="size"),
    pytest.param(["jt", "dim", "--p", "5", "--jt", _NINES + "[3]"],
                 EXIT_VALIDATION, "the result has more than 4300 digits", id="dim"),
    # n = B t, and n_11 = 1 + 2 + ... + 10 times 10**4299, less 11 times 5 * 10**4299, is 0
    pytest.param(["component", "--solve", "--spec", json.dumps({
                     "kind": "tube", "p": 11, "slopes": [0] * 10 + [5 * 10**4299],
                     "intercepts": [10**4299] * 10 + [-5 * 10**4299], "include_p": True})],
                 EXIT_VALIDATION, "a recovered multiplicity has more than 4300 digits", id="solve"),
    # n = B t has n_3 = 3 times the intercept, 4301 digits, in the rejection message
    pytest.param(["component", "--solve", "--spec",
                  '{"kind":"tube","p":3,"slopes":[0,0,0],"intercepts":[%s,%s,0],"include_p":true}'
                  % (_NINES, _NINES)],
                 EXIT_VALIDATION, "the recovered n_p has more than 4300 digits", id="solve-n_p"),
    # alpha_1 = 10**4300 - 1 - ql first goes negative at ql = 10**4300
    pytest.param(["component", "--spec",
                  '{"kind":"tube","p":2,"slopes":[-1,0],"intercepts":[%s,0]}' % _NINES],
                 EXIT_VALIDATION,
                 "the quasi-length at which alpha_1 goes negative has more than 4300 digits",
                 id="negative-ql"),
])
def test_an_integer_too_long_to_write_is_refused_with_a_message(capsys, argv, code, message):
    # str() and int() refuse an int past sys.get_int_max_str_digits() with a
    # ValueError; the table is checked before its first row is written
    prefix, use = ("parse", "reading") if code == EXIT_PARSE else ("validation", "printing")
    expected = f"{prefix} error: {message}, the limit for {use} an integer\n"
    assert run(capsys, *argv) == (code, "", expected)


# Random argv and JSON for every subcommand, mixing right-typed fields with
# wrong-typed ones: every input must end in exit 0, 2 or 3, never a crash.
_SMALL = st.integers(-64, 64)
_P = st.sampled_from([3, 5, 7]) | _SMALL
_WRONG = (
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.lists(_SMALL, max_size=3) | st.dictionaries(st.text(max_size=2), _SMALL, max_size=2)
)


def _field(right):
    """The right JSON type three times in four, a wrong one otherwise."""
    return st.integers(0, 3).flatmap(lambda k: right if k else _WRONG)


def _ints():
    return _field(st.lists(_field(st.integers(-2, 6)), max_size=12))


def _object(required, optional=None):
    return st.fixed_dictionaries(
        {k: _field(v) for k, v in required.items()},
        optional={k: _field(v) for k, v in (optional or {}).items()},
    )


def _argv(*parts):
    """argv from fixed words, flags with a value (left out at random) and
    strategies of word lists.  A JSON value is always passed inline."""
    pieces = []
    for part in parts:
        if isinstance(part, str):
            pieces.append(st.just([part]))
        elif isinstance(part, tuple):
            flag, values = part
            pieces.append(st.just([]) | values.map(lambda v, flag=flag: [flag, str(v)]))
        else:
            pieces.append(part)
    return st.tuples(*pieces).map(lambda ps: [word for p in ps for word in p])


def _json_flag(flag, values):
    return values.map(lambda v: [flag, json.dumps(v)])


_TREE_CLASSES = st.sampled_from([
    "A_inf", "A_inf_inf", "D5_tilde", "E6_tilde", "A5", "Q9",
    # near misses of a canonical name, each refused
    "D1_0_tilde", "D+5_tilde", "D 5_tilde", "D\u0665_tilde", "D05_tilde", " E6_tilde ",
])
_NAMES = st.sampled_from(["a", "b", "c"])
_TSV_JSON = st.sampled_from(["tsv", "json"])

_JT = _argv(
    "jt",
    st.sampled_from(["dim", "ker", "image", "psi", "stable", "syzygy", "restrict", "dominance"])
    .map(lambda op: [op]),
    ("--p", _P), ("--jt", st.text("0123[]+ ", max_size=10)), ("--m", _SMALL),
    ("--i", _SMALL), ("--j", _SMALL), ("--a", st.text("123[]+", max_size=6)),
    ("--b", st.text("123[]+", max_size=6)), ("--format", _TSV_JSON),
)
_COMPONENT_SPEC = _object(
    {"kind": st.sampled_from(["tube", "split", "cone"]), "p": _P},
    {"seed": _object({"p": _P, "mult": st.lists(_field(st.integers(-2, 6)), max_size=12)}),
     "multiplicities": _ints(), "slopes": _ints(), "intercepts": _ints(),
     "include_p": st.booleans(), "rank": _SMALL, "d": _ints(), "tree_class": _TREE_CLASSES},
)
_COMPONENT = _argv(
    "component", _json_flag("--spec", _COMPONENT_SPEC), ("--ql-max", _SMALL),
    st.sampled_from([[], ["--solve"]]), ("--format", _TSV_JSON), ("--p", _P),
)
_MODEL = _object({
    "p": _P, "dim": st.integers(-2, 12),
    "entries": st.lists(_field(st.lists(_field(st.integers(-2, 12)), max_size=4)), max_size=12),
})
_ORACLE = _argv("oracle", "json", _json_flag("--module", _MODEL), ("--fuzz", st.integers(0, 2)))
_TREE = _object({
    "vertices": st.lists(_field(_NAMES), max_size=4),
    "arrows": st.lists(_field(st.lists(_field(_NAMES), max_size=3)), max_size=4),
})
_WINDOW = _object(
    {"kind": st.sampled_from(["tube", "zt", "cone"])},
    {"rank": st.integers(-2, 8), "max_ql": st.integers(-2, 8), "n_min": st.integers(-2, 8),
     "n_max": st.integers(-2, 8), "tree": _TREE},
)
_QUIVER = _argv(
    "quiver", _json_flag("--spec", _WINDOW) | st.just([]), ("--minimal-additive", _TREE_CLASSES),
    ("--check-additive", st.sampled_from(["ql", "qlm1", "const:2", "const:x", "up"])),
    ("--admissible", _SMALL), ("--format", st.sampled_from(["dot", "tsv", "json"])),
)
_AMBIENT = _object({}, {
    **{k: _SMALL for k in ("pi_dim", "variety_dim", "ambient_dim", "min_component_dim",
                           "srk", "srk_quotient")},
    **{k: st.booleans() for k in ("equidim", "is_finite_group", "trigonalizable")},
})
_DESCRIPTOR = _object(
    {"p": _P, "degree": st.integers(1, 6) | _SMALL},
    {"nilpotent": st.booleans(), "dim_total": _SMALL, "ambient": _AMBIENT,
     "odd_pullback": st.sampled_from(["mixed", "all-vanish", "none-vanish", "some"])},
)
_CLASSIFY = _argv(
    "classify", _json_flag("--descriptor", _DESCRIPTOR), ("--format", _TSV_JSON), ("--p", _P)
)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(st.one_of(_JT, _COMPONENT, _ORACLE, _QUIVER, _CLASSIFY))
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_PARSE), argv
    assert "Traceback" not in err.getvalue(), argv
