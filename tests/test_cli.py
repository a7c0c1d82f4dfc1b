import contextlib
import hashlib
import io
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanquiver.cli import EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, build_parser, main
from jordanquiver.components import (
    TubeProfile,
    apply_a,
    profile_from_json,
    split_propagate,
)
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
    # when kernel sums, restriction and dominance keys were computed per entry
    digest = hashlib.sha256()
    for argv in _jt_corpus():
        code, out, err = run(capsys, *argv)
        digest.update(f"{argv}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == "43d94666211ebc6feccd8edebe0e2707edf3ff6300e40add2adf57ad749f2a15"


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
    """A component spec of the given kind whose table stays in N_0."""
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
        lines += [f"{q}\t{i}\t{jt.multiplicity(i)}" for i in range(1, profile.p + 1)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["tube-include-p", "tube", "split-tree", "split"])
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


def test_oracle_fuzz(capsys):
    code, out, _ = run(capsys, "oracle", "heisenberg", "--p", "3", "--fuzz", "3")
    assert code == EXIT_OK and "fuzz PASS" in out


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


# -------------------------------------------------------------- strict JSON


def _case(case_id, argv, message, code=EXIT_PARSE, file_bytes=None):
    return pytest.param(argv, file_bytes, code, message, id=case_id)


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
        _case("nesting-too-deep", ["component", "--spec", "[" * 100_000], "bad JSON: "),
        _case("file-long-integer", ["component", "--spec", "@FILE"], "bad JSON: ",
              file_bytes=b'{"kind":"tube","p":' + b"9" * 4301 + b"}"),
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


_TREE_CLASSES = st.sampled_from(["A_inf", "A_inf_inf", "D5_tilde", "E6_tilde", "A5", "Q9"])
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
