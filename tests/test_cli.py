import json

from jordanquiver.cli import EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main
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
