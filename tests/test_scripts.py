"""Smoke test: the scripts in scripts/, ``python -m jordanquiver`` and the
README's CLI examples run end to end against src/."""

import ast
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from model_reference import DIM_12_AT_7, SIX_BY_SIX

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_python(*argv):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=ENV, timeout=120
    )


def run_script(*argv):
    return run_python(str(ROOT / "scripts" / argv[0]), *argv[1:])


def test_tube_sweep_round_trips():
    result = run_script("tube_sweep.py", "--p", "3")
    assert result.returncode == 0, result.stderr
    assert "0 round-trip mismatches" in result.stdout


def test_worked_examples_run():
    result = run_script("worked_examples.py")
    assert result.returncode == 0, result.stderr


def test_code_lines_totals_its_modules():
    for argv in [(), (str(ROOT / "src"), str(ROOT / "tests" / "dense_reference.py"))]:
        result = run_python(str(ROOT / "scripts" / "code_lines.py"), *argv)
        assert result.returncode == 0, result.stderr
        *modules, total = [line.split("\t") for line in result.stdout.splitlines()]
        assert total[1] == "total" and len(modules) > 1
        assert int(total[0]) == sum(int(count) for count, _ in modules) > 0


def test_traffic_lines_lists_what_the_workload_never_runs():
    result = run_script("traffic_lines.py", "cli-mix")
    assert result.returncode == 0, result.stderr
    *functions, total = [line.split("\t") for line in result.stdout.splitlines()]
    assert total[2] == "total" and functions
    rows = {name: (int(unrun), int(stmts)) for unrun, stmts, name in functions}
    assert len(rows) == len(functions) and all(0 < u <= s for u, s in rows.values())
    assert [sum(column) for column in zip(*rows.values())] == [int(total[0]), int(total[1])]
    # kept for ROADMAP item 11 and called by no op: every statement is listed
    unrun, stmts = rows["classify.sl2_family_types"]
    assert unrun == stmts > 0


def test_python_m_runs_the_cli():
    result = run_python("-m", "jordanquiver", "oracle", "heisenberg", "--p", "13")
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "[13]+2[12]+2[11]+2[10]+2[9]+2[8]+2[7]+2[6]+2[5]+2[4]+2[3]+2[2]+2[1] PASS\n"
    )


def test_closed_stdout_is_not_an_error():
    # a reader that stops early (`| head -1`) is not malformed input: the
    # table runs to about 1 MB, so the writer is still writing when the pipe closes
    spec = '{"kind":"split","p":5,"d":[1,0,0,1]}'
    argv = ["-m", "jordanquiver", "component", "--spec", spec, "--ql-max", "20000"]
    with subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=ENV) as proc:
        assert proc.stdout.readline() == "ql\ti\talpha_i\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (0, "")


# the README's direct tube
DIRECT_TUBE = ('{"kind":"tube","p":5,"slopes":[0,0,0,0,1],'
               '"intercepts":[0,1,1,0,-1],"include_p":true}')


def limit_address_space():
    """Set a 1.5 GB address space, in a child only."""
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2)


def test_a_table_of_any_length_streams():
    # 10^8 rows would take gigabytes as one text; streamed, the header comes
    # at once under a 1.5 GB address space, set in the child only
    argv = ["-m", "jordanquiver", "component", "--ql-max", "100000000",
            "--spec", DIRECT_TUBE]
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=ENV,
                          preexec_fn=limit_address_space) as proc:
        assert proc.stdout.readline() == "ql\ti\talpha_i\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (0, "")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("fmt,head", [
    ("tsv", "ql\ti\talpha_i\n1\t1\t0\n1\t2\t1\n"),
    ("json", '[{"ql": 1, "type": {"p": 5, "mult": [0, 1, 1, 0, 0]}}, '
             '{"ql": 2, "type": {"p": 5, "mult": [0, 1, 1, 0, 1]}}, {"ql": 3, "'),
])
def test_a_table_longer_than_maxsize_streams(fmt, head):
    # 2^64 rows: a chunk's ql range and its moving columns are slices of lazy
    # ranges, so no row count or list of rows past sys.maxsize is ever asked
    # for.  Run in a child under a 1.5 GB address space, where a regression
    # that builds a list fails fast instead of filling the machine's memory
    argv = ["-m", "jordanquiver", "component", "--ql-max", str(2**64), "--format", fmt,
            "--spec", DIRECT_TUBE]
    with subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=ENV,
                          preexec_fn=limit_address_space) as proc:
        assert proc.stdout.read(len(head)) == head
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (0, "")


def readme_cli_examples():
    """(argv, expected fragments) of each ``jordanquiver`` command in the README.

    A command goes on over a trailing backslash or an open quote.  A
    ``# -> X`` annotation, on the command's last line or on a comment line
    below it, names output the command prints; ``X / Y`` names two lines.
    """
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    examples, pending = [], ""
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.splitlines():
            if pending or line.startswith("jordanquiver "):
                pending += line + "\n"
                try:
                    argv = shlex.split(pending.replace("\\\n", ""), comments=True)
                except ValueError:  # an open quote: the command goes on
                    continue
                if line.endswith("\\"):
                    continue
                examples.append((argv, []))
                pending = ""
            elif not line.strip().startswith("# -> "):
                continue
            if "# -> " in line:
                examples[-1][1].extend(line.split("# -> ", 1)[1].split(" / "))
    return examples


def test_readme_cli_examples():
    examples = readme_cli_examples()
    assert len(examples) >= 10
    for argv, expected in examples:
        assert argv[0] == "jordanquiver"
        result = run_python("-m", "jordanquiver", *argv[1:])
        assert result.returncode == 0, (argv, result.stderr)
        for fragment in expected:
            assert fragment.strip() in result.stdout, (argv, fragment)


def test_readme_cli_examples_are_read_from_the_table():
    # each README command is a plain argv, read from the table taken off the
    # parser as the parser reads it; a reader that stopped firing shows here
    from jordanquiver.cli import _plain, build_parser

    for argv, _ in readme_cli_examples():
        assert _plain(argv[1:]) == build_parser().parse_args(argv[1:]), argv


def test_package_imports_only_stdlib():
    # the library has no dependencies: importing it and every module may load
    # nothing but the standard library.  `site` can preload third-party
    # packages before the import starts, so only what the import adds counts.
    # The CLI imports most modules only when a subcommand runs, so each is named
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import jordanquiver.cli, jordanquiver.classify, jordanquiver.components\n"
        "import jordanquiver.errors, jordanquiver.jtypes, jordanquiver.oracle\n"
        "import jordanquiver.quiver, jordanquiver.trees\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(added - set(sys.stdlib_module_names))))\n"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["jordanquiver"]


def package_modules_after(code):
    """The jordanquiver modules in ``sys.modules`` once ``code`` has run."""
    result = run_python("-c", code + "\nimport sys\n"
                        "print(*sorted(n for n in sys.modules if n.startswith('jordanquiver')))")
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def _is_sys_path(node):
    return (isinstance(node, ast.Attribute) and node.attr == "path"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def test_the_suite_tests_whichever_package_is_importable():
    # CI runs this suite a second time from outside the checkout with no
    # PYTHONPATH, on the installed package; that holds while no test file
    # and no pytest setting puts src/ on sys.path (a child process given
    # PYTHONPATH=src explicitly is another matter)
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AugAssign) else [])
            for target in targets:
                assert not any(map(_is_sys_path, ast.walk(target))), f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                assert not (_is_sys_path(func.value) or func.attr == "syspath_prepend"), (
                    f"{path.name}:{node.lineno}")
    text = (ROOT / "pyproject.toml").read_text()
    options = text.split("[tool.pytest.ini_options]", 1)[1].split("\n[", 1)[0]
    assert "testpaths" in options and not re.search(r"^\s*pythonpath\s*=", options, re.M)


def test_importing_a_module_loads_only_what_it_imports():
    # the package re-exports nothing, so one module does not load the rest
    assert package_modules_after("import jordanquiver.jtypes") == [
        "jordanquiver", "jordanquiver.errors", "jordanquiver.jtypes",
    ]
    assert package_modules_after("import jordanquiver.cli; jordanquiver.cli.build_parser()") == [
        "jordanquiver", "jordanquiver.cli", "jordanquiver.errors", "jordanquiver.jtypes",
    ]


def modules_loaded_by(*argv, stdout):
    """The modules a ``python -m jordanquiver`` process imports, which
    ``-X importtime`` names on stderr, once it has printed ``stdout``."""
    result = run_python("-X", "importtime", "-m", "jordanquiver", *argv)
    assert (result.returncode, result.stdout) == (0, stdout), result.stderr
    return {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
            if line.startswith("import time:")}


def test_jt_process_loads_no_other_layer():
    # a subcommand imports the modules it runs when it runs
    layers = {f"jordanquiver.{m}" for m in ("classify", "components", "oracle", "quiver", "trees")}
    loaded = modules_loaded_by("jt", "dim", "--p", "5", "--jt", "2[3]+[1]", stdout="7\n")
    assert {"jordanquiver.cli", "jordanquiver.jtypes"} <= loaded
    assert not loaded & layers
    # a tree class is read from trees, so neither of its two readers loads the other
    loaded = modules_loaded_by("component", "--ql-max", "1", "--spec",
                               '{"kind":"split","p":3,"d":[1,0],"tree_class":"E8_tilde"}',
                               stdout="ql\ti\talpha_i\n1\t1\t1\n1\t2\t0\n1\t3\t0\n")
    assert loaded & layers == {"jordanquiver.components", "jordanquiver.trees"}
    loaded = modules_loaded_by("quiver", "--minimal-additive", "A12_tilde", "--format", "tsv",
                               stdout="0\t1\n1\t1\nimage_size\t1\n")
    assert loaded & layers == {"jordanquiver.quiver", "jordanquiver.trees"}
    # a sweep is a closed form on Jordan types, so it builds no matrix model
    loaded = modules_loaded_by("oracle", "sweep", "--p", "7", "--base-block", "4",
                               stdout="4 distinct types\n[4]\n2[2]\n[2]+2[1]\n4[1]\n")
    assert not loaded & layers


@pytest.mark.parametrize("argv,stdout", [
    (("jt", "dim", "--p", "5", "--jt", "[1]"), "1\n"),
    (("component", "--ql-max", "1", "--spec",
      '{"kind":"split","p":3,"d":[1,0],"tree_class":"A_inf"}'),
     "ql\ti\talpha_i\n1\t1\t1\n1\t2\t0\n1\t3\t0\n"),
    (("oracle", "heisenberg", "--p", "5"), "[5]+2[4]+2[3]+2[2]+2[1] PASS\n"),
    (("quiver", "--minimal-additive", "A12_tilde", "--format", "tsv"),
     "0\t1\n1\t1\nimage_size\t1\n"),
    (("classify", "--descriptor", '{"p":5,"degree":3,"ambient":{"srk":2}}'),
     "{n[5]+2[4], n[5]+[3]} ; Indecomposable ; COD1.2\n"),
    # a sparse model takes the Krylov route: f of the sl(2) Verma pair at
    # p = 1009 walks one chain of 1008 vectors
    (("oracle", "sl2s", "--p", "1009", "--i", "500"), "[509]+[500] PASS\n[1009] PASS\n"),
    # the named models write their columns as the model stores them: e at
    # p = 100003 has no column at v_50000, whose coefficient vanishes
    (("oracle", "sl2s", "--p", "100003", "--i", "50000"),
     "[50003]+[50000] PASS\n[100003] PASS\n"),
    # an all-nonzero model and its dense conjugates run on packed rows
    (("oracle", "json", "--fuzz", "3", "--module", SIX_BY_SIX),
     "[4]+[2]\nfuzz PASS (3 conjugations per model)\n"),
    (("oracle", "json", "--fuzz", "2", "--module", DIM_12_AT_7),
     "[7]+[3]+[2]\nfuzz PASS (2 conjugations per model)\n"),
    # a JSON table with constant (slope 0) and moving columns
    (("component", "--ql-max", "2", "--format", "json", "--spec",
      '{"kind":"tube","p":3,"slopes":[0,1,0],"intercepts":[2,0,0],"include_p":true}'),
     '[{"ql": 1, "type": {"p": 3, "mult": [2, 1, 0]}}, '
     '{"ql": 2, "type": {"p": 3, "mult": [2, 2, 0]}}]\n'),
    # a seeded tube is built by the step that ends TubeProfile(), and solves
    (("component", "--solve", "--spec", '{"kind":"tube","p":3,"seed":{"p":3,"mult":[2,2,1]},'
      '"multiplicities":[1,0],"include_p":true}'), "n = (1, 0)\n"),
    # an argv the table off the parser does not read ("=" forms,
    # abbreviated options) falls back to argparse, with the same result
    (("jt", "dim", "--p=5", "--jt=[2]"), "2\n"),
    (("component", "--sp", '{"kind":"split","p":3,"d":[1,0]}', "--ql", "1"),
     "ql\ti\talpha_i\n1\t1\t1\n1\t2\t0\n1\t3\t0\n"),
], ids=["jt", "component", "oracle", "quiver", "classify", "oracle-sl2s-1009",
        "oracle-sl2s-100003", "oracle-json-six-by-six", "oracle-json-dim-12", "component-json",
        "component-seeded-solve", "jt-equals-forms", "component-abbreviated"])
def test_no_command_loads_dataclasses_or_inspect(argv, stdout):
    # the records are errors.Value classes: dataclasses would import
    # inspect, ast, dis and tokenize into every process
    assert not modules_loaded_by(*argv, stdout=stdout) & {"dataclasses", "inspect"}


def test_the_digit_limit_is_read_when_the_command_runs():
    # PYTHONINTMAXSTRDIGITS sets sys.get_int_max_str_digits(); 640 is its least value
    argv = ("-m", "jordanquiver", "jt", "dim", "--p", "5", "--jt", "9" * 700 + "[1]")
    assert run_python(*argv).stdout == "9" * 700 + "\n"
    env = {**ENV, "PYTHONINTMAXSTRDIGITS": "640"}
    result = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                            timeout=120)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == ("parse error: a number at position 0 has more than 640 digits, "
                             "the limit for reading an integer\n")


def check_bench_file(bench):
    """The schema of one BENCH_<pr>.json object, as ``scripts/bench_record.py``
    writes it; no timing is bounded."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(bench) == {"pr", "git_sha", "dirty", "src_sha256", "runs"}
    assert type(bench["pr"]) is int
    # both None outside a git checkout
    assert bench["git_sha"] is None or re.fullmatch(r"[0-9a-f]{40}", bench["git_sha"])
    assert bench["dirty"] in ((None,) if bench["git_sha"] is None else (True, False))
    assert re.fullmatch(r"[0-9a-f]{64}", bench["src_sha256"])
    assert bench["runs"]
    for run in bench["runs"]:
        assert set(run) == {"workload", "seed", "seconds", "returncode", "env", "digest", "result"}
        assert run["workload"] in workloads and type(run["seed"]) is int
        assert run["returncode"] == 0
        env = run["env"]
        assert (env["workload"], env["seed"], env["seconds"], env["trace"]) == (
            run["workload"], run["seed"], run["seconds"], 0)
        assert {"python", "nproc", "cpu", "ops_timed", "attempted"} <= set(env)
        assert re.fullmatch(r"digest sha256=[0-9a-f]{64} ops=\d+ \(.*\)", run["digest"])
        result = run["result"]
        assert (result["correct"], result["failed"], result["attempted"]) == (
            True, 0, env["attempted"])
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
        assert all(type(m["value"]) is float for m in result["metrics"].values())
    # a workload and seed give the same first round, so the same digest
    digests = {}
    for run in bench["runs"]:
        assert digests.setdefault((run["workload"], run["seed"]), run["digest"]) == run["digest"]


def test_committed_bench_files_follow_the_schema():
    # the BENCH files form the perf trajectory: each covers every workload
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    for path in paths:
        bench = json.loads(path.read_text())
        assert path.name == f"BENCH_{bench['pr']}.json"
        check_bench_file(bench)
        assert bench["git_sha"], path.name
        assert {run["workload"] for run in bench["runs"]} == workloads, path.name


def test_bench_record_writes_a_bench_file(tmp_path):
    out = tmp_path / "BENCH_0.json"
    result = run_script("bench_record.py", "--pr", "0", "--workload", "cli-mix", "--seeds", "1",
                        "--seconds", "1", "--out", str(out))
    assert result.returncode == 0, result.stderr
    bench = json.loads(out.read_text())
    check_bench_file(bench)
    assert [(run["workload"], run["seed"], run["seconds"]) for run in bench["runs"]] == [
        ("cli-mix", 1, 1.0)]


# Public names that only tests call, each kept for a reason
_TEST_ONLY_KEPT = {
    "benson_constraint",  # ROADMAP item 2: a Carlson-module oracle will give it a computed route
    "endo_trivial",  # ROADMAP item 8: tensor products of Jordan types will compute it
    "sl2_family_types",  # ROADMAP item 11: a u(sl(2)) module oracle will check it
    "dominance_on_component",  # ROADMAP item 14: the paper's vertex-independent dominance
    "seed_to_split_profile",  # ROADMAP item 14: kept until a route reads it
}


def name_of(node):
    """The name an AST node reads, imports or takes as an attribute, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def parts_of(stmt, in_package):
    """(part, own) pairs that cover a module's top-level ``stmt``: ``own``
    holds the public names the package defines by that part.

    A public class is split into its members, so each public method, such
    as a classmethod, is a definition of its own.
    """
    public = (in_package and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_"))
    own = {stmt.name} if public else set()
    if not (public and isinstance(stmt, ast.ClassDef)):
        return [(stmt, own)]
    parts = [(node, own) for node in (*stmt.bases, *stmt.keywords, *stmt.decorator_list)]
    for member in stmt.body:
        method = isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
        parts.append((member, own | {member.name} if method else own))
    return parts


def test_every_public_name_has_a_caller_outside_tests():
    """A public function, class or method of the package that only tests
    name is surface kept for the tests alone: delete it, or keep it with a
    reason in ``_TEST_ONLY_KEPT``.

    Names are matched bare, so the guard cannot see an operator, a keyword
    option, a method whose name another class shares, an enum member or a
    field.  ``scripts/traffic_lines.py`` lists the statements that the
    benchmark workloads never run, which shows such surface where no op
    reaches it.
    """
    package = ROOT / "src" / "jordanquiver"
    defined, named = set(), set()
    for path in [*package.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        for stmt in ast.parse(path.read_text()).body:
            for part, own in parts_of(stmt, path.parent == package):
                defined |= own
                # a definition that names only itself has no caller
                named.update(name for name in map(name_of, ast.walk(part)) if name not in own)
    assert "JordanType" in defined
    assert {"from_counts", "from_json_dict"} <= defined  # methods are definitions too
    assert sorted(defined - named - _TEST_ONLY_KEPT) == []
