import json
import sys

import pytest
from click.testing import CliRunner

from mutspace.cli import main
from helpers import FOUR_MUTANT_CSV, MAX_SRC, three_program_matrix
from mutspace import matrix_from_outputs, matrix_to_json_text

# min-where-max-was-meant: the fault sits in the if condition (statement 2)
FAULTY_SRC = """r = a;
if (b < r) {
  r = b;
}
return r;
"""

FAULTY_TESTS = [
    {"id": "T1", "inputs": {"a": 1, "b": 5}},
    {"id": "T2", "inputs": {"a": 5, "b": 1}},
    {"id": "T3", "inputs": {"a": 4, "b": 4}},
    {"id": "T4", "inputs": {"a": 0, "b": 7}},
    {"id": "T5", "inputs": {"a": 7, "b": 0}},
    {"id": "T6", "inputs": {"a": 2, "b": 2}},
]

FAULTY_EXPECTED = {"T1": "5", "T2": "5", "T3": "4", "T4": "7", "T5": "7", "T6": "2"}


@pytest.fixture
def runner():
    return CliRunner()


def write_faulty_inputs(tmp_path):
    program = tmp_path / "faulty.src"
    program.write_text(FAULTY_SRC)
    tests = tmp_path / "tests.json"
    tests.write_text(json.dumps(FAULTY_TESTS))
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps(FAULTY_EXPECTED))
    return program, tests, expected


# --- mutate ------------------------------------------------------------------


def test_mutate_lists_descriptors(runner, tmp_path):
    src = tmp_path / "max.src"
    src.write_text(MAX_SRC)
    result = runner.invoke(main, ["mutate", str(src)])
    assert result.exit_code == 0
    listing = json.loads(result.output)
    assert listing[0]["id"] == "m1"
    assert {d["operator"] for d in listing} == {"SDL", "ROR"}


def test_mutate_operator_filter(runner, tmp_path):
    src = tmp_path / "max.src"
    src.write_text(MAX_SRC)
    result = runner.invoke(main, ["mutate", str(src), "--operators", "ROR"])
    assert result.exit_code == 0
    assert {d["operator"] for d in json.loads(result.output)} == {"ROR"}


def test_mutate_writes_sources(runner, tmp_path):
    src = tmp_path / "max.src"
    src.write_text(MAX_SRC)
    out_dir = tmp_path / "mutants"
    result = runner.invoke(main, ["mutate", str(src), "--out-dir", str(out_dir)])
    assert result.exit_code == 0
    listing = json.loads(result.output)
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == sorted(f"{d['id']}.src" for d in listing)
    from mutspace.lang import parse

    for p in out_dir.iterdir():
        parse(p.read_text())  # every mutant source re-parses


def test_mutate_rejects_bad_source(runner, tmp_path):
    src = tmp_path / "bad.src"
    src.write_text("if (a > 0) {\n  x = 1;\n")
    result = runner.invoke(main, ["mutate", str(src)])
    assert result.exit_code == 2
    assert "brace" in result.stderr


# --- run ----------------------------------------------------------------------


def test_run_emits_a_valid_matrix(runner, tmp_path):
    program, tests, expected = write_faulty_inputs(tmp_path)
    result = runner.invoke(
        main,
        ["run", "--program", str(program), "--tests", str(tests),
         "--expected", str(expected)],
    )
    assert result.exit_code == 0
    from mutspace import matrix_from_json_text

    bm = matrix_from_json_text(result.output)
    assert bm.original_id == "original"
    assert bm.spec_id == "spec"
    assert len(bm.mutant_ids()) > 0


def test_run_output_is_byte_stable(runner, tmp_path):
    program, tests, expected = write_faulty_inputs(tmp_path)
    args = ["run", "--program", str(program), "--tests", str(tests),
            "--expected", str(expected)]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output


def test_run_honors_budget_option(runner, tmp_path):
    program = tmp_path / "loop.src"
    program.write_text("i = 0;\nwhile (i >= 0) {\n  i = i + 1;\n}\nreturn i;\n")
    tests = tmp_path / "tests.json"
    tests.write_text(json.dumps([{"id": "T1", "inputs": {}}]))
    result = runner.invoke(
        main,
        ["run", "--program", str(program), "--tests", str(tests),
         "--operators", "SDL", "--budget", "50"],
    )
    assert result.exit_code == 0
    from mutspace import matrix_from_json_text

    bm = matrix_from_json_text(result.output)
    assert bm.token("original", "T1").status == "timeout"


@pytest.mark.parametrize(
    "args, env, source",
    [
        (["--budget", "0"], {}, "--budget"),
        (["--budget", "-5"], {}, "--budget"),
    ],
)
def test_run_rejects_nonpositive_budget(runner, tmp_path, args, env, source):
    program, tests, _ = write_faulty_inputs(tmp_path)
    result = runner.invoke(
        main, ["run", "--program", str(program), "--tests", str(tests)] + args, env=env
    )
    assert result.exit_code == 2
    assert source in result.stderr


def test_run_rejects_bad_tests_file(runner, tmp_path):
    program, tests, expected = write_faulty_inputs(tmp_path)
    tests.write_text(json.dumps([{"id": "T1", "inputs": {"a": "x"}}]))
    result = runner.invoke(
        main, ["run", "--program", str(program), "--tests", str(tests)]
    )
    assert result.exit_code == 2
    assert "/0/inputs" in result.stderr


@pytest.mark.parametrize(
    "literal, message",
    [
        ("1\u00b2", "unexpected character"),
        pytest.param(
            "1" * 5_000,
            "integer literal too long",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="this Python reads int literals of any length",
            ),
        ),
    ],
    ids=["superscript", "too_long"],
)
def test_run_rejects_literals_int_cannot_read(runner, tmp_path, literal, message):
    program, tests, _ = write_faulty_inputs(tmp_path)
    program.write_text(f"x = {literal};\nreturn x;\n", encoding="utf-8")
    result = runner.invoke(main, ["run", "--program", str(program), "--tests", str(tests)])
    assert result.exit_code == 2
    assert message in result.stderr


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python converts ints of any size to text",
)
def test_run_mutates_a_literal_at_the_int_string_limit(runner, tmp_path):
    program, tests, _ = write_faulty_inputs(tmp_path)
    program.write_text("x = " + "9" * 4_300 + ";\nreturn x;\n")
    result = runner.invoke(main, ["run", "--program", str(program), "--tests", str(tests)])
    assert result.exit_code == 0, result.stderr
    from mutspace import matrix_from_json_text

    bm = matrix_from_json_text(result.output)
    assert len(bm.mutant_ids()) == 4  # SDL of both statements, CRP to c - 1 and 0


# --- analyze ---------------------------------------------------------------------


def write_kills(tmp_path):
    path = tmp_path / "kills.csv"
    path.write_text(FOUR_MUTANT_CSV)
    return path


def test_analyze_adequacy(runner, tmp_path):
    result = runner.invoke(main, ["analyze", "adequacy", str(write_kills(tmp_path))])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["adequate"] is True
    assert report["live"] == []
    assert report["killers"] == {"m1": "t1", "m2": "t2", "m3": "t1", "m4": "t1"}


def test_analyze_minimize(runner, tmp_path):
    result = runner.invoke(main, ["analyze", "minimize", str(write_kills(tmp_path))])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["minimal"] == ["m1", "m2"]
    assert report["reduction_ratio"] == 0.5


def test_analyze_dmsg(runner, tmp_path):
    result = runner.invoke(main, ["analyze", "dmsg", str(write_kills(tmp_path))])
    assert result.exit_code == 0
    assert 'c0 [label="m1"];' in result.output
    assert "c0 -> c2;" in result.output  # m1 -> m3


def test_analyze_rejects_bad_csv(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("mutant,m1\nt1,1\n")
    result = runner.invoke(main, ["analyze", "minimize", str(path)])
    assert result.exit_code == 2
    assert "header" in result.stderr


def test_run_then_analyze_kills_then_minimize(runner, tmp_path):
    """Strong (output) and weak (trace) kills from one traced run; tracing
    changes no output, and every strong kill is a weak kill."""
    program, tests, expected = write_faulty_inputs(tmp_path)
    inputs = ["--program", str(program), "--tests", str(tests), "--expected", str(expected)]
    csvs = {}
    for name, tracing, policy in [("plain", [], "output"), ("strong", ["--trace"], "output"),
                                  ("weak", ["--trace"], "trace")]:
        matrix = tmp_path / f"{name}.json"
        assert runner.invoke(main, ["run", *inputs, *tracing, "--out", str(matrix)]).exit_code == 0
        csvs[name] = tmp_path / f"{name}.csv"
        result = runner.invoke(main, ["analyze", "kills", str(matrix), "--policy", policy,
                                      "--out", str(csvs[name])])
        assert result.exit_code == 0, result.stderr
    assert csvs["plain"].read_bytes() == csvs["strong"].read_bytes()
    strong = [line.split(",") for line in csvs["strong"].read_text().splitlines()]
    weak = [line.split(",") for line in csvs["weak"].read_text().splitlines()]
    assert strong[0] == weak[0] and strong[0][0] == "test" and len(strong) == len(FAULTY_TESTS) + 1
    for s_row, w_row in zip(strong[1:], weak[1:]):
        assert all(w == "1" for s, w in zip(s_row[1:], w_row[1:]) if s == "1")
    assert strong != weak  # some mutant is killed weakly only
    result = runner.invoke(main, ["analyze", "minimize", str(csvs["strong"])])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["minimal"] and set(report["minimal"]) <= set(strong[0][1:])


def test_analyze_kills_without_an_original_row_exits_3(runner, tmp_path):
    bm = matrix_from_outputs(["t1"], {"ps": ["a"], "m1": ["b"]},
                             roles={"ps": "spec", "m1": "mutant"})
    matrix = tmp_path / "matrix.json"
    matrix.write_text(matrix_to_json_text(bm))
    result = runner.invoke(main, ["analyze", "kills", str(matrix)])
    assert result.exit_code == 3
    assert "error: kill matrices require a program with role 'original'" in result.stderr


def test_analyze_pdl(runner):
    result = runner.invoke(main, ["analyze", "pdl", "--n", "3"])
    assert result.exit_code == 0
    nodes = [
        line for line in result.output.splitlines()
        if "[label=" in line and "->" not in line
    ]
    assert len(nodes) == 8
    assert result.output.count("->") == 12


def test_analyze_pdl_output_has_pinned_bytes_for_every_explicit_dimension(runner):
    import hashlib

    digest = hashlib.sha256()
    for n in range(17):
        result = runner.invoke(main, ["analyze", "pdl", "--n", str(n)])
        assert result.exit_code == 0, n
        digest.update(result.output.encode())
    assert digest.hexdigest() == "94934ff0b6ef30241648622e3f607c6eac75f37d61b7a5e4e469abb8ca47a99f"


def test_analyze_pdl_capacity(runner):
    result = runner.invoke(main, ["analyze", "pdl", "--n", "17"])
    assert result.exit_code == 4
    assert "capped" in result.stderr


def test_analyze_dvector(runner, tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(matrix_to_json_text(three_program_matrix()))
    result = runner.invoke(
        main,
        ["analyze", "dvector", str(matrix), "--left", "ps", "--right", "po"],
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["bits"] == [0, 1, 1, 1]
    assert report["norm"] == 3


def test_analyze_dvector_unknown_program(runner, tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(matrix_to_json_text(three_program_matrix()))
    result = runner.invoke(
        main,
        ["analyze", "dvector", str(matrix), "--left", "ps", "--right", "zz"],
    )
    assert result.exit_code == 2
    assert "zz" in result.stderr


def test_analyze_dvector_schema_violation_names_the_path(runner, tmp_path):
    obj = json.loads(matrix_to_json_text(three_program_matrix()))
    obj["cells"]["m"]["t1"]["status"] = "broken"
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(obj))
    result = runner.invoke(
        main,
        ["analyze", "dvector", str(matrix), "--left", "ps", "--right", "po"],
    )
    assert result.exit_code == 2
    assert "/cells/m/t1/status" in result.stderr


def test_analyze_dvector_numeric_policy_on_huge_outputs(runner, tmp_path):
    matrix = tmp_path / "big.json"
    outputs = {"a": ["1e999999999", "2", "1e-999999999"], "b": ["0", "2.4", "0"]}
    matrix.write_text(matrix_to_json_text(matrix_from_outputs(["t1", "t2", "t3"], outputs)))
    result = runner.invoke(
        main,
        ["analyze", "dvector", str(matrix), "--left", "a", "--right", "b",
         "--policy", "numeric", "--epsilon", "0.5"],
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["bits"] == [1, 0, 0]


def test_unknown_policy_rejected_before_reading_files(runner, tmp_path):
    result = runner.invoke(
        main,
        ["analyze", "dvector", str(tmp_path / "nope.json"),
         "--left", "a", "--right", "b", "--policy", "fuzzy"],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "command",
    [["analyze", "dvector", "{matrix}", "--left", "ps", "--right", "m"],
     ["mbfl", "--matrix", "{matrix}"]],
    ids=["dvector", "mbfl"],
)
@pytest.mark.parametrize("epsilon", ["-1", "nan"])
def test_invalid_epsilon_is_a_usage_error(runner, tmp_path, command, epsilon):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(matrix_to_json_text(three_program_matrix()))
    args = [a.format(matrix=matrix) for a in command]
    result = runner.invoke(main, args + ["--policy", "numeric", "--epsilon", epsilon])
    assert result.exit_code == 2
    assert "nonnegative" in result.stderr
    assert "Traceback" not in result.output


# --- mbfl -------------------------------------------------------------------------


def test_mbfl_ranks_the_faulty_statement_first(runner, tmp_path):
    program, tests, expected = write_faulty_inputs(tmp_path)
    result = runner.invoke(
        main,
        ["mbfl", "--program", str(program), "--tests", str(tests),
         "--expected", str(expected), "--method", "fix"],
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    top = report["ranking"][0]
    assert top["statement"] == 2
    assert top["rank"] == 1.0
    assert top["score"] == 1.0


def test_mbfl_flt_jaccard_flag_plumbing(runner, tmp_path):
    program, tests, expected = write_faulty_inputs(tmp_path)
    result = runner.invoke(
        main,
        ["mbfl", "--program", str(program), "--tests", str(tests),
         "--expected", str(expected), "--method", "flt", "--metric", "jaccard"],
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["method"] == "flt-jaccard"


def test_mbfl_matrix_mode_with_statement_map(runner, tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(matrix_to_json_text(three_program_matrix()))
    statements = tmp_path / "statements.json"
    statements.write_text(json.dumps({"m": 1}))
    result = runner.invoke(
        main,
        ["mbfl", "--matrix", str(matrix), "--statements", str(statements),
         "--method", "flt", "--policy", "exact"],
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["ranking"][0]["statement"] == 1


POLICY_ARGS = {
    "output": ["--policy", "output"],
    "trace": ["--policy", "trace"],
    "exact": ["--policy", "exact"],
    "numeric": ["--policy", "numeric", "--epsilon", "0.5"],
}


@pytest.mark.parametrize("method", ["fix", "flt"])
@pytest.mark.parametrize("policy", sorted(POLICY_ARGS))
def test_mbfl_program_mode_equals_run_then_matrix_mode(runner, tmp_path, policy, method):
    """--program traces exactly when its policy reads traces, so it scores
    the matrix that ``run [--trace]`` writes."""
    program, tests, expected = write_faulty_inputs(tmp_path)
    inputs = ["--program", str(program), "--tests", str(tests), "--expected", str(expected)]
    mutated = runner.invoke(main, ["mutate", str(program)])
    assert mutated.exit_code == 0
    statements = tmp_path / "statements.json"
    statements.write_text(json.dumps({d["id"]: d["statement"] for d in json.loads(mutated.output)}))
    matrix = tmp_path / "matrix.json"
    tracing = ["--trace"] if policy in ("trace", "exact") else []
    ran = runner.invoke(main, ["run", *inputs, *tracing, "--out", str(matrix)])
    assert ran.exit_code == 0
    options = ["--method", method, *POLICY_ARGS[policy]]
    direct = runner.invoke(main, ["mbfl", *inputs, *options])
    via_matrix = runner.invoke(
        main, ["mbfl", "--matrix", str(matrix), "--statements", str(statements), *options]
    )
    assert direct.exit_code == 0 and via_matrix.exit_code == 0
    assert direct.output == via_matrix.output


def test_mbfl_missing_spec_row_exits_3(runner, tmp_path):
    from mutspace import matrix_from_outputs

    bm = matrix_from_outputs(
        ["t1"],
        {"po": ["a"], "m1": ["b"]},
        roles={"po": "original", "m1": "mutant"},
        origins={"m1": "po"},
    )
    matrix = tmp_path / "matrix.json"
    matrix.write_text(matrix_to_json_text(bm))
    result = runner.invoke(main, ["mbfl", "--matrix", str(matrix)])
    assert result.exit_code == 3
    assert "spec" in result.stderr


@pytest.mark.parametrize("value", [[1], True, 1.5], ids=["list", "bool", "float"])
def test_mbfl_rejects_statement_values_that_are_not_ids(runner, tmp_path, value):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(matrix_to_json_text(three_program_matrix()))
    statements = tmp_path / "statements.json"
    statements.write_text(json.dumps({"m": value}))
    result = runner.invoke(
        main, ["mbfl", "--matrix", str(matrix), "--statements", str(statements)]
    )
    assert result.exit_code == 2
    assert "/m" in result.stderr
    assert "Traceback" not in result.output


# --- write failures -----------------------------------------------------------------


@pytest.mark.parametrize("command", ["dmsg", "pdl", "demo", "mutate"])
def test_write_failure_exits_2(runner, tmp_path, command):
    missing = tmp_path / "missing" / "x.dot"
    under_file = tmp_path / "afile" / "sub"  # afile is a regular file
    (tmp_path / "afile").write_text("")
    src = tmp_path / "max.src"
    src.write_text(MAX_SRC)
    args, path = {
        "dmsg": (["analyze", "dmsg", str(write_kills(tmp_path)), "--out", str(missing)], missing),
        "pdl": (["analyze", "pdl", "--n", "2", "--out", str(missing)], missing),
        "demo": (["demo", "--out", str(under_file)], under_file),
        "mutate": (["mutate", str(src), "--out-dir", str(under_file)], under_file),
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"error: cannot write {path}: " in result.stderr


# --- failure paths ---------------------------------------------------------------

DEEP_JSON = "[" * 200_000 + "]" * 200_000  # past the JSON decoder's recursion limit


def write_failure_inputs(tmp_path):
    """The files the failure table names, by placeholder."""
    program, tests, expected = write_faulty_inputs(tmp_path)
    files = {"program": program, "tests": tests, "expected": expected}
    contents = {
        "matrix": matrix_to_json_text(three_program_matrix()),
        "deep": DEEP_JSON,
        "not_list": json.dumps({"T1": {"a": 1}}),
        "no_id": json.dumps([{"inputs": {"a": 1}}]),
        "not_map": json.dumps(["5"]),
        "missing_test": json.dumps({"T1": "5"}),
        "duplicate_ids": json.dumps([{"id": "T1", "inputs": {}}, {"id": "T1", "inputs": {}}]),
        "int_and_str_id": json.dumps([{"id": 1, "inputs": {}}, {"id": "1", "inputs": {}}]),
        "statements": json.dumps({"m": 2}),
    }
    for name, text in contents.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(text)
    files["latin1"] = tmp_path / "latin1.txt"
    files["latin1"].write_bytes("caf\u00e9 = 1;\nreturn caf\u00e9;\n".encode("latin-1"))
    return files


RUN_TESTS = ["run", "--program", "{program}", "--tests"]  # the tests file follows
RUN = RUN_TESTS + ["{tests}"]
DVECTOR = ["analyze", "dvector", "{matrix}", "--left", "ps", "--right", "po"]
NOT_UTF8 = "'utf-8' codec can't decode"
TOO_DEEP = "maximum recursion depth exceeded"

# every failure is an input error, exit 2: (args, environment, what stderr says);
# {name} is a file above
FAILURES = {
    "numeric_without_epsilon": (DVECTOR + ["--policy", "numeric"], {},
                                "--policy numeric requires --epsilon"),
    "kills_numeric_without_epsilon": (["analyze", "kills", "{matrix}", "--policy", "numeric"],
                                      {}, "--policy numeric requires --epsilon"),
    "epsilon_with_exact": (DVECTOR + ["--policy", "exact", "--epsilon", "0.5"], {},
                           "--epsilon: policy 'exact' does not take a tolerance"),
    "epsilon_with_default_policy": (DVECTOR + ["--epsilon", "0"], {},
                                    "--epsilon: policy 'exact' does not take a tolerance"),
    "mbfl_epsilon_with_output": (["mbfl", "--matrix", "{matrix}", "--epsilon", "0.5"], {},
                                 "--epsilon: policy 'output' does not take a tolerance"),
    "mbfl_epsilon_with_trace": (["mbfl", "--program", "{program}", "--tests", "{tests}",
                                 "--expected", "{expected}", "--policy", "trace",
                                 "--epsilon", "0.5"], {},
                                "--epsilon: policy 'trace' does not take a tolerance"),
    "tests_not_list": (RUN_TESTS + ["{not_list}"], {},
                       "error: {not_list}: test suite must be a JSON list"),
    "test_without_id": (RUN_TESTS + ["{no_id}"], {},
                        "error: {no_id}: /0: each test needs 'id' and 'inputs'"),
    "expected_not_map": (RUN + ["--expected", "{not_map}"], {},
                         "error: {not_map}: expected-output file must map test ids"),
    "expected_misses_test": (RUN + ["--expected", "{missing_test}"], {},
                             "error: {missing_test}: expected outputs missing for tests ['T2'"),
    "duplicate_test_ids": (RUN_TESTS + ["{duplicate_ids}"], {},
                           "error: {duplicate_ids}: test identifiers must be unique"),
    "int_and_str_test_ids": (RUN_TESTS + ["{int_and_str_id}"], {},
                             "error: {int_and_str_id}: test identifiers must be unique"),
    "unknown_operator": (RUN + ["--operators", "ROR,XYZ"], {},
                         "error: unknown mutation operators ['XYZ']"),
    "pdl_negative": (["analyze", "pdl", "--n", "-1"], {},
                     "error: dimension must be nonnegative"),
    "pdl_dot_removed": (["analyze", "pdl", "--n", "3", "--dot"], {},
                        "No such option '--dot'"),
    "statements_not_map": (["mbfl", "--matrix", "{matrix}", "--statements", "{not_map}"], {},
                           "error: {not_map}: must map mutant ids to statements"),
    "mbfl_fix_with_metric": (["mbfl", "--matrix", "{matrix}", "--method", "fix",
                              "--metric", "jaccard"], {},
                             "--method fix mode does not take --metric"),
    "mbfl_program_alone": (["mbfl", "--program", "{program}", "--tests", "{tests}"], {},
                           "--program mode requires --tests and --expected"),
    "mbfl_no_mode": (["mbfl"], {}, "pass either --matrix or --program"),
    **{
        f"mbfl_matrix_with_{option[2:]}": (
            ["mbfl", "--matrix", "{matrix}", option, value], {},
            f"--matrix mode does not take {option}",
        )
        for option, value in [("--program", "{program}"), ("--tests", "{tests}"),
                              ("--expected", "{expected}"), ("--budget", "10"),
                              # the default value, given explicitly
                              ("--operators", "AOR,ROR,LCR,CRP,SDL")]
    },
    "mbfl_program_with_statements": (
        ["mbfl", "--program", "{program}", "--tests", "{tests}", "--expected", "{expected}",
         "--statements", "{statements}"], {},
        "--program mode does not take --statements",
    ),
    "run_program_not_utf8": (["run", "--program", "{latin1}", "--tests", "{tests}"], {},
                             "error: {latin1}: " + NOT_UTF8),
    "run_tests_not_utf8": (RUN_TESTS + ["{latin1}"], {}, "error: {latin1}: " + NOT_UTF8),
    "mutate_not_utf8": (["mutate", "{latin1}"], {}, "error: {latin1}: " + NOT_UTF8),
    "dvector_not_utf8": (["analyze", "dvector", "{latin1}", "--left", "a", "--right", "b"], {},
                         "error: {latin1}: " + NOT_UTF8),
    "mbfl_matrix_not_utf8": (["mbfl", "--matrix", "{latin1}"], {},
                             "error: {latin1}: " + NOT_UTF8),
    "run_tests_too_deep": (RUN_TESTS + ["{deep}"], {}, "error: {deep}: " + TOO_DEEP),
    "run_expected_too_deep": (RUN + ["--expected", "{deep}"], {},
                              "error: {deep}: " + TOO_DEEP),
    "dvector_too_deep": (["analyze", "dvector", "{deep}", "--left", "a", "--right", "b"], {},
                         "error: {deep}: /: invalid JSON: " + TOO_DEEP),
    "mbfl_matrix_too_deep": (["mbfl", "--matrix", "{deep}"], {},
                             "error: {deep}: /: invalid JSON: " + TOO_DEEP),
    "statements_too_deep": (["mbfl", "--matrix", "{matrix}", "--statements", "{deep}"], {},
                            "error: {deep}: " + TOO_DEEP),
}


@pytest.mark.parametrize("name", FAILURES)
def test_failure_exits_2_with_a_message_and_no_traceback(runner, tmp_path, name):
    args, env, message = FAILURES[name]
    files = write_failure_inputs(tmp_path)
    result = runner.invoke(main, [a.format(**files) for a in args], env=env)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # an uncaught error would end in a traceback
    assert message.format(**files) in result.stderr
    assert "Traceback" not in result.stderr


# --- demo ---------------------------------------------------------------------------


def test_demo_prints_the_worked_examples(runner):
    result = runner.invoke(main, ["demo"])
    assert result.exit_code == 0
    assert "d(spec, original) = [0, 1, 1, 1]  norm=3" in result.output
    assert "d(original, m) = [0, 0, 1, 1]  norm=2" in result.output
    assert "d(spec, m) = [0, 1, 1, 0]  norm=2" in result.output
    assert "['t3']" in result.output
    assert "minimal mutant set: ['m1', 'm2']" in result.output


def test_demo_is_deterministic_and_writes_files(runner, tmp_path):
    first = runner.invoke(main, ["demo", "--out", str(tmp_path / "a")])
    second = runner.invoke(main, ["demo", "--out", str(tmp_path / "b")])
    assert first.output == second.output
    for name in ("example_matrix.json", "kills.csv", "dmsg.dot", "lattice.dot"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


DEMO_FILE_SHA256 = {
    "example_matrix.json": "c2d1e6b85119a5c440f28f45e48c622c7b80145053d3a2df520ecf5e6ecf13e3",
    "kills.csv": "907c0ac113ecdbc0c161926bb0081cf462a60311c2849eeb51dee792165400a2",
    "dmsg.dot": "af91f8e78ae0c56a835648f17b5a8d5386f1f784acdb41590d8b4865d913fddf",
    "lattice.dot": "62791fb1d5cc34bfde51e96835ac7bf52097fd14d770e15075fc98c956dc1754",
}


def test_demo_files_have_pinned_bytes(runner, tmp_path):
    import hashlib

    result = runner.invoke(main, ["demo", "--out", str(tmp_path)])
    assert result.exit_code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(DEMO_FILE_SHA256)
    for name, digest in DEMO_FILE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
