import inspect
import sys

import pytest

from mutspace import Differentiator, ParseError, matrix_to_json_text
from mutspace.lang import (
    TestCase,
    behavior_matrix,
    execute,
    mutate_all,
    parse,
    render,
)
from mutspace import kill_matrix
from mutspace.lang.syntax import _MAX_NESTING
from mutspace.space import ProgramSpace
from helpers import MAX_SRC, SCRATCH_SRC, TWENTY_SRC

EXACT = Differentiator.exact()
STRONG = Differentiator.output_only()
WEAK = Differentiator.trace_only()


def run_src(source, budget=100_000, tracing=False, **inputs):
    return execute(parse(source), TestCase("t", inputs), budget, tracing)


# --- parsing ---------------------------------------------------------------------


def test_parse_single_statement():
    program = parse("return 1 + 2;")
    assert program.statement_ids() == [1]


def test_parse_assigns_preorder_ids():
    program = parse(MAX_SRC)
    assert program.statement_ids() == [1, 2, 3, 4]


def test_twenty_statement_fixture_parses_to_twenty_ids():
    program = parse(TWENTY_SRC)
    assert program.statement_ids() == list(range(1, 21))


def test_unbalanced_brace_reports_location():
    source = "if (a > 0) {\n  x = 1;\n"
    with pytest.raises(ParseError) as err:
        parse(source)
    assert err.value.line == 3
    assert "brace" in str(err.value)


def test_parse_error_on_garbage():
    with pytest.raises(ParseError) as err:
        parse("x = 1 @ 2;")
    assert (err.value.line, err.value.col) == (1, 7)


def test_missing_semicolon():
    with pytest.raises(ParseError, match="';'"):
        parse("x = 1")


def test_render_is_canonical_fixed_point():
    program = parse(TWENTY_SRC)
    text = render(program)
    assert render(parse(text)) == text


def test_render_preserves_mutated_tree_shape():
    # a + b * c with + mutated to * must keep the grouping
    from mutspace.lang.syntax import BinOp, IntLit, Program, Return

    tree = Program(
        (Return(1, BinOp("*", IntLit(2), BinOp("*", IntLit(3), IntLit(4)))),)
    )
    assert render(tree) == "return 2 * (3 * 4);\n"


def nested(construct, depth):
    """(source nesting ``construct`` ``depth`` levels deep, its opening token)."""
    if construct == "parens":
        return "return " + "(" * depth + "1" + ")" * depth + ";", "("
    if construct == "unary":
        return "return " + "-" * depth + "1;", "-"
    if construct == "chain":
        return "return " + " + ".join(["1"] * (depth + 1)) + ";", "+"
    return "if (1) {" * depth + "return 7;" + "}" * depth, "{"


CONSTRUCTS = ["parens", "unary", "chain", "blocks"]


@pytest.mark.parametrize("construct", CONSTRUCTS)
def test_nesting_past_the_limit_is_a_parse_error(construct):
    source, opener = nested(construct, 3_000)
    crossing = -1  # offset of the opener that starts level _MAX_NESTING + 1
    for _ in range(_MAX_NESTING + 1):
        crossing = source.index(opener, crossing + 1)
    with pytest.raises(ParseError, match="nesting") as err:
        parse(source)
    assert (err.value.line, err.value.col) == (1, crossing + 1)


def mixed(extra_parens=0):
    """Blocks, parentheses, a chain and unary operators, a quarter of the
    limit each, all open at the last ``1``; it returns 25 - 1."""
    q = _MAX_NESTING // 4
    chain = " + ".join(["1"] * q + ["-" * q + "1"])
    parens = q + extra_parens
    return (
        "n = 1;\n" + "while (n) {" * q
        + "n = 0; x = " + "(" * parens + chain + ")" * parens + ";"
        + "}" * q + "\nreturn x;"
    )


@pytest.mark.parametrize(
    "source, output",
    [(nested(c, _MAX_NESTING)[0], out) for c, out in zip(CONSTRUCTS, ["1", "1", "101", "7"])]
    + [(mixed(), "24")],
    ids=CONSTRUCTS + ["mixed"],
)
def test_nesting_at_the_limit_parses_renders_mutates_and_executes(source, output):
    assert _MAX_NESTING == 100  # the expected outputs are worked out for 100
    # every step recurses at most ~3 frames per level: check that it fits
    # in 4 per level above this test's own stack
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 4 * _MAX_NESTING)
    try:
        program = parse(source)
        text = render(program)
        assert render(parse(text)) == text
        assert mutate_all(program)
        tok = execute(program, TestCase("t", {}))
    finally:
        sys.setrecursionlimit(saved)
    assert (tok.status, tok.output) == ("normal", output)


def test_mixed_nesting_counts_together():
    with pytest.raises(ParseError, match="nesting"):
        parse(mixed(extra_parens=1))


@pytest.mark.parametrize(
    "source, char, col",
    [("x = \u00b2;", "\u00b2", 5), ("x = 1\u00b2;", "\u00b2", 6), ("x = 3\u2155;", "\u2155", 6)],
    ids=["superscript", "after_a_digit", "fraction"],
)
def test_digits_int_cannot_read_are_unexpected_characters(source, char, col):
    # superscripts and vulgar fractions are digits to str.isdigit, not to int()
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse(source)
    assert char in str(err.value)
    assert (err.value.line, err.value.col) == (1, col)


def test_decimal_digits_of_any_script_are_literals():
    assert parse("x = \u0663\u0661;") == parse("x = 31;")  # Arabic-Indic 3, 1


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python reads int literals of any length",
)
def test_literal_past_the_int_string_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="integer literal too long") as err:
        parse("x = 0;\ny = " + "1" * 5_000 + ";")
    assert (err.value.line, err.value.col) == (2, 5)


# --- execution --------------------------------------------------------------------


def test_division_produces_output():
    tok = run_src("return 6 / 2;")
    assert (tok.output, tok.status) == ("3", "normal")


def test_division_by_zero_is_an_error_token():
    tok = run_src("return 1 / 0;")
    assert tok.status == "error"
    assert tok.output == "division by zero"


def test_modulo_by_zero_is_its_own_error():
    tok = run_src("x = 5 % 0;")
    assert (tok.status, tok.output) == ("error", "modulo by zero")


def test_unbound_variable_is_an_error_token():
    tok = run_src("return nope;")
    assert tok.status == "error"
    assert tok.output == "unbound variable: nope"


def test_infinite_loop_times_out():
    tok = run_src("while (1 == 1) {\n}\n", budget=100_000)
    assert (tok.status, tok.output) == ("timeout", "")


def test_division_truncates_toward_zero():
    assert run_src("return (0 - 7) / 2;").output == "-3"
    assert run_src("return (0 - 7) % 2;").output == "-1"
    assert run_src("return 7 / 2;").output == "3"
    assert run_src("return 7 % 2;").output == "1"


def test_logical_operators_short_circuit():
    assert run_src("return 0 != 0 && 1 / 0 == 1;").output == "0"
    assert run_src("return 1 == 1 || 1 / 0 == 1;").output == "1"
    assert run_src("return !3;").output == "0"
    assert run_src("return !0;").output == "1"


def test_fall_off_the_end_returns_empty_output():
    tok = run_src("x = 1;")
    assert (tok.output, tok.status) == ("", "normal")


def test_inputs_are_visible_as_variables():
    tok = run_src("return a * b;", a=6, b=7)
    assert tok.output == "42"


def test_a_test_case_keeps_its_own_checked_copy_of_the_inputs():
    inputs = {"x": 1}
    test = TestCase("t", inputs)
    inputs["x"] = True
    assert execute(parse("return x;"), test).output == "1"


def test_execution_is_deterministic():
    test = TestCase("t", {"n": 5})
    program = parse(TWENTY_SRC)
    first = execute(program, test, tracing=True)
    second = execute(program, test, tracing=True)
    assert first == second


def test_trace_records_states_and_return_value():
    tok = run_src("x = 2;\nreturn x + 1;", tracing=True)
    assert tok.trace == ((1, "x=2"), (2, "x=2 -> 3"))


def test_trace_records_error_kind():
    tok = run_src("x = 1;\nreturn x / 0;", tracing=True)
    assert tok.trace[-1] == (2, "! division by zero")


def test_trace_disabled_by_default():
    assert run_src("return 1;").trace is None


def test_big_integers_do_not_wrap():
    src = """x = 1;
i = 0;
while (i < 100) {
  x = x * 2;
  i = i + 1;
}
return x;
"""
    assert run_src(src).output == str(2 ** 100)


# A step is taken on entry to each statement and before each further while
# check, so a run that needs exactly B steps finishes at budget B.  The
# programs, with the steps each needs, are shared with test_codegen.py.
STEP_BUDGET_CASES = [
    ("i = 0; while (i < 3) { i = i + 1; } return i;", 9, "3"),
    ("x = 1; return x;", 2, "1"),
    ("x = 1;", 1, ""),
    ("while (0) { } return 7;", 2, "7"),
    ("if (1) { x = 1; } else { x = 2; } return x;", 3, "1"),
    ("if (0) { x = 1; } return 5;", 2, "5"),
    ("i = 0; while (i < 2) { j = 0; while (j < 2) { j = j + 1; } i = i + 1; } return i;", 19, "2"),
]


@pytest.mark.parametrize("source, steps, output", STEP_BUDGET_CASES)
@pytest.mark.parametrize("tracing", [False, True])
def test_step_budget_is_exact(source, steps, output, tracing):
    done = run_src(source, budget=steps, tracing=tracing)
    assert (done.status, done.output) == ("normal", output)
    cut = run_src(source, budget=steps - 1, tracing=tracing)
    assert (cut.status, cut.output) == ("timeout", "")


needs_int_text_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python converts ints of any size to text",
)

# 200 rounds of 40 digits: x ends with 8,001 digits, past the 4,300 that
# Python converts to text by default
HUGE_SRC = "x = 1; i = 0; while (i < 200) { x = x * 1" + "0" * 40 + "; i = i + 1; } return x;"


@needs_int_text_limit
@pytest.mark.parametrize("tracing", [False, True])
def test_returning_a_huge_integer_is_an_error_token(tracing):
    tok = run_src(HUGE_SRC, tracing=tracing)
    assert (tok.status, tok.output) == ("error", "integer too large")
    if tracing:
        assert tok.trace[-1] == (6, "! integer too large")
        assert tok.trace[-2] == (3, "i=200 x=<integer too large>")


@needs_int_text_limit
def test_huge_integers_never_change_output_or_status_under_tracing():
    # 40 digits per round: 107 rounds still print (4,281 digits), 108 do not
    program = parse(
        "x = 1; i = 0; while (i < k) { x = x * 1" + "0" * 40 + "; i = i + 1; } return x;"
    )
    mutants = mutate_all(program, ("ROR",))  # loop bounds k - 1 .. k + 1
    tests = [TestCase(f"k{k}", {"k": k}) for k in (107, 108)]
    plain = behavior_matrix(program, mutants, tests)
    traced = behavior_matrix(program, mutants, tests, tracing=True)
    assert plain.token("original", "k108").output == "integer too large"
    for m in traced.program_ids():
        for t in traced.tests:
            tok, untraced = traced.token(m, t), plain.token(m, t)
            assert (tok.output, tok.status) == (untraced.output, untraced.status)
            weak = WEAK.bit(traced.token("original", t), tok)
            assert weak >= STRONG.bit(traced.token("original", t), tok)


def test_timeout_comes_before_a_halt_on_the_next_step():
    source = "x = 1; return x / 0;"
    assert run_src(source, budget=2).status == "error"
    cut = run_src(source, budget=1, tracing=True)
    assert cut.status == "timeout"
    assert cut.trace == ((1, "x=1"),)


# --- behavior matrices ---------------------------------------------------------------


def max_fixture():
    program = parse(MAX_SRC)
    mutants = mutate_all(program, ("ROR",))
    tests = [
        TestCase("T1", {"a": 1, "b": 5}),
        TestCase("T2", {"a": 5, "b": 1}),
        TestCase("T3", {"a": 4, "b": 4}),
    ]
    return program, mutants, tests


def test_matrix_shape_and_roles():
    program, mutants, tests = max_fixture()
    bm = behavior_matrix(
        program, mutants, tests, expected={"T1": "5", "T2": "5", "T3": "4"}
    )
    assert len(bm.program_ids()) == 1 + len(mutants) + 1
    assert bm.original_id == "original"
    assert bm.spec_id == "spec"
    assert bm.mutant_ids() == tuple(desc.id for desc, _ in mutants)


def test_matrix_is_byte_stable():
    program, mutants, tests = max_fixture()
    first = behavior_matrix(program, mutants, tests, tracing=True)
    second = behavior_matrix(program, mutants, tests, tracing=True)
    assert matrix_to_json_text(first) == matrix_to_json_text(second)


def test_matrix_requires_expected_output_per_test():
    program, mutants, tests = max_fixture()
    with pytest.raises(ValueError, match="T3"):
        behavior_matrix(program, mutants, tests, expected={"T1": "5", "T2": "5"})


def test_kill_bits_match_hand_execution():
    # the five ROR mutants replace > with <, <=, >=, ==, != in that order;
    # rows below were worked out by hand for T1 (1,5), T2 (5,1), T3 (4,4)
    program, mutants, tests = max_fixture()
    assert [(d.operator, d.replacement) for d, _ in mutants] == [
        ("ROR", "<"), ("ROR", "<="), ("ROR", ">="), ("ROR", "=="), ("ROR", "!="),
    ]
    bm = behavior_matrix(program, mutants, tests)
    sp = ProgramSpace(bm.tests, "original", EXACT, bm)
    km = kill_matrix(sp, list(bm.mutant_ids()), bm)
    assert km.bits == (
        (1, 1, 0, 1, 0),
        (1, 1, 0, 0, 1),
        (0, 0, 0, 0, 0),
    )


# --- strong/weak and identity invariants ------------------------------------------------


def scratch_fixture():
    program = parse(SCRATCH_SRC)
    mutants = mutate_all(program)
    tests = [
        TestCase("T1", {"a": 3, "b": 2}),
        TestCase("T2", {"a": 2, "b": 3}),
        TestCase("T3", {"a": 0, "b": 0}),
        TestCase("T4", {"a": 5, "b": 5}),
        TestCase("T5", {"a": 1, "b": 0}),
    ]
    return program, mutants, tests


def test_weak_bit_dominates_strong_bit():
    program, mutants, tests = scratch_fixture()
    bm = behavior_matrix(program, mutants, tests, tracing=True)
    strict = 0
    for m in bm.mutant_ids():
        for t in bm.tests:
            weak = WEAK.bit(bm.token("original", t), bm.token(m, t))
            strong = STRONG.bit(bm.token("original", t), bm.token(m, t))
            assert weak >= strong
            if weak > strong:
                strict += 1
    assert strict >= 1


def test_internal_state_change_without_output_change_exists():
    # the AOR mutant rewriting the scratch assignment to a - b changes the
    # store on T1 but never the returned value
    program, mutants, tests = scratch_fixture()
    target = next(
        desc.id
        for desc, _ in mutants
        if desc.statement == 1 and desc.replacement == "-"
    )
    bm = behavior_matrix(program, mutants, tests, tracing=True)
    t = "T1"
    assert STRONG.bit(bm.token("original", t), bm.token(target, t)) == 0
    assert WEAK.bit(bm.token("original", t), bm.token(target, t)) == 1


def test_unreached_mutation_site_changes_nothing():
    program, mutants, tests = scratch_fixture()
    bm = behavior_matrix(program, mutants, tests, tracing=True)
    descriptors = {desc.id: desc for desc, _ in mutants}
    checked = 0
    for t in bm.tests:
        original = bm.token("original", t)
        executed = {sid for sid, _ in original.trace}
        for m in bm.mutant_ids():
            if descriptors[m].statement in executed:
                continue
            checked += 1
            for d in (EXACT, STRONG, WEAK):
                assert d.bit(original, bm.token(m, t)) == 0
    assert checked > 0
