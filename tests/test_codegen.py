"""What compiling a program to Python source could break, pinned.

The interpreter generates Python code, so each case below is a way the
generated text could go wrong: a toy name that means something to Python,
a comparison Python would chain, an expression as deep as the parser
allows, a literal Python cannot print, a halt deep inside a hoisted
function, step counting across hoisted functions, variables that live in
Python locals, and the helpers behind ``/`` and ``%``.
"""
import itertools
import math
from fractions import Fraction

import pytest

from mutspace.lang import Assign, TestCase, execute, parse
from mutspace.lang.syntax import _MAX_NESTING
from test_minilang import STEP_BUDGET_CASES, run_src

# Python keywords and builtins, names the generated code uses itself, and
# names that are not ASCII
PYTHON_NAMES = [
    "None", "def", "lambda", "class", "print", "KeyError",
    "env", "left", "trace", "sid", "n", "e", "_run", "_f0", "_k0", "_Halt",
    "é", "x²",
]


def store(**env):
    return " ".join(f"{k}={v}" for k, v in sorted(env.items()))


@pytest.mark.parametrize("tracing", [False, True])
@pytest.mark.parametrize("name", PYTHON_NAMES)
def test_python_names_are_plain_toy_names(name, tracing):
    source = f"{name} = k + 1; while ({name} < 5) {{ {name} = {name} * 2; }} return {name};"
    tok = run_src(source, tracing=tracing, k=1)
    assert (tok.status, tok.output) == ("normal", "8")
    if tracing:
        assert tok.trace == (
            (1, store(k=1, **{name: 2})),
            (2, store(k=1, **{name: 2})),
            (3, store(k=1, **{name: 4})),
            (2, store(k=1, **{name: 4})),
            (3, store(k=1, **{name: 8})),
            (2, store(k=1, **{name: 8})),
            (4, store(k=1, **{name: 8}) + " -> 8"),
        )


@pytest.mark.parametrize("tracing", [False, True])
@pytest.mark.parametrize("name", PYTHON_NAMES)
def test_python_names_as_inputs_and_unbound_reads(name, tracing):
    tok = run_src(f"return {name} + 1;", tracing=tracing, **{name: 5})
    assert (tok.status, tok.output) == ("normal", "6")
    tok = run_src(f"x = 1; return {name};", tracing=tracing)
    assert (tok.status, tok.output) == ("error", f"unbound variable: {name}")
    if tracing:
        assert tok.trace == ((1, "x=1"), (2, f"! unbound variable: {name}"))


@pytest.mark.parametrize("tracing", [False, True])
def test_comparisons_do_not_chain(tracing):
    # (3 < 2) < 1 is 0 < 1; Python would read 3 < 2 < 1 as 3 < 2 and 2 < 1
    assert run_src("return 3 < 2 < 1;", tracing=tracing).output == "1"
    assert run_src("if (3 < 2 < 1) { return 5; } return 6;", tracing=tracing).output == "5"
    assert run_src("return 1 == 1 == 1;", tracing=tracing).output == "1"
    assert run_src("return 2 == 2 == 2;", tracing=tracing).output == "0"


def op_chain(first, op, rest):
    """``first`` then ``_MAX_NESTING`` times `` op rest``: as deep as
    ``parse`` allows."""
    return first + f" {op} {rest}" * _MAX_NESTING


# Python allows 200 nested brackets; each of these nests _MAX_NESTING levels
# of comparisons or &&/|| used as a value or as a condition
AT_LIMIT = {
    # (1 < 1) < 1 ... alternates 0, 1, 0, ...: 1 after an even count
    "return_compare": ("return " + op_chain("1", "<", "1") + ";", {}, "1", 1),
    "assign_compare": ("x = " + op_chain("a", "<", "a") + "; return x;", {"a": 1}, "1", 2),
    # ... and (n < 1) < 1 is n >= 1, so this loop runs once
    "while_compare": (
        "n = 1; while (" + op_chain("n", "<", "1") + ") { n = n - 1; } return n;",
        {},
        "0",
        5,
    ),
    "return_and": ("return " + op_chain("2", "&&", "3") + ";", {}, "1", 1),
    "assign_or": ("x = " + op_chain("0", "||", "a") + "; return x;", {"a": 0}, "0", 2),
    "if_or": ("if (" + op_chain("a", "||", "0") + ") { return 5; } return 6;", {"a": 0}, "6", 2),
}


@pytest.mark.parametrize("tracing", [False, True])
@pytest.mark.parametrize("case", sorted(AT_LIMIT))
def test_relations_at_the_nesting_limit_execute(case, tracing):
    source, inputs, output, steps = AT_LIMIT[case]
    tok = run_src(source, tracing=tracing, **inputs)
    assert (tok.status, tok.output) == ("normal", output)
    if tracing:
        assert len(tok.trace) == steps


@pytest.mark.parametrize("tracing", [False, True])
def test_long_literal_returns_itself(tracing):
    digits = "9" + "1234567890" * 400  # 4,001 digits, under the int-string limit
    tok = run_src(f"x = {digits}; return x - 0;", tracing=tracing)
    assert (tok.status, tok.output) == ("normal", digits)
    if tracing:
        assert tok.trace == ((1, f"x={digits}"), (2, f"x={digits} -> {digits}"))


def nest(body, depth, prefix="w"):
    """``body`` inside ``depth`` levels alternating ``while`` and ``if``.

    Every level is entered once: it tests an input ``<prefix><level>`` that
    is 0, and each ``while`` sets its variable to 1 before its body.
    """
    for level in reversed(range(depth)):
        v = f"{prefix}{level}"
        if level % 2 == 0:
            body = f"while ({v} < 1) {{ {v} = {v} + 1; {body} }}"
        else:
            body = f"if ({v} < 1) {{ {body} }} else {{ y = 0; }}"
    return body


def zeros(depth, prefix="w"):
    return {f"{prefix}{level}": 0 for level in range(depth)}


HALTS = {
    "x = 1 / z;": "division by zero",
    "x = 1 % z;": "modulo by zero",
    "x = nope;": "unbound variable: nope",
}


@pytest.mark.parametrize(
    "place",
    ["innermost", "after_deeper_blocks", "top_level_after"],
)
@pytest.mark.parametrize("halt", sorted(HALTS))
def test_deep_halts_name_the_halting_statement(halt, place):
    if place == "innermost":
        source = nest(f"y = 1; {halt}", 12)
    elif place == "after_deeper_blocks":
        # the halt follows six levels that ran and returned
        source = nest(nest("y = 1;", 6, prefix="v") + f" {halt}", 6)
    else:
        source = nest("y = 1;", 12) + f" {halt}"
    program = parse(source)
    sid = next(s.sid for s in program.walk_statements() if isinstance(s, Assign) and s.name == "x")
    test = TestCase("t", {"z": 0, **zeros(12), **zeros(6, prefix="v")})
    tok = execute(program, test, tracing=True)
    assert (tok.status, tok.output) == ("error", HALTS[halt])
    assert tok.trace[-1] == (sid, f"! {HALTS[halt]}")
    assert execute(program, test).output == HALTS[halt]


@pytest.mark.parametrize("source, steps, output", STEP_BUDGET_CASES)
@pytest.mark.parametrize("tracing", [False, True])
def test_step_budget_is_exact_ten_levels_deep(source, steps, output, tracing):
    # ten enclosing ifs cost one step each
    deep = "if (1) {" * 10 + source + "}" * 10
    done = run_src(deep, budget=steps + 10, tracing=tracing)
    assert (done.status, done.output) == ("normal", output)
    cut = run_src(deep, budget=steps + 9, tracing=tracing)
    assert (cut.status, cut.output) == ("timeout", "")
    if tracing:
        assert len(cut.trace) == steps + 9  # one entry per step taken


@pytest.mark.parametrize("tracing", [False, True])
def test_truth_of_logical_operators_in_conditions_and_values(tracing):
    # 1 & 2 is 0 in Python: && must test truth, not combine bits
    assert run_src("return 1 && 2;", tracing=tracing).output == "1"
    assert run_src("if (1 && 2) { return 5; } return 6;", tracing=tracing).output == "5"
    assert run_src("if (!(2 && 1)) { return 5; } return 6;", tracing=tracing).output == "6"
    assert run_src("return 0 || 2;", tracing=tracing).output == "1"
    assert run_src("return !(0 || 2) + !!2;", tracing=tracing).output == "1"


def test_a_while_check_that_halts_names_the_while():
    source = "i = 0; while (6 / (2 - i)) { i = i + 1; } return i;"
    tok = run_src(source, tracing=True)
    assert (tok.status, tok.output) == ("error", "division by zero")
    assert tok.trace[-2:] == ((3, "i=2"), (2, "! division by zero"))
    tok = run_src("i = 0; while (i < 2 || nope) { i = i + 1; } return i;", tracing=True)
    assert tok.trace[-2:] == ((3, "i=2"), (2, "! unbound variable: nope"))


@pytest.mark.parametrize("tracing", [False, True])
def test_an_unbound_read_after_a_short_circuit_names_its_own_variable(tracing):
    # a is 0, so b is never read: the halt names c
    tok = run_src("a = 0; x = (a && b) + c; return x;", tracing=tracing)
    assert (tok.status, tok.output) == ("error", "unbound variable: c")
    tok = run_src("a = 1; x = (a || b) + c; return x;", tracing=tracing)
    assert (tok.status, tok.output) == ("error", "unbound variable: c")
    tok = run_src("a = 1; x = (a && b) + c; return x;", tracing=tracing)
    assert (tok.status, tok.output) == ("error", "unbound variable: b")
    if tracing:
        assert tok.trace == ((1, "a=1"), (2, "! unbound variable: b"))


@pytest.mark.parametrize("tracing", [False, True])
def test_unbound_read_in_a_function_hoisted_ten_levels_deep(tracing):
    # w0..w9 and k are bound, nope is not; the read sits in a hoisted function
    source = "k = 1; " + nest("y = k + w0; x = y + nope;", 10) + " return x;"
    program = parse(source)
    sid = next(s.sid for s in program.walk_statements() if isinstance(s, Assign) and s.name == "x")
    tok = execute(program, TestCase("t", zeros(10)), tracing=tracing)
    assert (tok.status, tok.output) == ("error", "unbound variable: nope")
    if tracing:
        assert tok.trace[-2:] == (
            (sid - 1, store(k=1, y=2, **{f"w{i}": 1 if i % 2 == 0 else 0 for i in range(10)})),
            (sid, "! unbound variable: nope"),
        )


@pytest.mark.parametrize("tracing", [False, True])
@pytest.mark.parametrize("depth", [10, 20])
def test_variables_assigned_in_hoisted_functions_are_read_after_they_return(depth, tracing):
    # y is bound before, z only inside; 20 levels hoist a function inside a hoisted one
    source = "k = 5; y = 1; " + nest("y = y + k; z = y * 2;", depth) + " return y * 100 + z;"
    tok = run_src(source, tracing=tracing, **zeros(depth))
    assert (tok.status, tok.output) == ("normal", "612")
    # the else arm of the outermost if leaves z unbound
    tok = run_src(source, tracing=tracing, **{**zeros(depth), "w1": 1})
    assert (tok.status, tok.output) == ("error", "unbound variable: z")


def truncated(a, b):
    q = math.trunc(Fraction(a, b))
    return q, a - b * q


BIG = 2**64
DIVIDENDS = [0, 1, 2, 6, 7, BIG - 1, BIG, BIG + 3, 3**50, 2**200 + 1]
DIVISORS = [1, 2, 3, 7, BIG - 1, BIG, BIG + 1, 3**50, 2**130]


@pytest.mark.parametrize("tracing", [False, True])
def test_division_and_remainder_truncate_over_signs_and_big_operands(tracing):
    quotient, remainder = parse("return a / b;"), parse("return a % b;")
    signed = lambda values: [s * v for v in values for s in (1, -1)]
    for a, b in itertools.product(signed(DIVIDENDS), signed(DIVISORS)):
        test = TestCase("t", {"a": a, "b": b})
        q, r = truncated(a, b)
        assert execute(quotient, test, tracing=tracing).output == str(q), (a, b)
        assert execute(remainder, test, tracing=tracing).output == str(r), (a, b)
    for a in signed(DIVIDENDS):
        test = TestCase("t", {"a": a, "b": 0})
        assert execute(quotient, test, tracing=tracing).output == "division by zero"
        assert execute(remainder, test, tracing=tracing).output == "modulo by zero"


@pytest.mark.parametrize("tracing", [False, True])
def test_division_of_literals_past_64_bits(tracing):
    big = 2**70 + 5
    for a, b in [(big, 3), (-big, 3), (big, -(2**65)), (7, big), (-7, -big)]:
        source = f"return ({a}) / ({b}) * 1000 + ({a}) % ({b});"
        q, r = truncated(a, b)
        assert run_src(source, tracing=tracing).output == str(q * 1000 + r), (a, b)
