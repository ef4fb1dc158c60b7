"""Compile-once interpreter producing behavior tokens.

Each program is compiled once into nested Python closures, one per
expression node and one per statement; ``behavior_matrix`` compiles every
row (the original and each mutant) once and runs that code on every test,
and ``execute`` compiles and then runs.  Compiled code is private to the
call that made it: nothing is cached across calls or shared between rows.

Steps: a step is taken on entry to each statement and again before each
further ``while`` check.  A run that needs exactly B steps returns normally
at budget B and times out at budget B - 1.

Every abnormal outcome (division by zero, unbound variable, exhausted step
budget, a returned integer too large to print) is encoded in the returned
token rather than raised, so differentiators can observe it.  Execution is
a pure function of (program, test, budget, tracing): arithmetic is exact
big-integer math; evaluation is left to right; ``&&`` and ``||``
short-circuit and give 0 or 1; division truncates toward zero and the
remainder matches it, so (a / b) * b + a % b == a.

Python converts an int of more than 4,300 digits to text only if the
process-global limit (``sys.set_int_max_str_digits``) allows it; this
module neither reads nor changes that limit.  A ``return`` of a value that
cannot be converted halts with kind ``integer too large`` (status
``error``, trace entry ``! integer too large``), and traced store text
shows such a value as ``<integer too large>``.  Tracing therefore never
changes a token's output or status.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence

from ..behavior import (
    ROLE_MUTANT,
    ROLE_ORIGINAL,
    ROLE_SPEC,
    STATUS_ERROR,
    STATUS_NORMAL,
    STATUS_TIMEOUT,
    BehaviorMatrix,
    BehaviorToken,
    ProgramEntry,
    TestVector,
)
from .syntax import Assign, BinOp, Expr, If, IntLit, Program, Return, Stmt, UnaryOp, Var, While

DEFAULT_BUDGET = 100_000
_TOO_LARGE = "integer too large"

_Env = dict[str, int]
_Trace = Optional[list[tuple[int, str]]]
_ExprCode = Callable[[_Env], int]
# (env, steps, trace): ``next(steps)`` takes one step and raises
# StopIteration once the budget is spent; ``trace`` is None when off
_StmtCode = Callable[[_Env, Iterator[int], _Trace], None]


@dataclass(frozen=True)
class TestCase:
    """A test is its input bindings; all reads of unbound names are errors."""

    __test__ = False  # not a pytest class, despite the name

    id: str
    inputs: Mapping[str, int]


class _Halt(Exception):
    """Abnormal termination in statement ``sid``; ``kind`` becomes the
    token output."""

    def __init__(self, kind: str, sid: int):
        super().__init__(kind)
        self.kind = kind
        self.sid = sid


class _Return(Exception):
    def __init__(self, text: str):
        super().__init__(text)
        self.text = text


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _value_text(v: int) -> str:
    try:
        return str(v)
    except ValueError:
        return f"<{_TOO_LARGE}>"


def _store_text(env: _Env) -> str:
    try:
        return " ".join([f"{k}={v}" for k, v in sorted(env.items())])
    except ValueError:  # some value is too large to convert
        return " ".join([f"{k}={_value_text(v)}" for k, v in sorted(env.items())])


# Values are ints, so Python truthiness is the language's ``!= 0``.
_BINARY: dict[str, Callable[[_ExprCode, _ExprCode], _ExprCode]] = {
    "+": lambda a, b: lambda env: a(env) + b(env),
    "-": lambda a, b: lambda env: a(env) - b(env),
    "*": lambda a, b: lambda env: a(env) * b(env),
    "<": lambda a, b: lambda env: 1 if a(env) < b(env) else 0,
    "<=": lambda a, b: lambda env: 1 if a(env) <= b(env) else 0,
    ">": lambda a, b: lambda env: 1 if a(env) > b(env) else 0,
    ">=": lambda a, b: lambda env: 1 if a(env) >= b(env) else 0,
    "==": lambda a, b: lambda env: 1 if a(env) == b(env) else 0,
    "!=": lambda a, b: lambda env: 1 if a(env) != b(env) else 0,
    "&&": lambda a, b: lambda env: 1 if a(env) and b(env) else 0,
    "||": lambda a, b: lambda env: 1 if a(env) or b(env) else 0,
}


def _compile_expr(expr: Expr, sid: int) -> _ExprCode:
    """Code for ``expr``; halts name ``sid``, the statement evaluating it."""
    if isinstance(expr, IntLit):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Var):
        name = expr.name

        def var(env: _Env) -> int:
            try:
                return env[name]
            except KeyError:
                raise _Halt(f"unbound variable: {name}", sid) from None

        return var
    if isinstance(expr, UnaryOp):
        operand = _compile_expr(expr.operand, sid)
        if expr.op == "-":
            return lambda env: -operand(env)
        return lambda env: 0 if operand(env) else 1
    if isinstance(expr, BinOp):
        left = _compile_expr(expr.left, sid)
        right = _compile_expr(expr.right, sid)
        if expr.op == "/":

            def div(env: _Env) -> int:
                a, b = left(env), right(env)
                if b == 0:
                    raise _Halt("division by zero", sid)
                return _trunc_div(a, b)

            return div
        if expr.op == "%":

            def mod(env: _Env) -> int:
                a, b = left(env), right(env)
                if b == 0:
                    raise _Halt("modulo by zero", sid)
                return a - _trunc_div(a, b) * b

            return mod
        return _BINARY[expr.op](left, right)
    raise TypeError(f"cannot compile {type(expr).__name__}")


def _compile_block(stmts: Sequence[Stmt]) -> tuple[_StmtCode, ...]:
    return tuple(map(_compile_stmt, stmts))


def _compile_stmt(stmt: Stmt) -> _StmtCode:
    sid = stmt.sid
    if isinstance(stmt, Assign):
        name, value = stmt.name, _compile_expr(stmt.value, sid)

        def assign(env: _Env, steps: Iterator[int], trace: _Trace) -> None:
            next(steps)
            env[name] = value(env)
            if trace is not None:
                trace.append((sid, _store_text(env)))

        return assign
    if isinstance(stmt, Return):
        value = _compile_expr(stmt.value, sid)

        def return_(env: _Env, steps: Iterator[int], trace: _Trace) -> None:
            next(steps)
            result = value(env)
            try:
                text = str(result)
            except ValueError:
                raise _Halt(_TOO_LARGE, sid) from None
            if trace is not None:
                store = _store_text(env)
                trace.append((sid, f"{store} -> {text}" if store else f"-> {text}"))
            raise _Return(text)

        return return_
    if isinstance(stmt, If):
        cond = _compile_expr(stmt.cond, sid)
        then_body = _compile_block(stmt.then_body)
        else_body = _compile_block(stmt.else_body)

        def if_(env: _Env, steps: Iterator[int], trace: _Trace) -> None:
            next(steps)
            taken = cond(env)
            if trace is not None:
                trace.append((sid, _store_text(env)))
            for s in then_body if taken else else_body:
                s(env, steps, trace)

        return if_
    if isinstance(stmt, While):
        cond = _compile_expr(stmt.cond, sid)
        body = _compile_block(stmt.body)

        def while_(env: _Env, steps: Iterator[int], trace: _Trace) -> None:
            next(steps)
            while True:
                live = cond(env)
                if trace is not None:
                    trace.append((sid, _store_text(env)))
                if not live:
                    return
                for s in body:
                    s(env, steps, trace)
                next(steps)  # each further condition check costs a step

        return while_
    raise TypeError(f"cannot compile {type(stmt).__name__}")


def _compile(program: Program) -> Callable[[TestCase, int, bool], BehaviorToken]:
    """Compile ``program`` once; the result runs it on one test."""
    body = _compile_block(program.statements)

    def run(test: TestCase, budget: int, tracing: bool) -> BehaviorToken:
        env = dict(test.inputs)
        steps = iter(range(budget))  # one item per step
        trace: _Trace = [] if tracing else None
        output, status = "", STATUS_NORMAL
        try:
            for stmt in body:
                stmt(env, steps, trace)
        except _Return as ret:
            output = ret.text
        except _Halt as halt:
            output, status = halt.kind, STATUS_ERROR
            if trace is not None:
                trace.append((halt.sid, f"! {halt.kind}"))
        except StopIteration:
            status = STATUS_TIMEOUT
        return BehaviorToken(output, status, None if trace is None else tuple(trace))

    return run


def execute(
    program: Program,
    test: TestCase,
    budget: int = DEFAULT_BUDGET,
    tracing: bool = False,
) -> BehaviorToken:
    """Run ``program`` on ``test`` and encode the outcome as a token.

    output: the returned value as text ("" when no return executes),
    or the error kind; trace: one (statement id, state) entry per executed
    statement when tracing is on, with return values and error kinds
    embedded so internal differences subsume output differences.
    """
    return _compile(program)(test, budget, tracing)


def behavior_matrix(
    original: Program,
    mutants: Sequence[tuple["MutantDescriptor", Program]],
    tests: Sequence[TestCase],
    tracing: bool = False,
    budget: int = DEFAULT_BUDGET,
    expected: Optional[Mapping[str, str]] = None,
    original_id: str = "original",
    spec_id: str = "spec",
) -> BehaviorMatrix:
    """Execute the original and every mutant against every test.

    ``expected`` (test id -> output text) adds a spec row of intended
    outputs; the spec need not be a runnable program.  Two calls with the
    same inputs produce equal matrices.
    """
    tv = TestVector(tuple(t.id for t in tests))
    entries = [ProgramEntry(original_id, ROLE_ORIGINAL)]

    def row(program: Program) -> dict[str, BehaviorToken]:
        run = _compile(program)  # once per row, then run on every test
        return {t.id: run(t, budget, tracing) for t in tests}

    cells: dict[str, dict[str, BehaviorToken]] = {original_id: row(original)}
    for desc, prog in mutants:
        entries.append(ProgramEntry(desc.id, ROLE_MUTANT, origin=original_id))
        cells[desc.id] = row(prog)
    if expected is not None:
        missing = [t.id for t in tests if t.id not in expected]
        if missing:
            raise ValueError(f"expected outputs missing for tests {missing}")
        entries.append(ProgramEntry(spec_id, ROLE_SPEC))
        cells[spec_id] = {t.id: BehaviorToken(str(expected[t.id])) for t in tests}
    return BehaviorMatrix(tv, entries, cells)
