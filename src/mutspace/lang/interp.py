"""Compile-once interpreter producing behavior tokens.

Each program is compiled once into Python: the generator emits Python
source text for ``(program, tracing)`` from the AST alone, runs it through
``compile()`` once and binds it with ``exec`` into one function.
``behavior_matrix`` compiles every row (the original and each mutant) once
and runs that function on every test, and ``execute`` compiles and then
runs.  Compiled code is private to the call that made it: nothing is
cached across calls or shared between rows.

Generated code:

- Variables live in Python locals.  Each toy name gets a generated local
  ``_v0``, ``_v1``, ... (one map per program), so a toy name never becomes
  a Python identifier and cannot clash with a Python keyword, builtin or
  the generator's own names (``None``, ``def``, ``env``, ``sid``, ``é``
  and ``x²`` are all legal toy names).  The test's inputs arrive in the
  ``env`` dict, and each generated function starts by loading the names
  it uses that ``env`` holds: ``if 'x' in env: _v0 = env['x']``.  Names
  and literals of up to 64 bits go into the text through ``repr``; a
  larger literal is bound in the ``exec`` namespace, because ``repr`` of
  an int past Python's int-string limit raises.
- Write-through: an assignment also writes ``env`` (``_v0 = env['x'] =
  ...``) only where ``env`` is read later: in the traced variant, whose
  store text is built from ``env``, and in a program with a hoisted
  function (below), which loads its names from ``env``.  After a hoisted
  call the caller reloads every name the call may have assigned.
- Steps: the function holds a local counter that starts at the budget.  A
  step is taken on entry to each statement and again before each further
  ``while`` check, by one line that decrements the counter or, when it is
  0, raises the timeout.  A run that needs exactly B steps returns normally
  at budget B and times out at budget B - 1.
- Every expression node is parenthesised exactly once, so evaluation runs
  left to right and ``3 < 2 < 1`` never becomes a Python chained
  comparison.  Conditions are emitted for their truth only; a comparison,
  ``&&``, ``||`` or ``!`` used as a value gives 0 or 1.
- Halts: ``/`` and ``%`` go through one helper call each, which takes the
  statement id.  A read of a name that is neither an input nor assigned
  yet reads a local that was never bound, and Python raises
  ``UnboundLocalError``.  Each generated function turns it into a halt
  naming its local ``sid``, set before each statement and before each
  ``while`` check.  The toy name comes from the exception itself: CPython
  quotes the unbound local in its message, so a short-circuited operand
  that never ran cannot be blamed.
- Only the traced variant records trace entries; the untraced code tests
  nothing per statement.
- CPython's compiler allows 20 statically nested blocks (a ``while`` or a
  ``try`` is one), 100 indentation levels and 200 nested brackets, while
  the toy language allows 100 nested blocks.  So a compound statement
  nested ``_HOIST_DEPTH`` (8) levels deep inside a generated function moves
  into a generated function of its own, which takes and returns the step
  counter; no function then holds more than 9 blocks or 10 indentation
  levels.  An expression nests at most 100 levels and costs at most one
  bracket per level: a comparison or ``&&``/``||`` used as a value is
  ``(1 if L < R else 0)`` around operands that bring their own brackets.
  With the ``_return(...)`` or ``_traced(...)`` call around it, a line
  nests at most 101 brackets.

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
from typing import Callable, Mapping, Optional, Sequence

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
from .syntax import (
    REL_OPS, Assign, BinOp, Expr, If, IntLit, Program, Return, Stmt, UnaryOp, Var, While,
)

DEFAULT_BUDGET = 100_000
_TOO_LARGE = "integer too large"

# compound statements this deep in a generated function get one of their own
_HOIST_DEPTH = 8

_Env = dict[str, int]
_Trace = Optional[list[tuple[int, str]]]


@dataclass(frozen=True)
class TestCase:
    """A test is its input bindings; all reads of unbound names are errors."""

    __test__ = False  # not a pytest class, despite the name

    id: str
    inputs: Mapping[str, int]

    def __post_init__(self):
        if not isinstance(self.inputs, Mapping):
            raise ValueError("must map variables to integers")
        # a copy, so a caller who later changes the mapping cannot bypass the
        # check; bool is an int, but True would run as 1 and print as True
        inputs = dict(self.inputs)
        if not all(
            isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
            for k, v in inputs.items()
        ):
            raise ValueError("must map variables to integers")
        object.__setattr__(self, "inputs", inputs)


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


class _Timeout(Exception):
    pass


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


# --- run-time helpers the generated code calls -----------------------------------


def _div(a: int, b: int, sid: int) -> int:
    if b == 0:
        raise _Halt("division by zero", sid)
    q = a // b  # the floor; truncation is one more when it is negative and inexact
    if q < 0 and q * b != a:
        q += 1
    return q


def _mod(a: int, b: int, sid: int) -> int:
    if b == 0:
        raise _Halt("modulo by zero", sid)
    r = a % b  # takes b's sign; the truncated remainder takes a's
    if r and (r < 0) != (a < 0):
        r -= b
    return r


def _unbound(error: UnboundLocalError, names: Mapping[str, str], sid: int) -> _Halt:
    """The halt for a read of an unbound variable: CPython quotes the unread
    local's name in ``error``'s message, and ``names`` maps it to the toy name."""
    return _Halt("unbound variable: " + names[str(error).split("'")[1]], sid)


def _timeout() -> int:
    raise _Timeout


def _traced(taken: int, sid: int, env: _Env, trace: list) -> int:
    trace.append((sid, _store_text(env)))
    return taken


def _return(value: int, sid: int, env: _Env, trace: _Trace) -> None:
    try:
        text = str(value)
    except ValueError:
        raise _Halt(_TOO_LARGE, sid) from None
    if trace is not None:
        store = _store_text(env)
        trace.append((sid, f"{store} -> {text}" if store else f"-> {text}"))
    raise _Return(text)


_RUNTIME = {
    "_Halt": _Halt,
    "_div": _div,
    "_mod": _mod,
    "_unbound": _unbound,
    "_timeout": _timeout,
    "_traced": _traced,
    "_return": _return,
    "_store_text": _store_text,
}

# --- code generation --------------------------------------------------------------

_ARITH = {"+", "-", "*"}
_LOGIC = {"&&": "and", "||": "or"}
_HALTING = {"/": "_div", "%": "_mod"}  # helpers that halt on a zero divisor


class _Source:
    """Python source for one program: ``_run`` and the hoisted functions.

    Every generated function is ``def f(env, n, trace)``: ``n`` is the
    steps left, and ``trace`` the trace list or None.  Functions end by
    returning ``n``; a return, halt or timeout raises.  Toy variables are
    the locals ``_v0``, ``_v1``, ... of each function; assignments also
    write to ``env`` when ``write_through`` is set.
    """

    def __init__(self, tracing: bool, write_through: bool):
        self.tracing = tracing
        self.write_through = write_through
        self.functions: list[str] = []  # finished functions, innermost first
        self.hoisted = 0
        self.consts: dict[str, int] = {}  # namespace names of large literals
        self.locals: dict[str, str] = {}  # toy name -> local, one map per program
        self.used: dict[str, None] = {}  # the toy names the current function uses

    def local(self, name: str) -> str:
        """The local holding toy variable ``name`` in the current function."""
        self.used[name] = None
        return self.locals.setdefault(name, f"_v{len(self.locals)}")

    def load(self, name: str) -> str:
        """A line that loads toy variable ``name`` if ``env`` holds it."""
        return f"if {name!r} in env: {self.local(name)} = env[{name!r}]"

    def function(self, name: str, stmts: Sequence[Stmt]) -> None:
        outer, self.used = self.used, {}
        body: list[str] = []
        self.block(stmts, 2, 0, body)
        loads = [" " + self.load(toy) for toy in self.used]
        self.used = outer
        lines = [
            f"def {name}(env, n, trace):",
            *loads,
            " try:",
            *body,
            " except UnboundLocalError as e:",
            "  raise _unbound(e, _names, sid) from None",
            " return n",
        ]
        self.functions.append("\n".join(lines))

    def block(self, stmts: Sequence[Stmt], indent: int, depth: int, out: list[str]) -> None:
        if not stmts:
            out.append(" " * indent + "pass")
        for stmt in stmts:
            self.stmt(stmt, indent, depth, out)

    def stmt(self, stmt: Stmt, indent: int, depth: int, out: list[str]) -> None:
        pad = " " * indent
        if depth >= _HOIST_DEPTH and isinstance(stmt, (If, While)):
            name = f"_f{self.hoisted}"
            self.hoisted += 1
            self.function(name, (stmt,))
            out.append(f"{pad}n = {name}(env, n, trace)")
            # the call wrote its assignments to env: reload them
            assigned = [s.name for s in Program((stmt,)).walk_statements() if isinstance(s, Assign)]
            out += [pad + self.load(toy) for toy in dict.fromkeys(assigned)]
            return
        sid = stmt.sid
        step = f"n = n - 1 if n else _timeout(); sid = {sid}"
        out.append(pad + step)
        if isinstance(stmt, Assign):
            target = self.local(stmt.name)
            if self.write_through:
                target += f" = env[{stmt.name!r}]"
            out.append(f"{pad}{target} = {self.value(stmt.value, sid)}")
            if self.tracing:
                out.append(f"{pad}trace.append(({sid}, _store_text(env)))")
        elif isinstance(stmt, Return):
            out.append(f"{pad}_return({self.value(stmt.value, sid)}, {sid}, env, trace)")
        elif isinstance(stmt, If):
            out.append(f"{pad}if {self.cond(stmt.cond, sid)}:")
            self.block(stmt.then_body, indent + 1, depth + 1, out)
            if stmt.else_body:
                out.append(f"{pad}else:")
                self.block(stmt.else_body, indent + 1, depth + 1, out)
        elif isinstance(stmt, While):
            out.append(f"{pad}while {self.cond(stmt.cond, sid)}:")
            self.block(stmt.body, indent + 1, depth + 1, out)
            out.append(f"{pad} {step}")  # each further check costs a step
        else:
            raise TypeError(f"cannot compile {type(stmt).__name__}")

    def cond(self, expr: Expr, sid: int) -> str:
        """An if/while condition, recorded in the trace when tracing."""
        test = self.test(expr, sid)
        return f"_traced({test}, {sid}, env, trace)" if self.tracing else test

    def test(self, expr: Expr, sid: int) -> str:
        """Code whose truth is that of ``expr``, as one bracketed term."""
        if isinstance(expr, BinOp) and (expr.op in REL_OPS or expr.op in _LOGIC):
            return f"({self.relation(expr, sid)})"
        if isinstance(expr, UnaryOp) and expr.op == "!":
            return f"(not {self.test(expr.operand, sid)})"
        return self.value(expr, sid)

    def relation(self, expr: BinOp, sid: int) -> str:
        """A comparison or ``&&``/``||`` with no brackets of its own: its
        operands are bracketed terms, so Python neither chains nor regroups
        them."""
        if expr.op in _LOGIC:
            return f"{self.test(expr.left, sid)} {_LOGIC[expr.op]} {self.test(expr.right, sid)}"
        return f"{self.value(expr.left, sid)} {expr.op} {self.value(expr.right, sid)}"

    def value(self, expr: Expr, sid: int) -> str:
        """Code for the int value of ``expr``; halts name ``sid``."""
        if isinstance(expr, IntLit):
            if expr.value.bit_length() <= 64:
                return repr(expr.value)
            name = f"_k{len(self.consts)}"
            self.consts[name] = expr.value
            return name
        if isinstance(expr, Var):
            return self.local(expr.name)
        if isinstance(expr, UnaryOp):
            if expr.op == "-":
                return f"(-{self.value(expr.operand, sid)})"
            return f"(0 if {self.test(expr.operand, sid)} else 1)"
        if isinstance(expr, BinOp):
            if expr.op in _ARITH:
                return f"({self.value(expr.left, sid)} {expr.op} {self.value(expr.right, sid)})"
            if expr.op in _HALTING:
                left, right = self.value(expr.left, sid), self.value(expr.right, sid)
                return f"{_HALTING[expr.op]}({left}, {right}, {sid})"
            return f"(1 if {self.relation(expr, sid)} else 0)"
        raise TypeError(f"cannot compile {type(expr).__name__}")


def _compile(program: Program, tracing: bool) -> Callable[[TestCase, int], BehaviorToken]:
    """Compile ``program`` once; the result runs it on one test."""
    # env is read back only for store text and by hoisted functions; whether
    # a function is hoisted is known once the code is generated, so regenerate
    source = _Source(tracing, write_through=tracing)
    source.function("_run", program.statements)
    if source.hoisted and not tracing:
        source = _Source(tracing, write_through=True)
        source.function("_run", program.statements)
    names = {local: toy for toy, local in source.locals.items()}
    namespace = dict(_RUNTIME, _names=names, **source.consts)
    exec(compile("\n".join(source.functions), "<mutspace program>", "exec"), namespace)
    code = namespace["_run"]

    def run(test: TestCase, budget: int) -> BehaviorToken:
        env = dict(test.inputs)
        trace: _Trace = [] if tracing else None
        output, status = "", STATUS_NORMAL
        try:
            code(env, max(budget, 0), trace)  # a negative budget acts as 0
        except _Return as ret:
            output = ret.text
        except _Halt as halt:
            output, status = halt.kind, STATUS_ERROR
            if trace is not None:
                trace.append((halt.sid, f"! {halt.kind}"))
        except _Timeout:
            status = STATUS_TIMEOUT
        return BehaviorToken(output, status, trace)

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
    return _compile(program, tracing)(test, budget)


def behavior_matrix(
    original: Program,
    mutants: Sequence[tuple["MutantDescriptor", Program]],
    tests: Sequence[TestCase],
    tracing: bool = False,
    budget: int = DEFAULT_BUDGET,
    expected: Optional[Mapping[str, str]] = None,
) -> BehaviorMatrix:
    """Execute the original (row ``original``) and every mutant on every test.

    ``expected`` (test id -> output text) adds a ``spec`` row of intended
    outputs; the spec need not be a runnable program.  Two calls with the
    same inputs produce equal matrices.
    """
    tv = TestVector(tuple(t.id for t in tests))
    entries = [ProgramEntry("original", ROLE_ORIGINAL)]

    def row(program: Program) -> dict[str, BehaviorToken]:
        run = _compile(program, tracing)  # once per row, then run on every test
        return {t.id: run(t, budget) for t in tests}

    cells: dict[str, dict[str, BehaviorToken]] = {"original": row(original)}
    for desc, prog in mutants:
        entries.append(ProgramEntry(desc.id, ROLE_MUTANT, origin="original"))
        cells[desc.id] = row(prog)
    if expected is not None:
        missing = [t.id for t in tests if t.id not in expected]
        if missing:
            raise ValueError(f"expected outputs missing for tests {missing}")
        entries.append(ProgramEntry("spec", ROLE_SPEC))
        cells["spec"] = {t.id: BehaviorToken(str(expected[t.id])) for t in tests}
    return BehaviorMatrix(tv, entries, cells)
