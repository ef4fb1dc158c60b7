"""Grammar-built random programs through the interpreter and the renderer.

The strategy covers every statement form and operator, draws names partly
from Python keywords and builtins, and runs under a small step budget.
Expressions hold at most three leaves and the budget is at most 12 steps,
so no value grows past about 3**12 times the bits of an input: big-int
cost stays small however the program multiplies.

``reference`` is a plain tree-walking interpreter written from the
language's documented semantics; every token ``execute`` makes, trace
included, must equal the one it makes.  Every mutant ``mutate_all`` makes
must be what ``apply_descriptor`` makes of its descriptor.
"""
import dataclasses
import itertools
import operator

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mutspace import BehaviorToken
from mutspace.lang import (
    Assign,
    BinOp,
    If,
    IntLit,
    Program,
    Return,
    TestCase,
    UnaryOp,
    Var,
    While,
    apply_descriptor,
    behavior_matrix,
    execute,
    mutate_all,
    parse,
    render,
)
from mutspace.lang.syntax import _PRECEDENCE

NAMES = ["x", "y", "None", "def", "lambda", "print", "env", "sid", "é", "x²"]
BOUND = ["x", "None", "env", "é"]  # inputs of every test, so that reads mostly succeed
names = st.sampled_from(NAMES)

exprs = st.recursive(
    st.builds(IntLit, st.integers(0, 9)) | st.builds(Var, names),
    lambda sub: st.builds(UnaryOp, st.sampled_from(["!", "-"]), sub)
    | st.builds(BinOp, st.sampled_from(sorted(_PRECEDENCE)), sub, sub),
    max_leaves=3,
)


def blocks(stmts):
    return st.lists(stmts, max_size=3).map(tuple)


# statements carry sid 0 until ``numbered`` gives them their preorder ids
statements = st.recursive(
    st.builds(Assign, st.just(0), names, exprs) | st.builds(Return, st.just(0), exprs),
    lambda sub: st.builds(If, st.just(0), exprs, blocks(sub), blocks(sub))
    | st.builds(While, st.just(0), exprs, blocks(sub)),
    max_leaves=6,
)


def numbered(stmts, sids):
    out = []
    for s in stmts:
        sid = next(sids)
        if isinstance(s, If):
            s = If(sid, s.cond, numbered(s.then_body, sids), numbered(s.else_body, sids))
        elif isinstance(s, While):
            s = While(sid, s.cond, numbered(s.body, sids))
        else:
            s = dataclasses.replace(s, sid=sid)
        out.append(s)
    return tuple(out)


programs = st.lists(statements, min_size=1, max_size=4).map(
    lambda stmts: Program(numbered(stmts, itertools.count(1)))
)
tests = st.builds(
    TestCase,
    st.just("t"),
    st.fixed_dictionaries(
        {name: st.integers(-3, 9) for name in BOUND},
        optional={name: st.integers(-3, 9) for name in NAMES if name not in BOUND},
    ),
)
budgets = st.integers(0, 12)


class _Halt(Exception):
    pass


class _Returned(Exception):
    pass


class _Spent(Exception):
    pass


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


def reference(program, test, budget, tracing):
    """The token of ``program`` on ``test``, by walking the tree."""
    env = dict(test.inputs)
    trace = []
    left = [budget]

    def step():
        if left[0] <= 0:
            raise _Spent
        left[0] -= 1

    def text(v):
        try:
            return str(v)
        except ValueError:
            return None

    def store():
        return " ".join(f"{k}={text(v) or '<integer too large>'}" for k, v in sorted(env.items()))

    def halt(kind, sid):
        trace.append((sid, f"! {kind}"))
        raise _Halt(kind)

    def ev(e, sid):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, Var):
            if e.name not in env:
                halt(f"unbound variable: {e.name}", sid)
            return env[e.name]
        if isinstance(e, UnaryOp):
            v = ev(e.operand, sid)
            return -v if e.op == "-" else int(v == 0)
        if e.op == "&&":
            return int(ev(e.left, sid) != 0 and ev(e.right, sid) != 0)
        if e.op == "||":
            return int(ev(e.left, sid) != 0 or ev(e.right, sid) != 0)
        a, b = ev(e.left, sid), ev(e.right, sid)
        if e.op in ("/", "%"):
            if b == 0:
                halt("division by zero" if e.op == "/" else "modulo by zero", sid)
            q = abs(a) // abs(b) * (1 if (a >= 0) == (b >= 0) else -1)
            return q if e.op == "/" else a - q * b
        if e.op in _COMPARE:
            return int(_COMPARE[e.op](a, b))
        return _ARITH[e.op](a, b)

    def run(stmts):
        for s in stmts:
            step()
            if isinstance(s, Assign):
                env[s.name] = ev(s.value, s.sid)
                trace.append((s.sid, store()))
            elif isinstance(s, Return):
                out = text(ev(s.value, s.sid))
                if out is None:
                    halt("integer too large", s.sid)
                st = store()
                trace.append((s.sid, f"{st} -> {out}" if st else f"-> {out}"))
                raise _Returned(out)
            elif isinstance(s, If):
                taken = ev(s.cond, s.sid)
                trace.append((s.sid, store()))
                run(s.then_body if taken else s.else_body)
            else:
                while True:
                    live = ev(s.cond, s.sid)
                    trace.append((s.sid, store()))
                    if not live:
                        break
                    run(s.body)
                    step()

    output, status = "", "normal"
    try:
        run(program.statements)
    except _Returned as r:
        output = r.args[0]
    except _Halt as h:
        output, status = h.args[0], "error"
    except _Spent:
        status = "timeout"
    return BehaviorToken(output, status, tuple(trace) if tracing else None)


FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(programs, tests, budgets)
def test_execute_never_raises_matches_the_reference_and_render_round_trips(
    program, test, budget
):
    plain = execute(program, test, budget)
    traced = execute(program, test, budget, tracing=True)
    assert (traced.output, traced.status) == (plain.output, plain.status)
    assert plain == reference(program, test, budget, tracing=False)
    assert traced == reference(program, test, budget, tracing=True)
    assert parse(render(program)) == program


@settings(FUZZ, max_examples=12)
@given(programs, st.lists(tests, min_size=1, max_size=3), budgets, st.booleans())
def test_matrix_rows_equal_per_cell_execution(program, suite, budget, tracing):
    suite = [TestCase(f"t{i}", t.inputs) for i, t in enumerate(suite)]
    mutants = mutate_all(program)[:6]
    bm = behavior_matrix(program, mutants, suite, tracing, budget)
    for pid, prog in [("original", program)] + [(d.id, m) for d, m in mutants]:
        for test in suite:
            assert bm.token(pid, test.id) == execute(prog, test, budget, tracing)


@settings(FUZZ, max_examples=30)
@given(programs)
def test_apply_descriptor_reproduces_every_mutant(program):
    mutants = mutate_all(program)
    assert [d.id for d, _ in mutants] == [f"m{i}" for i in range(1, len(mutants) + 1)]
    source = parse(render(program))  # the program as read back from its text
    for desc, mutant in mutants:
        assert mutant != program
        assert apply_descriptor(program, desc) == mutant
        assert apply_descriptor(source, desc) == mutant
