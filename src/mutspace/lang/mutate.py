"""Single-site mutation operators over parsed programs.

Operators:

* AOR - replace an arithmetic operator with each of the other four
* ROR - replace a relational operator with each of the other five
* LCR - swap && and ||
* CRP - replace an integer constant c with c+1, c-1, and 0; a candidate
  that ``str()`` cannot write (past Python's int-string limit) is skipped,
  since ``parse`` would reject that literal anyway
* SDL - delete one statement (compound statements go wholesale)

Mutants are generated in a fixed order: statement id, then site offset
within the statement (0 = the statement itself, used by SDL; expression
sites follow in preorder), then replacement order.  Expression-site
numbering is defined by ``_sites`` alone: ``mutate_all`` enumerates with
it and ``apply_descriptor`` rebuilds through it.  Statement ids are
reused unchanged, so a mutant's statements line up with the original's.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional

from .syntax import (
    ARITH_OPS,
    LOGIC_OPS,
    REL_OPS,
    Assign,
    BinOp,
    Expr,
    If,
    IntLit,
    Program,
    Return,
    Stmt,
    UnaryOp,
    While,
    statement_head,
)

OPERATOR_AOR = "AOR"
OPERATOR_ROR = "ROR"
OPERATOR_LCR = "LCR"
OPERATOR_CRP = "CRP"
OPERATOR_SDL = "SDL"
ALL_OPERATORS = (OPERATOR_AOR, OPERATOR_ROR, OPERATOR_LCR, OPERATOR_CRP, OPERATOR_SDL)


@dataclass(frozen=True)
class MutantDescriptor:
    """One applicable mutation: where it is and what it rewrites.

    ``site`` 0 denotes the statement itself (SDL); expression sites are
    numbered from 1 in preorder over the statement's own expressions.
    Applying a descriptor to the original program reproduces the mutant.
    """

    id: str
    operator: str
    statement: int
    site: int
    original: str
    replacement: str


def _replacements(node: Expr) -> list[tuple[str, str, str]]:
    """(operator, original token, replacement token) options for one node."""
    if isinstance(node, BinOp):
        if node.op in ARITH_OPS:
            return [(OPERATOR_AOR, node.op, alt) for alt in ARITH_OPS if alt != node.op]
        if node.op in REL_OPS:
            return [(OPERATOR_ROR, node.op, alt) for alt in REL_OPS if alt != node.op]
        if node.op in LOGIC_OPS:
            alt = "||" if node.op == "&&" else "&&"
            return [(OPERATOR_LCR, node.op, alt)]
    if isinstance(node, IntLit):
        seen = {node.value}
        options = []
        for candidate in (node.value + 1, node.value - 1, 0):
            if candidate not in seen:
                seen.add(candidate)
                try:
                    text = str(candidate)
                except ValueError:  # past the int-string limit: parse rejects it too
                    continue
                options.append((OPERATOR_CRP, str(node.value), text))
        return options
    return []


# the field that holds each mutable statement kind's own expression
_EXPR_FIELD = {Assign: "value", Return: "value", If: "cond", While: "cond"}


def _expr_field(stmt: Stmt) -> str:
    try:
        return _EXPR_FIELD[type(stmt)]
    except KeyError:
        raise TypeError(f"cannot mutate {type(stmt).__name__}") from None


def _sites(root: Expr) -> Iterator[tuple[Expr, Callable[[Expr], Expr]]]:
    """``(node, put)`` for every node of ``root`` in preorder, where
    ``put(x)`` is ``root`` with that node replaced by ``x``.  Expression
    site k is the k-th pair, counted from 1.

    The walk keeps its own stack, so a long operator chain costs no
    generator frames, and each ``put`` rebuilds only the nodes above it."""
    stack: list[tuple[Expr, Callable[[Expr], Expr]]] = [(root, lambda x: x)]
    while stack:
        node, put = stack.pop()
        yield node, put
        if isinstance(node, BinOp):
            stack.append((node.right, lambda x, n=node, up=put: up(BinOp(n.op, n.left, x))))
            stack.append((node.left, lambda x, n=node, up=put: up(BinOp(n.op, x, n.right))))
        elif isinstance(node, UnaryOp):
            stack.append((node.operand, lambda x, n=node, up=put: up(UnaryOp(n.op, x))))


def _edit_statement(stmts: tuple[Stmt, ...], sid: int, editor) -> tuple[Stmt, ...]:
    """Rebuild a statement tuple with the statement ``sid`` transformed by
    ``editor`` (which may return None to delete it)."""
    out = []
    for s in stmts:
        if s.sid == sid:
            edited = editor(s)
            if edited is not None:
                out.append(edited)
        elif isinstance(s, If):
            out.append(
                replace(
                    s,
                    then_body=_edit_statement(s.then_body, sid, editor),
                    else_body=_edit_statement(s.else_body, sid, editor),
                )
            )
        elif isinstance(s, While):
            out.append(replace(s, body=_edit_statement(s.body, sid, editor)))
        else:
            out.append(s)
    return tuple(out)


def apply_descriptor(program: Program, desc: MutantDescriptor) -> Program:
    """Re-apply a descriptor to the original program; the result renders to
    exactly the mutant source the descriptor was generated with."""
    def edit(stmt: Stmt) -> Optional[Stmt]:
        if desc.site == 0:
            if desc.operator != OPERATOR_SDL:
                raise ValueError(f"site 0 is reserved for {OPERATOR_SDL}")
            return None
        field = _expr_field(stmt)
        site = None
        if desc.site > 0:
            site = next(islice(_sites(getattr(stmt, field)), desc.site - 1, None), None)
        if site is None:
            raise ValueError(f"expression site {desc.site} out of range")
        node, put = site
        if desc.operator == OPERATOR_CRP:
            if not isinstance(node, IntLit) or str(node.value) != desc.original:
                raise ValueError(
                    f"descriptor does not match site: expected literal {desc.original}"
                )
            mutated: Expr = IntLit(int(desc.replacement))
        elif not isinstance(node, BinOp) or node.op != desc.original:
            raise ValueError(
                f"descriptor does not match site: expected operator {desc.original!r}"
            )
        else:
            mutated = BinOp(desc.replacement, node.left, node.right)
        return replace(stmt, **{field: put(mutated)})

    if desc.statement not in program.statement_ids():
        raise ValueError(f"program has no statement {desc.statement}")
    return Program(_edit_statement(program.statements, desc.statement, edit))


def mutate_all(
    program: Program, operators: Iterable[str] = ALL_OPERATORS
) -> list[tuple[MutantDescriptor, Program]]:
    """Every applicable single-site mutation, in deterministic order, with
    no duplicate descriptors.  Mutant ids are m1, m2, ... in that order."""
    enabled = tuple(operators)
    unknown = set(enabled) - set(ALL_OPERATORS)
    if unknown:
        raise ValueError(f"unknown mutation operators {sorted(unknown)}")
    results: list[tuple[MutantDescriptor, Program]] = []

    def add(stmt: Stmt, site: int, operator: str, original: str, replacement: str) -> None:
        if operator in enabled:
            desc = MutantDescriptor(
                f"m{len(results) + 1}", operator, stmt.sid, site, original, replacement
            )
            results.append((desc, apply_descriptor(program, desc)))

    for stmt in program.walk_statements():
        add(stmt, 0, OPERATOR_SDL, statement_head(stmt), "")
        sites = _sites(getattr(stmt, _expr_field(stmt)))
        for site, (node, _) in enumerate(sites, start=1):
            for operator, original, replacement in _replacements(node):
                add(stmt, site, operator, original, replacement)
    return results
