"""Single-site mutation operators over parsed programs.

Operators:

* AOR - replace an arithmetic operator with each of the other four
* ROR - replace a relational operator with each of the other five
* LCR - swap && and ||
* CRP - replace an integer constant c with c+1, c-1, and 0
* SDL - delete one statement (compound statements go wholesale)

Mutants are generated in a fixed order: statement id, then site offset
within the statement (0 = the statement itself, used by SDL; expression
sites follow in preorder), then replacement order.  Statement ids are
reused unchanged, so a mutant's statements line up with the original's.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

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


def _expr_sites(stmt: Stmt) -> list[Expr]:
    """The statement's own expressions, preorder, without nested statements."""
    roots: list[Expr] = []
    if isinstance(stmt, Assign):
        roots = [stmt.value]
    elif isinstance(stmt, Return):
        roots = [stmt.value]
    elif isinstance(stmt, (If, While)):
        roots = [stmt.cond]
    out: list[Expr] = []

    def walk(e: Expr) -> None:
        out.append(e)
        if isinstance(e, BinOp):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, UnaryOp):
            walk(e.operand)

    for root in roots:
        walk(root)
    return out


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
                options.append((OPERATOR_CRP, str(node.value), str(candidate)))
        return options
    return []


def _rewrite_expr(
    root: Expr, target_index: int, make: Callable[[Expr], Expr]
) -> Expr:
    """Rebuild ``root`` with the node at preorder position ``target_index``
    replaced; positions count all nodes, matching ``_expr_sites`` order."""
    counter = [-1]

    def go(e: Expr) -> Expr:
        counter[0] += 1
        if counter[0] == target_index:
            return make(e)
        if isinstance(e, BinOp):
            left = go(e.left)
            right = go(e.right)
            return BinOp(e.op, left, right)
        if isinstance(e, UnaryOp):
            return UnaryOp(e.op, go(e.operand))
        return e

    rebuilt = go(root)
    if counter[0] < target_index:
        raise ValueError(f"expression site {target_index + 1} out of range")
    return rebuilt


def _edit_statement(stmts: tuple[Stmt, ...], sid: int, editor) -> tuple[Stmt, ...]:
    """Rebuild a statement tuple with the statement ``sid`` transformed by
    ``editor`` (which may return None to delete it)."""
    out = []
    for s in stmts:
        if s.sid == sid:
            edited = editor(s)
            if edited is not None:
                out.append(edited)
            continue
        if isinstance(s, If):
            out.append(
                If(
                    s.sid,
                    s.cond,
                    _edit_statement(s.then_body, sid, editor),
                    _edit_statement(s.else_body, sid, editor),
                )
            )
        elif isinstance(s, While):
            out.append(While(s.sid, s.cond, _edit_statement(s.body, sid, editor)))
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

        def make(node: Expr) -> Expr:
            if desc.operator == OPERATOR_CRP:
                if not isinstance(node, IntLit) or str(node.value) != desc.original:
                    raise ValueError(
                        f"descriptor does not match site: expected literal {desc.original}"
                    )
                return IntLit(int(desc.replacement))
            if not isinstance(node, BinOp) or node.op != desc.original:
                raise ValueError(
                    f"descriptor does not match site: expected operator {desc.original!r}"
                )
            return BinOp(desc.replacement, node.left, node.right)

        target = desc.site - 1
        if isinstance(stmt, Assign):
            return Assign(stmt.sid, stmt.name, _rewrite_expr(stmt.value, target, make))
        if isinstance(stmt, Return):
            return Return(stmt.sid, _rewrite_expr(stmt.value, target, make))
        if isinstance(stmt, If):
            return If(stmt.sid, _rewrite_expr(stmt.cond, target, make), stmt.then_body, stmt.else_body)
        if isinstance(stmt, While):
            return While(stmt.sid, _rewrite_expr(stmt.cond, target, make), stmt.body)
        raise TypeError(f"cannot mutate {type(stmt).__name__}")

    before = program.statement_ids()
    if desc.statement not in before:
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
    counter = 0
    for stmt in program.walk_statements():
        sites: list[tuple[int, str, str, str]] = []
        if OPERATOR_SDL in enabled:
            sites.append((0, OPERATOR_SDL, statement_head(stmt), ""))
        for offset, node in enumerate(_expr_sites(stmt), start=1):
            for operator, original, replacement in _replacements(node):
                if operator in enabled:
                    sites.append((offset, operator, original, replacement))
        for site, operator, original, replacement in sites:
            counter += 1
            desc = MutantDescriptor(
                id=f"m{counter}",
                operator=operator,
                statement=stmt.sid,
                site=site,
                original=original,
                replacement=replacement,
            )
            results.append((desc, apply_descriptor(program, desc)))
    return results
