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
sites follow in preorder), then replacement order.  Statements are
numbered by one walker, ``syntax.statement_sites``, and sites by one
generator, ``_mutation_sites`` (the statement, then ``_sites`` over its
expression); each yields ``(node, put)`` pairs whose ``put`` rebuilds only
what lies above the node.  ``mutate_all`` walks the program once and
``apply_descriptor`` walks to its target; both build through ``_build``.
Statement ids are reused unchanged, so a mutant's statements line up with
the original's.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional, Union

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
    Put,
    Return,
    Stmt,
    UnaryOp,
    Var,
    While,
    statement_head,
    statement_sites,
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


def _replacements(node: Union[Stmt, Expr]) -> list[tuple[str, str, str]]:
    """(operator, original token, replacement token) options for one site:
    a statement (site 0) or a node of its expression."""
    if isinstance(node, (Assign, If, While, Return)):
        return [(OPERATOR_SDL, statement_head(node), "")]
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


def _held(node: Union[Stmt, Expr]) -> Optional[tuple[str, str]]:
    """The kind and shown token of an expression site; None for a statement."""
    if isinstance(node, (BinOp, UnaryOp)):
        return "operator", repr(node.op)
    if isinstance(node, IntLit):
        return "literal", str(node.value)
    if isinstance(node, Var):
        return "variable", repr(node.name)
    return None


# the field that holds each mutable statement kind's own expression
_EXPR_FIELD = {Assign: "value", Return: "value", If: "cond", While: "cond"}


def _sites(root: Expr, put: Put) -> Iterator[tuple[Expr, Put]]:
    """``(node, put)`` for every node of ``root`` in preorder, where
    ``put(x)`` is what the given ``put`` makes of ``root`` with that node
    replaced by ``x``.  The walk keeps its own stack, so a long operator
    chain costs no generator frames, and each ``put`` rebuilds only the
    nodes above it."""
    stack = [(root, put)]
    while stack:
        node, put = stack.pop()
        yield node, put
        if isinstance(node, BinOp):
            stack.append((node.right, lambda x, n=node, up=put: up(BinOp(n.op, n.left, x))))
            stack.append((node.left, lambda x, n=node, up=put: up(BinOp(n.op, x, n.right))))
        elif isinstance(node, UnaryOp):
            stack.append((node.operand, lambda x, n=node, up=put: up(UnaryOp(n.op, x))))


def _mutation_sites(stmt: Stmt, put: Put) -> Iterator[tuple[Union[Stmt, Expr], Put]]:
    """``(node, put)`` for each mutation site of ``stmt`` (yielded with
    ``put`` by ``statement_sites``), site k being the k-th pair from 0:
    the statement itself, then its expression's nodes from ``_sites``."""
    try:
        field = _EXPR_FIELD[type(stmt)]
    except KeyError:
        raise TypeError(f"cannot mutate {type(stmt).__name__}") from None
    yield stmt, put
    yield from _sites(getattr(stmt, field), lambda x: put(replace(stmt, **{field: x})))


def _build(node: Union[Stmt, Expr], put: Put, replacement: str) -> Program:
    """The mutant at a site of ``_mutation_sites``: its literal or operator
    rewritten to ``replacement``, or, at site 0, the statement deleted."""
    if isinstance(node, IntLit):
        return put(IntLit(int(replacement)))
    if isinstance(node, BinOp):
        return put(BinOp(replacement, node.left, node.right))
    return put(None)


def apply_descriptor(program: Program, desc: MutantDescriptor) -> Program:
    """Re-apply a descriptor to the original program; the result renders to
    exactly the mutant source the descriptor was generated with.  Only a
    descriptor that ``mutate_all`` emits for ``program`` (id aside) applies;
    any other raises ``ValueError`` naming the field that fails."""
    if desc.operator not in ALL_OPERATORS:
        raise ValueError(f"unknown mutation operator {desc.operator!r}")
    for stmt, put in statement_sites(program):
        if stmt.sid == desc.statement:
            break
    else:
        raise ValueError(f"program has no statement {desc.statement}")
    if desc.site == 0 and desc.operator != OPERATOR_SDL:
        raise ValueError(f"site 0 is reserved for {OPERATOR_SDL}")
    if desc.site != 0 and desc.operator == OPERATOR_SDL:
        raise ValueError(f"{OPERATOR_SDL} applies at site 0 only")
    sites = list(_mutation_sites(stmt, put))
    if not 0 <= desc.site < len(sites):
        raise ValueError(f"expression site {desc.site} out of range")
    node, put_node = sites[desc.site]
    offered = _replacements(node)
    if (desc.operator, desc.original, desc.replacement) not in offered:
        if any(original == desc.original for _, original, _ in offered):
            raise ValueError(
                f"descriptor does not match site: {desc.operator} does not rewrite "
                f"{desc.original!r} to {desc.replacement!r}"
            )
        kind = {OPERATOR_CRP: "literal", OPERATOR_SDL: "statement"}.get(desc.operator, "operator")
        shown = desc.original if kind == "literal" else repr(desc.original)
        # an expression site holding a token of the descriptor's kind, or a
        # variable, is named by that token; any other site by what was expected
        held = _held(node)
        if held and held[0] in (kind, "variable"):
            raise ValueError(
                f"descriptor does not match site: site holds {held[0]} {held[1]}, not {shown}"
            )
        raise ValueError(f"descriptor does not match site: expected {kind} {shown}")
    return _build(node, put_node, desc.replacement)


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
    for stmt, put in statement_sites(program):
        for k, (node, put_node) in enumerate(_mutation_sites(stmt, put)):
            for operator, original, replacement in _replacements(node):
                if operator in enabled:
                    desc = MutantDescriptor(
                        f"m{len(results) + 1}", operator, stmt.sid, k, original, replacement
                    )
                    results.append((desc, _build(node, put_node, replacement)))
    return results
