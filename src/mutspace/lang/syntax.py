"""Lexer, parser, AST, and canonical renderer for the toy language.

Grammar:

    program   := statement*
    statement := IDENT '=' expr ';'
               | 'if' '(' expr ')' block ('else' block)?
               | 'while' '(' expr ')' block
               | 'return' expr ';'
    block     := '{' statement* '}'
    expr      := or-expr, with precedence (low to high):
                 '||'  '&&'  '< <= > >= == !='  '+ -'  '* / %'  '! -'(unary)
    primary   := INT | IDENT | '(' expr ')'

INT is a run of decimal digits (``str.isdecimal``, the digits ``int()``
reads); a literal longer than Python's int-string limit (4,300 digits by
default) raises ``ParseError``.  IDENT starts with a letter or ``_`` and
goes on with letters, digits and ``_``, so toy names such as ``None``,
``def`` or ``x²`` need not be Python identifiers.

Nesting is limited: blocks, parentheses, unary operators and the binary
operators of one chain count together, and a program that nests deeper
than ``_MAX_NESTING`` (100) levels raises ``ParseError`` at the token where
the limit is crossed.  So every accepted program can be parsed, rendered,
mutated and executed without reaching Python's recursion limit.

Statements get stable preorder ids starting at 1; mutants keep the ids of
the statements they reuse.  ``statement_sites`` is the one statement walker:
``walk_statements``, ``statement_ids`` and mutation all go through it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Union

from ..errors import ParseError

KEYWORDS = ("if", "else", "while", "return")
ARITH_OPS = ("+", "-", "*", "/", "%")
REL_OPS = ("<", "<=", ">", ">=", "==", "!=")
LOGIC_OPS = ("&&", "||")

_TWO_CHAR = ("<=", ">=", "==", "!=", "&&", "||")
_ONE_CHAR = "=;(){}<>+-*/%!"

# binary operators, loosest first; all associate to the left
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "<": 3, "<=": 3, ">": 3, ">=": 3, "==": 3, "!=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}
_UNARY_PRECEDENCE = 6

# Deepest nesting ``parse`` accepts: open blocks, parentheses, unary
# operators and binary operators in one chain (``1 + 1 + 1`` nests two)
# count together.  Parsing, rendering, mutating and executing recurse about
# once per level (parentheses cost ``parse`` three frames, blocks cost the
# others two), so an accepted program needs at most ~310 frames beyond its
# caller's, well inside Python's default recursion limit of 1,000.
_MAX_NESTING = 100


# --- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnaryOp:
    op: str  # "!" or "-"
    operand: "Expr"


Expr = Union[IntLit, Var, BinOp, UnaryOp]


@dataclass(frozen=True)
class Assign:
    sid: int
    name: str
    value: Expr


@dataclass(frozen=True)
class If:
    sid: int
    cond: Expr
    then_body: tuple["Stmt", ...]
    else_body: tuple["Stmt", ...]


@dataclass(frozen=True)
class While:
    sid: int
    cond: Expr
    body: tuple["Stmt", ...]


@dataclass(frozen=True)
class Return:
    sid: int
    value: Expr


Stmt = Union[Assign, If, While, Return]


@dataclass(frozen=True)
class Program:
    statements: tuple[Stmt, ...]

    def walk_statements(self) -> Iterator[Stmt]:
        """All statements in preorder (= ascending sid for parsed programs)."""
        return (stmt for stmt, _ in statement_sites(self))

    def statement_ids(self) -> list[int]:
        return [s.sid for s in self.walk_statements()]


# rebuilds the whole program around one site from what the site becomes
Put = Callable[..., Program]


def statement_sites(program: Program) -> Iterator[tuple[Stmt, Put]]:
    """``(stmt, put)`` for every statement of ``program`` in preorder, where
    ``put(x)`` is ``program`` with that statement replaced by ``x``, or
    deleted when ``x`` is None.  The walk keeps its own stack, and each
    ``put`` rebuilds only the statement's ancestors and their blocks."""
    stack: list[tuple[Stmt, Put]] = []

    def push(block: tuple[Stmt, ...], put_block: Put) -> None:
        for i in reversed(range(len(block))):
            put = lambda x, i=i: put_block(block[:i] + (() if x is None else (x,)) + block[i + 1:])
            stack.append((block[i], put))

    push(program.statements, Program)
    while stack:
        stmt, put = stack.pop()
        yield stmt, put
        if isinstance(stmt, If):
            push(stmt.else_body, lambda b, s=stmt, up=put: up(If(s.sid, s.cond, s.then_body, b)))
            push(stmt.then_body, lambda b, s=stmt, up=put: up(If(s.sid, s.cond, b, s.else_body)))
        elif isinstance(stmt, While):
            push(stmt.body, lambda b, s=stmt, up=put: up(While(s.sid, s.cond, b)))


# --- Lexer -------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | keyword | operator/punct literal
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source[i : i + 2] in _TWO_CHAR:
            tokens.append(Token("op", source[i : i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch.isdecimal():  # exactly the digits int() reads
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            tokens.append(Token("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = word if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# --- Parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.next_sid = 1
        self.depth = 0  # open blocks, parentheses, unary operators, chain operators

    def nest(self, tok: Token) -> None:
        """Enter one nesting level at ``tok``; the caller leaves it."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", tok.line, tok.col)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            got = tok.text if tok.kind != "eof" else "end of input"
            raise self.fail(f"expected {text!r}, found {got!r}")
        return self.advance()

    def parse_program(self) -> Program:
        statements = []
        while self.peek().kind != "eof":
            statements.append(self.parse_statement())
        return Program(tuple(statements))

    def parse_statement(self) -> Stmt:
        sid = self.next_sid
        self.next_sid += 1
        tok = self.peek()
        if tok.kind == "if":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body = self.parse_block()
            else_body: tuple[Stmt, ...] = ()
            if self.peek().kind == "else":
                self.advance()
                else_body = self.parse_block()
            return If(sid, cond, then_body, else_body)
        if tok.kind == "while":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_block()
            return While(sid, cond, body)
        if tok.kind == "return":
            self.advance()
            value = self.parse_expr()
            self.expect(";")
            return Return(sid, value)
        if tok.kind == "ident":
            self.advance()
            self.expect("=")
            value = self.parse_expr()
            self.expect(";")
            return Assign(sid, tok.text, value)
        got = tok.text if tok.kind != "eof" else "end of input"
        raise self.fail(f"expected a statement, found {got!r}")

    def parse_block(self) -> tuple[Stmt, ...]:
        self.nest(self.expect("{"))
        statements = []
        while self.peek().text != "}":
            if self.peek().kind == "eof":
                raise self.fail("unbalanced brace: expected '}'")
            statements.append(self.parse_statement())
        self.expect("}")
        self.depth -= 1
        return tuple(statements)

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing: operators of one level associate to the left."""
        node = self.parse_unary()
        chain = 0
        while (tok := self.peek()).kind == "op" and _PRECEDENCE.get(tok.text, 0) >= min_prec:
            self.advance()
            self.nest(tok)
            chain += 1
            node = BinOp(tok.text, node, self.parse_expr(_PRECEDENCE[tok.text] + 1))
        self.depth -= chain
        return node

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("!", "-"):
            self.advance()
            self.nest(tok)
            node = UnaryOp(tok.text, self.parse_unary())
            self.depth -= 1
            return node
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            try:
                return IntLit(int(tok.text))
            except ValueError:  # past Python's int-string limit
                raise ParseError("integer literal too long", tok.line, tok.col) from None
        if tok.kind == "ident":
            self.advance()
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            self.nest(tok)
            node = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return node
        got = tok.text if tok.kind != "eof" else "end of input"
        raise self.fail(f"expected an expression, found {got!r}")


def parse(source: str) -> Program:
    """Parse source text; raises :class:`ParseError` with a location."""
    return _Parser(tokenize(source)).parse_program()


# --- Renderer ----------------------------------------------------------------


def render_expr(expr: Expr) -> str:
    return _render_expr(expr, 0)


def _render_expr(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, UnaryOp):
        inner = _render_expr(expr.operand, _UNARY_PRECEDENCE)
        return expr.op + inner
    prec = _PRECEDENCE[expr.op]
    left = _render_expr(expr.left, prec)
    # operators are left-associative: same-precedence right children need parens
    right = _render_expr(expr.right, prec + 1)
    text = f"{left} {expr.op} {right}"
    if prec < parent_prec:
        return f"({text})"
    return text


def _render_block(stmts: tuple[Stmt, ...], indent: int) -> list[str]:
    pad = "  " * indent
    lines = []
    for stmt in stmts:
        lines.append(pad + statement_head(stmt))
        if isinstance(stmt, While):
            lines.extend(_render_block(stmt.body, indent + 1))
            lines.append(f"{pad}}}")
        elif isinstance(stmt, If):
            lines.extend(_render_block(stmt.then_body, indent + 1))
            if stmt.else_body:
                lines.append(f"{pad}}} else {{")
                lines.extend(_render_block(stmt.else_body, indent + 1))
            lines.append(f"{pad}}}")
    return lines


def render(program: Program) -> str:
    """Canonical source text; parsing it back yields an equivalent program."""
    return "\n".join(_render_block(program.statements, 0)) + "\n"


def statement_head(stmt: Stmt) -> str:
    """First rendered line of a statement, e.g. ``x = a + b;`` or ``if (a > b) {``;
    it renders the statement's own expression only, never its body."""
    if isinstance(stmt, Assign):
        return f"{stmt.name} = {render_expr(stmt.value)};"
    if isinstance(stmt, Return):
        return f"return {render_expr(stmt.value)};"
    if isinstance(stmt, While):
        return f"while ({render_expr(stmt.cond)}) {{"
    if isinstance(stmt, If):
        return f"if ({render_expr(stmt.cond)}) {{"
    raise TypeError(f"cannot render {type(stmt).__name__}")
