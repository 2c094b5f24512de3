"""Expression parser for the scenario front end.

Grammar: rational literals, identifiers, unary minus, ``+ - * /``, integer
``^``, parentheses.  Juxtaposition multiplies (``2 x th1 th2``), with odd
factors normalised by graded commutation.  Parse errors carry line/column.
Every integer literal of the scenario format is read by :func:`read_int`.
"""

from __future__ import annotations

import re

from .errors import NonInvertible, ParseError, PoolMismatch, UnknownGenerator, _Record
from .scalars import EXPONENT_BOUND, IDENTIFIER, Superfunction

# the most digits of an integer literal: the interpreter's default limit on
# int(str), which read_int applies whatever limit the environment sets
MAX_DIGITS = 4300


def read_int(text: str, line=None, column=None) -> int:
    """The int that the ASCII digits ``text`` spell, read 600 digits at a
    time, below the lowest limit (640) the interpreter may set on int(str);
    a ParseError at ``line`` and ``column`` beyond :data:`MAX_DIGITS` digits."""
    if len(text) > MAX_DIGITS:
        raise ParseError(f"integer literal of more than {MAX_DIGITS} digits", line, column)
    value = 0
    for k in range(0, len(text), 600):
        chunk = text[k:k + 600]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


class _Token(_Record):
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind  # INT, IDENT, OP, EOF
        self.text, self.line, self.column = text, line, column


# One alternative per token kind; IDENT is the pool's rule for a generator
# name, ``\s`` matches exactly what str.isspace does, and BAD catches any
# other single character.
_TOKEN = re.compile(
    rf"(?P<INT>[0-9]+)|(?P<IDENT>{IDENTIFIER})|(?P<OP>[-+*/^()])|(?P<SPACE>\s+)|(?P<BAD>.)"
)


def _tokenize(text: str):
    tokens = []
    line, line_start = 1, 0  # line_start: offset of the line's first character
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "BAD":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        if kind != "SPACE":
            tokens.append(_Token(kind, m.group(), line, col))
        elif "\n" in m.group():
            line += m.group().count("\n")
            line_start = m.start() + m.group().rindex("\n") + 1
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, pool):
        self.tokens = tokens
        self.pos = 0
        self.pool = pool

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == text:
            return self.advance()
        raise ParseError(f"expected {text!r}", tok.line, tok.column)

    def parse(self) -> Superfunction:
        value = self.expression()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return value

    def expression(self) -> Superfunction:
        value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> Superfunction:
        value = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "*/":
                self.advance()
                rhs = self.unary()
                if tok.text == "*":
                    value = value * rhs
                else:
                    try:
                        value = value / rhs
                    except NonInvertible:
                        raise ParseError(
                            "division by a non-unit", tok.line, tok.column
                        ) from None
            elif tok.kind in ("INT", "IDENT") or (tok.kind == "OP" and tok.text == "("):
                value = value * self.unary()  # juxtaposition multiplies
            else:
                return value

    def unary(self) -> Superfunction:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> Superfunction:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            sign = 1
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "-":
                self.advance()
                sign = -1
            tok = self.peek()
            if tok.kind != "INT":
                raise ParseError("exponent must be an integer", tok.line, tok.column)
            self.advance()
            k = read_int(tok.text, tok.line, tok.column)
            if k >= EXPONENT_BOUND:
                raise ParseError("exponent must be below 2^31", tok.line, tok.column)
            try:
                return base ** (sign * k)
            except NonInvertible:
                raise ParseError(
                    "negative power of a non-unit", tok.line, tok.column
                ) from None
        return base

    def atom(self) -> Superfunction:
        tok = self.advance()
        if tok.kind == "INT":
            return self.pool.scalar(read_int(tok.text, tok.line, tok.column))
        if tok.kind == "IDENT":
            try:
                return self.pool.generator(tok.text)
            except UnknownGenerator:
                raise ParseError(
                    f"unknown identifier {tok.text!r}", tok.line, tok.column
                ) from None
        if tok.kind == "OP" and tok.text == "(":
            value = self.expression()
            self.expect_op(")")
            return value
        raise ParseError(
            f"unexpected {tok.text!r}" if tok.text else "unexpected end of input",
            tok.line,
            tok.column,
        )


def parse_expression(text: str, pool) -> Superfunction:
    """Parse into the canonical normal form over the pool; identifiers are
    the pool's generator names."""
    try:
        return _Parser(_tokenize(text), pool).parse()
    except ParseError:
        raise
    except PoolMismatch as exc:
        raise ParseError(str(exc)) from None
    except RecursionError:
        raise ParseError("expression is nested too deeply") from None
