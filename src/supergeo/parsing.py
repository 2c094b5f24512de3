"""Expression parser for the scenario front end.

Grammar: rational literals, identifiers, unary minus, ``+ - * /``, integer
``^``, parentheses.  Juxtaposition multiplies (``2 x th1 th2``), with odd
factors normalised by graded commutation.  Parse errors carry line/column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonInvertible, ParseError, PoolMismatch, UnknownGenerator
from .scalars import Superfunction


@dataclass
class _Token:
    kind: str  # INT, IDENT, OP, EOF
    text: str
    line: int
    column: int


def _is_digit(c):
    return "0" <= c <= "9"


def _is_ident_start(c):
    return "a" <= c <= "z" or "A" <= c <= "Z" or c == "_"


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if _is_digit(c):
            start = i
            startcol = col
            while i < n and _is_digit(text[i]):
                i += 1
                col += 1
            tokens.append(_Token("INT", text[start:i], line, startcol))
            continue
        if _is_ident_start(c):
            start = i
            startcol = col
            while i < n and (_is_ident_start(text[i]) or _is_digit(text[i])):
                i += 1
                col += 1
            tokens.append(_Token("IDENT", text[start:i], line, startcol))
            continue
        if c in "+-*/^()":
            tokens.append(_Token("OP", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
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
            try:
                return base ** (sign * int(tok.text))
            except NonInvertible:
                raise ParseError(
                    "negative power of a non-unit", tok.line, tok.column
                ) from None
        return base

    def atom(self) -> Superfunction:
        tok = self.advance()
        if tok.kind == "INT":
            return self.pool.scalar(int(tok.text))
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
