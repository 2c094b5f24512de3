"""Expression parser for the scenario front end.

Grammar: rational literals, identifiers, unary minus, ``+ - * /``, integer
``^``, parentheses.  Juxtaposition multiplies (``2 x th1 th2``), with odd
factors normalised by graded commutation.  Parse errors carry line/column.
Every integer literal of the scenario format is read by :func:`read_int`.
"""

from __future__ import annotations

import math
import re

from .errors import NonInvertible, ParseError, PoolMismatch, UnknownGenerator, _Record
from .scalars import EXPONENT_BOUND, IDENTIFIER, Superfunction

# the most digits of an integer literal: the interpreter's default limit on
# int(str), which read_int applies whatever limit the environment sets
MAX_DIGITS = 4300
# the most bits a power's or a product's result may hold by the estimates of
# _power_bits and _product_bits: (1 + x)^1000 stays below it (about 2^20) and
# (1 + x)^2000 and (1 + x)^1000 * (1 + x)^1000 do not
POWER_BITS = 2**21


def _power_bits(base: Superfunction, k: int) -> int:
    """An upper estimate of the bits of ``base^k`` (and of ``base^-k``,
    which computes it first), from k, the base's degree d in v even
    variables and its L1 norm: ``comb(k d + v, v)`` monomials of at most
    ``k * ceil(log2 norm)`` bits each."""
    degree, variables, norm, _ = base.extent()
    v = len(variables)
    return math.comb(k * degree + v, v) * k * max(norm - 1, 0).bit_length()


def _product_bits(a: Superfunction, b: Superfunction) -> int:
    """An upper estimate of the bits of ``a * b``, by the rule of
    :func:`_power_bits`: the degrees add and the L1 norms multiply, and the
    monomials are at most ``comb(d + v, v)`` and at most the products of
    the operands' monomials, so that ``2 x^k`` and ``x^k y^k`` stay small."""
    (da, va, na, sa), (db, vb, nb, sb) = a.extent(), b.extent()
    v = len(va | vb)
    return min(math.comb(da + db + v, v), sa * sb) * max(na * nb - 1, 0).bit_length()


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


def _tokenize(text: str, line: int, column: int):
    tokens = []
    line_start = 1 - column  # offset of column 1 of the current line
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
                    value = self.product(value, rhs, tok)
                else:
                    try:
                        value = value / rhs
                    except NonInvertible:
                        raise ParseError(
                            "division by a non-unit", tok.line, tok.column
                        ) from None
            elif tok.kind in ("INT", "IDENT") or (tok.kind == "OP" and tok.text == "("):
                value = self.product(value, self.unary(), tok)  # juxtaposition multiplies
            else:
                return value

    @staticmethod
    def product(a: Superfunction, b: Superfunction, tok: _Token) -> Superfunction:
        """``a * b``, a ParseError at ``tok`` when :func:`_product_bits` is
        past :data:`POWER_BITS`."""
        if _product_bits(a, b) > POWER_BITS:
            raise ParseError("product too large: its result may hold more than 2^21 bits",
                             tok.line, tok.column)
        return a * b

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
            if _power_bits(base, k) > POWER_BITS:
                raise ParseError("power too large: its result may hold more than 2^21 bits",
                                 tok.line, tok.column)
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


def parse_expression(text: str, pool, line: int = 1, column: int = 1) -> Superfunction:
    """Parse into the canonical normal form over the pool; identifiers are
    the pool's generator names.  An error names its position as if the text
    began at ``line`` and ``column`` of a file."""
    try:
        return _Parser(_tokenize(text, line, column), pool).parse()
    except ParseError:
        raise
    except PoolMismatch as exc:
        raise ParseError(str(exc), line, column) from None
    except RecursionError:
        raise ParseError("expression is nested too deeply", line, column) from None
