"""Exact Grassmann-valued scalars with rational-function coefficients.

A :class:`Superfunction` is a finite sum of terms ``c(x) * th_{i1}*...*th_{ik}``
where the odd monomial is a strictly increasing tuple of indices into the
pool's odd generators and ``c`` is a rational function of the even variables
with rational coefficients.

Coefficients live in sympy's sparse polynomial ring ``QQ[x_1..x_n]`` and its
fraction field ``QQ(x_1..x_n)``, built once per tuple of even names (every
pool with the same even names shares the same ring and field).  One invariant
holds for ``Superfunction.terms`` and :func:`_norm` enforces it: every stored
coefficient is nonzero, and it is a ``PolyElement`` when the value is a
polynomial and a ``FracElement`` with a non-constant denominator otherwise.
Both are canonical, so ring arithmetic needs no simplification step and
equality is structural.  Other modules never read ``terms``; they call
``has_body``, ``is_polynomial`` or ``rational_coefficients``.

Division happens in one place, :func:`_divide` (``invert``, ``/``, negative
powers, ``sqrt``), on top of :func:`_coeff_div` (also used by ``substitute``
and ``body_at``).  A constant divisor never enters ``QQ(x)``; a polynomial
quotient is one cancellation per output coefficient.  Square roots stay in
the ring: :func:`_poly_root` uses a square-free decomposition, no factoring.

Values cross into sympy ``Expr`` only at the edges, and only this module
imports ``sympy`` (the others use only ``sympy.polys`` types):
:meth:`GeneratorPool.scalar` lifts ints, ``Fraction``s and sympy ``Rational``s
straight into the ground domain, polynomial sympy expressions through the ring
and other even sympy expressions through the field (floats, irrational numbers
and symbols outside the pool are rejected); :meth:`GeneratorPool.even` is a
generator of the ring; :meth:`Superfunction.body` and
:meth:`Superfunction.berezin_top` return ``Expr`` for callers that want one;
and :meth:`Superfunction.render` and error messages print through ``Expr``.
A scenario run therefore builds ``Expr`` only to render.
:meth:`Superfunction.body_at` is the package's only way to evaluate a body at
a point: it runs the same native kernel as :meth:`Superfunction.substitute`,
returns a ``Fraction`` and raises ``NonInvertible`` at a pole.

Sign conventions, fixed once for the whole package (see
docs/sign-conventions.md):

* odd monomials are normalised to ascending pool order; every product sign is
  the parity of the permutation that merges two sorted index tuples,
* odd partial derivatives act from the left,
* derivatives with respect to flesh generators are rejected: flesh generators
  are constants of the structure sheaf,
* Berezin extraction reads off the coefficient of ``th_1*...*th_m`` taken over
  the odd *coordinates* in ascending order; flesh generators must not survive
  into that coefficient.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.orderings import lex
from sympy.polys.polyerrors import CoercionFailed
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyElement

from .errors import (
    FleshInTopCoefficient,
    InexactCoefficient,
    NonInvertible,
    NotASquare,
    ParityError,
    PoolMismatch,
    UnknownGenerator,
)

_ZERO = sp.Integer(0)


@functools.cache
def _field(even_names):
    """``QQ(x_1..x_n)`` for these even names; one instance per name tuple."""
    return FracField(tuple(sp.Symbol(n) for n in even_names), QQ, lex)


def _norm(c):
    """Canonical form of a coefficient: a ``PolyElement`` whenever the value is
    a polynomial, otherwise the (already cancelled) ``FracElement``.  Zero
    comes back as the zero polynomial, which is falsy."""
    if isinstance(c, FracElement) and c.denom.is_ground:
        return c.numer.quo_ground(c.denom.LC)
    return c


def _coeff_add(a, b):
    # sympy's fraction field handles mixed operands fastest from the left
    if isinstance(b, FracElement) and not isinstance(a, FracElement):
        return _norm(b + a)
    return _norm(a + b)


def _coeff_mul(a, b):
    if isinstance(b, FracElement) and not isinstance(a, FracElement):
        return _norm(b * a)
    return _norm(a * b)


def _coeff_div(field, a, b):
    """a / b (b nonzero): a constant b divides in the ground domain, two
    polynomials cancel once in ``field.new``; only fractions use field division."""
    if isinstance(a, PolyElement) and isinstance(b, PolyElement):
        return a.quo_ground(b.LC) if b.is_ground else _norm(field.new(a, b))
    return _norm(a / b)


def _diff(pool, c, k):
    """Partial derivative of a coefficient by the k-th even variable."""
    if isinstance(c, FracElement):
        return _norm(c.diff(pool.field.gens[k]))
    return c.diff(pool.ring.gens[k])


def _even_indices(c):
    """Indices of the even variables a coefficient depends on."""
    polys = (c.numer, c.denom) if isinstance(c, FracElement) else (c,)
    return {
        k for p in polys for exps in p.itermonoms() for k, e in enumerate(exps) if e
    }


def _to_expr(c):
    return _ZERO if c is None else c.as_expr()


def _merge_monomials(a, b):
    """Merge two strictly increasing index tuples.

    Returns ``(sign, merged)``; ``sign`` is 0 when an index repeats
    (nilpotency) and otherwise the Koszul sign of the merge.
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    sign = 1
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, ()
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] moves past the len(a)-i remaining generators of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


class GeneratorPool:
    """Ordered even and odd generator names; the odd ones may be flesh.

    The construction order is frozen and defines the monomial normal form.
    """

    def __init__(self, even_names, odd_names, flesh_names=()):
        self.even_names = tuple(even_names)
        self.odd_names = tuple(odd_names) + tuple(flesh_names)
        self.n_coordinate_odd = len(tuple(odd_names))
        all_names = self.even_names + self.odd_names
        if len(set(all_names)) != len(all_names):
            raise ValueError("generator names must be unique")
        self.field = _field(self.even_names)
        self.ring = self.field.ring
        self.even_symbols = self.field.symbols
        self._even_index = {n: k for k, n in enumerate(self.even_names)}
        self._odd_index = {n: k for k, n in enumerate(self.odd_names)}

    @property
    def n_even(self):
        return len(self.even_names)

    @property
    def n_odd(self):
        return len(self.odd_names)

    @property
    def n_flesh(self):
        return self.n_odd - self.n_coordinate_odd

    def is_flesh(self, odd_index: int) -> bool:
        return odd_index >= self.n_coordinate_odd

    def odd_index(self, name: str) -> int:
        try:
            return self._odd_index[name]
        except KeyError:
            raise UnknownGenerator(f"unknown odd generator {name!r}") from None

    def _even_position(self, name: str) -> int:
        try:
            return self._even_index[name]
        except KeyError:
            raise UnknownGenerator(f"unknown even variable {name!r}") from None

    def even_symbol(self, name: str):
        return self.even_symbols[self._even_position(name)]

    def zero(self) -> "Superfunction":
        return Superfunction(self, {})

    def one(self) -> "Superfunction":
        return self.scalar(1)

    def scalar(self, value) -> "Superfunction":
        """Lift a rational number or even sympy expression into the ring."""
        c = self._coefficient(value)
        return Superfunction(self, {(): c} if c else {})

    def _coefficient(self, value):
        """Canonical even coefficient for an exact rational value, an even
        sympy expression, or an element of this pool's ring or field."""
        if isinstance(value, int):
            return self.ring.ground_new(QQ(value))
        if isinstance(value, Fraction):
            return self.ring.ground_new(QQ(value.numerator, value.denominator))
        if isinstance(value, sp.Rational):
            return self.ring.ground_new(QQ(value.p, value.q))
        if isinstance(value, PolyElement) and value.ring is self.ring:
            return value
        if isinstance(value, FracElement) and value.field is self.field:
            return _norm(value)
        if isinstance(value, sp.Expr):
            foreign = value.free_symbols - set(self.even_symbols)
            if foreign:
                names = ", ".join(sorted(str(s) for s in foreign))
                raise UnknownGenerator(
                    f"{names} not an even variable of the pool; "
                    "odd generators enter as Superfunction factors"
                )
            if not value.has(sp.Float):
                # a polynomial skips the fraction field and its gcd
                for domain in (self.ring, self.field):
                    try:
                        return _norm(domain.from_expr(value))
                    except (ValueError, CoercionFailed):
                        pass
        raise InexactCoefficient(
            f"{value!r} is not an exact rational function of {list(self.even_names)}"
        )

    def even(self, name: str) -> "Superfunction":
        return Superfunction(self, {(): self.ring.gens[self._even_position(name)]})

    def odd(self, name: str) -> "Superfunction":
        return Superfunction(self, {(self.odd_index(name),): self.ring.one})

    def generator(self, name: str) -> "Superfunction":
        if name in self._even_index:
            return self.even(name)
        return self.odd(name)

    def names(self):
        return self.even_names + self.odd_names

    def render_point(self, point) -> str:
        """``x = 0, y = 1/2`` for values of the even variables in pool order."""
        return ", ".join(f"{n} = {q}" for n, q in zip(self.even_names, point))

    def __eq__(self, other):
        return (
            isinstance(other, GeneratorPool)
            and self.even_names == other.even_names
            and self.odd_names == other.odd_names
            and self.n_coordinate_odd == other.n_coordinate_odd
        )

    def __hash__(self):
        return hash((self.even_names, self.odd_names, self.n_coordinate_odd))

    def __repr__(self):
        return (
            f"GeneratorPool(even={list(self.even_names)}, "
            f"odd={list(self.odd_names[: self.n_coordinate_odd])}, "
            f"flesh={list(self.odd_names[self.n_coordinate_odd :])})"
        )


class Superfunction:
    """Element of the Grassmann algebra over the rational-function field.

    Treated as immutable; all operations return new instances.
    """

    __slots__ = ("pool", "terms")

    def __init__(self, pool: GeneratorPool, terms: dict):
        self.pool = pool
        self.terms = terms  # monomial tuple -> nonzero canonical coefficient

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _from_raw(pool, raw):
        terms = {}
        for mono, c in raw.items():
            c = _norm(c)
            if c:
                terms[mono] = c
        return Superfunction(pool, terms)

    def _coerce(self, other):
        if isinstance(other, Superfunction):
            if other.pool is not self.pool and other.pool != self.pool:
                raise PoolMismatch("operands belong to different pools")
            return other
        return self.pool.scalar(other)

    # -- ring structure ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            prev = terms.get(mono)
            if prev is None:
                terms[mono] = c
                continue
            c = _coeff_add(prev, c)
            if c:
                terms[mono] = c
            else:
                del terms[mono]
        return Superfunction(self.pool, terms)

    __radd__ = __add__

    def __neg__(self):
        return Superfunction(self.pool, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, int) and other in (1, -1):  # graded signs
            return self if other == 1 else -self
        other = self._coerce(other)
        raw = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                sign, mono = _merge_monomials(ma, mb)
                if sign == 0:
                    continue
                c = _coeff_mul(ca, cb)
                if sign < 0:
                    c = -c
                prev = raw.get(mono)
                raw[mono] = c if prev is None else _coeff_add(prev, c)
        return Superfunction._from_raw(self.pool, raw)

    def __rmul__(self, other):
        # only scalars reach here; they commute with everything
        return self * other

    def __truediv__(self, other):
        return _divide(self, self._coerce(other))

    def __rtruediv__(self, other):
        return _divide(self._coerce(other), self)

    def __pow__(self, k: int):
        if k < 0:
            return _divide(self.pool.one(), self ** -k)
        out = self.pool.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (PoolMismatch, InexactCoefficient, UnknownGenerator):
            return False
        return self.terms == other.terms

    __hash__ = None

    # -- structure queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def body(self):
        """Even-variable rational function left after killing all odd
        generators, as a sympy expression."""
        return _to_expr(self.terms.get(()))

    def body_at(self, point) -> Fraction:
        """The body at a rational point (one value per even variable, in pool
        order), e.g. :meth:`Chart.sample_point`; raises ``NonInvertible`` at a
        pole."""
        c = self.terms.get(())
        if c is None:
            return Fraction(0)
        ring = self.pool.ring
        values = [ring.ground_new(QQ(q.numerator, q.denominator)) for q in point]
        try:
            q = _evaluate(c, values, self.pool).LC
        except NonInvertible:
            at = self.pool.render_point(point)
            raise NonInvertible(f"body has a pole at {at}") from None
        return Fraction(int(q.numerator), int(q.denominator))

    def body_part(self) -> "Superfunction":
        return Superfunction(
            self.pool, {m: c for m, c in self.terms.items() if not m}
        )

    def nilpotent_part(self) -> "Superfunction":
        return Superfunction(
            self.pool, {m: c for m, c in self.terms.items() if m}
        )

    def parity(self):
        """0 or 1 when homogeneous (zero counts as even), None when mixed."""
        if not self.terms:
            return 0
        parities = {len(m) % 2 for m in self.terms}
        if len(parities) == 1:
            return parities.pop()
        return None

    def has_parity(self, p: int) -> bool:
        return all(len(m) % 2 == p % 2 for m in self.terms)

    def has_body(self) -> bool:
        return () in self.terms

    def is_polynomial(self) -> bool:
        """True when every coefficient is a polynomial in the even variables."""
        return not any(isinstance(c, FracElement) for c in self.terms.values())

    def rational_coefficients(self):
        """``(odd monomial, even exponents, QQ)`` for every rational
        coefficient; requires :meth:`is_polynomial`."""
        for mono, c in self.terms.items():
            for exps, q in c.terms():
                yield mono, exps, q

    # -- calculus ------------------------------------------------------------

    def partial(self, name: str) -> "Superfunction":
        """Partial derivative; odd derivatives act from the left."""
        pool = self.pool
        if name in pool._even_index:
            k = pool._even_index[name]
            raw = {m: _diff(pool, c, k) for m, c in self.terms.items()}
            return Superfunction._from_raw(pool, raw)
        idx = pool.odd_index(name)
        if pool.is_flesh(idx):
            raise UnknownGenerator(
                f"{name!r} is a flesh generator; it admits no derivations"
            )
        terms = {}
        for mono, c in self.terms.items():
            if idx not in mono:
                continue
            pos = mono.index(idx)
            # distinct monomials stay distinct once idx is removed
            terms[mono[:pos] + mono[pos + 1 :]] = -c if pos % 2 else c
        return Superfunction(pool, terms)

    def invert(self) -> "Superfunction":
        """Exact inverse via a finite Neumann series in the nilpotent part."""
        return _divide(self.pool.one(), self)

    def sqrt(self) -> "Superfunction":
        """Square root of an even element with an exactly square body; the
        root of the body is fixed by :func:`_coefficient_root`."""
        if not self.has_parity(0):
            raise ParityError("square roots are only defined for even elements")
        b = self.terms.get(())
        s0 = self.pool.scalar(_coefficient_root(self.pool, b))
        n = self.nilpotent_part()
        if n.is_zero():
            return s0
        if b is None:
            raise NotASquare("a nonzero nilpotent element has no square root")
        # f = b*(1 + t); sqrt(1 + t) is the binomial series
        t = _divide(n, self.body_part())
        return _nilpotent_series(t, _half_binomials(), self.pool.one()) * s0

    def top_coefficient(self):
        """Coefficient of the full odd-coordinate monomial: a ``PolyElement``,
        a ``FracElement``, or ``None`` when it is zero.

        Flesh generators must not appear in that coefficient.
        """
        pool = self.pool
        top = tuple(range(pool.n_coordinate_odd))
        for mono in self.terms:
            coords = tuple(i for i in mono if not pool.is_flesh(i))
            if coords == top and len(coords) != len(mono):
                raise FleshInTopCoefficient(
                    "top odd-coordinate coefficient contains flesh generators"
                )
        return self.terms.get(top)

    def berezin_top(self):
        """:meth:`top_coefficient` as a sympy expr."""
        return _to_expr(self.top_coefficient())

    def substitute(self, images: dict, new_pool: GeneratorPool) -> "Superfunction":
        """Graded-safe substitution generator -> Superfunction over new_pool.

        Every generator actually used must have an image of matching parity.
        Even images are expanded in a finite Taylor series around their body.
        """
        used_even = set()
        for c in self.terms.values():
            used_even |= _even_indices(c)
        even_images = {}
        for k in sorted(used_even):
            name = self.pool.even_names[k]
            if name not in images:
                raise UnknownGenerator(f"no image for even variable {name!r}")
            img = images[name]
            if not img.has_parity(0):
                raise ParityError(f"image of even variable {name!r} must be even")
            if img.pool != new_pool:
                raise PoolMismatch(f"image of {name!r} lives over another pool")
            even_images[k] = img
        odd_images = {}
        for mono in self.terms:
            for idx in mono:
                name = self.pool.odd_names[idx]
                if name in odd_images:
                    continue
                if name not in images:
                    raise UnknownGenerator(f"no image for odd generator {name!r}")
                img = images[name]
                if not img.has_parity(1):
                    raise ParityError(f"image of odd generator {name!r} must be odd")
                odd_images[name] = img

        out = new_pool.zero()
        for mono, c in self.terms.items():
            part = _substitute_even(c, self.pool, even_images, new_pool)
            for idx in mono:
                part = part * odd_images[self.pool.odd_names[idx]]
            out = out + part
        return out

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Canonical textual form; parsing it back is exact."""
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            coeff = _render_coefficient(self.terms[mono])
            gens = "*".join(self.pool.odd_names[i] for i in mono)
            pieces.append(f"({coeff})*{gens}" if gens else f"({coeff})")
        return " + ".join(pieces)

    def __repr__(self):
        return f"Superfunction({self.render()})"


@functools.cache
def _sympy_gen_order(symbols):
    """Positions of ``symbols`` in the order sympy's ``Expr`` routines sort
    generators by (``x, y, z`` first), which fixes the printed signs."""
    return tuple(symbols.index(s) for s in _sort_gens(symbols))


def _leading_coefficient(p, order):
    """Leading coefficient of a nonzero polynomial in lex order of the
    variables at the positions ``order``."""
    return max(p.terms(), key=lambda t: [t[0][i] for i in order])[1]


def _nilpotent_series(t, coeffs, start, weight=None):
    """start * (1 + sum_k coeffs[k-1] * t^k) for a nilpotent superfunction t,
    the one series behind :meth:`Superfunction.sqrt` and :func:`_divide`; the
    sum is finite.  With a ``weight`` w commuting with t, term k is scaled by
    w^(K-k), where start * t^(K+1) = 0, and the sum comes back with w^(K+1)."""
    out = power = start
    scale = weight
    for c in coeffs:
        power = power * t
        if power.is_zero():
            return out if weight is None else (out, scale)
        if weight is not None:
            out, scale = out * weight, scale * weight
        out = out + power * c


def _divide(num, den):
    """num / den, the one division of superfunctions: with den = b + n, b
    the body and n^(K+1) = 0, num/den = sum_k num (-n)^k b^(K-k) / b^(K+1),
    so only ring products precede one :func:`_coeff_div` per coefficient."""
    b = den.terms.get(())
    if b is None:
        raise NonInvertible("body is zero")
    pool = den.pool
    series, scale = _nilpotent_series(
        den.nilpotent_part(), itertools.cycle((-1, 1)), num, pool.scalar(b)
    )
    d = scale.terms[()]
    return Superfunction(
        pool, {m: _coeff_div(pool.field, c, d) for m, c in series.terms.items()}
    )


def _half_binomials():
    """binomial(1/2, k) for k = 1, 2, ..."""
    c = Fraction(1)
    for k in itertools.count(1):
        c = c * (Fraction(1, 2) - (k - 1)) / k
        yield c


def _render_coefficient(c) -> str:
    if isinstance(c, FracElement):
        # print the denominator with a positive leading coefficient in
        # sympy's generator order, as sympy.cancel would
        lc = _leading_coefficient(c.denom, _sympy_gen_order(c.field.symbols))
        sign = 1 if lc > 0 else -1
        num, den = (c.numer * sign).as_expr(), (c.denom * sign).as_expr()
    else:
        num, den = sp.fraction(c.as_expr())
    ns = sp.sstr(num, order="lex").replace("**", "^")
    if den == 1:
        return ns
    ds = sp.sstr(den, order="lex").replace("**", "^")
    return f"({ns})/({ds})"


def _poly_root(p, order):
    """The square root of a nonzero polynomial over QQ whose leading
    coefficient is positive in lex order of the even variables at the
    positions ``order``, or None when ``p`` is not a square.  A square-free
    decomposition decides it; no factorisation."""
    lc, factors = (p.LC, []) if p.is_ground else p.sqf_list()
    if lc < 0 or any(k % 2 for _, k in factors):
        return None
    # sqrt(n/d) = sqrt(n*d)/d
    n, d = int(lc.numerator), int(lc.denominator)
    r = math.isqrt(n * d)
    if r * r != n * d:
        return None
    root = p.ring.ground_new(QQ(r, d))
    for f, k in factors:
        root = root * f ** (k // 2)
    return -root if _leading_coefficient(root, order) < 0 else root


def _coefficient_root(pool, c):
    """Square root of a coefficient (None for zero): its numerator and
    denominator each have a positive leading coefficient in lex order of the
    even names sorted by name."""
    if c is None:
        return pool.ring.zero
    num, den = (c.numer, c.denom) if isinstance(c, FracElement) else (c, pool.ring.one)
    order = sorted(range(pool.n_even), key=pool.even_names.__getitem__)
    rn, rd = _poly_root(num, order), _poly_root(den, order)
    if rn is None or rd is None:
        raise NotASquare(f"body {c.as_expr()} admits no exact square root")
    return _coeff_div(pool.field, rn, rd)


def _compose(p, values, pool):
    """A polynomial in the old even variables evaluated at coefficients of
    ``pool`` (``values[k]`` for the k-th variable)."""
    acc = pool.ring.zero
    for exps, q in p.terms():
        term = pool.ring.ground_new(q)
        for v, e in zip(values, exps):
            if e:
                term = _coeff_mul(term, v**e)
        acc = _coeff_add(acc, term)
    return acc


def _evaluate(c, values, pool):
    if isinstance(c, FracElement):
        den = _compose(c.denom, values, pool)
        if not den:
            raise NonInvertible("substitution hits a pole of a coefficient")
        return _coeff_div(pool.field, _compose(c.numer, values, pool), den)
    return _compose(c, values, pool)


def _substitute_even(c, pool, even_images: dict, new_pool: GeneratorPool):
    """Substitute even variables (by index) by even superfunctions via finite
    Taylor expansion around the images' bodies."""
    order = sorted(even_images)
    values = [None] * pool.n_even
    for k in order:
        values[k] = even_images[k].terms.get((), new_pool.ring.zero)
    nils = {k: even_images[k].nilpotent_part() for k in order}

    def expand(e, i):
        if i == len(order):
            return new_pool.scalar(_evaluate(e, values, new_pool))
        k = order[i]
        out = expand(e, i + 1)
        nil = nils[k]
        de = e
        power = new_pool.one()
        fact = Fraction(1)
        j = 0
        while not nil.is_zero():
            power = power * nil
            if power.is_zero():
                break
            de = _diff(pool, de, k)
            if not de:
                break
            j += 1
            fact = fact / j
            out = out + expand(de, i + 1) * power * fact
        return out

    return expand(c, 0)
