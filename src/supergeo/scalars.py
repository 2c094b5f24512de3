"""Exact Grassmann-valued scalars with rational-function coefficients.

A :class:`Superfunction` is a finite sum of terms ``c(x) * th_{i1}*...*th_{ik}``
where the odd monomial is a strictly increasing tuple of indices into the
pool's odd generators and ``c`` is a rational function of the even variables
with rational coefficients.

It is stored as one integer term table over one denominator: ``terms`` maps
each odd monomial to its numerator, an integer polynomial ``{even exponent
tuple: int}``; ``den``, shared by the whole superfunction, is a positive
``int`` when every coefficient is a polynomial, else an integer polynomial.
:func:`_make` enforces the canonical form, which is unique, so equality is
structural: no stored int is zero and no numerator empty; the leading
coefficient of ``den`` in lex order of the pool's even variables is positive;
the integer content of the numerators and ``den`` together is 1; and
``gcd(den, N_1, ..., N_k) = 1`` in ``Z[x]``.  Polynomial arithmetic is thus
plain integer arithmetic (the Koszul sign and merged tuple of each pair of
odd monomials are cached on the pool), and a result over a non-constant
``den`` is cancelled by one heuristic gcd over the whole table in Python
ints (:func:`_cancel_common_factor`), unless it scales a canonical
superfunction by a unit of ``Q[x][theta]``.
Division happens in one place, :func:`_divide`.  Other modules never read
``terms`` or ``den``, and never build, slice or sign an odd monomial: they
pass ``(mono, exps)`` keys between the pool's monomial methods.
Superfunctions are immutable, and the kernel relies on it: results share
numerators with their operands, ``f + 0`` is ``f``, ``0 * f`` is the zero
operand, and :meth:`Superfunction.partial` keeps each derivative.

The package's numbers are Python ints (never bools) and ``Fraction``s.  A
sympy value comes in through :meth:`GeneratorPool.scalar` alone, which
lifts an even ``Expr`` (a ``Rational`` included) and rejects any other
sympy object, a ``QQ`` element too.  The arithmetic operators take
superfunctions over an equal pool and the package's numbers; for an operand
of any other type (a sympy object, a ``str``, a ``float``, a ``bool``) they
return ``NotImplemented``, so Python raises ``TypeError``.

No module of the package imports sympy when it is imported: a scenario run
needs no sympy object, and importing sympy would cost it about 0.5 s and 35
MiB.  This module imports sympy inside the functions that take or hand out
sympy objects, and in one fallback: the exact gcd that the heuristic one
falls back to on some tables in several variables
(:func:`_cancel_by_sympy_gcd`, sympy's dense gcd over ``ZZ``);
:meth:`Superfunction.body` and :meth:`Superfunction.berezin_top`, which
return ``Expr``; a pool's ``even_symbols`` and
:meth:`GeneratorPool.even_symbol`, plain ``Symbol``s built on first use; and
:meth:`GeneratorPool.scalar`, which walks an ``Expr`` itself (floats,
irrational numbers, other functions and foreign symbols are rejected) and
asks whether a value is one only once sympy is in ``sys.modules``.  Square
roots (:func:`_poly_root`), the generator order of the printer and error
messages are native.  :meth:`Superfunction.render` cancels each coefficient
against ``den`` on its own and prints it byte for byte as sympy's
``sstr(expr, order="lex")`` would.  :meth:`Superfunction.body_at` is the
package's only way to evaluate a body at a point: it returns a ``Fraction``
and raises ``NonInvertible`` at a pole.

Sign conventions, fixed once for the whole package (see
docs/sign-conventions.md):

* odd monomials are normalised to ascending pool order; every product sign is
  the parity of the permutation that merges two sorted index tuples,
* odd partial derivatives act from the left (:func:`_left_partial`),
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
import operator
import re
import sys
from fractions import Fraction

from .errors import (FleshInTopCoefficient, InexactCoefficient, InvalidArgument, NonInvertible,
                     NotASquare, ParityError, PoolMismatch, UnknownGenerator)


# a generator name, as the scenario parser's tokenizer reads an identifier
IDENTIFIER = r"[A-Za-z_][A-Za-z_0-9]*"


def _rational(value):
    """``(numerator, denominator)`` of an exact rational value (an int that is
    not a bool, or a ``Fraction``), else None."""
    if type(value) is int:
        return value, 1
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value.numerator, value.denominator
    return None


# -- integer polynomials {exponent tuple: nonzero int} ------------------------


@functools.cache
def _exps_adder(n):
    """a + b for exponent tuples of length n, written out for n <= 2."""
    if n == 1:
        return lambda a, b: (a[0] + b[0],)
    if n == 2:
        return lambda a, b: (a[0] + b[0], a[1] + b[1])
    return lambda a, b: tuple(map(operator.add, a, b))


def _pmul(p, q):
    """p * q; the product of nonzero polynomials over Z is nonzero."""
    if len(q) == 1:
        p, q = q, p
    if not q:
        return {}
    add = _exps_adder(len(next(iter(q))))
    if len(p) == 1:
        [(ea, ca)] = p.items()
        if not any(ea):
            return {e: c * ca for e, c in q.items()}
        return {add(ea, e): c * ca for e, c in q.items()}
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = add(ea, eb)
            out[e] = out.get(e, 0) + ca * cb
    return out if all(out.values()) else {e: c for e, c in out.items() if c}


def _padd(p, q):
    """p + q, possibly empty; p and q are left untouched."""
    out = dict(p)
    for e, c in q.items():
        c += out.get(e, 0)
        if c:
            out[e] = c
        else:
            del out[e]
    return out


def _pneg(p):
    return {e: -c for e, c in p.items()}


def _pdiff(p, k):
    """Partial derivative by the k-th even variable, possibly empty."""
    return {e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k] for e, c in p.items() if e[k]}


def _pscale(p, d):
    """p * d, each an int or a polynomial."""
    if type(d) is not int:
        return _pmul(p, d) if type(p) is not int else _pscale(d, p)
    if type(p) is int:
        return p * d
    return p if d == 1 else {e: c * d for e, c in p.items()}


def _times(terms, d):
    """Every numerator times the int or polynomial d."""
    if d == 1:
        return terms
    return {m: _pscale(p, d) for m, p in terms.items()}


def _expr(pool, p):
    """A polynomial as a sympy expression.  Imports sympy."""
    import sympy as sp

    return sp.Add(*(c * sp.Mul(*(s**e for s, e in zip(pool.even_symbols, exps)))
                    for exps, c in p.items()))


def _evaluate(p, nums, den):
    """A polynomial (or an int) at the point ``nums / den``, ints over one
    common denominator, as the ints ``(p(nums / den) den^d, den^d)`` for d
    the total degree of p: each term c x^e contributes c nums^e den^(d - |e|)."""
    if type(p) is int:
        return p, 1
    degrees = [sum(exps) for exps in p]
    top = max(degrees)
    total = 0
    for (exps, c), k in zip(p.items(), degrees):
        for v, e in zip(nums, exps):
            if e:
                c *= v**e
        total += c if k == top else c * den ** (top - k)
    return total, den**top


# values of xi, each with its own substitution, that the heuristic gcd tries
# before sympy's gcd decides
_HEURISTIC_TRIES = 3


def _digits(v, xi):
    """The polynomial in X whose coefficients are the symmetric ``xi``-adic
    digits of the int ``v``, each in ``(-xi/2, xi/2]``: ``{exponent: digit}``."""
    out, k, half = {}, 0, xi // 2
    while v:
        v, d = divmod(v, xi)
        if d > half:
            d -= xi
            v += 1
        if d:
            out[k] = d
        k += 1
    return out


def _lift(p, shift, radix):
    """``X^shift * p`` back in ``x``: exponent k becomes its mixed-radix digits
    in ``radix``, the last variable taking the rest."""
    out = {}
    for k, c in p.items():
        k += shift
        e = []
        for r in radix:
            k, d = divmod(k, r)
            e.append(d)
        out[(*e, k)] = c
    return out


def _cancel_common_factor(terms, den):
    """Divide the numerators and the polynomial ``den`` by their common
    factor in ``Z[x]``: one heuristic gcd over the whole table in Python ints
    (GCDHEU: Char, Geddes and Gonnet, J. Symbolic Computation 7, 1989).

    The F_i (``den`` and the numerators) first lose their joint integer
    content and joint monomial.  The Kronecker substitution x_1 -> X,
    x_(k+1) -> X^(r_1 ... r_k), each radix r_k above every exponent of x_k,
    is a ring map, one to one on the F_i and their divisors (the identity in
    one variable); F_i maps to X^(j_i) G_i with G_i(0) != 0.  A nonconstant
    common factor, no monomial, maps to X^t Q with Q nonconstant and
    dividing every G_i, so the roots of Q lie within 1 + |F_i|oo of 0 for
    each i.  At xi = 2 max_i |F_i|oo + 29, |Q(xi)| > xi/2 divides
    gamma = gcd_i G_i(xi): ``2 gamma <= xi`` proves that nothing cancels.
    Otherwise the primitive part H of gamma's symmetric xi-adic digits is
    the candidate for Q.  For t = 0, then t = min_i j_i, h = X^t H and the
    cofactors X^(j_i - t) G_i/H, read from the digits of G_i(xi)/H(xi), are
    lifted back to x; h is the gcd once h c_i = F_i for every i and the c_i
    pass the same certificate.  Else the next attempt takes a larger xi and
    larger radices, which drops a factor that only the images share (1 +
    X + X^2 in ``(1 + x + x^2)/(1 - y)`` with y -> X^3).  After
    ``_HEURISTIC_TRIES`` attempts sympy's gcd decides, as for
    ``(x^2 + x y)/(x y + y^2)``: its gcd x + y maps to X (1 + X^2), so t = 1,
    but min_i j_i = 2."""
    polys = [den, *terms.values()]
    content = 0
    for p in polys:
        content = math.gcd(content, *p.values())
        if content == 1:
            break
    low = tuple(map(min, zip(*(e for p in polys for e in p))))  # the joint monomial
    if content != 1 or any(low):
        polys = [{tuple(map(operator.sub, e, low)): c // content for e, c in p.items()}
                 for p in polys]

    def table(polys):
        return dict(zip(terms, polys[1:])), polys[0]

    if any(len(p) == 1 and not any(next(iter(p))) for p in polys):
        return table(polys)  # a nonzero constant is one of them: nothing more cancels
    top = [max(e[k] for p in polys for e in p) for k in range(len(low) - 1)]
    xi = 2 * max(max(map(abs, p.values())) for p in polys) + 29
    for attempt in range(_HEURISTIC_TRIES):
        radix = [d + 1 + attempt for d in top]
        strides = list(itertools.accumulate(radix, operator.mul, initial=1))
        images = [{sum(map(operator.mul, e, strides)): c for e, c in p.items()} for p in polys]
        shifts = [min(image) for image in images]
        powers = {k: xi**k for k in {k - j for image, j in zip(images, shifts) for k in image}}
        values = [sum(c * powers[k - j] for k, c in image.items())
                  for image, j in zip(images, shifts)]
        gamma = math.gcd(*values)
        if 2 * gamma <= xi:
            return table(polys)
        h = _digits(gamma, xi)
        h_content = math.gcd(*h.values())
        h = {k: c // h_content for k, c in h.items()}
        quotients = [_digits(v // (gamma // h_content), xi) for v in values]
        for t in sorted({0, min(shifts)}):
            lifted = _lift(h, t, radix)
            cofactors = []
            for q, j, p in zip(quotients, shifts, polys):
                c = _lift(q, j - t, radix)
                if _pmul(lifted, c) != p:
                    break
                cofactors.append(c)
            else:  # the cofactors' values have the gcd h_content
                if (2 * h_content <= xi
                        and xi > 2 * min(max(map(abs, c.values())) for c in cofactors) + 2):
                    return table(cofactors)
        xi = xi * 73794 // 27011
    return _cancel_by_sympy_gcd(*table(polys))


def _cancel_by_sympy_gcd(terms, den):
    """The exact route of :func:`_cancel_common_factor`: sympy's dense gcd
    over ``ZZ``, one per numerator, stopped once the gcd is constant.
    Imports sympy, which no golden scenario and no benchmark job reaches."""
    from sympy.polys.densearith import dmp_exquo
    from sympy.polys.densebasic import dmp_from_dict, dmp_ground_p, dmp_to_dict
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dmp_gcd

    u = len(next(iter(den))) - 1
    g = d = dmp_from_dict(den, u, ZZ)
    for p in terms.values():
        g = dmp_gcd(g, dmp_from_dict(p, u, ZZ), u, ZZ)
        if dmp_ground_p(g, None, u):
            return terms, den

    def quotient(f):  # as ints: ZZ's elements are not ints under gmpy or flint ground types
        return {e: int(c) for e, c in dmp_to_dict(dmp_exquo(f, g, u, ZZ), u, ZZ).items()}
    return {m: quotient(dmp_from_dict(p, u, ZZ)) for m, p in terms.items()}, quotient(d)


def _make(pool, terms, den=1, cancel=True):
    """The canonical superfunction with the numerators ``terms`` (nonzero
    ints, no empty numerator) over ``den``, a nonzero int or a nonzero
    integer polynomial.  ``cancel=False`` skips the gcd, for callers
    that scale a canonical superfunction by a unit of ``Q[x][theta]``."""
    if not terms:
        return pool._zero
    if type(den) is not int:
        if cancel:
            terms, den = _cancel_common_factor(terms, den)
        if len(den) == 1 and pool._zero_exps in den:
            den = den[pool._zero_exps]
    if den == 1:
        return Superfunction(pool, terms)
    g = den if type(den) is int else math.gcd(*den.values())
    for p in terms.values():
        if g == 1:
            break
        g = math.gcd(g, *p.values())
    if (den if type(den) is int else den[max(den)]) < 0:
        g = -g
    if g != 1:
        terms = {m: {e: c // g for e, c in p.items()} for m, p in terms.items()}
        den = den // g if type(den) is int else {e: c // g for e, c in den.items()}
    return Superfunction(pool, terms, den)


def _merge_monomials(a, b):
    """Merge two strictly increasing index tuples.

    Returns ``(sign, merged)``; ``sign`` is 0 when an index repeats
    (nilpotency) and otherwise the Koszul sign of the merge: each index of b
    moves past the indices of a greater than it.
    """
    if set(a) & set(b):
        return 0, ()
    passes = sum(i > j for i in a for j in b)
    return -1 if passes % 2 else 1, tuple(sorted(a + b))


def _left_partial(mono, pos):
    """``(sign, rest)`` with ``d/d th_i (th^mono) = sign th^rest`` for ``i =
    mono[pos]``: from the left, ``th_i`` first passes ``pos`` generators."""
    return -1 if pos % 2 else 1, mono[:pos] + mono[pos + 1:]


def _table_add(a, b):
    """The sum of two numerator tables; untouched numerators are shared."""
    out = dict(a)
    for m, q in b.items():
        s = _padd(out[m], q) if m in out else q
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def _table_mul(pool, a, b):
    """The product of two numerator tables; the pool caches the sign and
    merged monomial of each pair of odd monomials.  :meth:`Superfunction.__mul__`
    multiplies by a body-only table itself."""
    add = pool._add_exps
    raw = {}
    for ma, pa in a.items():
        row = pool._merge_row(ma)
        for mb, pb in b.items():
            merged = row.get(mb)
            if merged is None:
                merged = row[mb] = _merge_monomials(ma, mb)
            sign, mono = merged
            if not sign:
                continue
            acc = raw.get(mono)
            if acc is None:
                acc = raw[mono] = {}
            for ea, ca in pa.items():
                if sign < 0:
                    ca = -ca
                for eb, cb in pb.items():
                    e = add(ea, eb)
                    acc[e] = acc.get(e, 0) + ca * cb
    out = {}
    for mono, acc in raw.items():
        if not all(acc.values()):
            acc = {e: c for e, c in acc.items() if c}
        if acc:
            out[mono] = acc
    return out


class GeneratorPool:
    """Ordered even and odd generator names; the odd ones may be flesh.

    The construction order is frozen and defines the monomial normal form.
    """

    def __init__(self, even_names, odd_names, flesh_names=()):
        for names in (even_names, odd_names, flesh_names):
            # a str would give one generator per character
            if isinstance(names, str) or not hasattr(names, "__iter__"):
                raise InvalidArgument("generator names must be a sequence, not the "
                                      f"{type(names).__name__} {names!r}")
        self.even_names, odd_names = tuple(even_names), tuple(odd_names)
        self.odd_names = odd_names + tuple(flesh_names)
        self.n_coordinate_odd = len(odd_names)
        all_names = self.even_names + self.odd_names
        for name in all_names:  # the parser must be able to name every generator
            if not isinstance(name, str) or not re.fullmatch(IDENTIFIER, name):
                raise InvalidArgument(
                    f"generator name {name!r} is not a str of the form {IDENTIFIER}")
        if len(set(all_names)) != len(all_names):
            raise InvalidArgument("generator names must be unique")
        self._even_index = {n: k for k, n in enumerate(self.even_names)}
        self._odd_index = {n: k for k, n in enumerate(self.odd_names)}
        n = len(self.even_names)
        self._zero_exps = (0,) * n
        self._unit_exps = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        self._add_exps = _exps_adder(n)
        self._merges = {}
        self._zero = Superfunction(self, {})  # immutable, so one serves all

    @functools.cached_property
    def even_symbols(self):
        """The even variables as sympy ``Symbol``s; imports sympy."""
        import sympy as sp

        return tuple(map(sp.Symbol, self.even_names))

    @functools.cached_property
    def _symbols(self):
        return frozenset(self.even_symbols)

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
        """The even variable ``name`` as a sympy ``Symbol``; imports sympy."""
        return self.even_symbols[self._even_position(name)]

    def zero(self) -> "Superfunction":
        return self._zero

    def one(self) -> "Superfunction":
        return self.scalar(1)

    def sum(self, values, start=None) -> "Superfunction":
        """``start`` (zero by default) plus the superfunctions ``values``,
        adding only the nonzero ones: no addition has a zero operand."""
        acc = self._zero if start is None else start
        for v in values:
            if v.terms:
                acc = acc + v if acc.terms else v
        return acc

    def scalar(self, value) -> "Superfunction":
        """Lift an exact rational number or an even sympy expression."""
        q = _rational(value)
        if q is not None:
            return self._constant(*q)
        sp = sys.modules.get("sympy")  # a value can be a sympy Expr only once sympy is loaded
        if sp is not None and isinstance(value, sp.Expr):
            foreign = value.free_symbols - self._symbols
            if foreign:
                names = ", ".join(sorted(str(s) for s in foreign))
                raise UnknownGenerator(
                    f"{names} not an even variable of the pool; "
                    "odd generators enter as Superfunction factors"
                )
            try:
                return self._lift(value)
            except InexactCoefficient:
                pass  # reported with the whole expression below
        raise InexactCoefficient(
            f"{value!r} is not an exact rational function of {list(self.even_names)}"
        )

    def _constant(self, n, d):  # n/d in lowest terms, d > 0
        return Superfunction(self, {(): {self._zero_exps: n}}, d) if n else self._zero

    def _lift(self, e):
        """The superfunction of a sympy expression in the pool's even symbols,
        folded with the ring arithmetic: rationals, symbols, sums, products
        and integer powers; anything else raises ``InexactCoefficient``, and
        a negative power of zero ``NonInvertible``."""
        if e.is_Rational:
            return self._constant(e.p, e.q)
        if e.is_Symbol:
            return self.even(e.name)
        if e.is_Add:
            return functools.reduce(operator.add, map(self._lift, e.args))
        if e.is_Mul:
            return functools.reduce(operator.mul, [self._lift(a) for a in e.args])
        if e.is_Pow and e.exp.is_Integer:
            return self._lift(e.base) ** int(e.exp)
        raise InexactCoefficient

    def from_coefficients(self, coefficients) -> "Superfunction":
        """The polynomial ``sum q th^mono x^exps`` of a list of ``(mono, exps,
        q)`` triples with distinct keys ``(mono, exps)`` and nonzero exact
        rationals ``q``, the inverse of :meth:`Superfunction.rational_coefficients`:
        the numerators over the least common denominator, coprime to them.
        ``mono`` is a strictly increasing tuple of odd indices and ``exps`` a
        tuple of one nonnegative int per even variable (bools are neither)."""
        table = {}
        for mono, exps, q in coefficients:
            if not (type(mono) is tuple and all(type(i) is int for i in mono)
                    and all(0 <= i < self.n_odd for i in mono)
                    and all(a < b for a, b in zip(mono, mono[1:]))):
                raise InvalidArgument(f"odd monomial {mono!r} is not a strictly increasing"
                                      f" tuple of ints below {self.n_odd}")
            if not (type(exps) is tuple and len(exps) == self.n_even
                    and all(type(e) is int and e >= 0 for e in exps)):
                raise InvalidArgument(f"exponents {exps!r} are not a tuple of {self.n_even}"
                                      " nonnegative ints")
            r = _rational(q)
            if r is None:
                raise InexactCoefficient(f"coefficient {q!r} is not an exact rational")
            if not r[0] or (mono, exps) in table:
                raise InvalidArgument(f"coefficient of {(mono, exps)!r} is "
                                      + ("repeated" if r[0] else "zero"))
            table[mono, exps] = r
        den = math.lcm(*(d for _, d in table.values()))
        terms = {}
        for (mono, exps), (n, d) in table.items():
            terms.setdefault(mono, {})[exps] = n * (den // d)
        return Superfunction(self, terms, den) if terms else self._zero

    def monomial_multiple(self, mono, exps, f, den=1):
        """The coefficients of ``m * f`` for the monomial ``m = th^mono x^exps``
        (``mono`` an increasing tuple of odd indices, ``exps`` even exponents)
        and a polynomial superfunction f, as ``(odd monomial, even exponents,
        n)``: ``n`` is the int numerator over ``den``, which f's denominator
        divides.  The Koszul sign of each merge comes from the pool's merge
        cache, which :func:`_table_mul` fills too."""
        row = self._merge_row(mono)
        add = self._add_exps
        scale = den // f.den
        for mf, p in f.terms.items():
            merged = row.get(mf)
            if merged is None:
                merged = row[mf] = _merge_monomials(mono, mf)
            sign, out = merged
            if sign:
                sign *= scale
                for e, c in p.items():
                    yield out, add(exps, e), sign * c

    def monomials(self, degree):
        """Two lists, by parity, of the keys ``(mono, exps)`` of ``th^mono
        x^exps`` over the odd coordinates (no flesh) and even degree <=
        ``degree``: odd part by size, then indices; even by degree, then lex."""
        n, q = self.n_even, self.n_coordinate_odd
        evens = [tuple(map(m.count, range(n))) for total in range(degree + 1)
                 for m in itertools.combinations_with_replacement(range(n), total)]
        odds = [m for size in range(q + 1) for m in itertools.combinations(range(q), size)]
        return tuple([(m, e) for m in odds if len(m) % 2 == p for e in evens] for p in (0, 1))

    def monomial_partials(self, mono, exps):
        """``(a, s, mono', exps')`` for each coordinate ``a`` with ``d_a
        (th^mono x^exps) = s th^mono' x^exps'`` nonzero, the even variables
        first; coordinate ``n_even + i`` is the odd generator ``i``, and flesh
        generators admit no derivation."""
        out = [(a, c, mono, e) for a in range(self.n_even)
               for e, c in _pdiff({exps: 1}, a).items()]
        out += [(self.n_even + i, *_left_partial(mono, pos), exps)
                for pos, i in enumerate(mono) if not self.is_flesh(i)]
        return out

    def _merge_row(self, mono):
        """The cached ``_merge_monomials(mono, m)`` by m; the cache starts over
        past 1,024 rows, so that many odd generators cannot exhaust memory."""
        row = self._merges.get(mono)
        if row is None:
            if len(self._merges) > 1024:
                self._merges.clear()
            row = self._merges[mono] = {}
        return row

    def even(self, name: str) -> "Superfunction":
        return Superfunction(self, {(): {self._unit_exps[self._even_position(name)]: 1}})

    def odd(self, name: str) -> "Superfunction":
        return Superfunction(self, {(self.odd_index(name),): {self._zero_exps: 1}})

    def generator(self, name: str) -> "Superfunction":
        return self.even(name) if name in self._even_index else self.odd(name)

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

    Immutable (see the module docstring): nothing may change ``terms``, a
    numerator or ``den`` after construction.
    """

    __slots__ = ("pool", "terms", "den", "_partials")

    def __init__(self, pool: GeneratorPool, terms: dict, den=1):
        self.pool = pool
        self.terms = terms  # odd monomial -> {even exponents: nonzero int}
        self.den = den  # positive int, or a polynomial {even exponents: int}

    def _coerce(self, other):
        """``other`` as a superfunction over this pool: a superfunction over
        an equal pool or an exact rational; None for an operand of any other
        type, a sympy object included, for which the operators return
        ``NotImplemented``."""
        if isinstance(other, Superfunction):
            if other.pool is not self.pool and other.pool != self.pool:
                raise PoolMismatch("operands belong to different pools")
            return other
        q = _rational(other)
        return None if q is None else self.pool._constant(*q)

    # -- ring structure ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        a, b = self.den, other.den
        if a == b:
            return _make(self.pool, _table_add(self.terms, other.terms), a)
        return _make(self.pool, _table_add(_times(self.terms, b), _times(other.terms, a)),
                     _pscale(a, b))

    __radd__ = __add__

    def __neg__(self):
        terms = {m: _pneg(p) for m, p in self.terms.items()}
        return Superfunction(self.pool, terms, self.den) if terms else self

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        if type(other) is int:  # graded signs and integer factors
            return self._scaled(other, 1)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a:
            return self
        if not b:
            return other
        # a body-only factor multiplies each numerator, and a rational
        # constant only scales the other factor
        if len(b) == 1 and () in b:
            q = b[()]
            if len(q) == 1 and type(other.den) is int and (n := q.get(self.pool._zero_exps)):
                return self._scaled(n, other.den)
            terms = {m: _pmul(p, q) for m, p in a.items()}
        elif len(a) == 1 and () in a:
            p = a[()]
            if len(p) == 1 and type(self.den) is int and (n := p.get(self.pool._zero_exps)):
                return other._scaled(n, self.den)
            terms = {m: _pmul(p, q) for m, q in b.items()}
        else:
            terms = _table_mul(self.pool, a, b)
        if self.den == 1 and other.den == 1:
            return Superfunction(self.pool, terms) if terms else self.pool._zero
        return _make(self.pool, terms, _pscale(self.den, other.den))

    def __rmul__(self, other):
        # only scalars reach here; they commute with everything
        return self.__mul__(other)

    def _scaled(self, n, d):
        """``self * n/d`` for ``n/d`` in lowest terms with ``d > 0``, without
        a table product or a gcd chain: the numerators and ``den`` have no
        joint content, so with ``c_N`` the content of the numerators and
        ``c_D`` that of ``den``, ``n N / (d D)`` loses exactly
        ``gcd(n, c_D) * gcd(d, c_N)``.  ``1`` returns ``self``."""
        if not self.terms or (n == 1 and d == 1):
            return self
        if not n:
            return self.pool._zero
        den = self.den
        g = math.gcd(n, den) if type(den) is int else math.gcd(n, *den.values())
        h = 1 if d == 1 else math.gcd(d, *(c for p in self.terms.values() for c in p.values()))
        n, d = n // g, d // h
        terms = self.terms
        if n != 1 or h != 1:
            terms = {m: {e: c // h * n for e, c in p.items()} for m, p in terms.items()}
        if g != 1 or d != 1:
            den = den // g * d if type(den) is int else {e: c // g * d for e, c in den.items()}
        return Superfunction(self.pool, terms, den)

    def __truediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _divide(self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _divide(other, self)

    def __pow__(self, k):
        if type(k) is not int:  # a bool is not an operand
            return NotImplemented
        if k < 0:
            return _divide(self.pool.one(), self ** -k)
        out = self.pool.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:  # no square after the last bit
                base = base * base
        return out

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except PoolMismatch:
            return False
        if other is None:
            return NotImplemented
        return self.terms == other.terms and self.den == other.den

    __hash__ = None

    # -- structure queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def body(self):
        """Even-variable rational function left after killing all odd
        generators, as a sympy expression; imports sympy."""
        import sympy as sp

        b = self.body_part()
        if b.is_zero():
            return sp.Integer(0)
        d = b.den if type(b.den) is int else _expr(self.pool, b.den)
        return _expr(self.pool, b.terms[()]) / d

    def body_at(self, point) -> Fraction:
        """The body at a rational point (one value per even variable, in pool
        order), e.g. :meth:`Chart.sample_point`; raises ``NonInvertible`` at a
        pole."""
        pool = self.pool
        if len(point) != pool.n_even:
            raise PoolMismatch(f"a point of {len(point)} values for {pool.n_even} even variables")
        rationals = [_rational(q) for q in point]
        if None in rationals:
            raise InexactCoefficient(f"{point!r} is not a point of exact rational values")
        p = self.terms.get(())
        if p is None:
            return Fraction(0)
        common = math.lcm(*(q for _, q in rationals))
        nums = [n * (common // q) for n, q in rationals]
        dn, ds = _evaluate(self.den, nums, common)
        if not dn:
            # den may share a factor with the body alone that vanishes here
            b = self.body_part()
            p, (dn, ds) = b.terms[()], _evaluate(b.den, nums, common)
            if not dn:
                raise NonInvertible(f"body has a pole at {pool.render_point(point)}")
        pn, ps = _evaluate(p, nums, common)
        return Fraction(pn * ds, ps * dn)

    def body_part(self) -> "Superfunction":
        return _make(self.pool, {m: p for m, p in self.terms.items() if not m}, self.den)

    def nilpotent_part(self) -> "Superfunction":
        return _make(self.pool, {m: p for m, p in self.terms.items() if m}, self.den)

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
        return type(self.den) is int

    def rational_coefficients(self):
        """``(odd monomial, even exponents, q)`` for every rational
        coefficient ``q``, an int or a ``Fraction``; requires
        :meth:`is_polynomial`."""
        den = self.den
        for mono, p in self.terms.items():
            for exps, c in p.items():
                yield mono, exps, c if den == 1 else Fraction(c, den)

    # -- calculus ------------------------------------------------------------

    def partial(self, name: str) -> "Superfunction":
        """Partial derivative; odd derivatives act from the left.  Each
        derivative is computed once and kept on the instance."""
        try:
            cache = self._partials
        except AttributeError:
            cache = self._partials = {}
        out = cache.get(name)
        if out is None:
            out = cache[name] = _derivative(self, name)
        return out

    def invert(self) -> "Superfunction":
        """Exact inverse via a finite Neumann series in the nilpotent part."""
        return _divide(self.pool.one(), self)

    def sqrt(self) -> "Superfunction":
        """Square root of an even element with an exactly square body; the
        root of the body is fixed by :func:`_body_root`."""
        if not self.has_parity(0):
            raise ParityError("square roots are only defined for even elements")
        s0 = _body_root(self)
        n = self.nilpotent_part()
        if n.is_zero():
            return s0
        if s0.is_zero():
            raise NotASquare("a nonzero nilpotent element has no square root")
        # f = b*(1 + t); sqrt(1 + t) is the binomial series
        t = _divide(n, self.body_part())
        return _nilpotent_series(t, _half_binomials(), self.pool.one()) * s0

    def top_part(self) -> "Superfunction":
        """The coefficient of the full odd-coordinate monomial, as a
        superfunction with only a body (zero when the monomial is absent).

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
        p = self.terms.get(top)
        return pool._zero if p is None else _make(pool, {(): p}, self.den)

    def berezin_top(self):
        """The body of :meth:`top_part` as a sympy expr; imports sympy."""
        return self.top_part().body()

    def substitute(self, images: dict, new_pool: GeneratorPool) -> "Superfunction":
        """Graded-safe substitution generator -> Superfunction over new_pool.

        Every generator actually used must have an image of matching parity.
        Numerators are ring products of the images, so even images with a
        nilpotent part or a denominator expand exactly (a finite Taylor
        series), and ``den``, evaluated the same way, divides once at the end.
        """
        pool, den = self.pool, self.den

        def image(name, parity):
            kind, word = (("even variable", "even"), ("odd generator", "odd"))[parity]
            if name not in images:
                raise UnknownGenerator(f"no image for {kind} {name!r}")
            if not isinstance(images[name], Superfunction):
                raise InvalidArgument(f"image of {kind} {name!r} must be a Superfunction")
            if not images[name].has_parity(parity):
                raise ParityError(f"image of {kind} {name!r} must be {word}")
            return images[name]

        polys = [*self.terms.values(), *([] if type(den) is int else [den])]
        evens = {}
        for k in sorted({k for p in polys for e in p for k, v in enumerate(e) if v}):
            evens[k] = image(pool.even_names[k], 0)
            if evens[k].pool != new_pool:
                raise PoolMismatch(f"image of {pool.even_names[k]!r} lives over another pool")
        odd_images = {i: image(pool.odd_names[i], 1)
                      for i in dict.fromkeys(i for m in self.terms for i in m)}
        powers = {}

        def value(p):
            out = new_pool.zero()
            for exps, c in p.items():
                term = new_pool._constant(c, 1)
                for k in evens:
                    j = exps[k]
                    if j:
                        if (k, j) not in powers:
                            powers[k, j] = evens[k] ** j
                        term = term * powers[k, j]
                out = out + term
            return out

        out = new_pool.zero()
        for mono, p in self.terms.items():
            part = value(p)
            for idx in mono:
                part = part * odd_images[idx]
            out = out + part
        if type(den) is int:
            return out if den == 1 else out / den
        try:
            return _divide(out, value(den))
        except NonInvertible:
            raise NonInvertible("substitution hits a pole of a coefficient") from None

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Canonical textual form; parsing it back is exact."""
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            coeff = _render_coefficient(self.pool, self.terms[mono], self.den)
            gens = "*".join(self.pool.odd_names[i] for i in mono)
            pieces.append(f"({coeff})*{gens}" if gens else f"({coeff})")
        return " + ".join(pieces)

    def __repr__(self):
        return f"Superfunction({self.render()})"


def _derivative(f, name):
    """The kernel behind :meth:`Superfunction.partial`."""
    pool = f.pool
    k = pool._even_index.get(name)
    if k is not None:
        den = f.den
        if type(den) is int:
            return _make(pool, {m: d for m, p in f.terms.items() if (d := _pdiff(p, k))}, den)
        # (N/D)' = (N' D - N D') / D^2
        dden = _pdiff(den, k)
        terms = {m: _padd(_pmul(_pdiff(p, k), den), _pneg(_pmul(p, dden)))
                 for m, p in f.terms.items()}
        return _make(pool, {m: d for m, d in terms.items() if d}, _pmul(den, den))
    idx = pool.odd_index(name)
    if pool.is_flesh(idx):
        raise UnknownGenerator(
            f"{name!r} is a flesh generator; it admits no derivations"
        )
    terms = {}
    for mono, p in f.terms.items():
        if idx in mono:
            # distinct monomials stay distinct once idx is removed
            sign, rest = _left_partial(mono, mono.index(idx))
            terms[rest] = p if sign > 0 else _pneg(p)
    return _make(pool, terms, f.den)


# the rank of a generator name without its trailing digits in sympy's
# generator sort (``sympy.polys.polyutils._sort_gens``): x, y, z first, then
# p..w, then a..o, then every other name
_GEN_RANKS = {**{c: 124 + k for k, c in enumerate("xyz")},
              **{c: 216 + k for k, c in enumerate("pqrstuvw")},
              **{c: 301 + k for k, c in enumerate("abcdefghijklmno")}}
_GEN_NAME = re.compile(r"^(.*?)(\d*)$", re.MULTILINE)


def _gen_key(name):
    """The sort key of sympy's ``_sort_gens`` for one generator name: its
    rank, then the name without its trailing digits, then those digits as
    an int, so that ``x2 < x10``."""
    stem, index = _GEN_NAME.match(name).groups()
    return _GEN_RANKS.get(stem, 1000), stem, int(index) if index else 0


@functools.cache
def _sympy_gen_order(names):
    """Positions of the even ``names`` in the order sympy's ``Expr`` routines
    sort generators by (``x, y, z`` first), which fixes the printed signs;
    the sort is stable, as sympy's is."""
    return tuple(sorted(range(len(names)), key=lambda i: _gen_key(names[i])))


def _leading_coefficient(p, order):
    """Leading coefficient of a nonzero polynomial in lex order of the
    variables at the positions ``order``."""
    return max(p.items(), key=lambda t: [t[0][i] for i in order])[1]


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
    """num / den, the one division of superfunctions.  On the numerator
    tables N (of num) and E = b + n (of den; b the body, n^(K+1) = 0),
    num/den = num.den^-1 * den.den * sum_k N (-n)^k b^(K-k) / b^(K+1): only
    ring products of integer tables, then one gcd for the quotient."""
    b = den.terms.get(())
    if b is None:
        raise NonInvertible("body is zero")
    pool = den.pool
    nil = {m: p for m, p in den.terms.items() if m}
    terms, s = num.terms, b  # K = 0: no series when nothing is nilpotent
    if nil:
        series, scale = _nilpotent_series(
            Superfunction(pool, nil), itertools.cycle((-1, 1)),
            Superfunction(pool, terms), Superfunction(pool, {(): b})
        )
        terms, s = series.terms, scale.terms[()]
    # a constant s over an int den.den scales num by a unit: nothing to cancel
    return _make(pool, _times(terms, den.den), _pscale(num.den, s),
                 type(den.den) is not int or any(map(any, s)))


def _half_binomials():
    """binomial(1/2, k) for k = 1, 2, ..."""
    c = Fraction(1)
    for k in itertools.count(1):
        c = c * (Fraction(1, 2) - (k - 1)) / k
        yield c


def _render_coefficient(pool, p, den) -> str:
    """The coefficient ``p / den`` as sympy's ``sstr(expr, order="lex")``
    prints it in lowest terms, with ``^`` for ``**``; a fraction or a
    one-term polynomial with a fractional coefficient prints as
    ``(numerator)/(denominator)``."""
    c = _make(pool, {(): p}, den)  # in lowest terms
    n, d = c.terms[()], c.den
    if type(d) is not int:
        # print the denominator with a positive leading coefficient in
        # sympy's generator order, as sympy.cancel would
        if _leading_coefficient(d, _sympy_gen_order(pool.even_names)) < 0:
            n, d = _pneg(n), _pneg(d)
        return f"({_render_poly(pool, n)})/({_render_poly(pool, d)})"
    if len(n) == 1 or d == 1:
        num = _render_poly(pool, n)
        return num if d == 1 else f"({num})/({d})"
    return _render_poly(pool, {e: Fraction(c, d) for e, c in n.items()})


@functools.cache
def _name_order(names):
    """The positions of the even ``names`` sorted by name as plain strings,
    the order in which sympy prints and sorts symbols."""
    return sorted(range(len(names)), key=names.__getitem__)


def _render_poly(pool, terms):
    """The polynomial with the terms ``{exponents: rational}`` as ``sstr``
    prints it: terms in descending lex order of the variables sorted by
    name, factors in name order, the absolute numerator first unless it is 1
    in a non-constant term, ``/q`` last, and signs between the terms."""
    names, order = pool.even_names, _name_order(pool.even_names)
    out = ""
    for exps, q in sorted(terms.items(), key=lambda t: [t[0][i] for i in order],
                          reverse=True):
        n, d = q.numerator, q.denominator
        factors = [names[i] if exps[i] == 1 else f"{names[i]}^{exps[i]}"
                   for i in order if exps[i]]
        if abs(n) != 1 or not factors:
            factors.insert(0, str(abs(n)))
        term = "*".join(factors) + (f"/{d}" if d != 1 else "")
        if out:
            out += (" - " if n < 0 else " + ") + term
        else:
            out = "-" + term if n < 0 else term
    return out


def _poly_root(pool, p, order):
    """The square root of a nonzero int or integer polynomial, with a positive
    leading coefficient in lex order of the even variables at the positions
    ``order``, or None when ``p`` is not a square.

    A square's root has integer coefficients (Gauss's lemma), and in the
    pool's lex order its leading term is the root of ``p``'s.  Each further
    term is the leading term of ``p - root^2`` over twice that leading
    term, and it is lex smaller than the terms before it.  A term that is
    not an integer monomial of degree at most half of ``p``'s in each
    variable proves that ``p`` is no square; the degree bound ends the
    loop."""
    if type(p) is int:
        r = math.isqrt(max(p, 0))
        return r if r * r == p else None
    lead = max(p)
    r = math.isqrt(max(p[lead], 0))
    if r * r != p[lead] or any(e % 2 for e in lead):
        return None
    half = [max(e[k] for e in p) // 2 for k in range(len(lead))]
    head = tuple(e // 2 for e in lead)
    root = {head: r}
    rest = {e: c for e, c in p.items() if e != lead}
    add = pool._add_exps
    while rest:
        e = max(rest)
        t = tuple(map(operator.sub, e, head))
        if rest[e] % (2 * r) or any(d < 0 or d > h for d, h in zip(t, half)):
            return None
        q = rest[e] // (2 * r)
        # p - (root + q x^t)^2 = rest - 2 q x^t root - q^2 x^(2t)
        for key, c in [*((add(er, t), 2 * q * cr) for er, cr in root.items()),
                       (add(t, t), q * q)]:
            c = rest.get(key, 0) - c
            if c:
                rest[key] = c
            else:
                del rest[key]
        root[t] = q
    return _pneg(root) if _leading_coefficient(root, order) < 0 else root


def _body_root(f):
    """Square root of the body (zero for zero): its numerator and denominator
    each have a positive leading coefficient in lex order of the even names
    sorted by name."""
    pool, b = f.pool, f.body_part()
    if b.is_zero():
        return b
    order = _name_order(pool.even_names)
    rn, rd = _poly_root(pool, b.terms[()], order), _poly_root(pool, b.den, order)
    if rn is None or rd is None:
        text = _render_coefficient(pool, b.terms[()], b.den)
        raise NotASquare(f"body {text} admits no exact square root")
    return _make(pool, {(): rn}, rd)
