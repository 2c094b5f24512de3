"""Exact Grassmann-valued scalars with rational-function coefficients.

A :class:`Superfunction` is a finite sum of terms ``c(x) * th_{i1}*...*th_{ik}``
where the odd monomial is a strictly increasing tuple of indices into the
pool's odd generators and ``c`` is a rational function of the even variables
with rational coefficients.

It is stored as one integer term table over one denominator: ``terms`` maps
each odd monomial to its numerator, a :mod:`supergeo.zpoly` polynomial in
the even variables; ``den``, shared by the whole superfunction, is a
positive ``int`` when every coefficient is a polynomial, else a polynomial.
A polynomial's keys pack its exponent tuples into ints: the first even
variable most significant and unbounded, then a 32-bit field for each
further one, whose degree stays below 2^31.  So a product adds keys, and
one whose key has a guard bit of the pool set (a degree that would carry)
raises ``InvalidArgument``.  Exponent tuples appear only at the edges
(:meth:`GeneratorPool.from_coefficients`,
:meth:`Superfunction.rational_coefficients`, :meth:`Superfunction.substitute`
and :meth:`Superfunction.body`) and in the monomials ``(mono, exps)`` of the
pool's monomial methods; the keys that :meth:`GeneratorPool.monomial_multiple`
yields are opaque to its callers.
:func:`_make` enforces the canonical form, which is unique, so equality is
structural: no stored int is zero and no numerator empty; the leading
coefficient of ``den`` in lex order of the pool's even variables is positive;
the integer content of the numerators and ``den`` together is 1; and
``gcd(den, N_1, ..., N_k) = 1`` in ``Z[x]``.  Polynomial arithmetic is thus
plain integer arithmetic (the Koszul sign and merged tuple of each pair of
odd monomials are cached on the pool), and a result over a non-constant
``den`` is cancelled by one gcd over the whole table
(:func:`cancel_common_factor`), unless it scales a canonical superfunction
by a unit of ``Q[x][theta]``.  A matrix product is one :func:`grid_product`,
which sweeps the result row by row: the products of an entry over one
denominator accumulate in one table, and each entry is made canonical once,
over the least common multiple of its tables' denominators.  A single
term, one odd monomial with a one-term numerator over an int ``den``, takes
no table route: a product of two is one cached merge, one key sum checked
against the guard bits and one gcd, and :meth:`GeneratorPool.scalar` lifts a
product of rationals and nonnegative powers of the pool's symbols to its
one term, each degree after the first checked against the bound before it
joins the key.  A difference is one signed table sum.
Division happens in one place, :func:`_divide`.  Other modules never read
``terms`` or ``den``, and never build, slice or sign an odd monomial: they
pass ``(mono, exps)`` keys between the pool's monomial methods.
Superfunctions are immutable, and the kernel relies on it: results share
numerators with their operands, ``f + 0`` is ``f``, ``0 * f`` is the zero
operand, :meth:`Superfunction.partial` keeps each derivative, and a pool
hands out one shared zero, one and superfunction per generator name (even
and odd names cached apart).

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
sympy objects: :meth:`Superfunction.body` and
:meth:`Superfunction.berezin_top`, which return ``Expr``; a pool's
``even_symbols`` and :meth:`GeneratorPool.even_symbol`, plain ``Symbol``s
built on first use; and :meth:`GeneratorPool.scalar`, which walks an
``Expr`` itself (floats, irrational numbers, other functions and foreign
symbols are rejected) and asks whether a value is one only once sympy is in
``sys.modules``.  :meth:`Superfunction.render` cancels each coefficient
against ``den`` on its own and prints it with :func:`render_poly`.
:meth:`Superfunction.body_at` is the package's only way to evaluate a body
at a point: it returns a ``Fraction`` and raises ``NonInvertible`` at a pole.

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
                     NotASquare, ParityError, PoolMismatch, SupergeoError, UnknownGenerator)
from .zpoly import (BOUND, box_sign, cancel_common_factor, evaluate, fields, guard,
                    leading_coefficient, name_order, pack, padd, pdiff, pmul, pneg, poly_root,
                    pscale, render_number, render_poly, sympy_gen_order, unpack)


# a generator name, as the scenario parser's tokenizer reads an identifier
IDENTIFIER = r"[A-Za-z_][A-Za-z_0-9]*"
# the bound of an exponent the scenario parser reads: that of a degree in an
# even variable after the first
EXPONENT_BOUND = BOUND


def _rational(value):
    """``(numerator, denominator)`` of an exact rational value (an int that is
    not a bool, or a ``Fraction``), else None."""
    if type(value) is int:
        return value, 1
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value.numerator, value.denominator
    return None


def _carry(pool):
    """The error of a key with a guard bit set: a degree in a variable after
    the first reached :data:`zpoly.BOUND`, and the key would carry into the
    field above it once added to another."""
    return InvalidArgument(f"a degree in {', '.join(pool.even_names[1:])} reaches 2**31;"
                           f" only the first even variable, {pool.even_names[0]}, has no bound")


def _check(pool, terms, den=1):
    """Raise ``InvalidArgument`` (:func:`_carry`) when a key of the
    numerators ``terms`` or of ``den``, the products an operation is about
    to return, has a guard bit of the pool set.  Callers skip it when the
    pool has no guard bits, in one even variable."""
    if functools.reduce(operator.or_, itertools.chain(
            *terms.values(), () if type(den) is int else den), 0) & pool._guard:
        raise _carry(pool)


def _times(terms, d):
    """Every numerator times the int or polynomial d."""
    if d == 1:
        return terms
    return {m: pscale(p, d) for m, p in terms.items()}


def _expr(pool, p):
    """A polynomial as a sympy expression.  Imports sympy."""
    import sympy as sp

    return sp.Add(*(c * sp.Mul(*(s**k for s, k in zip(pool.even_symbols, unpack(e, pool.n_even))))
                    for e, c in p.items()))


def _make(pool, terms, den=1, cancel=True):
    """The canonical superfunction with the numerators ``terms`` (nonzero
    ints, no empty numerator) over ``den``, a nonzero int or a nonzero
    integer polynomial.  ``cancel=False`` skips the gcd, for callers
    that scale a canonical superfunction by a unit of ``Q[x][theta]``."""
    if not terms:
        return pool._zero
    if type(den) is not int:
        if cancel:
            terms, den = cancel_common_factor(terms, den, pool.n_even)
        den = _int_if_constant(den)
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


def _table_add(a, b, sign=1):
    """``a + sign * b`` for two numerator tables (sign 1 or -1) in one pass;
    untouched numerators are shared."""
    out = dict(a)
    for m, q in b.items():
        if sign < 0:
            q = pneg(q)
        s = padd(out[m], q) if m in out else q
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def _accumulate(pool, raw, a, b):
    """Add ``a * b`` for the numerator tables a and b into the table
    ``raw``, whose numerators it owns; a coefficient that cancels stays as a
    zero (:func:`_nonzero`).  The pool caches the sign and merged monomial
    of each pair of odd monomials."""
    for ma, pa in a.items():
        row = pool._merge_row(ma)
        for mb, pb in b.items():
            merged = row.get(mb)
            if merged is None:
                merged = row[mb] = _merge_monomials(ma, mb)
            s, mono = merged
            if not s:
                continue
            acc = raw.get(mono)
            if acc is None:
                acc = raw[mono] = {}
            flip = s < 0  # the Koszul sign is -1
            for ea, ca in pa.items():
                if flip:
                    ca = -ca
                for eb, cb in pb.items():
                    e = ea + eb
                    acc[e] = acc.get(e, 0) + ca * cb


def _sweep(pool, a, right, tables, sign):
    """Add ``sign * a * b`` (sign 1 or -1) for the numerator table a and
    each term ``(j, mb, pb)`` of ``right``, the numerator ``pb`` of the odd
    monomial ``mb`` of a right factor, into the table ``tables[j]``: the
    row sweep of :func:`grid_product`, as :func:`_accumulate` adds one
    product.  Each odd monomial of a fetches its row of the pool's merge
    cache once for the whole of ``right``, and the Koszul sign times sign
    is settled once per pair of odd monomials, outside the coefficient
    loops."""
    for ma, pa in a.items():
        row = pool._merge_row(ma)
        for j, mb, pb in right:
            merged = row.get(mb)
            if merged is None:
                merged = row[mb] = _merge_monomials(ma, mb)
            s, mono = merged
            if not s:
                continue
            raw = tables[j]
            acc = raw.get(mono)
            if acc is None:
                acc = raw[mono] = {}
            if s == sign:
                for ea, ca in pa.items():
                    for eb, cb in pb.items():
                        e = ea + eb
                        acc[e] = acc.get(e, 0) + ca * cb
            else:
                for ea, ca in pa.items():
                    for eb, cb in pb.items():
                        e = ea + eb
                        acc[e] = acc.get(e, 0) - ca * cb


def _nonzero(raw):
    """The table ``raw`` without its zero coefficients and empty numerators."""
    out = {}
    for mono, acc in raw.items():
        if not all(acc.values()):
            acc = {e: c for e, c in acc.items() if c}
        if acc:
            out[mono] = acc
    return out


def _table_mul(pool, a, b):
    """The product of two numerator tables.  :meth:`Superfunction.__mul__`
    multiplies by a body-only table itself."""
    raw = {}
    _accumulate(pool, raw, a, b)
    return _nonzero(raw)


def _key(den):
    """A denominator as a dict key: the int, or the polynomial's items."""
    return den if type(den) is int else frozenset(den.items())


def grid_product(pool, X, Y, start, sign=1):
    """The grid ``start + sign * X Y`` (sign 1 or -1) for grids, lists of
    rows, of superfunctions over ``pool``: X of n rows of k entries, Y of k
    rows of m and ``start`` of n rows of m, each product in factor order.
    It is the kernel of the supermatrix product, and works row by row: each
    nonzero left factor X_ik sweeps the terms of the nonzero entries of row
    k of Y in one :func:`_sweep`, so each of its odd monomials fetches its
    merge row once for the whole row of the result.

    Each output entry has one integer table per denominator of its
    products.  A product of two factors over 1 adds into the entry's table
    over 1 with no denominator bookkeeping; any other adds into the table
    over ``x.den * y.den``.  The entry's start begins the table of its own
    denominator, if the entry has one.  The keys of each table are checked
    for guard bits.  An entry with only a table over 1 is made canonical at
    once; any other is the :func:`_fraction_sum` of its tables and of a
    start that joined none, made canonical once over a common denominator.
    Either way the entry is the ring route's canonical superfunction."""
    # the terms of each row of Y, and its entries over another denominator
    # than 1 (a zero is over 1) with the key of their denominator
    right = [[(j, mb, pb) for j, y in enumerate(row) for mb, pb in y.terms.items()] for row in Y]
    others = [[(j, y.den, _key(y.den)) for j, y in enumerate(row) if y.den != 1] for row in Y]
    guard = pool._guard
    out = []
    for xrow, srow in zip(X, start):
        tables = []  # each entry's table over 1, begun by a start over 1
        groups = {}  # (entry, denominator key) -> (den, table) for the other tables
        pending = {}  # entry -> its start over another denominator, until a table joins it
        for j, s in enumerate(srow):
            if s.den == 1:
                tables.append({m: dict(p) for m, p in s.terms.items()} if s.terms else {})
            else:
                tables.append({})
                pending[j] = s
        for x, row, terms, other in zip(xrow, Y, right, others):
            a = x.terms
            if not a:
                continue
            tabs = tables
            if x.den != 1:  # every product of x is over another denominator than 1
                tabs = list(tables)
                for j, y in enumerate(row):
                    if y.terms:
                        den = pscale(x.den, y.den)
                        tabs[j] = _group(groups, pending, j, den, _key(den))
            elif other:  # the products with the row's entries over another one
                tabs = list(tables)
                for j, den, key in other:
                    tabs[j] = _group(groups, pending, j, den, key)
            _sweep(pool, a, terms, tabs, sign)
        if guard:
            for table in tables:
                _check(pool, table)
            for den, table in groups.values():
                _check(pool, table, den)
        entries = []
        out.append(entries)
        if not groups and not pending:
            for table in tables:
                entries.append(_make(pool, _nonzero(table)))
            continue
        parts = [[(1, _nonzero(table))] for table in tables]
        for (j, _), (den, table) in groups.items():
            parts[j].append((den, _nonzero(table)))
        for j, entry in enumerate(parts):
            s = pending.get(j)
            if s is not None:
                if not any(t for _, t in entry):
                    entries.append(s)  # no product reaches it
                    continue
                entry.append((s.den, s.terms))
            entries.append(_fraction_sum(pool, entry))
    return out


def _group(groups, pending, j, den, key):
    """The table of entry j over ``den``, whose key is ``key``, among the
    ``groups`` of :func:`grid_product`.  A new one is begun by the entry's
    ``pending`` start when that is over ``den`` too, else empty."""
    group = groups.get((j, key))
    if group is None:
        table = {}
        s = pending.get(j)
        if s is not None and _key(s.den) == key:
            table = {m: dict(p) for m, p in s.terms.items()}
            del pending[j]
        group = groups[j, key] = den, table
    return group[1]


def _fraction_sum(pool, parts):
    """The canonical sum of ``t / d`` over the parts ``(d, t)``: numerator
    tables t without zero coefficients over int or polynomial denominators
    d.  The tables move onto one common multiple of the denominators, the
    least up to a constant: each further d meets the multiple so far in one
    gcd of the two denominators alone (:func:`cancel_common_factor`, or
    ``math.gcd`` for two ints), and the sum is made canonical once."""
    den, terms = 1, {}
    for d, t in parts:
        if not t:
            continue
        if not terms:
            den, terms = d, t
            continue
        if type(den) is int and type(d) is int:
            g = math.gcd(den, d)
            a, b = d // g, den // g
        else:
            top, a = cancel_common_factor({(): {0: den} if type(den) is int else den},
                                          {0: d} if type(d) is int else d, pool.n_even)
            a, b = _int_if_constant(a), _int_if_constant(top[()])
        # den * a = d * b is their common multiple
        terms, den = _table_add(_times(terms, a), _times(t, b)), pscale(den, a)
    if pool._guard:
        _check(pool, terms, den)
    return _make(pool, terms, den)


def _int_if_constant(p):
    """A polynomial as the int it is when it is constant."""
    return p[0] if len(p) == 1 and 0 in p else p


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
        self._unit_keys = [pack(int(i == k) for i in range(n)) for k in range(n)]
        self._guard = guard(n)
        self._merges = {}
        # immutable, so one serves all: zero, one and each generator by parity
        self._zero = Superfunction(self, {})
        self._one = Superfunction(self, {(): {0: 1}})
        self._generators = {}, {}

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
        return self._one

    def sum(self, values) -> "Superfunction":
        """The sum of the superfunctions ``values``, adding only the nonzero
        ones: no addition has a zero operand."""
        acc = self._zero
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
            try:
                return self._lift(value)  # one walk; free symbols only on failure
            except SupergeoError as exc:
                # a foreign symbol anywhere in the value takes precedence
                foreign = value.free_symbols - self._symbols
                if foreign:
                    names = ", ".join(sorted(str(s) for s in foreign))
                    raise UnknownGenerator(
                        f"{names} not an even variable of the pool; "
                        "odd generators enter as Superfunction factors"
                    ) from None
                if not isinstance(exc, InexactCoefficient):
                    raise
                # an inexact part is reported with the whole expression below
        raise InexactCoefficient(
            f"{value!r} is not an exact rational function of {list(self.even_names)}"
        )

    def _constant(self, n, d):  # n/d in lowest terms, d > 0
        return Superfunction(self, {(): {0: n}}, d) if n else self._zero

    def _lift(self, e):
        """The superfunction of a sympy expression in the pool's even symbols,
        folded with the ring arithmetic: rationals, symbols, sums, products
        and integer powers, a monomial straight to its term
        (:meth:`_lift_term`).  Anything else raises ``InexactCoefficient``, a
        negative power of zero ``NonInvertible``, and a symbol that is not
        one of the pool's even symbols ``UnknownGenerator`` (symbols compare
        with their assumptions, so a positive ``x`` is foreign)."""
        if e.is_Rational:
            return self._constant(e.p, e.q)
        if e.is_Symbol:
            if e not in self._symbols:
                raise UnknownGenerator
            return self.even(e.name)
        if e.is_Add:
            return functools.reduce(operator.add, map(self._lift, e.args))
        if e.is_Mul or e.is_Pow:
            term = self._lift_term(e.args if e.is_Mul else (e,))
            if term is not None:
                return term
            if e.is_Mul:
                return functools.reduce(operator.mul, [self._lift(a) for a in e.args])
            if e.exp.is_Integer:
                return self._lift(e.base) ** int(e.exp)
        raise InexactCoefficient

    def _lift_term(self, factors):
        """The single term of a product of Rationals and nonnegative integer
        powers of the pool's even symbols, ``n x^key / d`` reduced by one
        gcd; None for any other product, which :meth:`_lift` folds.  Each
        degree after the first is checked before it joins the key, where a
        degree of 2^32 would carry into the next field unseen."""
        n = d = 1
        exps = [0] * len(self.even_names)
        for f in factors:
            if f.is_Rational:
                n, d = n * f.p, d * f.q
                continue
            base, k = (f.base, int(f.exp) if f.exp.is_Integer else -1) if f.is_Pow else (f, 1)
            if k < 0 or base not in self._symbols:
                return None
            exps[self._even_index[base.name]] += k
        if max(exps[1:], default=0) >= BOUND:
            raise _carry(self)
        if not n:
            return self._zero
        g = math.gcd(n, d)
        return Superfunction(self, {(): {pack(exps): n // g}}, d // g)

    def from_coefficients(self, coefficients) -> "Superfunction":
        """The polynomial ``sum q th^mono x^exps`` of a list of ``(mono, exps,
        q)`` triples with distinct keys ``(mono, exps)`` and nonzero exact
        rationals ``q``, the inverse of :meth:`Superfunction.rational_coefficients`:
        the numerators over the least common denominator, coprime to them.
        ``mono`` is a strictly increasing tuple of odd indices and ``exps`` a
        tuple of one nonnegative int per even variable (bools are neither),
        each after the first below 2**31."""
        table = {}
        for mono, exps, q in coefficients:
            if not (type(mono) is tuple and all(type(i) is int for i in mono)
                    and all(0 <= i < self.n_odd for i in mono)
                    and all(a < b for a, b in zip(mono, mono[1:]))):
                raise InvalidArgument(f"odd monomial {mono!r} is not a strictly increasing"
                                      f" tuple of ints below {self.n_odd}")
            if not (type(exps) is tuple and len(exps) == self.n_even
                    and all(type(e) is int and e >= 0 for e in exps)
                    and all(e < BOUND for e in exps[1:])):
                raise InvalidArgument(f"exponents {exps!r} are not a tuple of {self.n_even}"
                                      " nonnegative ints, each after the first below 2**31")
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
            terms.setdefault(mono, {})[pack(exps)] = n * (den // d)
        return Superfunction(self, terms, den) if terms else self._zero

    def monomial_multiple(self, mono, exps, f, den=1):
        """The coefficients of ``m * f`` for the monomial ``m = th^mono x^exps``
        (``mono`` an increasing tuple of odd indices, ``exps`` an exponent
        tuple) and a polynomial superfunction f, as ``(odd monomial, even
        key, n)``: ``n`` is the int numerator over ``den``, which f's
        denominator divides, and the key is opaque to callers.  The Koszul
        sign of each merge comes from the pool's merge cache, which
        :func:`_table_mul` fills too."""
        key, mask = pack(exps), self._guard
        scale = den // f.den
        for mf, p in f.terms.items():
            sign, out = self._merged(mono, mf)
            if sign:
                sign *= scale
                for e, c in p.items():
                    e += key
                    if e & mask:
                        raise _carry(self)
                    yield out, e, sign * c

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
        out = [(a, k, mono, exps[:a] + (k - 1,) + exps[a + 1:])
               for a, k in enumerate(exps) if k]
        out += [(self.n_even + i, *_left_partial(mono, pos), exps)
                for pos, i in enumerate(mono) if not self.is_flesh(i)]
        return out

    def _merged(self, a, b):
        """The cached ``_merge_monomials(a, b)``."""
        row = self._merge_row(a)
        merged = row.get(b)
        if merged is None:
            merged = row[b] = _merge_monomials(a, b)
        return merged

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
        f = self._generators[0].get(name)
        if f is None:
            key = self._unit_keys[self._even_position(name)]
            f = self._generators[0][name] = Superfunction(self, {(): {key: 1}})
        return f

    def odd(self, name: str) -> "Superfunction":
        f = self._generators[1].get(name)
        if f is None:
            f = self._generators[1][name] = Superfunction(self, {(self.odd_index(name),): {0: 1}})
        return f

    def generator(self, name: str) -> "Superfunction":
        return self.even(name) if name in self._even_index else self.odd(name)

    def render_point(self, point) -> str:
        """``x = 0, y = 1/2`` for values of the even variables in pool order."""
        return ", ".join(f"{n} = {render_number(q)}" for n, q in zip(self.even_names, point))

    def render_witness(self, points) -> str:
        """Where a sign test of :meth:`Superfunction.body_sign` failed: ``at
        x = 0`` for one point, ``between x = 0 and x = 1`` for two, each of
        them in parentheses when it has more than one coordinate."""
        texts = [self.render_point(q) for q in points]
        if len(texts) == 1:
            return f"at {texts[0]}"
        if self.n_even > 1:
            texts = [f"({text})" for text in texts]
        return f"between {texts[0]} and {texts[1]}"

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
        self.terms = terms  # odd monomial -> {even key: nonzero int}
        self.den = den  # positive int, or a polynomial {even key: int}

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

    def __add__(self, other, sign=1):
        """``self + sign * other`` for sign 1 or -1: :meth:`__sub__` passes
        -1, so a difference is one signed table sum."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other if sign > 0 else -other
        a, b = self.den, other.den
        if a == b:
            return _make(self.pool, _table_add(self.terms, other.terms, sign), a)
        terms, den = _table_add(_times(self.terms, b), _times(other.terms, a), sign), pscale(a, b)
        if self.pool._guard:
            _check(self.pool, terms, den)
        return _make(self.pool, terms, den)

    __radd__ = __add__

    def __neg__(self):
        terms = {m: pneg(p) for m, p in self.terms.items()}
        return Superfunction(self.pool, terms, self.den) if terms else self

    def __sub__(self, other):
        return self.__add__(other, -1)

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
        pool = self.pool
        # a rational constant only scales the other factor
        if len(b) == 1 and (q := b.get(())) and len(q) == 1 and type(other.den) is int \
                and (n := q.get(0)):
            return self._scaled(n, other.den)
        if len(a) == 1 and (p := a.get(())) and len(p) == 1 and type(self.den) is int \
                and (n := p.get(0)):
            return other._scaled(n, self.den)
        if len(a) == 1 == len(b) and type(self.den) is int and type(other.den) is int:
            (ma, p), = a.items()
            (mb, q), = b.items()
            if len(p) == 1 == len(q):
                # two single terms: one merge, one key sum, one gcd
                s, mono = pool._merged(ma, mb)
                if not s:
                    return pool._zero
                (ea, ca), = p.items()
                (eb, cb), = q.items()
                e = ea + eb
                if e & pool._guard:
                    raise _carry(pool)
                n, d = s * ca * cb, self.den * other.den
                g = math.gcd(n, d)
                return Superfunction(pool, {mono: {e: n // g}}, d // g)
        # a body-only factor multiplies each numerator
        if len(b) == 1 and () in b:
            q = b[()]
            terms = {m: pmul(p, q) for m, p in a.items()}
        elif len(a) == 1 and () in a:
            p = a[()]
            terms = {m: pmul(p, q) for m, q in b.items()}
        else:
            terms = _table_mul(pool, a, b)
        if self.den == 1 and other.den == 1:
            if pool._guard:
                _check(pool, terms)
            return Superfunction(pool, terms) if terms else pool._zero
        den = pscale(self.den, other.den)
        if pool._guard:
            _check(pool, terms, den)
        return _make(pool, terms, den)

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
        dn, ds = evaluate(self.den, nums, common)
        if not dn:
            # den may share a factor with the body alone that vanishes here
            b = self.body_part()
            p, (dn, ds) = b.terms[()], evaluate(b.den, nums, common)
            if not dn:
                raise NonInvertible(f"body has a pole at {pool.render_point(point)}")
        pn, ps = evaluate(p, nums, common)
        return Fraction(pn * ds, ps * dn)

    def body_sign(self, box, strict=None):
        """The body's sign on the closed box ``box``, one rational interval
        (a, b) per even variable in pool order, by :func:`zpoly.box_sign`.

        The body must have no pole there: its denominator gets the strict
        test, and a zero, a sign change or an undecided test raises
        ``NonInvertible`` naming the witness.  With ``strict`` None that is
        all, and the result is None.  Else the numerator times the
        denominator's sign gets the strict (True) or the non-strict (False)
        test, whose ``(sign, points)`` this returns: a nonzero sign proves
        that the body has that strict sign, or (non-strict) that it is >= 0,
        on the whole box."""
        body = self if type(self.den) is int else self.body_part()
        num, sign = body.terms.get((), {}), 1
        if type(body.den) is not int:
            sign, points = box_sign(body.den, box)
            if not sign:
                raise NonInvertible(f"body has a pole {self.pool.render_witness(points)}"
                                    if points else "body may have a pole in the box: the sign"
                                    " of its denominator is undecided")
        if strict is None:
            return None
        return box_sign(num if sign > 0 else pneg(num), box, strict)

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
        p %= 2
        for m in self.terms:
            if len(m) % 2 != p:
                return False
        return True

    def has_body(self) -> bool:
        return () in self.terms

    def is_polynomial(self) -> bool:
        """True when every coefficient is a polynomial in the even variables."""
        return type(self.den) is int

    def rational_coefficients(self):
        """``(odd monomial, even exponents, q)`` for every rational
        coefficient ``q``, an int or a ``Fraction``; requires
        :meth:`is_polynomial`."""
        den, n = self.den, self.pool.n_even
        for mono, p in self.terms.items():
            for e, c in p.items():
                yield mono, unpack(e, n), c if den == 1 else Fraction(c, den)

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

    def extent(self):
        """``(degree, variables, norm)`` over the numerators and ``den``: the
        largest total degree of an even monomial, the number of even
        variables that occur, and the larger L1 norm (the sum of the absolute
        values of the integer coefficients) of the numerators together and of
        ``den``.  A power's numerators and ``den`` have at most ``comb(k
        degree + variables, variables)`` monomials each per odd monomial,
        each with a coefficient of at most ``norm^k``."""
        spans = fields(self.pool.n_even)
        den = {0: self.den} if type(self.den) is int else self.den
        degree, seen, norms = 0, 0, []
        for polys in (self.terms.values(), [den]):
            norm = 0
            for p in polys:
                for e, c in p.items():
                    degree = max(degree, sum(e >> s & m for s, m in spans))
                    seen |= e
                    norm += abs(c)
            norms.append(norm)
        return degree, sum(1 for s, m in spans if seen >> s & m), max(norms)

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
        exps = {e: unpack(e, pool.n_even) for p in polys for e in p}
        evens = {}
        for k in sorted({k for t in exps.values() for k, v in enumerate(t) if v}):
            evens[k] = image(pool.even_names[k], 0)
            if evens[k].pool != new_pool:
                raise PoolMismatch(f"image of {pool.even_names[k]!r} lives over another pool")
        odd_images = {i: image(pool.odd_names[i], 1)
                      for i in dict.fromkeys(i for m in self.terms for i in m)}
        powers = {}

        def value(p):
            out = new_pool.zero()
            for e, c in p.items():
                term = new_pool._constant(c, 1)
                for k in evens:
                    j = exps[e][k]
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
        den, field = f.den, fields(pool.n_even)[k]
        if type(den) is int:
            return _make(pool, {m: d for m, p in f.terms.items() if (d := pdiff(p, field))}, den)
        # (N/D)' = (N' D - N D') / D^2
        dden = pdiff(den, field)
        terms = {m: padd(pmul(pdiff(p, field), den), pneg(pmul(p, dden)))
                 for m, p in f.terms.items()}
        terms, den = {m: d for m, d in terms.items() if d}, pmul(den, den)
        if pool._guard:
            _check(pool, terms, den)
        return _make(pool, terms, den)
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
            terms[rest] = p if sign > 0 else pneg(p)
    return _make(pool, terms, f.den)


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
    terms, d = _times(terms, den.den), pscale(num.den, s)
    if pool._guard:
        _check(pool, terms, d)
    return _make(pool, terms, d, type(den.den) is not int or any(s))


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
        if leading_coefficient(d, sympy_gen_order(pool.even_names)) < 0:
            n, d = pneg(n), pneg(d)
        return f"({render_poly(pool.even_names, n)})/({render_poly(pool.even_names, d)})"
    if len(n) == 1 or d == 1:
        num = render_poly(pool.even_names, n)
        return num if d == 1 else f"({num})/({render_number(d)})"
    return render_poly(pool.even_names, {e: Fraction(c, d) for e, c in n.items()})


def _body_root(f):
    """Square root of the body (zero for zero): its numerator and denominator
    each have a positive leading coefficient in lex order of the even names
    sorted by name."""
    pool, b = f.pool, f.body_part()
    if b.is_zero():
        return b
    order = name_order(pool.even_names)
    rn, rd = poly_root(b.terms[()], order), poly_root(b.den, order)
    if rn is None or rd is None:
        text = _render_coefficient(pool, b.terms[()], b.den)
        raise NotASquare(f"body {text} admits no exact square root")
    return _make(pool, {(): rn}, rd)
