"""The integer-polynomial kernel against sympy's ``Poly``: ring arithmetic,
evaluation at rational points, square roots and the printer's orders."""

import itertools
import math
from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.polyutils import _sort_gens

from supergeo import GeneratorPool, scalars, zpoly
from supergeo.errors import InvalidArgument

from conftest import count_calls, packed, random_poly, seeded, unlimited_int_digits, unpacked


def _poly(p, gens):
    """A kernel polynomial (or an int) as sympy's ``Poly`` over ``ZZ``."""
    if type(p) is int:
        return sp.Poly(p, *gens, domain=sp.ZZ)
    return sp.Poly.from_dict(unpacked(p, len(gens)), gens, domain=sp.ZZ)


def _kernel(poly):
    """A sympy ``Poly`` over ``ZZ`` as a kernel polynomial."""
    return packed({e: int(c) for e, c in poly.as_dict().items()})


def _gens(n):
    return sp.symbols(f"x1:{n + 1}")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_arithmetic_matches_poly(n):
    """Seeded products, sums, negatives, scalings and derivatives equal
    sympy's, and no operation changes its operands."""
    gens = _gens(n)
    rng = seeded(350 + n)
    for _ in range(100):
        p, q = random_poly(rng, n), random_poly(rng, n)
        before = (dict(p), dict(q))
        P, Q = _poly(p, gens), _poly(q, gens)
        c = rng.choice([-3, -1, 1, 2, 10**20])
        k = rng.randrange(n)
        assert zpoly.pmul(p, q) == _kernel(P * Q)
        assert zpoly.pscale(p, q) == _kernel(P * Q)
        assert zpoly.padd(p, q) == _kernel(P + Q)
        assert zpoly.padd(p, zpoly.pneg(p)) == {}
        assert zpoly.pscale(p, c) == zpoly.pscale(c, p) == _kernel(P * c)
        assert zpoly.pscale(c, 7) == 7 * c
        assert zpoly.pdiff(p, zpoly.fields(n)[k]) == _kernel(P.diff(gens[k]))
        assert (p, q) == before


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluation_matches_poly(n):
    """``evaluate`` at seeded rational points over one common denominator,
    for polynomials and ints, gives sympy's value there."""
    gens = _gens(n)
    rng = seeded(360 + n)
    for _ in range(100):
        p = random_poly(rng, n) if rng.random() < 0.9 else rng.randint(-9, 9)
        den = rng.randint(1, 12)
        nums = [rng.randint(-20, 20) for _ in range(n)]
        want = _poly(p, gens).eval(dict(zip(gens, (sp.Rational(v, den) for v in nums))))
        assert Fraction(*zpoly.evaluate(p, nums, den)) == Fraction(int(want.p), int(want.q))


def _square_free_root(p, gens, order):
    """The route :func:`zpoly.poly_root` replaced: the square root read off
    the square-free decomposition of ``p`` by sympy's ``Poly``."""
    content, factors = _poly(p, gens).sqf_list()
    content = int(content)
    r = math.isqrt(max(content, 0))
    if r * r != content or any(k % 2 for _, k in factors):
        return None
    if type(p) is int:
        return r
    root = packed({(0,) * len(gens): r})
    for f, k in factors:
        for _ in range(k // 2):
            root = zpoly.pmul(root, _kernel(f))
    return zpoly.pneg(root) if zpoly.leading_coefficient(root, order) < 0 else root


class TestNativeSquareRoot:
    @pytest.mark.parametrize("evens", [["x"], ["y", "x"], ["z", "a", "y"]], ids=" ".join)
    def test_matches_the_square_free_route(self, evens):
        """Seeded squares q^2 times a content, negated or not, and
        non-squares (a square plus a term, a product of two polynomials, a
        square times a variable) give the root or None of the square-free
        route, with the same sign: the variables are ordered otherwise
        than by name."""
        n = len(evens)
        gens = sp.symbols(evens)
        order = zpoly.name_order(tuple(evens))
        rng = seeded(330 + n)
        seen = set()
        for _ in range(120):
            q = random_poly(rng, n)
            square = zpoly.pmul(q, q)
            content = packed({(0,) * n: rng.choice([1, 1, 4, 9, 2, 12])})
            cases = [zpoly.pmul(square, content), zpoly.pneg(square),
                     zpoly.padd(square, random_poly(rng, n, 1)),
                     zpoly.pmul(q, random_poly(rng, n)),
                     zpoly.pmul(square, packed({(1,) + (0,) * (n - 1): 1})),
                     rng.choice([1, 4, 7, 36, -9])]
            for p in cases:
                if not p:
                    continue
                want = _square_free_root(p, gens, order)
                assert zpoly.poly_root(p, order) == want, p
                seen.add("square" if want is not None else "not a square")
        assert seen == {"square", "not a square"}


_GEN_NAMES = list(dict.fromkeys(
    ["x1", "x2", "x10", "x01", "y3", "th1", "th12", "u_1", "u_2", "xy", "eta", "lam1", "a1",
     "w9", "alpha", "Z", "_q"] + [chr(c) for c in range(ord("a"), ord("z") + 1)]))


def test_generator_order_matches_sort_gens():
    """The ported generator sort puts names where sympy's ``_sort_gens``
    puts the symbols, ties in pool order included (``x1`` and ``x01``)."""
    rng = seeded(341)
    for _ in range(300):
        names = tuple(rng.sample(_GEN_NAMES, rng.randint(1, 7)))
        want = tuple(names.index(str(s)) for s in _sort_gens([sp.Symbol(n) for n in names]))
        assert zpoly.sympy_gen_order(names) == want, names


def test_printer_matches_sstr_lex():
    """``render_poly`` writes seeded polynomials with int and fractional
    coefficients, over variables in any order, as sympy's
    ``sstr(expr, order="lex")`` does, with ``^`` for ``**``."""
    rng = seeded(370)
    for _ in range(300):
        names = tuple(rng.sample(_GEN_NAMES, rng.randint(1, 4)))
        terms = {e: Fraction(c, rng.choice([1, 1, 2, 3, 6]))
                 for e, c in random_poly(rng, len(names)).items()}
        expr = sp.Add(*(sp.Rational(q.numerator, q.denominator)
                        * sp.Mul(*(sp.Symbol(s) ** k for s, k in zip(names, e)))
                        for e, q in unpacked(terms, len(names)).items()))
        want = sp.sstr(expr, order="lex").replace("**", "^")
        assert zpoly.render_poly(names, terms) == want, terms


@pytest.mark.parametrize("digits", [1, 599, 600, 601, 1200, 4300, 4301, 6000])
def test_a_number_prints_as_str_writes_it_without_the_digit_limit(digits):
    """``render_number`` writes ints and Fractions of any length as ``str``
    does with the interpreter's limit lifted, zero blocks mid-value and the
    edges of a 600-digit block included; the limit stays in force around it."""
    rng = seeded(371 + digits)
    values = [10 ** digits - 1, 10 ** (digits - 1), rng.randrange(10 ** (digits - 1), 10 ** digits)]
    values.append(values[2] * 10 ** 1200 + 7)
    values += [-v for v in values]
    values += [Fraction(v, 10 ** 650 + 1) for v in values] + [Fraction(3, values[0])]
    with unlimited_int_digits():
        want = [str(v) for v in values]
    assert [zpoly.render_number(v) for v in values] == want
    assert zpoly.render_number(0) == "0" and zpoly.render_number(Fraction(-1, 2)) == "-1/2"


def _random_exps(rng, n):
    """An exponent tuple in n variables: the first degree of any size, each
    later one below the bound of its field, zeros and both ends included."""
    def degree(limit):
        return rng.choice([0, 1, rng.randrange(limit), limit - 1])

    return (degree(2**70), *(degree(zpoly.BOUND) for _ in range(n - 1)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_keys_round_trip_in_lex_order(n):
    """A key unpacks to the tuple it packs, integer order of the keys is lex
    order of the tuples, the key of a product of monomials is the sum of
    their keys, and in one variable the key is the degree."""
    rng = seeded(380 + n)
    tuples = [_random_exps(rng, n) for _ in range(300)]
    keys = [zpoly.pack(e) for e in tuples]
    assert [zpoly.unpack(k, n) for k in keys] == tuples
    assert sorted(keys) == [zpoly.pack(e) for e in sorted(tuples)]
    assert not any(k & zpoly.guard(n) for k in keys)
    for a, b in zip(tuples, tuples[1:]):
        low = tuple(min(i, j) // 2 for i, j in zip(a, b))
        assert zpoly.pack(a) + zpoly.pack(low) == zpoly.pack(tuple(map(sum, zip(a, low))))
    if n == 1:
        assert keys == [e for (e,) in tuples]


def test_a_degree_that_would_carry_raises(monkeypatch):
    """In two variables a degree of y reaching 2^31 raises InvalidArgument in
    every product route (body times body, a table product, a product over a
    denominator, a sum over two denominators, a quotient, a derivative of a
    quotient, a monomial multiple), before the gcd sees the key, and in
    from_coefficients; 2^31 - 1 is exact, and so is any degree of x, the
    first variable."""
    cancel = scalars.cancel_common_factor

    def guarded(terms, den, n):
        assert not any(e & zpoly.guard(n) for p in [den, *terms.values()] for e in p)
        return cancel(terms, den, n)

    monkeypatch.setattr(scalars, "cancel_common_factor", guarded)
    pool = GeneratorPool(["x", "y"], ["th1", "th2"])
    xx, yy, th1, th2 = (pool.generator(n) for n in ("x", "y", "th1", "th2"))
    half = yy ** 2**30
    assert list((yy ** (zpoly.BOUND - 1)).rational_coefficients()) == [((), (0, 2**31 - 1), 1)]
    for product in (lambda: half * half, lambda: (half * th1) * (half * th2 + 1),
                    lambda: half / (xx + 1) * half, lambda: 1 / (half + 1) + 1 / (half + 2),
                    lambda: yy ** 2**31, lambda: (yy ** (zpoly.BOUND - 1) + th1) * (yy + th2),
                    lambda: (1 / (half + 2)) / (half + 1), lambda: (1 / (half + xx)).partial("x"),
                    lambda: list(pool.monomial_multiple((), (0, 2**30), half))):
        with pytest.raises(InvalidArgument, match="a degree in y reaches 2"):
            product()
    with pytest.raises(InvalidArgument):
        pool.from_coefficients([((), (0, 2**31), 1)])
    big = xx ** 2**40 * yy ** (zpoly.BOUND - 1)
    assert list((big * xx).rational_coefficients()) == [((), (2**40 + 1, 2**31 - 1), 1)]
    one = GeneratorPool(["x"], ["th1"]).even("x")
    assert list((one ** 2**70 * one).rational_coefficients()) == [((), (2**70 + 1,), 1)]


def test_the_degree_bound_rejects_a_non_square_early(monkeypatch):
    """4 x^2 + 16 x y^3 is no square: the root's second term, 4 y^3, has a
    degree in y above half of 3, so the first step rejects it.  Without the
    bound a second step would meet x^-1 y^6 and reject there, since the
    keys left fall in lex order and the loop ends either way."""
    calls = count_calls(monkeypatch, zpoly.poly_root, "_fits")
    order = zpoly.name_order(("x", "y"))
    assert zpoly.poly_root(packed({(2, 0): 4, (1, 3): 16}), order) is None
    assert len(calls) == 1
    calls.clear()
    assert zpoly.poly_root(packed({(2, 0): 4, (1, 3): 16, (0, 6): 16}), order) == packed(
        {(1, 0): 2, (0, 3): 4})
    assert len(calls) == 1


@pytest.mark.parametrize("n, den, num", [
    (1, {(2,): 3}, {(0,): 1, (1,): 1}),
    (2, {(1, 2): 1}, {(1, 0): 1, (0, 1): 1}),
], ids=["(1 + x)/(3 x^2)", "(x + y)/(x y^2)"])
def test_a_single_term_ends_the_gcd(monkeypatch, n, den, num):
    """Once the joint content and monomial are gone, a one-term polynomial
    c x^e has only +-x^f times divisors of c as divisors, so nothing
    cancels: the table comes back with no heuristic attempt and no sympy
    gcd."""
    def fail(*args):
        raise AssertionError("the exact gcd ran")

    monkeypatch.setattr(zpoly, "_HEURISTIC_TRIES", 0)
    monkeypatch.setattr(zpoly, "_cancel_by_sympy_gcd", fail)
    terms = {(): packed(num)}
    assert zpoly.cancel_common_factor(terms, packed(den), n) == (terms, packed(den))


def _box(rng, n):
    """n seeded rational intervals (a, b) with a < b."""
    box = []
    for _ in range(n):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        box.append((a, a + Fraction(rng.randint(1, 6), rng.randint(1, 3))))
    return box


def _value(p, point):
    """p at a rational point, exactly."""
    common = math.lcm(*(Fraction(q).denominator for q in point))
    num, den = zpoly.evaluate(p, [int(q * common) for q in point], common)
    return Fraction(num, den)


def _grid(rng, box):
    """The product grid of each interval's ends and five seeded rational
    points inside it."""
    axes = [sorted({a, b, *(a + (b - a) * Fraction(rng.randint(1, 23), 24) for _ in range(5))})
            for a, b in box]
    return itertools.product(*axes)


class TestBoxSign:
    """``zpoly.box_sign``: every verdict is checked by exact evaluation."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_verdict_holds_exactly(self, n):
        """A proven sign holds at every point of a seeded rational grid; a
        zero witness is a zero, a pair has opposite signs, a non-strict
        witness is negative, and every witness lies in the box.  Half the
        draws get a factor that vanishes at the box's first cut, once or
        twice, so that zeros at cut points and sign changes occur."""
        rng = seeded(770 + n)
        kinds = set()
        for _ in range(120):
            box = _box(rng, n)
            p = random_poly(rng, n, degree=2)
            mid = (box[0][0] + box[0][1]) / 2
            cut = packed({(1,) + (0,) * (n - 1): mid.denominator, (0,) * n: -mid.numerator})
            p = [p, zpoly.pmul(p, cut), zpoly.pmul(p, zpoly.pmul(cut, cut))][rng.randint(0, 2)]
            for strict in (True, False):
                sign, points = zpoly.box_sign(p, box, strict)
                assert all(a <= q <= b for point in points for q, (a, b) in zip(point, box))
                values = [_value(p, point) for point in points]
                if sign:
                    assert not points and (strict or sign == 1)
                    assert all(_value(p, point) * sign > 0 if strict else _value(p, point) >= 0
                               for point in _grid(rng, box))
                elif len(points) == 2:
                    assert strict and values[0] * values[1] < 0
                elif points:
                    assert values[0] == 0 if strict else values[0] < 0
                kinds.add((strict, bool(sign), len(points)))
        assert {(True, True, 0), (True, False, 1), (True, False, 2), (False, True, 0),
                (False, False, 1)} <= kinds

    def test_one_variable_agrees_with_sturm(self):
        """In one variable a proven sign means no root on the closed
        interval, and a witness or an undecided test (no points) at least
        one, as sympy's Sturm count ``count_roots`` says; each occurs."""
        x = sp.Symbol("x")
        rng = seeded(781)
        verdicts = set()
        for _ in range(200):
            p = random_poly(rng, 1, terms=4, degree=4)
            box = _box(rng, 1)
            (a, b), = box
            roots = _poly(p, (x,)).count_roots(sp.Rational(a.numerator, a.denominator),
                                               sp.Rational(b.numerator, b.denominator))
            sign, points = zpoly.box_sign(p, box)
            assert (roots == 0) == bool(sign), (p, box, roots, points)
            verdicts.add(len(points) if not sign else "proven")
        assert verdicts == {"proven", 0, 1, 2}

    @pytest.mark.parametrize("p, box, strict, want", [
        ({2: 1}, [(-1, 1)], True, (0, ((0,),))),
        ({1: 3, 0: -1}, [(0, 1)], True, (0, ((0,), (1,)))),
        ({2: 1, 0: 1}, [(-1, 1)], True, (1, ())),
        ({1: -1, 0: -1}, [(0, 1)], True, (-1, ())),
        ({1: 1}, [(0, 1)], False, (1, ())),
        ({1: -2, 0: 1}, [(0, 1)], False, (0, ((1,),))),
        ({}, [(0, 1)], True, (0, ((0,),))),
        ({}, [(0, 1)], False, (1, ())),
        (packed({(0, 0): 8, (0, 2): 2, (2, 2): -1}), [(1, 2), (1, 2)], True,
         (0, ((2, 2),))),
    ], ids=["zero_at_the_cut", "sign_change", "positive_with_a_zero_coefficient", "negative",
            "face_of_the_box", "negative_at_a_vertex", "zero_strict", "zero_non_strict",
            "zero_at_a_corner"])
    def test_verdicts(self, p, box, strict, want):
        assert zpoly.box_sign(p, box, strict) == want

    def test_an_undecided_sign_stays_within_the_budget(self, monkeypatch):
        """(3x - 1)^2 on [0, 1] has its double root at 1/3, which no
        midpoint cut hits, and every box around it has a negative
        Bernstein coefficient: both tests examine exactly SIGN_BOXES boxes
        and end undecided.  A table past SIGN_TABLE coefficients is
        undecided before any box is examined."""
        calls = count_calls(monkeypatch, zpoly.box_sign, "_bernstein")
        square = {2: 9, 1: -6, 0: 1}
        for strict in (True, False):
            calls.clear()
            assert zpoly.box_sign(square, [(0, 1)], strict) == (0, ())
            assert len(calls) == zpoly.SIGN_BOXES
        calls.clear()
        plane = packed({(2, 0): 9, (1, 0): -6, (0, 2): 9, (0, 1): -6, (0, 0): 2})
        assert zpoly.box_sign(plane, [(0, 1), (0, 1)]) == (0, ())
        assert len(calls) == zpoly.SIGN_BOXES
        calls.clear()
        assert zpoly.box_sign({zpoly.SIGN_TABLE: 1, 0: 1}, [(0, 1)]) == (0, ())
        assert calls == []
