"""The integer-polynomial kernel against sympy's ``Poly``: ring arithmetic,
evaluation at rational points, square roots and the printer's orders."""

import math
from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.polyutils import _sort_gens

from supergeo import zpoly

from conftest import random_poly, seeded


def _poly(p, gens):
    """A kernel polynomial (or an int) as sympy's ``Poly`` over ``ZZ``."""
    if type(p) is int:
        return sp.Poly(p, *gens, domain=sp.ZZ)
    return sp.Poly.from_dict(p, gens, domain=sp.ZZ)


def _kernel(poly):
    """A sympy ``Poly`` over ``ZZ`` as a kernel polynomial."""
    return {e: int(c) for e, c in poly.as_dict().items()}


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
        assert zpoly.pdiff(p, k) == _kernel(P.diff(gens[k]))
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
    root = {(0,) * len(gens): r}
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
            content = {(0,) * n: rng.choice([1, 1, 4, 9, 2, 12])}
            cases = [zpoly.pmul(square, content), zpoly.pneg(square),
                     zpoly.padd(square, random_poly(rng, n, 1)),
                     zpoly.pmul(q, random_poly(rng, n)),
                     zpoly.pmul(square, {(1,) + (0,) * (n - 1): 1}),
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
                        for e, q in terms.items()))
        want = sp.sstr(expr, order="lex").replace("**", "^")
        assert zpoly.render_poly(names, terms) == want, terms
