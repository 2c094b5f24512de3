"""The Grassmann scalar ring: products, derivatives, inverses, roots, Berezin."""

import itertools
import math
import operator
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys import densebasic
from sympy.polys.domains import QQ, ZZ
from sympy.polys.fields import FracField
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing

from supergeo import Chart, GeneratorPool, Superfunction, scalars, zpoly
from supergeo.errors import (
    FleshInTopCoefficient,
    InexactCoefficient,
    InvalidArgument,
    NonInvertible,
    NotASquare,
    ParityError,
    PoolMismatch,
    SupergeoError,
    UnknownGenerator,
)

from supergeo.parsing import parse_expression

from conftest import count_calls, packed, random_poly, random_superfunction, seeded, unpacked

x = sp.Symbol("x")


@pytest.fixture
def pool():
    return GeneratorPool(["x"], ["th1", "th2"], ["lam1"])


def test_pool_rejects_duplicate_names():
    """A repeated name, among the evens or across evens and odds, is an
    InvalidArgument: a SupergeoError that is still a ValueError."""
    for even, odd in [(["x", "x"], []), (["x"], ["x"])]:
        with pytest.raises(SupergeoError, match="generator names must be unique") as err:
            GeneratorPool(even, odd)
        assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("build, shown", [
    (lambda: GeneratorPool("xy", "ab"), "not the str 'xy'"),
    (lambda: GeneratorPool(["x"], ["a", "b"], "lam"), "not the str 'lam'"),
    (lambda: Chart(["x"], "th", {"x": (0, 1)}), "not the str 'th'"),
    (lambda: GeneratorPool([1], []), "generator name 1 is not a str"),
    (lambda: Chart(["x"], ["a", sp.Symbol("b")], {"x": (0, 1)}), "name b is not a str"),
    (lambda: GeneratorPool([""], []), "name '' is not a str of the form"),
    (lambda: GeneratorPool(["x y"], []), "name 'x y' is not a str of the form"),
    (lambda: GeneratorPool(["1x"], ["+"]), "name '1x' is not a str of the form"),
    (lambda: Chart(["x"], ["th'"], {"x": (0, 1)}), "name \"th'\" is not a str of the form"),
    (lambda: GeneratorPool(5, []), "not the int 5"),
    (lambda: Chart(["x"], [], {"x": (0, 1)}, flesh=5), "not the int 5"),
], ids=["str-evens-and-odds", "str-flesh", "chart-str-odds", "int-name", "chart-symbol-name",
        "empty-name", "name-with-space", "digit-first-and-operator", "chart-prime-name",
        "int-evens", "chart-int-flesh"])
def test_names_are_a_sequence_of_str(build, shown):
    """A bare str is not a sequence of names (it would give one generator
    per character), nor is a value that is not iterable; and every name is
    a str that the parser reads as one identifier, so that an expression can
    name every generator."""
    with pytest.raises(InvalidArgument, match=shown):
        build()


def test_pool_reads_each_name_sequence_once():
    """One-shot iterables of names give the pool and the chart that lists
    give; the odd coordinates are not counted from a consumed iterator."""
    pool = GeneratorPool(iter(["x"]), iter(["a", "b"]), iter(["lam"]))
    assert (pool.even_names, pool.odd_names) == (("x",), ("a", "b", "lam"))
    assert pool.n_coordinate_odd == 2
    chart = Chart(iter(["x"]), iter(["a", "b"]), {"x": (0, 1)})
    assert (chart.n, chart.two_m, chart.pool.n_flesh) == (1, 2, 0)


def test_every_name_a_pool_takes_parses():
    """Underscores and digits after the first character are names the
    parser reads back as the pool's generators."""
    pool = GeneratorPool(["_x0", "X_1"], ["th_1", "_"])
    f = parse_expression("_x0 X_1 th_1 _ + 2", pool)
    assert f == pool.even("_x0") * pool.even("X_1") * pool.odd("th_1") * pool.odd("_") + 2


def _ring(pool):
    """sympy's ``ZZ[x_1..x_n]`` over the pool's even symbols."""
    return PolyRing(pool.even_symbols, ZZ, lex)


def test_pools_with_equal_even_names_share_the_ring():
    """A pool's sympy surface depends on its even names alone."""
    a = GeneratorPool(["x"], ["th1"])
    b = GeneratorPool(["x"], ["e1", "e2"], ["lam"])
    assert a.even_symbols == b.even_symbols == (x,)
    assert _ring(a) == _ring(b)
    assert _ring(GeneratorPool(["y"], ["th1"])) != _ring(a)


class TestExactInputGuard:
    def test_python_float_rejected(self, pool):
        with pytest.raises(InexactCoefficient):
            pool.scalar(0.5)

    def test_sympy_float_rejected(self, pool):
        with pytest.raises(InexactCoefficient):
            pool.scalar(sp.Float("0.5"))
        with pytest.raises(InexactCoefficient):
            pool.scalar(sp.Float("0.5") * x)

    def test_foreign_symbol_rejected(self, pool):
        with pytest.raises(UnknownGenerator):
            pool.scalar(sp.Symbol("zz"))

    def test_odd_name_as_coefficient_rejected(self, pool):
        with pytest.raises(UnknownGenerator):
            pool.scalar(sp.Symbol("th1"))

    def test_qq_element_rejected(self, pool):
        with pytest.raises(InexactCoefficient):
            pool.scalar(QQ(1, 2))

    def test_irrational_rejected(self, pool):
        with pytest.raises(InexactCoefficient):
            pool.scalar(sp.sqrt(2))

    def test_exact_values_accepted(self, pool):
        from fractions import Fraction

        half = pool.scalar(sp.Rational(1, 2))
        assert pool.scalar(Fraction(1, 2)) == half
        assert pool.one() / 2 == half
        assert pool.scalar(x / 2) == pool.even("x") * half
        assert pool.scalar(x**2 / 3) == pool.even("x") ** 2 / 3


class TestPolynomialInputThroughTheRing:
    def test_polynomial_stored_as_poly(self):
        """x/2 + y^3 is the integer numerator x + 2 y^3 over den 2."""
        y = sp.Symbol("y")
        f = GeneratorPool(["x", "y"], ["th1", "th2"]).scalar(x / 2 + y**3)
        assert f.is_polynomial()
        assert (f.terms, f.den) == ({(): packed({(1, 0): 1, (0, 3): 2})}, 2)

    @pytest.mark.parametrize("value", [1 / x, x**-2])
    def test_negative_powers_stored_as_fractions(self, pool, value):
        f = pool.scalar(value)
        assert not f.is_polynomial()
        k = sp.degree(sp.denom(value), x)
        assert (f.terms, f.den) == ({(): packed({(0,): 1})}, packed({(k,): 1}))

    def test_quotients_cancel(self, pool):
        assert pool.scalar((x + 1) / (x + 1)) == pool.one()
        f = pool.scalar((x**2 - 1) / (x - 1))
        assert f.is_polynomial()
        assert f == pool.scalar(x + 1)

    @pytest.mark.parametrize(
        "value", [sp.sqrt(2) * x, sp.pi * x, sp.I * x, sp.exp(x)]
    )
    def test_inexact_still_rejected(self, pool, value):
        with pytest.raises(InexactCoefficient):
            pool.scalar(value)


def _field(pool):
    """sympy's ``QQ(x_1..x_n)`` over the pool's even symbols."""
    return FracField(pool.even_symbols, QQ, lex)


def _field_element(f, mono=()):
    """The coefficient of the odd monomial ``mono`` as an element of sympy's
    fraction field, built from its numerator and ``den``."""
    ring, n = _field(f.pool).ring, f.pool.n_even
    den = ring(f.den) if type(f.den) is int else ring.from_dict(unpacked(f.den, n))
    return _field(f.pool).new(ring.from_dict(unpacked(f.terms.get(mono, {}), n)), den)


_Y = sp.Symbol("y")

# expression -> None when the lift must equal the oracle, else the exception
LIFT_TABLE = [
    (x / 2, None),
    ((x**2 - 1) / (x - 1), None),
    ((x + 1) / (x + 1), None),
    (1 / x, None),
    (x**-2, None),
    ((x + _Y) ** 3, None),
    (0 * x, None),
    (x - x, None),
    ((x + 1) ** -2 * (x - _Y) / 3, None),
    (sp.Pow(x, 0, evaluate=False), None),
    (sp.Mul(2, x - x * (x + 1) + x**2, evaluate=False), None),
    (sp.Mul(x, x - x * (x + 1) + x**2, evaluate=False), None),
    (sp.Float(0.5) * x, InexactCoefficient),
    (sp.sqrt(2) * x, InexactCoefficient),
    (sp.pi, InexactCoefficient),
    (sp.I * x, InexactCoefficient),
    (sp.exp(x), InexactCoefficient),
    (sp.sqrt(x), InexactCoefficient),
    (x**x, InexactCoefficient),
    (2**x, InexactCoefficient),
    (sp.Mul(x - x * (x + 1) + x**2, sp.sqrt(2), evaluate=False), InexactCoefficient),
    (sp.Float(0.5) * sp.Symbol("zz"), UnknownGenerator),
    (sp.Symbol("zz"), UnknownGenerator),
    (sp.Symbol("th1"), UnknownGenerator),
    (sp.Symbol("x", real=True), UnknownGenerator),
]


class TestNativeLift:
    """``scalar(Expr)`` folds the expression in the ring itself; sympy's
    ``from_expr`` converters are the oracle."""

    @pytest.fixture
    def pool_xy(self):
        return GeneratorPool(["x", "y"], ["th1", "th2"])

    @pytest.mark.parametrize("expr, error", LIFT_TABLE,
                             ids=[str(expr) for expr, _ in LIFT_TABLE])
    def test_lift_matches_the_sympy_converters(self, pool_xy, expr, error):
        if error is not None:
            with pytest.raises(error):
                pool_xy.scalar(expr)
            return
        want = _field(pool_xy).from_expr(expr)  # sympy's own converter
        lifted = pool_xy._lift(expr)  # canonical, zero included
        _assert_canonical(lifted)
        assert _field_element(lifted) == want
        assert lifted.is_polynomial() == want.denom.is_ground
        assert pool_xy.scalar(expr) == lifted

    def test_lift_never_calls_the_sympy_converters(self, pool_xy, monkeypatch):
        def blocked(*args, **kwargs):
            raise AssertionError("scalar() went through from_expr")

        monkeypatch.setattr(PolyRing, "from_expr", blocked)
        monkeypatch.setattr(FracField, "from_expr", blocked)
        for expr, error in LIFT_TABLE:
            if error is None:
                pool_xy.scalar(expr)
            else:
                with pytest.raises(error):
                    pool_xy.scalar(expr)


def test_eq_with_foreign_operand(pool):
    one = pool.one()
    assert not (one == None)  # noqa: E711
    assert one != None  # noqa: E711
    assert not (one == "1")
    assert not (one == object())
    assert not (one == 1.0)
    assert one == 1


def test_anticommutation(pool):
    t1, t2 = pool.odd("th1"), pool.odd("th2")
    assert t2 * t1 == -(t1 * t2)


def test_nilpotency(pool):
    t1, t2 = pool.odd("th1"), pool.odd("th2")
    assert ((t1 * t2) * t1).is_zero()
    assert (t1 * t1).is_zero()


def test_nilpotent_square_drops(pool):
    xx = pool.even("x")
    t12 = pool.odd("th1") * pool.odd("th2")
    assert (xx + t12) * (xx - t12) == pool.scalar(x**2)


OPERATIONS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _operand(pool, kind):
    """Zero, body-only (constant or even generator) and general operands,
    so every short-circuit of the ring operations is reached."""
    even, odd = pool.even_names[0], pool.odd_names[:2]
    if kind == "zero":
        return pool.zero()
    if kind == "constant":
        return pool.scalar(3)
    if kind == "even":
        return pool.even(even)
    return pool.odd(odd[0]) * pool.odd(odd[1]) + pool.odd(odd[0]) * 2 + 1


@pytest.mark.parametrize("right", ["zero", "constant", "even", "general"])
@pytest.mark.parametrize("left", ["zero", "constant", "even", "general"])
@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_pool_mismatch_raises(pool, op, left, right):
    """The pool check comes before every short-circuit: zero and body-only
    operands of another pool are rejected, those of an equal pool accepted."""
    apply = OPERATIONS[op]
    a, b = _operand(pool, left), _operand(pool, right)
    twin = GeneratorPool(["x"], ["th1", "th2"], ["lam1"])
    assert twin is not pool
    assert apply(a, _operand(twin, right)) == apply(a, b)
    assert apply(_operand(twin, left), b) == apply(a, b)
    different = GeneratorPool(["y"], ["e1", "e2"])
    with pytest.raises(PoolMismatch):
        apply(a, _operand(different, right))
    with pytest.raises(PoolMismatch):
        apply(_operand(different, left), b)


class TestPartial:
    def test_first_position(self, pool):
        t1, t2 = pool.odd("th1"), pool.odd("th2")
        assert (t1 * t2).partial("th1") == t2

    def test_left_convention_sign(self, pool):
        # derived via the Leibniz rule on th1 * th2
        t1, t2 = pool.odd("th1"), pool.odd("th2")
        assert (t1 * t2).partial("th2") == -t1

    def test_even_partial(self, pool):
        f = pool.scalar(x**2) * pool.odd("th1")
        assert f.partial("x") == pool.scalar(2 * x) * pool.odd("th1")

    def test_unknown_variable(self, pool):
        with pytest.raises(UnknownGenerator):
            pool.one().partial("nope")

    def test_flesh_derivative_forbidden(self, pool):
        with pytest.raises(UnknownGenerator):
            pool.odd("lam1").partial("lam1")

    @pytest.mark.parametrize("name", ["x", "th1", "th2"])
    def test_derivative_kept_on_the_instance(self, pool, name):
        rng = seeded(102)
        for parity in (0, 1, None):
            f = random_superfunction(pool, rng, parity) * pool.scalar(1 / (x + 2))
            d = f.partial(name)
            assert f.partial(name) is d
            fresh = Superfunction(pool, f.terms, f.den)
            assert fresh.partial(name) == d
            _assert_canonical(d)

    def test_failed_derivative_is_not_kept(self, pool):
        f = pool.odd("lam1") + pool.odd("th1")
        for _ in range(2):
            with pytest.raises(UnknownGenerator):
                f.partial("lam1")
        assert f.partial("th1") == pool.one()

    def test_graded_leibniz_on_random_pairs(self, pool):
        rng = seeded(101)
        names = ["x", "th1", "th2"]
        for _ in range(30):
            pf = rng.randint(0, 1)
            f = random_superfunction(pool, rng, pf)
            g = random_superfunction(pool, rng, None)
            for v in names:
                vp = 0 if v == "x" else 1
                sign = -1 if vp * pf else 1
                lhs = (f * g).partial(v)
                rhs = f.partial(v) * g + f * g.partial(v) * sign
                assert (lhs - rhs).is_zero()


class TestInvert:
    def test_rational(self, pool):
        assert pool.scalar(2).invert() == pool.scalar(sp.Rational(1, 2))
        assert pool.even("x").invert() == pool.scalar(1 / x)

    def test_nilpotent_correction(self, pool):
        f = pool.one() + pool.odd("th1") * pool.odd("th2")
        assert f.invert() == pool.one() - pool.odd("th1") * pool.odd("th2")

    def test_zero_body_raises(self, pool):
        with pytest.raises(NonInvertible):
            pool.odd("th1").invert()

    def test_roundtrip_random(self, pool):
        rng = seeded(102)
        for _ in range(20):
            f = random_superfunction(pool, rng, 0)
            if sp.cancel(f.body()) == 0:
                f = f + pool.scalar(3)
            assert (f * f.invert()) == pool.one()


def field_inverse(f):
    """1/f by the plain Neumann series with the body inverted in sympy's
    fraction field: 1/f = (1/b) * sum_k (-t)^k with t = n/b, written out
    independently of the division kernel."""
    pool = f.pool
    binv = 1 / _field_element(f.body_part())
    num, den = binv.numer, binv.denom
    lcm = math.lcm(*(int(c.denominator) for c in list(num.values()) + list(den.values())))
    num, den = ({e: int(c * lcm) for e, c in p.items()} for p in (num, den))
    # num and den are coprime in sympy's field, so _make only normalises them
    binv = scalars._make(pool, {(): packed(num)},
                         packed(den) if any(map(any, den)) else den[(0,) * pool.n_even])
    minus_t = -(f.nilpotent_part() * binv)
    out = power = pool.one()
    while True:
        power = power * minus_t
        if power.is_zero():
            return out * binv
        out = out + power


DIVISION_CHARTS = {
    "(1|2)+flesh": (["x"], ["th1", "th2"], ["eta"]),
    "(2|2)+flesh": (["x", "y"], ["th1", "th2"], ["eta"]),
    "(2|4)": (["x", "y"], ["th1", "th2", "th3", "th4"], []),
}


@pytest.fixture
def cancel_calls(monkeypatch):
    """Every gcd chain that cancels a result against its denominator."""
    return count_calls(monkeypatch, scalars._make, "cancel_common_factor")


class TestDivisionKernel:
    @pytest.mark.parametrize("chart", sorted(DIVISION_CHARTS))
    @pytest.mark.parametrize("body", ["ground", "polynomial", "fraction", "reciprocal"])
    def test_quotients_match_the_field_route(self, chart, body):
        pool = GeneratorPool(*DIVISION_CHARTS[chart])
        rng = seeded(sum(map(ord, chart + body)))
        xx = pool.even("x")
        bodies = {
            "ground": pool.scalar(4),
            "polynomial": xx * xx + 2 * xx + 3,
            "fraction": pool.scalar(1 / (x + 2)) + 1,
            "reciprocal": pool.scalar(2 / (x + 2)),
        }
        for _ in range(3):
            f = bodies[body] + random_superfunction(pool, rng, 0).nilpotent_part()
            inv = field_inverse(f)
            assert f.invert() == inv
            assert f * f.invert() == pool.one()
            assert 3 / f == inv * 3
            assert f**-2 == inv * inv
            for parity in (0, 1):
                g = random_superfunction(pool, rng, parity)
                g = g + pool.scalar(1 / (x + 2)) * g.nilpotent_part()
                assert g / f == g * inv
                assert (g / f) * f == g
            for r in (inv, f.invert(), 3 / f, f**-2, g / f):
                _assert_canonical(r)

    @pytest.mark.parametrize("divisor", ["zero", "odd", "nilpotent even"])
    def test_divisor_without_body_raises(self, pool, divisor):
        th1, th2 = pool.odd("th1"), pool.odd("th2")
        d = {"zero": pool.zero(), "odd": th1, "nilpotent even": th1 * th2}[divisor]
        g = pool.even("x") + th1
        for divide in (lambda: d.invert(), lambda: g / d, lambda: 3 / d,
                       lambda: d**-1, lambda: d**-2):
            with pytest.raises(NonInvertible, match="body is zero"):
                divide()

    def test_constant_numerator_divisor_over_shared_den(self, pool):
        """A divisor whose body numerator is constant still cancels the
        quotient: its ``den`` may share a factor with the dividend's."""
        xx = pool.even("x")
        th12 = pool.odd("th1") * pool.odd("th2")
        for q, want in (((1 / (xx + 1)) / (2 / (xx + 1)), pool.scalar(Fraction(1, 2))),
                        ((1 / xx) / (1 / xx), pool.one()),
                        ((th12 + 1) / xx / ((th12 + 3) / (xx * (xx - 1))),
                         (xx - 1) * (th12 * Fraction(2, 9) + Fraction(1, 3))),
                        ((1 / (xx + 1) ** 2 + th12 / (xx + 1)).sqrt(),
                         1 / (xx + 1) + th12 * Fraction(1, 2))):
            _assert_canonical(q)
            assert q == want and q.is_polynomial() == want.is_polynomial()

    def test_constant_divisor_never_cancels(self, cancel_calls):
        pool = GeneratorPool(["x", "y"], ["th1", "th2"])
        rng = seeded(131)
        th12 = pool.odd("th1") * pool.odd("th2")
        f = pool.scalar(4) + th12 * 3
        g = random_superfunction(pool, rng, None)
        q, inv, r, s = g / f, f.invert(), 3 / f, f**-2
        assert cancel_calls == []
        assert inv == pool.scalar(Fraction(1, 4)) - th12 * Fraction(3, 16)
        assert q * f == g and r == inv * 3 and s == inv * inv

    def test_polynomial_divisor_cancels_once_per_quotient(self, cancel_calls):
        """The series runs on integer tables; only the quotient meets a gcd."""
        pool = GeneratorPool(["x", "y"], ["th1", "th2"])
        rng = seeded(132)
        xx, yy = pool.even("x"), pool.even("y")
        f = xx + 1 + yy * pool.odd("th1") * pool.odd("th2")
        g = random_superfunction(pool, rng, None) + xx * yy + pool.odd("th2")
        assert cancel_calls == []
        q = g / f
        assert len(cancel_calls) == 1 and len(q.terms) > 1
        assert q * f == g


class TestSqrt:
    def test_one(self, pool):
        assert pool.one().sqrt() == pool.one()

    def test_nilpotent_example(self, pool):
        f = pool.scalar(4) + pool.odd("th1") * pool.odd("th2")
        r = f.sqrt()
        assert r == pool.scalar(2) + pool.odd("th1") * pool.odd("th2") * Fraction(1, 4)
        assert r * r == f

    def test_polynomial_body(self, pool):
        t12 = pool.odd("th1") * pool.odd("th2")
        f = pool.scalar(x**2) + pool.scalar(x**2) * t12
        r = f.sqrt()
        assert r == pool.even("x") * (pool.one() + t12 * Fraction(1, 2))
        assert r * r == f

    def test_odd_rejected(self, pool):
        with pytest.raises(ParityError):
            pool.odd("th1").sqrt()

    def test_non_square_rejected(self, pool):
        with pytest.raises(NotASquare):
            pool.scalar(2).sqrt()
        with pytest.raises(NotASquare):
            pool.even("x").sqrt()

    def test_nonzero_nilpotent_has_no_root(self, pool):
        with pytest.raises(NotASquare, match="a nonzero nilpotent element has no square root"):
            (pool.odd("th1") * pool.odd("th2")).sqrt()

    # (even names, body + th1*th2, pinned render of the root); the root's
    # numerator and denominator lead positively in lex order of the even
    # names sorted by name, whatever their order in the pool
    @pytest.mark.parametrize("even, text, root", [
        ("x y", "(x - y)^2 + th1*th2", "(x - y) + ((1)/(2*x - 2*y))*th1*th2"),
        ("x y", "4/9 (y - x)^2 + th1*th2", "(2*x/3 - 2*y/3) + ((3)/(4*x - 4*y))*th1*th2"),
        ("x y", "1/(x - y)^2 + th1*th2", "((1)/(x - y)) + (x/2 - y/2)*th1*th2"),
        ("x y", "(x + 1)^2/(y - x)^2 + th1*th2", "((x + 1)/(x - y)) + ((x - y)/(2*x + 2))*th1*th2"),
        ("y x", "(y - x)^2 + th1*th2", "(x - y) + ((1)/(2*x - 2*y))*th1*th2"),
        ("y x", "4/9 (x - y)^2 + th1*th2", "(2*x/3 - 2*y/3) + ((3)/(4*x - 4*y))*th1*th2"),
        ("y x", "1/(y - x)^2 + th1*th2", "((1)/(x - y)) + (x/2 - y/2)*th1*th2"),
        ("y x", "(y + 1)^2/(x - y)^2 + th1*th2", "((y + 1)/(x - y)) + ((x - y)/(2*y + 2))*th1*th2"),
        ("x a", "(x - a)^2 + th1*th2", "(a - x) + ((-1)/(-2*a + 2*x))*th1*th2"),
        ("x a", "4/9 (a - x)^2 + th1*th2", "(2*a/3 - 2*x/3) + ((-3)/(-4*a + 4*x))*th1*th2"),
        ("x a", "1/(x - a)^2 + th1*th2", "((-1)/(-a + x)) + (a/2 - x/2)*th1*th2"),
        ("x a", "(x + 1)^2/(a - x)^2 + th1*th2", "((-x - 1)/(-a + x)) + ((a - x)/(2*x + 2))*th1*th2"),
        ("b a", "(b - a)^2 + th1*th2", "(a - b) + ((1)/(2*a - 2*b))*th1*th2"),
        ("b a", "4/9 (a - b)^2 + th1*th2", "(2*a/3 - 2*b/3) + ((3)/(4*a - 4*b))*th1*th2"),
        ("b a", "1/(b - a)^2 + th1*th2", "((1)/(a - b)) + (a/2 - b/2)*th1*th2"),
        ("b a", "(b + 1)^2/(a - b)^2 + th1*th2", "((b + 1)/(a - b)) + ((a - b)/(2*b + 2))*th1*th2"),
    ])
    def test_pinned_roots(self, even, text, root):
        pool = GeneratorPool(even.split(), ["th1", "th2"])
        f = parse_expression(text, pool)
        r = f.sqrt()
        assert r.render() == root
        assert r * r == f

    def test_without_even_variables(self):
        pool = GeneratorPool([], ["th1", "th2"])
        r = parse_expression("4/9 + th1*th2", pool).sqrt()
        assert r.render() == "((2)/(3)) + ((3)/(4))*th1*th2"
        with pytest.raises(NotASquare, match="body -4 admits no exact square root"):
            pool.scalar(-4).sqrt()

    def test_square_roundtrip_random(self, pool):
        rng = seeded(103)
        for _ in range(15):
            g = random_superfunction(pool, rng, 0)
            f = g * g + pool.scalar(9)  # keep the body a nonzero square
            f = (g + pool.scalar(3)) * (g + pool.scalar(3))
            if sp.cancel(f.body()) == 0:
                continue
            r = f.sqrt()
            assert r * r == f


class TestBerezinTop:
    def test_convention_case(self, pool):
        assert (pool.odd("th1") * pool.odd("th2")).berezin_top() == 1

    def test_no_top_monomial(self, pool):
        assert pool.scalar(x**2).berezin_top() == 0

    def test_normalisation_sign(self, pool):
        f = pool.even("x") * pool.odd("th2") * pool.odd("th1") * 3
        assert f.berezin_top() == -3 * x

    def test_flesh_in_top_raises(self, pool):
        f = pool.odd("th1") * pool.odd("th2") * pool.odd("lam1")
        with pytest.raises(FleshInTopCoefficient):
            f.berezin_top()


class TestRingProperties:
    def test_supercommutativity(self, pool):
        rng = seeded(104)
        for _ in range(40):
            pf, pg = rng.randint(0, 1), rng.randint(0, 1)
            f = random_superfunction(pool, rng, pf)
            g = random_superfunction(pool, rng, pg)
            sign = -1 if pf * pg else 1
            assert (f * g - g * f * sign).is_zero()

    def test_associativity_distributivity(self, pool):
        rng = seeded(105)
        for _ in range(25):
            f = random_superfunction(pool, rng)
            g = random_superfunction(pool, rng)
            h = random_superfunction(pool, rng)
            assert ((f * g) * h - f * (g * h)).is_zero()
            assert (f * (g + h) - (f * g + f * h)).is_zero()

    def test_parity_adds_under_mul(self, pool):
        rng = seeded(106)
        for _ in range(20):
            pf, pg = rng.randint(0, 1), rng.randint(0, 1)
            f = random_superfunction(pool, rng, pf)
            g = random_superfunction(pool, rng, pg)
            assert (f * g).has_parity((pf + pg) % 2)

    def test_body_is_ring_homomorphism(self, pool):
        rng = seeded(107)
        for _ in range(25):
            f = random_superfunction(pool, rng)
            g = random_superfunction(pool, rng)
            assert sp.cancel((f * g).body() - f.body() * g.body()) == 0


class TestRendering:
    def test_render_sorted_and_roundtrip(self, pool):
        from supergeo.parsing import parse_expression

        rng = seeded(108)
        for _ in range(25):
            f = random_superfunction(pool, rng)
            assert parse_expression(f.render(), pool) == f

    def test_zero_renders_as_zero(self, pool):
        assert pool.zero().render() == "0"

    def test_fraction_signs_independent_of_pool_order(self):
        # the pool orders y before x; printed denominators still lead with
        # a positive coefficient in sympy's own order (x before y)
        pool = GeneratorPool(["y", "x"], ["th1"])
        y = sp.Symbol("y")
        cases = {
            1 / (x - y): "(1)/(x - y)",
            (y - x) / (2 * x + 3 * y): "(-x + y)/(2*x + 3*y)",
            -x / (y**2 - x): "(x)/(x - y^2)",
            (x - 1) / (4 - 2 * y): "(-x + 1)/(2*y - 4)",
            x / 2 + sp.Rational(1, 3): "x/2 + 1/3",
            -y / 3: "(-y)/(3)",
        }
        for expr, text in cases.items():
            f = pool.scalar(expr)
            assert f.render() == f"({text})"
            assert _sympy_render(_field_element(f)) == text


def _sympy_render(c):
    """An element of sympy's fraction field (cancelled by sympy) printed
    through sympy ``Expr`` (``as_expr``, ``fraction`` and ``sstr``): the
    oracle for the native printer behind ``render``."""
    if c.denom.is_ground:
        num, den = sp.fraction(c.numer.quo_ground(c.denom.LC).as_expr())
    else:
        order = zpoly.sympy_gen_order(tuple(map(str, c.field.symbols)))
        lc = zpoly.leading_coefficient(packed(c.denom), order)
        num, den = (c.numer, c.denom) if lc > 0 else (-c.numer, -c.denom)
        num, den = num.as_expr(), den.as_expr()
    ns = sp.sstr(num, order="lex").replace("**", "^")
    if den == 1:
        return ns
    ds = sp.sstr(den, order="lex").replace("**", "^")
    return f"({ns})/({ds})"


def _random_polynomial(pool, rng, max_terms):
    """A body-only superfunction: a sum of up to ``max_terms`` random terms
    with exponents up to 3 and small rational coefficients of either sign."""
    p = pool.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = pool.scalar(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 4))))
        for name in pool.even_names:
            term = term * pool.even(name) ** rng.choice((0, 0, 1, 2, 3))
        p = p + term
    return p


class TestNativePrinter:
    """``render`` prints coefficients without building ``Expr``; the sympy
    route is the oracle.  The pools order their variables differently by
    name, by sympy's generator sort and by construction."""

    @pytest.mark.parametrize("evens", [["x1", "x2", "x10"], ["y", "x"], ["u", "x"]],
                             ids=" ".join)
    def test_printer_matches_sympy(self, evens):
        pool = GeneratorPool(evens, ["th1"])
        rng = seeded(sum(map(ord, "".join(evens))))
        seen = set()
        samples = [_random_polynomial(pool, rng, 4) for _ in range(300)]
        for _ in range(200):
            num = _random_polynomial(pool, rng, 3)
            den = _random_polynomial(pool, rng, 3)
            if not den.is_zero():
                samples.append(num / den)
        for c in samples:
            if c.is_zero():
                continue
            text = c.render()[1:-1]
            element = _field_element(c)
            assert text == _sympy_render(element), c
            if element.numer.is_ground and element.denom.is_ground:
                seen.add("constant")
            elif not c.is_polynomial():
                seen.add("fraction")
            elif len(element.numer) == 1 and element.denom.LC != 1:
                seen.add("one term over q")
            if text.lstrip("(").startswith("-"):
                seen.add("negative leading term")
            if "^" in text:
                seen.add("power")
        assert seen == {"constant", "fraction", "one term over q",
                        "negative leading term", "power"}


class TestForeignValues:
    """Foreign values at the kernel's edges raise a ``SupergeoError``, and a
    binary operator returns ``NotImplemented`` for an unsupported type."""

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_not_a_coefficient(self, pool, value):
        with pytest.raises(InexactCoefficient):
            pool.scalar(value)
        assert pool.one() != value

    def test_divisor_zero_after_expansion(self, pool):
        with pytest.raises(NonInvertible):
            pool.scalar(1 / (x * (x + 1) - x**2 - x))
        xx = pool.even("x")
        with pytest.raises(NonInvertible):
            pool.one() / (xx * (xx + 1) - xx * xx - xx)

    @pytest.mark.parametrize("point", [(), (Fraction(1), Fraction(2))], ids=["short", "long"])
    def test_body_at_wrong_length(self, pool, point):
        for f in (pool.even("x") + 1, pool.zero()):
            with pytest.raises(SupergeoError):
                f.body_at(point)

    @pytest.mark.parametrize("value", [1.5, "1", None, True, sp.Rational(1, 2)])
    def test_body_at_inexact_value(self, pool, value):
        with pytest.raises(InexactCoefficient):
            (pool.even("x") + 1).body_at([value])

    @pytest.mark.parametrize("k", [0.5, "a", True])
    def test_pow_foreign_exponent(self, pool, k):
        """A bool is not an exponent, as it is no other operand; ``x ** True``
        returned x."""
        th = pool.odd("th1")
        assert th.__pow__(k) is NotImplemented
        with pytest.raises(TypeError):
            th ** k

    @pytest.mark.parametrize("value", ["a", 0.5, True, sp.Rational(1, 2), sp.Integer(1), x],
                             ids=["str", "float", "bool", "sympy-rational", "sympy-integer",
                                  "sympy-symbol"])
    def test_foreign_operands_are_not_implemented(self, pool, value):
        """The arithmetic operators take superfunctions, ints and
        ``Fraction``s; a sympy value enters only through ``scalar``.  For an
        operand of any other type, a sympy number included, each returns
        ``NotImplemented`` from either side, so Python raises ``TypeError``
        and ``==`` is False."""
        f = pool.even("x") + pool.odd("th1") * pool.odd("th2")
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__eq__"):
            assert getattr(f, name)(value) is NotImplemented, name
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(f, value)
            with pytest.raises(TypeError):
                op(value, f)
        assert f != value and not (value == f)

    def test_foreign_operands_import_no_sympy(self):
        """Rejecting a str, float or bool operand, or lifting one through
        ``scalar``, imports no sympy: a fresh interpreter shows it."""
        script = "\n".join([
            "import operator, sys",
            "from supergeo import GeneratorPool",
            "from supergeo.errors import InexactCoefficient",
            "pool = GeneratorPool(['x'], ['th1'])",
            "f = pool.even('x') + pool.odd('th1')",
            "for value in ('a', 0.5, True):",
            "    for op in (operator.add, operator.sub, operator.mul, operator.truediv):",
            "        for args in ((f, value), (value, f)):",
            "            try:",
            "                op(*args)",
            "            except TypeError:",
            "                pass",
            "            else:",
            "                raise AssertionError((op, args))",
            "    assert f != value",
            "    try:",
            "        pool.scalar(value)",
            "    except InexactCoefficient:",
            "        pass",
            "assert 'sympy' not in sys.modules",
        ])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def _coefficients_through_expr(f, op):
    """``op`` applied to each coefficient of ``f`` as a sympy ``Expr`` and
    lifted back through sympy's fraction field."""
    field = _field(f.pool)
    return {m: field.from_expr(op(_field_element(f, m).as_expr())) for m in f.terms}


class TestCanonicalForm:
    """Seeded draws over (2|4) with two flesh generators, mixing polynomial
    and fractional coefficients: identities come back structurally
    identical, and printing, derivatives and substitution agree with the
    same operations done through sympy ``Expr``."""

    @pytest.fixture
    def pool24(self):
        return GeneratorPool(["x", "y"], ["th1", "th2", "th3", "th4"], ["eta1", "eta2"])

    @staticmethod
    def draw(pool, rng, parity=None):
        f = random_superfunction(pool, rng, parity, max_degree=1)
        if rng.random() < 0.7:
            xx, yy = pool.even("x"), pool.even("y")
            den = xx * rng.randint(1, 2) + yy * rng.randint(-1, 1) + rng.randint(1, 3)
            f = f + random_superfunction(pool, rng, parity, max_degree=1) / den
        return f

    def draws(self, pool, seed, n=6):
        rng = seeded(seed)
        for _ in range(n):
            f = self.draw(pool, rng)
            g = self.draw(pool, rng, 0) + rng.choice([2, -3, Fraction(1, 2)])
            if g.has_body():
                yield f, g

    def test_identities_are_structural(self, pool24):
        mixed = set()
        for f, g in self.draws(pool24, 171):
            mixed.add(f.is_polynomial())
            for r in ((f / g) * g, (f + g) - g):
                _assert_canonical(r)
                assert (r.terms, r.den) == (f.terms, f.den)
            h = (g * g).body_part() + pool24.odd("th1") * pool24.odd("eta1") * f.body_part()
            ratio = (g / h) * (h / g)
            assert (ratio.terms, ratio.den) == (pool24.one().terms, 1)
        assert mixed == {True, False}

    def test_render_matches_sympy(self, pool24):
        xx, th = pool24.even("x"), pool24.odd
        joint = xx / (xx + 1) + th("th1") * th("th2") / (xx + 1) ** 2
        assert joint.den == packed({(2, 0): 1, (1, 0): 2, (0, 0): 1})
        assert joint.render() == "((x)/(x + 1)) + ((1)/(x^2 + 2*x + 1))*th1*th2"
        cases = [joint] + [f * g for f, g in self.draws(pool24, 172)]
        for f in cases:
            want = " + ".join(
                f"({_sympy_render(_field_element(f, m))})"
                + "".join("*" + pool24.odd_names[i] for i in m)
                for m in sorted(f.terms, key=lambda m: (len(m), m))
            )
            assert f.render() == want

    def test_partial_and_substitute_through_expr(self, pool24):
        y = sp.Symbol("y")
        xx, yy = pool24.even("x"), pool24.even("y")
        images = {n: pool24.generator(n) for n in pool24.odd_names}
        images.update({"x": yy * 2 + 1, "y": (xx + 3) / (yy + 2)})
        subs = {x: 2 * y + 1, y: (x + 3) / (y + 2)}
        mixed = set()
        for f, _ in self.draws(pool24, 175, 3):
            mixed.add(f.is_polynomial())
            for name, sym in (("x", x), ("y", y)):
                d = f.partial(name)
                _assert_canonical(d)
                want = _coefficients_through_expr(f, lambda e: sp.diff(e, sym))
                assert {m: _field_element(d, m) for m in want} == want
                assert set(d.terms) <= set(want)
            s = f.substitute(images, pool24)
            _assert_canonical(s)
            want = _coefficients_through_expr(
                f, lambda e: sp.cancel(e.subs(subs, simultaneous=True)))
            assert {m: _field_element(s, m) for m in want} == want
            assert set(s.terms) <= set(want)
        assert mixed == {True, False}


class TestSubstitute:
    def test_identity_substitution(self, pool):
        rng = seeded(109)
        images = {n: pool.generator(n) for n in pool.even_names + pool.odd_names}
        for _ in range(10):
            f = random_superfunction(pool, rng)
            assert f.substitute(images, pool) == f

    def test_even_taylor(self, pool):
        # f(x) = x^2 with x -> x + th1 th2: (x + t)^2 = x^2 + 2x t
        t12 = pool.odd("th1") * pool.odd("th2")
        f = pool.scalar(x**2)
        images = {"x": pool.even("x") + t12}
        got = f.substitute(images, pool)
        assert got == pool.scalar(x**2) + pool.scalar(2 * x) * t12

    def test_rational_taylor(self, pool):
        # 1/x with x -> x + th1 th2: 1/x - th1 th2 / x^2
        t12 = pool.odd("th1") * pool.odd("th2")
        f = pool.scalar(1 / x)
        got = f.substitute({"x": pool.even("x") + t12}, pool)
        assert got == pool.scalar(1 / x) - pool.scalar(1 / x**2) * t12

    def test_parity_clash_rejected(self, pool):
        with pytest.raises(ParityError):
            pool.odd("th1").substitute({"th1": pool.even("x")}, pool)

    def test_missing_odd_image_rejected(self, pool):
        f = pool.odd("th1") * pool.odd("th2")
        with pytest.raises(UnknownGenerator, match="no image for odd generator 'th2'"):
            f.substitute({"th1": pool.odd("th1")}, pool)

    def test_even_image_over_another_pool_rejected(self, pool):
        other = GeneratorPool(["x"], ["th1", "th2"])
        with pytest.raises(PoolMismatch, match="image of 'x' lives over another pool"):
            pool.even("x").substitute({"x": other.even("x")}, pool)

    @pytest.mark.parametrize("name, image", [
        ("x", 3), ("x", Fraction(1, 2)), ("th1", 0),
    ], ids=["int", "fraction", "zero-odd"])
    def test_image_that_is_not_a_superfunction_rejected(self, pool, name, image):
        f = pool.generator(name)
        with pytest.raises(InvalidArgument, match=f"image of .* {name!r} must be a Superfunction"):
            f.substitute({name: image}, pool)

    def test_pole_of_a_coefficient_rejected(self, pool):
        f = 1 / (pool.even("x") + 1)
        with pytest.raises(NonInvertible, match="substitution hits a pole"):
            f.substitute({"x": pool.scalar(-1)}, pool)

    def test_substitution_is_homomorphism(self, pool):
        """Ten polynomial even images with a random nilpotent part, then ten
        draws with the rational image x -> (x^2 + th1 th2 + 1)/(x + 1)."""
        rng = seeded(110)
        tpool = GeneratorPool(["u"], ["e1", "e2"])
        xx = pool.even("x")
        rational = (xx * xx + pool.odd("th1") * pool.odd("th2") + 1) / (xx + 1)
        for k in range(20):
            images = {
                "x": xx * xx + random_superfunction(pool, rng, 0, 1) if k < 10 else rational,
                "th1": random_superfunction(pool, rng, 1, 1),
                "th2": random_superfunction(pool, rng, 1, 1),
            }
            f = random_superfunction(tpool, rng)
            g = random_superfunction(tpool, rng)
            sub = lambda h: h.substitute(
                {"u": images["x"], "e1": images["th1"], "e2": images["th2"]}, pool
            )
            assert (sub(f * g) - sub(f) * sub(g)).is_zero()
            assert (sub(f + g) - (sub(f) + sub(g))).is_zero()


def _assert_canonical(f):
    """The representation invariant: odd monomials are increasing index
    tuples, each numerator a nonempty dict of nonzero ints keyed by exponent
    tuples; ``den`` is a positive int, or a polynomial with a non-constant
    term and a positive leading coefficient in lex order of the pool; the
    integer content of the numerators and ``den`` together is 1; and
    ``gcd(den, N_1, ..., N_k) = 1`` in ``Z[x]`` (checked with sympy's ring)."""
    pool = f.pool
    n = pool.n_even
    ints = []
    for mono, p in f.terms.items():
        assert type(mono) is tuple and list(mono) == sorted(set(mono))
        assert all(0 <= i < pool.n_odd for i in mono)
        assert type(p) is dict and p
        assert all(type(e) is int and e >= 0 and not e & zpoly.guard(n) for e in p)
        for exps, c in unpacked(p, n).items():
            assert type(exps) is tuple and len(exps) == n and min(exps, default=0) >= 0
            assert type(c) is int and c
        ints += p.values()
    den = f.den
    if type(den) is int:
        assert den > 0 and (f.terms or den == 1)
        ints.append(den)
    else:
        assert type(den) is dict and any(any(e) for e in unpacked(den, n))
        assert all(type(c) is int and c for c in den.values())
        assert den[max(den)] > 0
        ints += den.values()
        ring = _ring(pool)
        g = ring.from_dict(unpacked(den, n))
        for p in f.terms.values():
            g = g.gcd(ring.from_dict(unpacked(p, n)))
        assert g.is_ground
    assert not f.terms or math.gcd(*ints) == 1


def _assert_body_at_matches_subs(f):
    """body_at agrees with substitution into the body as a sympy Expr, and
    raises NonInvertible where that substitution hits a pole."""
    for q in (Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(5, 7)):
        want = f.body().subs(x, sp.Rational(q.numerator, q.denominator))
        if want.is_finite:
            assert f.body_at((q,)) == sp.Rational(want)
        else:
            with pytest.raises(NonInvertible):
                f.body_at((q,))


class TestCoefficientInvariant:
    def test_operations_on_rational_functions(self, pool):
        rng = seeded(111)
        xx = pool.even("x")

        def rational(parity):
            den = xx + rng.randint(1, 3)
            if rng.random() < 0.5:
                den = den * (xx * rng.randint(1, 2) - rng.randint(1, 3))
            return random_superfunction(pool, rng, parity) / den

        for _ in range(12):
            f = rational(None)
            g = rational(0) + pool.scalar(rng.choice([1, 2, 3])) / (xx + 1)
            images = {
                "x": xx * xx + rational(0) * pool.odd("th1") * pool.odd("th2") + 1,
                "th1": rational(1),
                "th2": random_superfunction(pool, rng, 1),
                "lam1": pool.odd("lam1"),
            }
            results = [f, g, f + g, f - g, f * g, g * f, -f,
                       f.partial("x"), f.partial("th1"), f.partial("th2"),
                       f.substitute(images, pool)]
            if () in g.terms:
                results += [g.invert(), (g * g).sqrt(), f / g]
            for r in results:
                _assert_canonical(r)
                assert parse_expression(r.render(), pool) == r
                _assert_body_at_matches_subs(r)

    def test_body_at_raises_at_a_pole(self, pool):
        f = pool.odd("th1") * pool.odd("th2") + pool.one() / (pool.even("x") - 1)
        assert f.body_at((Fraction(3),)) == Fraction(1, 2)
        assert pool.zero().body_at((Fraction(1),)) == 0
        with pytest.raises(NonInvertible):
            f.body_at((Fraction(1),))

    def test_body_sign_takes_the_denominator_sign(self, pool):
        """On [0, 1] the denominator x - 2 of 1/(x - 2) is negative, and so
        is the body; (x - 1)/(x - 2) is >= 0 there, 0 at x = 1; a
        denominator with a zero in the box raises NonInvertible naming it,
        and a nilpotent part takes no part."""
        x, th = pool.even("x"), pool.odd("th1") * pool.odd("th2")
        box = ((Fraction(0), Fraction(1)),)
        assert (1 / (x - 2) + th / x).body_sign(box, strict=True) == (-1, ())
        assert ((x - 1) / (x - 2)).body_sign(box, strict=False) == (1, ())
        assert ((x - 1) / (x - 2)).body_sign(box, strict=True) == (0, ((Fraction(1),),))
        assert ((x - 1) / (2 - x)).body_sign(box, strict=False) == (0, ((Fraction(0),),))
        assert (1 / (x - 2)).body_sign(box) is None
        with pytest.raises(NonInvertible, match="^body has a pole between x = 0 and x = 1$"):
            (1 / (3 * x - 1)).body_sign(box)

    def test_body_at_in_ints_matches_the_fraction_route(self):
        """body_at evaluates in ints over one common denominator.  On seeded
        bodies over one to three even variables, at points with negative,
        zero and fractional values, it equals the Fraction route kept here,
        and where the body's denominator vanishes it raises the same
        NonInvertible; a pole of the nilpotent part alone is no pole."""

        def fraction_route(f, point):
            b = f.body_part()

            def value(p):
                if type(p) is int:
                    return Fraction(p)
                total = Fraction(0)
                for exps, c in unpacked(p, len(point)).items():
                    for v, e in zip(point, exps):
                        if e:
                            c = c * v**e
                    total += c
                return total

            if b.is_zero():
                return Fraction(0)
            d = value(b.den)
            return value(b.terms[()]) / d if d else None

        rng = seeded(227)
        values = [-2, -1, 0, 1, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]
        seen = {"value": 0, "pole": 0}
        for names in (["x"], ["x", "y"], ["x", "y", "z"]):
            pool = GeneratorPool(names, ["th1", "th2"])
            gens = [pool.even(n) for n in names]
            nilpotent = pool.odd("th1") * pool.odd("th2")
            for _ in range(20):
                den = pool.one()
                for g in rng.sample(gens, rng.randint(1, len(gens))):
                    den = den * (g - rng.choice(values))
                f = random_superfunction(pool, rng, 0) / den * rng.choice([1, Fraction(-2, 3)])
                f = f + nilpotent / (gens[0] - rng.choice(values))
                for _ in range(4):
                    point = tuple(rng.choice(values) for _ in names)
                    want = fraction_route(f, point)
                    if want is None:
                        seen["pole"] += 1
                        message = f"body has a pole at {pool.render_point(point)}"
                        with pytest.raises(NonInvertible) as err:
                            f.body_at(point)
                        assert str(err.value) == message
                    else:
                        seen["value"] += 1
                        got = f.body_at(point)
                        assert type(got) is Fraction and got == want
        assert min(seen.values()) >= 10, seen

    def test_integers_from_other_ground_types(self, pool, monkeypatch):
        """Under sympy's gmpy or flint ground types ``ZZ``'s elements are not
        ints; sympy's gcd, the heuristic gcd's fallback, stores ints all the
        same, and the square root never meets them."""

        class Mpz(int):  # closed under arithmetic, as gmpy2's mpz
            def __mul__(self, other):
                return Mpz(int(self) * other)

            __rmul__ = __mul__

        to_dict = densebasic.dmp_to_dict
        # the fallback imports dmp_to_dict when it runs, so it finds this one
        monkeypatch.setattr(densebasic, "dmp_to_dict",
                            lambda *a: {e: Mpz(c) for e, c in to_dict(*a).items()})
        xx, th12 = pool.even("x"), pool.odd("th1") * pool.odd("th2")
        # only sympy's gcd, the fallback of the heuristic one, reaches dmp_to_dict
        xy = GeneratorPool(["x", "y"], ["th1"])
        x2, y2 = xy.even("x"), xy.even("y")
        for r in ((2 * xx + 2) / (xx + 1), (xx * xx - 1) / (2 * xx + 2) + th12 / (xx + 1),
                  (4 * (xx + 1) ** 2 + th12).sqrt(), (9 * xx * xx / (xx + 1) ** 2).sqrt(),
                  (x2 * x2 + x2 * y2) / (x2 * y2 + y2 * y2)):
            _assert_canonical(r)

    def test_constant_polynomial_is_not_canonical(self, pool):
        """A constant denominator held as a polynomial, a common integer
        content and a common polynomial factor each break the invariant."""
        xx = pool.even("x")
        for stale in (Superfunction(pool, {(): packed({(0,): 3})}, packed({(0,): 2})),
                      Superfunction(pool, {(): packed({(0,): 2})}, 4),
                      Superfunction(pool, {(): packed({(1,): 1})}, packed({(1,): 1})),
                      Superfunction(pool, {(): packed({(0,): 1})}, packed({(1,): -1})),
                      Superfunction(pool, {(): {}}),
                      Superfunction(pool, {(): packed({(0,): 0})})):
            with pytest.raises(AssertionError):
                _assert_canonical(stale)
        for fine in (pool.scalar(3), pool.scalar(Fraction(3, 2)), xx / 2, 1 / -xx,
                     xx / (xx + 1) + pool.odd("th1") / (xx + 1) ** 2):
            _assert_canonical(fine)

    @pytest.mark.parametrize("chart", ["(1|2)+flesh", "(2|4)"])
    @pytest.mark.parametrize("factor", ["constant", "polynomial", "fraction"])
    def test_products_by_body_only_factors(self, chart, factor):
        """A body-only factor scales each coefficient on its own; the result is
        canonical and equals the product taken through the general merge.  The
        factors cancel against ``1/(x + 2)`` and powers of x in ``f``."""
        pool = GeneratorPool(*DIVISION_CHARTS[chart])
        rng = seeded(sum(map(ord, chart + factor)))
        xx, th = pool.even("x"), pool.odd("th1")
        for _ in range(4):
            c = {
                "constant": pool.scalar(rng.choice([-2, Fraction(1, 3), 5])),
                "polynomial": (xx + 2) * (xx * rng.randint(1, 3) - 1),
                "fraction": rng.randint(1, 3) / (xx * (xx + rng.randint(0, 1))),
            }[factor]
            f = random_superfunction(pool, rng, None)
            f = f + f.nilpotent_part() / (xx + 2)
            for product, general in ((c * f, (c + th) * f - th * f),
                                     (f * c, f * (c + th) - f * th)):
                _assert_canonical(product)
                assert product == general
                assert product.is_zero() == f.is_zero()

    @pytest.mark.parametrize("chart", sorted(DIVISION_CHARTS))
    def test_constants_stay_bare(self, chart):
        """Operations on elements with constant coefficients keep every
        numerator a constant over an int denominator, and body_at reads the
        body as a Fraction."""
        pool = GeneratorPool(*DIVISION_CHARTS[chart])
        rng = seeded(sum(map(ord, chart)) + 12)

        def constant(parity):
            return random_superfunction(pool, rng, parity, max_degree=0)

        point = tuple(Fraction(k + 1, 2) for k in range(pool.n_even))
        zero = (0,) * pool.n_even
        coordinates = pool.even_names + pool.odd_names[: pool.n_coordinate_odd]
        for _ in range(4):
            f = constant(None)
            g = pool.scalar(rng.choice([-3, 2, Fraction(5, 4)])) + constant(0).nilpotent_part()
            images = {n: pool.scalar(rng.randint(-2, 2)) + constant(0).nilpotent_part()
                      for n in pool.even_names}
            images.update({n: constant(1) for n in pool.odd_names})
            results = [f + g, f - g, f * g, f / g, 3 / g, g**-2, g.invert(),
                       (g * g).sqrt(), f.substitute(images, pool)]
            results += [f.partial(n) for n in coordinates]
            for r in results:
                assert r.is_polynomial()
                assert all(set(unpacked(p, pool.n_even)) == {zero} for p in r.terms.values())
                _assert_canonical(r)
                body = r.body_at(point)
                assert type(body) is Fraction and pool.scalar(body) == r.body_part()


_GCD_MONOMIALS = [(), (0,), (1,), (2,), (0, 1), (0, 2)]


def _gcd_input(rng, n):
    """A numerator table of 1-6 numerators over a polynomial ``den`` in n
    even variables.  Each of a planted common factor, a common monomial and
    a shared integer content is multiplied in with probability 1/2, and
    each polynomial is negated with probability 1/2."""
    polys = [random_poly(rng, n) for _ in range(rng.randint(2, 7))]
    for factor in (random_poly(rng, n, 3, 2),
                   packed({tuple(rng.randint(0, 2) for _ in range(n)): 1}),
                   packed({(0,) * n: rng.choice([2, 6, 35])})):
        if rng.random() < 0.5:
            polys = [zpoly.pmul(p, factor) for p in polys]
    polys = [zpoly.pneg(p) if rng.random() < 0.5 else p for p in polys]
    return dict(zip(_GCD_MONOMIALS, polys[1:])), polys[0]


def _cancelled_by_sympy(pool, terms, den):
    """The superfunction ``terms / den`` cancelled by sympy's ``PolyRing.gcd``."""
    ring, n = _ring(pool), pool.n_even
    g = ring.from_dict(unpacked(den, n))
    for p in terms.values():
        g = g.gcd(ring.from_dict(unpacked(p, n)))

    def quotient(p):
        return packed({e: int(c) for e, c in ring.from_dict(unpacked(p, n)).exquo(g).items()})

    return scalars._make(pool, {m: quotient(p) for m, p in terms.items()}, quotient(den),
                         cancel=False)


@pytest.fixture
def fallbacks(monkeypatch):
    """Every table that the heuristic gcd hands to sympy's gcd."""
    return count_calls(monkeypatch, zpoly.cancel_common_factor, "_cancel_by_sympy_gcd")


class TestHeuristicGcd:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cancellation_matches_sympy_gcd(self, n, fallbacks):
        """Seeded tables, cancelled by the heuristic gcd (or its fallback),
        equal the same tables cancelled by sympy's gcd; with one even
        variable nothing falls back, and with more some tables do."""
        pool = GeneratorPool(["x", "y", "z"][:n], ["th1", "th2", "th3"])
        rng = seeded(170 + n)
        for _ in range(150):
            terms, den = _gcd_input(rng, n)
            got, want = scalars._make(pool, terms, den), _cancelled_by_sympy(pool, terms, den)
            _assert_canonical(got)
            assert (got.terms, got.den) == (want.terms, want.den)
        assert bool(fallbacks) == (n > 1)

    def test_spurious_factor_of_the_images(self, fallbacks):
        """(1 + x + x^2)/(1 - y): with y -> X^3 both images hold
        1 + X + X^2, whose lift divides no denominator; the next substitution
        proves that nothing cancels.  The twin with (x - y) above and below
        cancels to it."""
        pool = GeneratorPool(["x", "y"], ["th1"])
        xx, yy = pool.even("x"), pool.even("y")
        f = (1 + xx + xx * xx) / (1 - yy)
        twin = (1 + xx + xx * xx) * (xx - yy) / ((1 - yy) * (xx - yy))
        for r in (f, twin):
            _assert_canonical(r)
            assert r.terms == {(): packed({(0, 0): -1, (1, 0): -1, (2, 0): -1})}
            assert r.den == packed({(0, 1): 1, (0, 0): -1})
        assert f == twin and fallbacks == []

    def test_gcd_without_constant_term_falls_back(self, fallbacks):
        """(x^2 + xy)/(xy + y^2) = x/y: the image X + X^3 of the gcd x + y
        holds a power of X that neither candidate has, so sympy's gcd
        decides."""
        pool = GeneratorPool(["x", "y"], ["th1"])
        xx, yy = pool.even("x"), pool.even("y")
        q = (xx * xx + xx * yy) / (xx * yy + yy * yy)
        _assert_canonical(q)
        assert q == xx / yy and len(fallbacks) == 1

    def test_a_failed_first_value_is_retried(self, monkeypatch, fallbacks):
        """A seeded one-variable table whose first value of xi proves
        nothing: one attempt hands it to sympy's gcd, the default attempts
        cancel it on their own, to the same result."""
        pool = GeneratorPool(["x"], ["th1", "th2", "th3"])
        terms, den = _gcd_input(seeded(284), 1)
        want = _cancelled_by_sympy(pool, terms, den)
        got = scalars._make(pool, terms, den)
        assert fallbacks == [] and (got.terms, got.den) == (want.terms, want.den)
        monkeypatch.setattr(zpoly, "_HEURISTIC_TRIES", 1)
        got = scalars._make(pool, terms, den)
        assert len(fallbacks) == 1 and (got.terms, got.den) == (want.terms, want.den)


class TestScaledProduct:
    """A product with a rational constant scales the numerators and ``den``
    without a table product; the table route of any other product is the
    oracle."""

    @pytest.mark.parametrize("chart", ["(1|2)+flesh", "(2|4)"])
    def test_constant_factors_match_the_table_product(self, chart):
        pool = GeneratorPool(*DIVISION_CHARTS[chart])
        rng = seeded(291)
        xx = pool.even("x")
        constants = [0, 1, -1, 2, -6, 35, Fraction(1, 2), Fraction(-4, 9), Fraction(10**20, 3)]
        for _ in range(12):
            f = random_superfunction(pool, rng) * rng.choice([1, 6, Fraction(5, 4)])
            if rng.random() < 0.5:
                f = f / (xx * rng.randint(1, 3) + rng.randint(1, 4))
            for c in constants:
                k = pool.scalar(c)
                want = scalars._make(pool, scalars._table_mul(pool, f.terms, k.terms),
                                     zpoly.pscale(f.den, k.den)) if c else pool.zero()
                for got in (f * c, c * f, f * k, k * f):
                    _assert_canonical(got)
                    assert (got.terms, got.den) == (want.terms, want.den)

    def test_one_returns_the_other_operand(self, pool):
        single = pool.from_coefficients([((0,), (2,), Fraction(3, 4))])
        for f in (pool.even("x") / (pool.even("x") + 1) + pool.odd("th1") * pool.odd("th2"),
                  single):
            assert f * 1 is f and 1 * f is f
            assert f * pool.one() is f and pool.one() * f is f


def test_power_squares_no_further_than_its_last_bit(monkeypatch):
    """``f ** k`` makes one table product per square it uses and one per
    further set bit: 0, 1, 2 and 2 for k = 1, 2, 4 and 3."""
    pool = GeneratorPool(["x"], ["th1", "th2"])
    f = pool.even("x") + pool.odd("th1") * pool.odd("th2")
    calls = []
    table_mul = scalars._table_mul

    def counting(*args):
        calls.append(args)
        return table_mul(*args)

    for k, products in [(1, 0), (2, 1), (4, 2), (3, 2)]:
        want = f
        for _ in range(k - 1):
            want = want * f
        monkeypatch.setattr(scalars, "_table_mul", counting)
        calls.clear()
        assert f ** k == want
        assert len(calls) == products, k
        monkeypatch.undo()


def test_monomial_multiple_is_the_product():
    """``monomial_multiple`` yields the coefficients of ``m * f`` over ``den``
    for seeded polynomial f with rational coefficients and monomials m of
    every odd size, flesh included."""
    pool = GeneratorPool(["x", "y"], ["th1", "th2", "th3"], ["eta"])
    rng = seeded(1301)
    for _ in range(60):
        f = random_superfunction(pool, rng) * Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 6))
        mono = tuple(sorted(rng.sample(range(pool.n_odd), rng.randint(0, 3))))
        exps = (rng.randint(0, 2), rng.randint(0, 2))
        den = 3 * math.lcm(1, *(q.denominator for _, _, q in f.rational_coefficients()))
        monomial = pool.from_coefficients([(mono, exps, 1)])
        want = sorted((m, e, q * den) for m, e, q in (monomial * f).rational_coefficients())
        got = pool.monomial_multiple(mono, exps, f, den)
        assert sorted((m, zpoly.unpack(e, pool.n_even), c) for m, e, c in got) == want


def test_monomial_partials_are_the_partials():
    """``monomial_partials`` gives ``Superfunction.partial`` of every monomial
    of a (2|4) pool with flesh, up to even degree 2, by every coordinate; a
    coordinate it omits gives zero."""
    pool = GeneratorPool(["x", "y"], ["th1", "th2", "th3", "th4"], ["lam1", "lam2"])
    coordinates = (pool.even_names + pool.odd_names)[: pool.n_even + pool.n_coordinate_odd]
    evens = [(i, j) for i in range(3) for j in range(3 - i)]
    for size in range(pool.n_odd + 1):
        for mono in itertools.combinations(range(pool.n_odd), size):
            for exps in evens:
                f = pool.from_coefficients([(mono, exps, 1)])
                partials = {a: pool.from_coefficients([(m, e, s)])
                            for a, s, m, e in pool.monomial_partials(mono, exps)}
                for a, name in enumerate(coordinates):
                    assert partials.pop(a, pool.zero()) == f.partial(name), (mono, exps, name)
                assert not partials


def test_monomials_by_parity_in_ansatz_order():
    """The odd coordinate monomials by size, then indices, each times the
    even ones by degree, then lexicographic; flesh takes no part."""
    pool = GeneratorPool(["x", "y"], ["th1", "th2", "th3"], ["lam1"])
    ladder = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    evens, odds = pool.monomials(2)
    assert evens == [(m, e) for m in [(), (0, 1), (0, 2), (1, 2)] for e in ladder]
    assert odds == [(m, e) for m in [(0,), (1,), (2,), (0, 1, 2)] for e in ladder]
    assert pool.monomials(0) == ([(m, (0, 0)) for m in [(), (0, 1), (0, 2), (1, 2)]],
                                 [(m, (0, 0)) for m in [(0,), (1,), (2,), (0, 1, 2)]])


def test_products_past_the_merge_cache_reset():
    """The pool's merge cache starts over past 1,024 rows: the products of the
    1,254 odd monomials of size 4 to 6 of 11 generators, each a new row,
    with one fixed superfunction equal the same products over a fresh pool."""
    names = [f"th{i}" for i in range(1, 12)]
    monos = [m for size in (4, 5, 6) for m in itertools.combinations(range(11), size)]

    def operands(pool, monos):
        th = [pool.odd(n) for n in names]
        f = 1 + pool.even("x") * th[0] + th[1] * th[2] - 3 * th[9] * th[10] + th[4] / 2
        return f, [pool.from_coefficients([(m, (0,), 1)]) for m in monos]

    pool = GeneratorPool(["x"], names)
    f, factors = operands(pool, monos)
    products = [m * f for m in factors]
    assert len(monos) == 1254 and monos[0] not in pool._merges  # the cache was reset
    for mono, got in zip(monos, products):
        fresh = GeneratorPool(["x"], names)
        g, [m] = operands(fresh, [mono])
        assert got == m * g and not got.is_zero()


def test_from_coefficients_inverts_rational_coefficients():
    """A polynomial superfunction is rebuilt from its rational coefficients,
    denominator included, for seeded f with rational coefficients and
    flesh; no coefficients give zero."""
    pool = GeneratorPool(["x", "y"], ["th1", "th2", "th3"], ["eta"])
    rng = seeded(1303)
    for _ in range(60):
        f = random_superfunction(pool, rng) * Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 6))
        g = pool.from_coefficients(list(f.rational_coefficients()))
        assert (g, g.den) == (f, f.den)
    assert pool.from_coefficients([]) == pool.zero()


@pytest.mark.parametrize("coefficients, error", [
    ([((), (1,), True)], InexactCoefficient),
    ([((), (1,), 0.5)], InexactCoefficient),
    ([((), (1,), "1")], InexactCoefficient),
    ([((), (1,), Fraction(0))], InvalidArgument),
    ([((0,), (0,), 1), ((), (1,), 0)], InvalidArgument),
    ([((), (1,), 1), ((), (1,), Fraction(1, 2))], InvalidArgument),
], ids=["bool", "float", "str", "zero-fraction", "zero-int", "repeated-key"])
def test_from_coefficients_checks_each_coefficient(coefficients, error):
    """Each coefficient is an int or a ``Fraction`` (``InexactCoefficient``
    otherwise, a bool included), nonzero and under its own ``(mono, exps)``
    key (``InvalidArgument`` otherwise): no input builds a non-canonical
    superfunction or drops a coefficient."""
    pool = GeneratorPool(["x"], ["th1", "th2"])
    with pytest.raises(error):
        pool.from_coefficients(coefficients)


@pytest.mark.parametrize("mono, exps", [
    ((1, 0), (0,)),
    ((0, 0), (1,)),
    ((0,), (-1,)),
    ((5,), (0, 3)),
    ((True,), (0,)),
    ((0,), (True,)),
], ids=["decreasing-mono", "repeated-odd-index", "negative-exponent", "index-out-of-range",
        "bool-index", "bool-exponent"])
def test_from_coefficients_checks_each_key(mono, exps):
    """The odd monomial is a strictly increasing tuple of ints in
    ``range(pool.n_odd)`` and the exponents a tuple of ``pool.n_even``
    nonnegative ints, bools excluded: otherwise ``(1, 0)`` would build
    ``th2*th1``, which is neither ``th1*th2`` nor its negative, ``(0, 0)`` a
    square of an odd generator, ``(-1,)`` a pole, and ``(5,)`` a
    superfunction whose repr raises."""
    pool = GeneratorPool(["x"], ["th1", "th2"])
    with pytest.raises(InvalidArgument):
        pool.from_coefficients([(mono, exps, 1)])


def _product_factor(pool, rng):
    """A nonzero draw for the multiply-accumulate corpus: homogeneous of
    either parity or mixed, over an int or a polynomial denominator."""
    while True:
        f = random_superfunction(pool, rng, rng.choice([None, 0, 1]), max_degree=1)
        if rng.random() < 0.5:
            den = pool.scalar(rng.randint(1, 3))
            for name in pool.even_names:
                den = den + pool.even(name) * rng.randint(0, 2)
            f = f / den
        if rng.random() < 0.3:
            f = f * Fraction(1, rng.randint(2, 5))
        if not f.is_zero():
            return f


def _entry(pool, pairs, start, sign=1):
    """``start + sign * sum x*y`` over ``pairs`` by the row kernel: the one
    entry of a row of the left factors times a column of the right ones."""
    [[out]] = scalars.grid_product(pool, [[x for x, _ in pairs]], [[y] for _, y in pairs],
                                   [[start]], sign)
    return out


def _ring_grid(pool, X, Y, start, sign):
    """``start + sign * X Y`` entry by entry on the ring route."""
    return [[s + pool.sum([x * r[j] for x, r in zip(row, Y)]) * sign for j, s in enumerate(srow)]
            for row, srow in zip(X, start)]


def _assert_same_grid(got, want):
    assert [len(row) for row in got] == [len(row) for row in want]
    for g, w in zip(itertools.chain(*got), itertools.chain(*want)):
        _assert_canonical(g)
        assert (g.terms, g.den) == (w.terms, w.den)


MULTIPLY_ACCUMULATE_POOLS = pytest.mark.parametrize("pool", [
    GeneratorPool(["x"], ["th1", "th2"]),
    GeneratorPool(["x", "y"], ["th1", "th2", "th3", "th4"], ["eta1", "eta2"]),
], ids=["1|2", "2|4+2flesh"])


@MULTIPLY_ACCUMULATE_POOLS
def test_grid_product_is_the_ring_route(pool):
    """An entry of ``grid_product`` is structurally the ring's ``start +
    sign * sum x*y`` on seeded pairs with int and polynomial denominators,
    mixed parities, nilpotent products and products that cancel, up to a
    whole sum that cancels to ``start``."""
    rng = seeded(4001)
    seen = set()
    th1 = pool.odd("th1")
    for _ in range(80):
        pairs = [(_product_factor(pool, rng), _product_factor(pool, rng))
                 for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.2:
            pairs.append((th1, th1 * _product_factor(pool, rng)))  # a zero product
        if rng.random() < 0.3:
            pairs += [(x, -y) for x, y in pairs[: rng.randint(1, len(pairs))]]
        start = _product_factor(pool, rng) if rng.random() < 0.7 else pool.zero()
        sign = rng.choice([1, -1])
        got = _entry(pool, pairs, start, sign)
        want = start + pool.sum([x * y for x, y in pairs]) * sign
        _assert_canonical(got)
        assert (got.terms, got.den) == (want.terms, want.den)
        factors = [f for pair in pairs for f in pair]
        seen.update(("int den" if type(f.den) is int else "polynomial den") for f in factors)
        seen.update("mixed" for f in factors if f.parity() is None)
        seen.update("zero product" for x, y in pairs if (x * y).is_zero())
        seen.add("cancels to start" if got == start else "sign %d" % sign)
    assert seen == {"int den", "polynomial den", "mixed", "zero product", "cancels to start",
                    "sign 1", "sign -1"}


@MULTIPLY_ACCUMULATE_POOLS
@pytest.mark.parametrize("sign", [1, -1])
def test_grid_product_of_mixed_denominators_is_the_ring_route(pool, sign):
    """Whole seeded grids whose entries lie over 1, over an int and over a
    polynomial, in one grid and with zero entries, starts of each kind
    included: every entry is structurally the ring route's."""
    rng = seeded(4003)

    def entry():
        if rng.random() < 0.2:
            return pool.zero()
        f = _product_factor(pool, rng)
        return f * f.den if type(f.den) is int and rng.random() < 0.5 else f  # over 1

    seen = set()
    for n, k, m in [(1, 1, 1), (2, 3, 2), (3, 2, 4), (3, 3, 3)]:
        X, Y, start = ([[entry() for _ in range(c)] for _ in range(r)]
                       for r, c in ((n, k), (k, m), (n, m)))
        _assert_same_grid(scalars.grid_product(pool, X, Y, start, sign),
                          _ring_grid(pool, X, Y, start, sign))
        seen.update("over 1" if f.den == 1 else "over an int" if type(f.den) is int
                    else "over a polynomial" for f in itertools.chain(*X, *Y, *start)
                    if not f.is_zero())
    assert seen == {"over 1", "over an int", "over a polynomial"}


@pytest.mark.parametrize("n, k, m", [(0, 2, 3), (2, 3, 0), (0, 0, 0), (2, 0, 3)],
                         ids=["no rows", "no columns", "empty", "inner dimension 0"])
@pytest.mark.parametrize("sign", [1, -1])
def test_grid_product_of_empty_shapes(pool, n, k, m, sign):
    """A grid with no rows or no columns is empty, and an inner dimension of
    0 gives the explicit start, which fixes the shape, as ``_product``'s
    docstring says."""
    rng = seeded(4004)
    X = [[random_superfunction(pool, rng) for _ in range(k)] for _ in range(n)]
    Y = [[random_superfunction(pool, rng) for _ in range(m)] for _ in range(k)]
    start = [[random_superfunction(pool, rng) / (1 + pool.even("x")) for _ in range(m)]
             for _ in range(n)]
    _assert_same_grid(scalars.grid_product(pool, X, Y, start, sign),
                      _ring_grid(pool, X, Y, start, sign))


def test_grid_product_sums_over_the_least_common_denominator(monkeypatch):
    """An entry whose products lie over several denominators is made
    canonical once, over their least common multiple up to a constant:
    ``1/4 + 1/6 + 1/(x+1) + 1/((x+1)(x+2))`` over ``12 (x+1)(x+2)``, not
    over the product of the four."""
    pool = GeneratorPool(["x"], ["th1"])
    xx, one = pool.even("x"), pool.one()
    row = [pool.scalar(Fraction(1, 4)), pool.scalar(Fraction(1, 6)), one / (xx + 1),
           one / ((xx + 1) * (xx + 2))]
    lcm = ((xx + 1) * (xx + 2) * 12).terms[()]
    makes = count_calls(monkeypatch, scalars._fraction_sum, "_make")
    got = _entry(pool, [(f, one) for f in row], pool.zero())
    [(_, _, den)] = makes
    assert got == pool.sum(row)
    assert den in (lcm, zpoly.pneg(lcm))


def test_grid_product_of_no_pairs_is_start(pool):
    f = pool.scalar(x) / 3 + pool.odd("th1") * pool.odd("th2")
    assert _entry(pool, [], f, -1) is f
    assert _entry(pool, (), pool.zero()) is pool.zero()


def test_grid_product_checks_the_degree_bound_as_the_product_does():
    """A product that reaches 2^31 in y raises ``InvalidArgument`` from
    ``grid_product``, over an int and a polynomial denominator, as it does
    from ``*``."""
    pool = GeneratorPool(["x", "y"], ["th1"])
    xx, yy, th1 = pool.even("x"), pool.even("y"), pool.odd("th1")
    big = yy ** (zpoly.BOUND - 1) + th1
    for left in (big, big / (1 + xx)):
        with pytest.raises(InvalidArgument, match="a degree in y reaches 2"):
            left * yy
        with pytest.raises(InvalidArgument, match="a degree in y reaches 2"):
            _entry(pool, [(th1, xx), (left, yy)], pool.one())


FOREIGN_Y = "y not an even variable of the pool; odd generators enter as Superfunction factors"


@pytest.mark.parametrize("value, error, message", [
    (sp.Mul(sp.Pow(sp.Add(x, -x, evaluate=False), -1, evaluate=False), sp.Symbol("y"),
            evaluate=False), UnknownGenerator, FOREIGN_Y),
    (1.5 * sp.Symbol("y"), UnknownGenerator, FOREIGN_Y),
    (sp.sin(x) * sp.Symbol("y"), UnknownGenerator, FOREIGN_Y),
    (sp.Symbol("x", positive=True) + 1, UnknownGenerator,
     "x not an even variable of the pool; odd generators enter as Superfunction factors"),
    (1.5 * x, InexactCoefficient, "1.5*x is not an exact rational function of ['x']"),
    (sp.Pow(sp.Add(x, -x, evaluate=False), -1, evaluate=False), NonInvertible, "body is zero"),
], ids=["pole-times-foreign", "float-times-foreign", "function-times-foreign",
        "symbol-with-assumptions", "float", "pole"])
def test_lift_error_precedence(value, error, message):
    """A foreign symbol anywhere in the value (one with other assumptions
    included) is reported before an inexact part or a pole, and each error
    keeps its type and message."""
    pool = GeneratorPool(["x"], ["th1"])
    with pytest.raises(error) as exc:
        pool.scalar(value)
    assert type(exc.value) is error and str(exc.value) == message


Y = sp.Symbol("y")
SINGLE_TERM_CHARTS = {
    "(1|2)+2 flesh": (["x"], ["th1", "th2"], ["eta1", "eta2"]),
    "(2|4)+2 flesh": (["x", "y"], ["th1", "th2", "th3", "th4"], ["eta1", "eta2"]),
}


class TestSingleTerms:
    """A single term is one odd monomial with a one-term numerator over an
    int denominator.  Products of two of them and lifts of one monomial
    take no table route; the row kernel ``grid_product`` and
    ``from_coefficients`` are the oracles."""

    @staticmethod
    def _draw(pool, rng):
        """A seeded single term ``q th^mono x^exps``, ``q`` a nonzero
        rational whose numerator and denominator share factors with others."""
        mono = tuple(sorted(rng.sample(range(pool.n_odd), rng.randint(0, 2))))
        exps = tuple(rng.randint(0, 3) for _ in range(pool.n_even))
        q = Fraction(rng.choice([1, -1]) * rng.randint(1, 12), rng.randint(1, 12))
        return pool.from_coefficients([(mono, exps, q)])

    @pytest.mark.parametrize("chart", list(SINGLE_TERM_CHARTS))
    def test_products_are_the_grid_product_route(self, chart, monkeypatch):
        """``x * y`` of two single terms is structurally the entry of the
        1 x 1 grid product ``[[x]] [[y]]`` and makes no ``_accumulate`` call: contents that cancel
        against the denominator, repeated odd indices, flesh and every pair
        of parities."""
        pool = GeneratorPool(*SINGLE_TERM_CHARTS[chart])
        rng = seeded(4201)
        pairs = [(self._draw(pool, rng), self._draw(pool, rng)) for _ in range(300)]
        calls = count_calls(monkeypatch, scalars._table_mul, "_accumulate")
        products = [x * y for x, y in pairs]
        assert calls == []
        seen = set()
        for (x, y), got in zip(pairs, products):
            want = _entry(pool, [(x, y)], pool.zero())
            _assert_canonical(got)
            assert (got.terms, got.den) == (want.terms, want.den)
            (mx, px), = x.terms.items()
            (my, py), = y.terms.items()
            (cx,), (cy,) = px.values(), py.values()
            seen.add((len(mx) % 2, len(my) % 2))
            seen.update({"zero"} if got.is_zero() else ())
            seen.update({"cancels"} if math.gcd(cx * cy, x.den * y.den) > 1 else ())
            seen.update({"flesh"} if any(map(pool.is_flesh, mx + my)) else ())
            seen.update({"sign -1"} if not got.is_zero() and got.terms != (
                _entry(pool, [(y, x)], pool.zero())).terms else ())
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1), "zero", "cancels", "flesh", "sign -1"}

    @pytest.fixture
    def products(self, monkeypatch):
        """The right operand of each ``Superfunction.__mul__`` call."""
        calls, original = [], Superfunction.__mul__
        monkeypatch.setattr(Superfunction, "__mul__",
                            lambda a, b: calls.append(b) or original(a, b))
        return calls

    @pytest.mark.parametrize("value, exps, q", [
        (x**3, (3, 0), 1), (sp.Rational(3, 4) * x * Y**2, (1, 2), Fraction(3, 4)),
        (-x * Y, (1, 1), -1), (sp.Rational(-6, 4) * Y**5, (0, 5), Fraction(-3, 2)),
        (sp.Mul(4, x, x, sp.Rational(1, 6), evaluate=False), (2, 0), Fraction(2, 3)),
        (sp.Pow(Y, 0, evaluate=False), (0, 0), 1),
    ], ids=["x**3", "3/4*x*y**2", "-x*y", "-6/4*y**5", "unevaluated", "y**0"])
    def test_a_monomial_lifts_to_its_coefficients(self, value, exps, q, products):
        """A product of Rationals and nonnegative powers of the pool's
        symbols lifts to ``from_coefficients`` of the same term without a
        ring product."""
        pool = GeneratorPool(["x", "y"], ["th1", "th2"])
        got = pool.scalar(value)
        assert products == []
        want = pool.from_coefficients([((), exps, q)])
        _assert_canonical(got)
        assert (got.terms, got.den) == (want.terms, want.den)

    def test_seeded_monomials_lift_without_a_product(self, products):
        """``c * x**d`` as the superalgebra inputs are built, over c in
        [-12, 12] and d up to 5, lifts with no ``Superfunction.__mul__``."""
        pool = GeneratorPool(["x"], ["th1", "th2"])
        rng = seeded(4202)
        values = [(rng.randint(-12, 12), rng.randint(0, 5)) for _ in range(60)]
        got = [pool.scalar(c * x**d) for c, d in values]
        assert products == []
        for f, (c, d) in zip(got, values):
            assert f == (pool.from_coefficients([((), (d,), c)]) if c else pool.zero())

    def test_other_shapes_fold(self):
        """A negative power falls back to the fold; a float and a symbol with
        assumptions raise as before."""
        pool = GeneratorPool(["x"], ["th1"])
        assert pool._lift_term((2 / x).args) is None
        assert pool.scalar(2 / x) == 2 / pool.even("x")
        with pytest.raises(InexactCoefficient):
            pool.scalar(2.0 * x)
        with pytest.raises(UnknownGenerator):
            pool.scalar(2 * sp.Symbol("x", positive=True))

    def test_a_degree_past_the_bound_raises(self):
        """Over (x, y) a degree in y of 2^31 raises ``InvalidArgument``, from
        a single-term product and from a lift: a degree of 2^32 packed
        without a check would carry into x."""
        pool = GeneratorPool(["x", "y"], ["th1"])
        half = pool.scalar(Y**2**30)
        with pytest.raises(InvalidArgument, match="a degree in y reaches 2"):
            half * half
        for value in (3 * Y**2**32, Y**2**31, x * Y**2**31):
            with pytest.raises(InvalidArgument, match="a degree in y reaches 2"):
                pool.scalar(value)
        assert pool.scalar(x**2**40 * Y**(2**31 - 1)) == pool.from_coefficients(
            [((), (2**40, 2**31 - 1), 1)])

    def test_generators_are_shared(self):
        """``even``, ``odd``, ``generator`` and ``one`` return one object per
        name; each parity has its own cache."""
        pool = GeneratorPool(["x"], ["th1", "th2"], ["eta"])
        assert pool.odd("th1") is pool.odd("th1") is pool.generator("th1")
        assert pool.even("x") is pool.even("x") is pool.generator("x")
        assert pool.odd("eta") is pool.odd("eta") and pool.one() is pool.one()
        assert pool.one() == pool.scalar(1) and pool.odd("th1") != pool.odd("th2")
        with pytest.raises(UnknownGenerator):
            pool.even("th1")
        with pytest.raises(UnknownGenerator):
            pool.odd("x")

    @pytest.mark.parametrize("chart", ["(1|2)+flesh", "(2|4)"])
    def test_a_difference_is_the_sum_with_the_negative(self, chart):
        """``f - g`` is structurally ``f + (-g)`` over int and polynomial
        denominators, and ``f - f`` is zero."""
        pool = GeneratorPool(*DIVISION_CHARTS[chart])
        rng = seeded(4203)
        xx = pool.even("x")
        for _ in range(40):
            f, g = random_superfunction(pool, rng), random_superfunction(pool, rng)
            if rng.random() < 0.4:
                g = g / (xx + rng.randint(1, 3))
            got, want = f - g, f + (-g)
            _assert_canonical(got)
            assert (got.terms, got.den) == (want.terms, want.den)
            assert (f - f).is_zero() and (g - 0) is g
            assert (0 - g) == -g and (pool.zero() - g) == -g
