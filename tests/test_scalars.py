"""The Grassmann scalar ring: products, derivatives, inverses, roots, Berezin."""

import operator
from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.polyerrors import CoercionFailed
from sympy.polys.rings import PolyElement, PolyRing

from supergeo import GeneratorPool, Superfunction, scalars
from supergeo.errors import (
    FleshInTopCoefficient,
    InexactCoefficient,
    NonInvertible,
    NotASquare,
    ParityError,
    PoolMismatch,
    UnknownGenerator,
)

from supergeo.parsing import parse_expression

from conftest import random_superfunction, seeded

x = sp.Symbol("x")


@pytest.fixture
def pool():
    return GeneratorPool(["x"], ["th1", "th2"], ["lam1"])


def test_pool_rejects_duplicate_names():
    with pytest.raises(ValueError):
        GeneratorPool(["x"], ["x"])


def test_pools_with_equal_even_names_share_the_field():
    a = GeneratorPool(["x"], ["th1"])
    b = GeneratorPool(["x"], ["e1", "e2"], ["lam"])
    assert a.field is b.field and a.ring is b.ring
    assert GeneratorPool(["y"], ["th1"]).field is not a.field


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

    def test_irrational_rejected(self, pool):
        with pytest.raises(InexactCoefficient):
            pool.scalar(sp.sqrt(2))

    def test_exact_values_accepted(self, pool):
        from fractions import Fraction

        half = pool.scalar(sp.Rational(1, 2))
        assert pool.scalar(Fraction(1, 2)) == half
        assert pool.one() / 2 == half
        assert pool.scalar(x / 2) == pool.even("x") * half


class TestPolynomialInputThroughTheRing:
    def test_polynomial_stored_as_poly(self):
        y = sp.Symbol("y")
        f = GeneratorPool(["x", "y"], ["th1", "th2"]).scalar(x / 2 + y**3)
        assert isinstance(f.terms[()], PolyElement)

    @pytest.mark.parametrize("value", [1 / x, x**-2])
    def test_negative_powers_stored_as_fractions(self, pool, value):
        assert isinstance(pool.scalar(value).terms[()], FracElement)

    def test_quotients_cancel(self, pool):
        assert pool.scalar((x + 1) / (x + 1)) == pool.one()
        f = pool.scalar((x**2 - 1) / (x - 1))
        assert isinstance(f.terms[()], PolyElement)
        assert f == pool.scalar(x + 1)

    @pytest.mark.parametrize(
        "value", [sp.sqrt(2) * x, sp.pi * x, sp.I * x, sp.exp(x)]
    )
    def test_inexact_still_rejected(self, pool, value):
        with pytest.raises(InexactCoefficient):
            pool.scalar(value)


def _sympy_lift(pool, expr):
    """The lift through sympy's generic converters, ring first: the oracle
    for ``GeneratorPool.scalar`` on exact expressions."""
    for domain in (pool.ring, pool.field):
        try:
            return scalars._norm(domain.from_expr(expr))
        except (ValueError, CoercionFailed):
            pass
    raise AssertionError(f"sympy cannot lift {expr!r}")


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
        want = _sympy_lift(pool_xy, expr)
        lifted = pool_xy._lift(expr)  # canonical, zero included
        assert type(lifted) is type(want) and lifted == want
        got = pool_xy.scalar(expr)
        assert got.terms == ({(): want} if want else {})
        _assert_canonical(got)

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
            fresh = Superfunction(pool, dict(f.terms))
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
    """1/f by the plain Neumann series with the body inverted in pool.field:
    1/f = (1/b) * sum_k (-t)^k with t = n/b, written out independently of
    the division kernel."""
    pool = f.pool
    binv = pool.scalar(pool.field.one / f.terms[()])
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
    """Every gcd cancellation of a coefficient quotient, counted."""
    calls = []
    original = PolyElement.cancel

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(PolyElement, "cancel", counting)
    return calls


class TestDivisionKernel:
    @pytest.mark.parametrize("chart", sorted(DIVISION_CHARTS))
    @pytest.mark.parametrize("body", ["ground", "polynomial", "fraction"])
    def test_quotients_match_the_field_route(self, chart, body):
        pool = GeneratorPool(*DIVISION_CHARTS[chart])
        rng = seeded(sum(map(ord, chart + body)))
        xx = pool.even("x")
        bodies = {
            "ground": pool.scalar(4),
            "polynomial": xx * xx + 2 * xx + 3,
            "fraction": pool.scalar(1 / (x + 2)) + 1,
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

    def test_polynomial_divisor_cancels_once_per_output_monomial(self, cancel_calls):
        pool = GeneratorPool(["x", "y"], ["th1", "th2"])
        rng = seeded(132)
        xx, yy = pool.even("x"), pool.even("y")
        f = xx + 1 + yy * pool.odd("th1") * pool.odd("th2")
        g = random_superfunction(pool, rng, None) + xx * yy + pool.odd("th2")
        q = g / f
        assert 0 < len(cancel_calls) <= len(q.terms)
        assert q * f == g


class TestSqrt:
    def test_one(self, pool):
        assert pool.one().sqrt() == pool.one()

    def test_nilpotent_example(self, pool):
        f = pool.scalar(4) + pool.odd("th1") * pool.odd("th2")
        r = f.sqrt()
        assert r == pool.scalar(2) + pool.odd("th1") * pool.odd("th2") * sp.Rational(1, 4)
        assert r * r == f

    def test_polynomial_body(self, pool):
        t12 = pool.odd("th1") * pool.odd("th2")
        f = pool.scalar(x**2) + pool.scalar(x**2) * t12
        r = f.sqrt()
        assert r == pool.even("x") * (pool.one() + t12 * sp.Rational(1, 2))
        assert r * r == f

    def test_odd_rejected(self, pool):
        with pytest.raises(ParityError):
            pool.odd("th1").sqrt()

    def test_non_square_rejected(self, pool):
        with pytest.raises(NotASquare):
            pool.scalar(2).sqrt()
        with pytest.raises(NotASquare):
            pool.even("x").sqrt()

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
            assert _sympy_render(f.terms[()]) == text


def _sympy_render(c):
    """A coefficient printed through sympy ``Expr`` (``as_expr``, ``fraction``
    and ``sstr``): the oracle for the native printer behind ``render``."""
    if type(c) is QQ.dtype:
        num, den = c.numerator, c.denominator
    elif isinstance(c, FracElement):
        order = scalars._sympy_gen_order(c.field.symbols)
        lc = scalars._leading_coefficient(c.denom, order)
        num, den = (c.numer, c.denom) if lc > 0 else (-c.numer, -c.denom)
        num, den = num.as_expr(), den.as_expr()
    else:
        num, den = sp.fraction(c.as_expr())
    ns = sp.sstr(num, order="lex").replace("**", "^")
    if den == 1:
        return ns
    ds = sp.sstr(den, order="lex").replace("**", "^")
    return f"({ns})/({ds})"


def _random_polynomial(pool, rng, max_terms):
    """A canonical coefficient: a sum of up to ``max_terms`` random terms with
    exponents up to 3 and small rational coefficients of either sign."""
    p = pool.ring.zero
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in pool.even_names)
        q = QQ(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 4)))
        p += pool.ring.from_dict({exps: q})
    return scalars._norm(p)


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
            if den:
                samples.append(scalars._coeff_div(pool.field, num, den))
        for c in samples:
            if not c:
                continue
            text = scalars._render_coefficient(c)
            assert text == _sympy_render(c), c
            if type(c) is QQ.dtype:
                seen.add("constant")
            elif isinstance(c, FracElement):
                seen.add("fraction")
            elif len(c) == 1 and c.LC.denominator != 1:
                seen.add("one term over q")
            if text.lstrip("(").startswith("-"):
                seen.add("negative leading term")
            if "^" in text:
                seen.add("power")
        assert seen == {"constant", "fraction", "one term over q",
                        "negative leading term", "power"}


class TestSubstitute:
    def test_identity_substitution(self, pool):
        rng = seeded(109)
        images = {n: pool.generator(n) for n in pool.names()}
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

    def test_substitution_is_homomorphism(self, pool):
        rng = seeded(110)
        tpool = GeneratorPool(["u"], ["e1", "e2"])
        u = tpool.even("u")
        for _ in range(10):
            images = {
                "x": pool.even("x") * pool.even("x") + random_superfunction(pool, rng, 0, 1),
                "th1": random_superfunction(pool, rng, 1, 1),
                "th2": random_superfunction(pool, rng, 1, 1),
            }
            images = {k: v for k, v in images.items()}
            f = random_superfunction(tpool, rng)
            g = random_superfunction(tpool, rng)
            sub = lambda h: h.substitute(
                {"u": images["x"], "e1": images["th1"], "e2": images["th2"]}, pool
            )
            assert (sub(f * g) - sub(f) * sub(g)).is_zero()
            assert (sub(f + g) - (sub(f) + sub(g))).is_zero()


def _assert_canonical(f):
    """The coefficient invariant: nonzero, a bare QQ element for constants, a
    PolyElement for other polynomials and a FracElement with a non-constant
    denominator otherwise."""
    pool = f.pool
    for c in f.terms.values():
        assert c
        if isinstance(c, FracElement):
            assert c.field is pool.field
            assert not c.denom.is_ground
        elif isinstance(c, PolyElement):
            assert c.ring is pool.ring
            assert not c.is_ground
        else:
            assert type(c) is QQ.dtype


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

    def test_constant_polynomial_is_not_canonical(self, pool):
        """A constant held as a ground PolyElement breaks the invariant."""
        stale = Superfunction(pool, {(): pool.ring.ground_new(QQ(3))})
        with pytest.raises(AssertionError):
            _assert_canonical(stale)
        _assert_canonical(pool.scalar(3))

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
        coefficient a bare QQ element, and body_at reads it as a Fraction."""
        pool = GeneratorPool(*DIVISION_CHARTS[chart])
        rng = seeded(sum(map(ord, chart)) + 12)

        def constant(parity):
            return random_superfunction(pool, rng, parity, max_degree=0)

        point = tuple(Fraction(k + 1, 2) for k in range(pool.n_even))
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
                assert all(type(c) is QQ.dtype for c in r.terms.values())
                _assert_canonical(r)
                body = r.body_at(point)
                assert type(body) is Fraction and pool.scalar(body) == r.body_part()
