"""Expression parser: grammar, normal form, round trips, error handling."""

import random

import pytest
import sympy as sp

from supergeo import GeneratorPool, parsing, scalars, zpoly
from supergeo.errors import ParseError
from supergeo.parsing import parse_expression

from conftest import random_superfunction, seeded

x = sp.Symbol("x")


@pytest.fixture
def pool():
    return GeneratorPool(["x", "y"], ["th1", "th2"], ["lam1"])


class TestGrammar:
    def test_anticommutation_normal_form(self, pool):
        assert parse_expression("th2*th1", pool) == -(
            pool.odd("th1") * pool.odd("th2")
        )

    def test_square_expansion_drops_nilpotent(self, pool):
        got = parse_expression("(x+th1*th2)^2", pool)
        want = pool.scalar(x**2) + pool.scalar(2 * x) * pool.odd("th1") * pool.odd("th2")
        assert got == want

    def test_rational_coefficient(self, pool):
        assert parse_expression("1/x", pool) == pool.scalar(1 / x)

    def test_precedence(self, pool):
        assert parse_expression("1+2*3", pool) == pool.scalar(7)
        assert parse_expression("2*x^2/4", pool) == pool.scalar(x**2 / 2)
        assert parse_expression("-x^2", pool) == pool.scalar(-(x**2))

    def test_unary_minus_stack(self, pool):
        assert parse_expression("--3", pool) == pool.scalar(3)

    def test_juxtaposition_multiplies(self, pool):
        assert parse_expression("2 x th1 th2", pool) == (
            pool.scalar(2 * x) * pool.odd("th1") * pool.odd("th2")
        )
        assert parse_expression("th1 th2", pool) == pool.odd("th1") * pool.odd("th2")

    def test_flesh_generators_resolve(self, pool):
        assert parse_expression("lam1 th1", pool) == pool.odd("lam1") * pool.odd("th1")

    def test_parentheses(self, pool):
        assert parse_expression("(1+x)*(1-x)", pool) == pool.scalar(1 - x**2)

    def test_negative_exponent_of_unit(self, pool):
        assert parse_expression("x^-2", pool) == pool.scalar(x ** (-2))


class TestErrors:
    def test_syntax_error_has_position(self, pool):
        with pytest.raises(ParseError) as err:
            parse_expression("x +", pool)
        assert err.value.line == 1

    def test_unbalanced_parens(self, pool):
        with pytest.raises(ParseError):
            parse_expression("(x", pool)

    def test_unknown_identifier(self, pool):
        with pytest.raises(ParseError) as err:
            parse_expression("x + zz", pool)
        assert "zz" in str(err.value)
        assert (err.value.line, err.value.column) == (1, 5)

    def test_division_by_non_unit(self, pool):
        with pytest.raises(ParseError) as err:
            parse_expression("1/th1", pool)
        assert "non-unit" in str(err.value)

    def test_bad_exponent(self, pool):
        with pytest.raises(ParseError):
            parse_expression("x^y", pool)

    def test_stray_character(self, pool):
        with pytest.raises(ParseError):
            parse_expression("x @ y", pool)

    def test_empty_input(self, pool):
        with pytest.raises(ParseError):
            parse_expression("", pool)

    def test_the_power_budget_lies_between_1000_and_2000(self, pool):
        base = parse_expression("1 + x", pool)
        assert parsing._power_bits(base, 1000) <= parsing.POWER_BITS < parsing._power_bits(
            base, 2000)

    @pytest.mark.parametrize("text, column", [
        ("(1 + x)^2000", 9),
        ("(1 + x)^-2000", 10),
        ("(1 + x + y)^300", 13),
        ("2^3000000", 3),
    ], ids=["power", "negative_power", "two_variables", "number"])
    def test_a_power_past_the_budget_is_refused_before_any_product(
            self, pool, monkeypatch, text, column):
        """The size of b^k is estimated from k, the degree of b, the number
        of its even variables and its L1 norm; past 2^21 bits the power is
        a ParseError at the exponent, and no product is formed."""
        def refuse(*args):
            raise AssertionError("a product was formed")

        monkeypatch.setattr(scalars, "pmul", refuse)
        monkeypatch.setattr(zpoly, "pmul", refuse)
        with pytest.raises(ParseError) as err:
            parse_expression(text, pool)
        assert (err.value.message, err.value.line, err.value.column) == (
            "power too large: its result may hold more than 2^21 bits", 1, column)

    def test_a_power_of_a_monomial_with_unit_coefficient_is_free(self, pool):
        """x^k holds one term and one unit coefficient whatever k is."""
        power = parse_expression("x^2147483647", pool)
        assert list(power.rational_coefficients()) == [((), (2**31 - 1, 0), 1)]

    @pytest.mark.parametrize("text, message", [
        ("th1^-1", "negative power of a non-unit"),
        ("(" * 5000 + "x" + ")" * 5000, "expression is nested too deeply"),
        ("-" * 5000 + "x", "expression is nested too deeply"),
    ], ids=["odd_negative_power", "nested_parentheses", "nested_minuses"])
    def test_error_message(self, pool, text, message):
        with pytest.raises(ParseError, match=message):
            parse_expression(text, pool)

    def test_multiline_position(self, pool):
        with pytest.raises(ParseError) as err:
            parse_expression("x +\n y + ?", pool)
        assert err.value.line == 2

    def test_position_offset_by_where_the_text_begins(self, pool):
        """A text that begins at line 4, column 9 of a file: the offset
        column holds on its first line only."""
        with pytest.raises(ParseError) as err:
            parse_expression("x + ?", pool, 4, 9)
        assert (err.value.line, err.value.column) == (4, 13)
        with pytest.raises(ParseError) as err:
            parse_expression("x +\n y + ?", pool, 4, 9)
        assert (err.value.line, err.value.column) == (5, 6)
        with pytest.raises(ParseError) as err:
            parse_expression("x^" + "1" * 4301, pool, 4, 9)
        assert (err.value.line, err.value.column) == (4, 11)


class TestRoundTrip:
    def test_print_parse_identity_on_random_elements(self, pool):
        rng = seeded(701)
        for _ in range(40):
            f = random_superfunction(pool, rng, None, max_degree=2)
            assert parse_expression(f.render(), pool) == f

    def test_canonical_render_stable(self, pool):
        f = parse_expression("th2 th1 + x", pool)
        assert parse_expression(f.render(), pool).render() == f.render()


class TestFuzz:
    def test_parser_never_crashes_on_random_bytes(self, pool):
        rng = random.Random(702)
        alphabet = "xy12+-*/^() th" + "\n\t_@#%[]."
        for _ in range(3000):
            n = rng.randint(0, 30)
            text = "".join(rng.choice(alphabet) for _ in range(n))
            try:
                parse_expression(text, pool)
            except ParseError:
                pass

    def test_parser_never_crashes_on_arbitrary_bytes(self, pool):
        rng = random.Random(703)
        for _ in range(500):
            n = rng.randint(0, 20)
            text = "".join(chr(rng.randint(0, 0x2FF)) for _ in range(n))
            try:
                parse_expression(text, pool)
            except ParseError:
                pass
