"""Lie derivatives, the three Killing characterisations, and the solver."""

import itertools
import math

import pytest
import sympy as sp

from supergeo import Chart
from supergeo import lie, scalars
from supergeo.errors import UnsupportedMetric
from supergeo.exactlinalg import nullspace
from supergeo.geometry import BilinearForm, OneForm, VectorField, flat_metric
from supergeo.lie import (
    KillingChecker,
    _ansatz_fields,
    _coefficient_rows,
    killing_check,
    lie_derivative_bilinear,
    lie_derivative_function,
    lie_derivative_oneform,
    solve_killing,
)
from supergeo.scalars import Superfunction

from conftest import random_field, random_superfunction, seeded

x, y = sp.symbols("x y")


class TestLieDerivativeFunction:
    def test_classical(self, chart_classical):
        ch = chart_classical
        assert lie_derivative_function(
            ch.coordinate_field(0), ch.pool.scalar(x**2)
        ) == ch.pool.scalar(2 * x)

    def test_odd(self, chart_flat22):
        ch = chart_flat22
        assert lie_derivative_function(
            ch.coordinate_field(2), ch.pool.odd("th1")
        ) == ch.pool.one()

    def test_odd_coefficient(self, chart_flat22):
        ch = chart_flat22
        X = VectorField(ch, [ch.pool.odd("th1"), 0, 0, 0], 1)
        assert lie_derivative_function(X, ch.pool.even("x")) == ch.pool.odd("th1")


class TestLieDerivativeOneForm:
    def test_constant_form_constant_field(self, chart_classical):
        ch = chart_classical
        F = OneForm.differential(ch, ch.pool.even("x"))
        assert lie_derivative_oneform(ch.coordinate_field(0), F).is_zero()

    def test_euler_field_scales_dx(self, chart_classical):
        ch = chart_classical
        X = VectorField(ch, [ch.pool.even("x"), 0], 0)
        F = OneForm.differential(ch, ch.pool.even("x"))
        got = lie_derivative_oneform(X, F)
        assert got.components[0] == ch.pool.one()
        assert got.components[1].is_zero()

    def test_constant_odd_direction(self):
        ch = Chart([], ["th1", "th2"], box={})
        F = OneForm.differential(ch, ch.pool.odd("th1"))
        got = lie_derivative_oneform(ch.coordinate_field(0), F)
        assert got.is_zero()

    def test_reproduces_second_derivative_display(self, chart_deformed):
        """L_X df[Y] = (-1)^{|Y|(|f|+|X|)} Y(X(f)) on all coordinate fields."""
        ch = chart_deformed
        rng = seeded(401)
        for _ in range(12):
            fp, xp = rng.randint(0, 1), rng.randint(0, 1)
            f = random_superfunction(ch.pool, rng, fp)
            X = random_field(ch, rng, xp)
            LF = lie_derivative_oneform(X, OneForm.differential(ch, f))
            for j in range(ch.dim):
                sign = -1 if (ch.parity(j) * (fp + xp)) % 2 else 1
                want = ch.coordinate_field(j).apply(X.apply(f)) * sign
                assert (LF.components[j] - want).is_zero()


class TestLieDerivativeBilinear:
    def test_flat_translation(self, metric_flat22):
        ch = metric_flat22.chart
        assert lie_derivative_bilinear(ch.coordinate_field(0), metric_flat22).is_zero()

    def test_euler_conformal_factor(self, chart_classical):
        ch = chart_classical
        g = BilinearForm(ch, [[1, 0], [0, 0]])
        X = VectorField(ch, [ch.pool.even("x"), 0], 0)
        got = lie_derivative_bilinear(X, g)
        assert got.components[0][0] == ch.pool.scalar(2)

    def test_rotation_kills_euclidean(self, chart_classical):
        ch = chart_classical
        g = flat_metric(ch)
        rot = VectorField(ch, [-ch.pool.even("y"), ch.pool.even("x")], 0)
        assert lie_derivative_bilinear(rot, g).is_zero()

    def test_result_supersymmetric_and_even(self, metric_deformed):
        ch = metric_deformed.chart
        rng = seeded(402)
        for _ in range(6):
            X = random_field(ch, rng, 0)
            got = lie_derivative_bilinear(X, metric_deformed)
            assert got.is_supersymmetric()
            assert got.is_homogeneous()

    def test_display_holds_on_noncoordinate_arguments(self, metric_deformed):
        """The component table must reproduce the defining display for
        arbitrary vector fields, not only coordinates.  The second input is
        an even form that is not supersymmetric and has a rational
        coefficient, on a chart with flesh, so no symmetry of B hides a
        sign."""

        def check(B, X, Y, Z):
            table = lie_derivative_bilinear(X, B)
            lhs = table.evaluate(Y, Z)
            sign = -1 if (X.parity * Y.parity) % 2 else 1
            rhs = (
                X.apply(B.evaluate(Y, Z))
                - B.evaluate(X.bracket(Y), Z)
                - B.evaluate(Y, X.bracket(Z)) * sign
            )
            assert (lhs - rhs).is_zero()

        ch = metric_deformed.chart
        rng = seeded(403)
        for _ in range(6):
            xp = rng.randint(0, 1)
            X = random_field(ch, rng, xp)
            Y = random_field(ch, rng, rng.randint(0, 1))
            Z = random_field(ch, rng, rng.randint(0, 1))
            check(metric_deformed, X, Y, Z)

        ch = Chart(["x", "y"], ["th1", "th2"],
                   box={"x": (0, 1), "y": (0, 1)}, flesh=["e1"])
        pool = ch.pool
        rng = seeded(406)
        rows = [
            [random_superfunction(pool, rng, (ch.parity(i) + ch.parity(j)) % 2, 1)
             for j in range(ch.dim)]
            for i in range(ch.dim)
        ]
        rows[0][1] = rows[0][1] + pool.scalar(1 / (x + 2))
        rows[2][3] = rows[2][3] * pool.scalar(1 / (x + 2))
        B = BilinearForm(ch, rows)
        assert B.is_homogeneous() and not B.is_supersymmetric()
        assert not B.components[0][1].is_polynomial()
        for xp, yp, zp in itertools.product((0, 1), repeat=3):
            check(B, random_field(ch, rng, xp), random_field(ch, rng, yp),
                  random_field(ch, rng, zp))


class TestKillingCheck:
    def test_translations_pass_all_modes(self, metric_flat22):
        checker = KillingChecker(metric_flat22)
        for i in range(metric_flat22.chart.dim):
            X = metric_flat22.chart.coordinate_field(i)
            report = checker.check(X, "all")
            assert report.passed and report.agreement

    def test_euler_field_fails_with_residual(self, metric_flat22):
        ch = metric_flat22.chart
        X = VectorField(ch, [ch.pool.even("x"), 0, 0, 0], 0)
        report = killing_check(X, metric_flat22, "all")
        assert not report.passed
        assert report.agreement
        res = report.modes["i"].residuals
        assert any(r == ch.pool.scalar(2) for r in res)

    def test_rotation_passes(self, chart_classical):
        g = flat_metric(chart_classical)
        rot = VectorField(
            chart_classical, [-chart_classical.pool.even("y"),
                              chart_classical.pool.even("x")], 0
        )
        report = killing_check(rot, g, "all")
        assert report.passed and report.agreement

    def test_mode_agreement_random_fields(self, metric_flat22, metric_curved,
                                          metric_deformed):
        rng = seeded(404)
        for g in (metric_flat22, metric_curved, metric_deformed):
            checker = KillingChecker(g)
            for _ in range(6):
                X = random_field(g.chart, rng, rng.randint(0, 1),
                                 allow_flesh=False)
                report = checker.check(X, "all")
                assert report.agreement, (g, X)


class TestSolveKilling:
    def test_euclidean_plane(self, chart_classical):
        g = flat_metric(chart_classical)
        basis = solve_killing(g, 1)
        assert basis.dims == (3, 0)

    def test_purely_odd(self):
        ch = Chart([], ["th1", "th2"], box={})
        basis = solve_killing(flat_metric(ch), 1)
        assert basis.dims == (3, 2)

    def test_flat_22(self, metric_flat22):
        basis = solve_killing(metric_flat22, 1)
        assert basis.dims == (6, 6)

    def test_every_element_passes_mode_i(self, metric_flat22):
        basis = solve_killing(metric_flat22, 1)
        checker = KillingChecker(metric_flat22)
        for X in basis.fields:
            assert checker.check(X, "i").passed

    def test_closed_under_bracket(self, metric_flat22):
        basis = solve_killing(metric_flat22, 1)
        checker = KillingChecker(metric_flat22)
        for X in basis.fields:
            for Y in basis.fields:
                assert checker.check(X.bracket(Y), "i").passed

    def test_curved_metric_killing_algebra(self, metric_curved):
        # dx^2 + x^2 dy^2 admits d_y at degree <= 1 (plus no others)
        basis = solve_killing(metric_curved, 1)
        assert basis.dims == (1, 0)
        assert basis.fields[0] == metric_curved.chart.coordinate_field(1)

    def test_rational_metric_rejected(self, chart_classical):
        ch = chart_classical
        g = BilinearForm(ch, [[ch.pool.scalar(1 / x), 0], [0, 1]])
        with pytest.raises(UnsupportedMetric):
            solve_killing(g, 1)

    def test_deformed_metric_solver_consistent(self, metric_deformed):
        basis = solve_killing(metric_deformed, 1)
        checker = KillingChecker(metric_deformed)
        for X in basis.fields:
            rep = checker.check(X, "all")
            assert rep.passed and rep.agreement

    def test_metric_differentiated_once_per_direction(self, monkeypatch):
        chart = Chart(["x", "y"], ["th1", "th2", "th3", "th4"],
                      box={"x": (0, 1), "y": (0, 1)})
        g = flat_metric(chart)
        entries = {id(e) for row in g.components for e in row}
        calls = []
        partial = Superfunction.partial

        def counting(self, name):
            if id(self) in entries:
                calls.append(name)
            return partial(self, name)

        monkeypatch.setattr(Superfunction, "partial", counting)
        assert solve_killing(g, 1).dims == (13, 12)
        assert len(calls) <= chart.dim**3

    def test_negative_degree_rejected(self, metric_flat22):
        with pytest.raises(ValueError):
            solve_killing(metric_flat22, -1)


@pytest.fixture
def minkowski_super():
    ch = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
    g = BilinearForm(
        ch, [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    )
    return g


class TestIndefiniteSignature:
    def test_signature(self, minkowski_super):
        from supergeo.geometry import validate_metric

        assert validate_metric(minkowski_super).as_tuple() == (1, 1, 2)

    def test_boost_is_killing_all_modes(self, minkowski_super):
        ch = minkowski_super.chart
        p = ch.pool
        boost = VectorField(ch, [p.even("y"), p.even("x"), 0, 0], 0)
        rep = killing_check(boost, minkowski_super, "all")
        assert rep.passed and rep.agreement

    def test_solver_dims_match_osp_formula(self, minkowski_super):
        # even: (t+s)(t+s-1)/2 + m(2m+1) + translations = 1 + 3 + 2
        # odd:  (t+s)2m + odd translations = 4 + 2
        basis = solve_killing(minkowski_super, 1)
        assert basis.dims == (6, 6)


@pytest.fixture
def metric_odd02():
    return flat_metric(Chart([], ["th1", "th2"], box={}))


@pytest.fixture
def metric_flat32():
    box = {"x": (0, 1), "y": (0, 1), "z": (0, 1)}
    return flat_metric(Chart(["x", "y", "z"], ["th1", "th2"], box=box))


class TestHalfSystem:
    """The solver writes ``(L_X g)_ij = 0`` for ``i <= j`` only; on a
    supersymmetric metric the other equations repeat these up to sign."""

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("metric", [
        "metric_flat22", "metric_curved", "metric_deformed", "minkowski_super",
        "metric_odd02", "metric_flat32",
    ])
    def test_basis_is_nullspace_of_full_table(self, request, metric, degree, parity):
        g = request.getfixturevalue(metric)
        chart = g.chart
        fields = []
        for k, c in _ansatz_fields(chart, degree)[parity]:
            comps = [chart.pool.zero()] * chart.dim
            comps[k] = c
            fields.append(VectorField(chart, comps, parity))
        tables = [lie_derivative_bilinear(X, g).components for X in fields]
        rows = _coefficient_rows([[e for row in t for e in row] for t in tables])
        expected = [
            sum((X.scale(chart.pool.scalar(q)) for q, X in zip(vec, fields) if q),
                start=VectorField(chart, [0] * chart.dim, parity))
            for vec in (nullspace(rows, len(fields)) if fields else [])
        ]
        basis = solve_killing(g, degree, parity)
        assert basis.fields == expected
        assert basis.parities == [parity] * len(expected)

    @pytest.mark.parametrize("entries", [
        [[1, 1], [0, 1]],  # not symmetric
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],  # symmetric odd block
    ])
    def test_non_supersymmetric_metric_rejected(self, entries):
        evens = ["x", "y"]
        odds = ["th1", "th2"][: len(entries) - 2]
        ch = Chart(evens, odds, box={"x": (0, 1), "y": (0, 1)})
        with pytest.raises(UnsupportedMetric):
            solve_killing(BilinearForm(ch, entries), 1)

    def test_each_ansatz_monomial_differentiated_once_per_direction(self, monkeypatch):
        chart = Chart(["x", "y"], ["th1", "th2", "th3", "th4"],
                      box={"x": (0, 1), "y": (0, 1)})
        pool = chart.pool
        g = flat_metric(chart)
        for k in range(chart.dim):
            g.partials(k)  # the metric's derivatives, taken before counting
        odds = [
            math.prod(map(pool.odd, om), start=pool.one())
            for size in range(5)
            for om in itertools.combinations(pool.odd_names, size)
        ]
        evens = [pool.one(), pool.even("x"), pool.even("y")]
        monomials = {(e * o).render() for e in evens for o in odds}
        original = scalars._derivative
        alive = []  # every differentiated superfunction, so no id is reused
        seen, repeats, assembly, certifying = set(), [], [], []

        def counting(f, name):
            key = (id(f), name)
            if key in seen:
                repeats.append(key)
            seen.add(key)
            alive.append(f)
            if not certifying and f.render() in monomials:
                assembly.append(key)
            return original(f, name)

        certify = lie._certify_basis

        def flagged(basis, g):
            certifying.append(True)
            return certify(basis, g)

        monkeypatch.setattr(scalars, "_derivative", counting)
        monkeypatch.setattr(lie, "_certify_basis", flagged)
        assert solve_killing(g, 1).dims == (13, 12)
        assert certifying and repeats == []
        assert len(assembly) <= len(monomials) * chart.dim


@pytest.mark.parametrize("n, two_m, degree, dims", [
    (2, 6, 1, (24, 18)),
    (3, 4, 2, (16, 16)),
])
def test_flat_killing_dims_scale(n, two_m, degree, dims):
    """Flat ``(n|2m)`` has the Killing dimensions
    ``n + n(n-1)/2 + m(2m+1) | 2m + 2mn`` at every degree >= 1."""
    m = two_m // 2
    assert dims == (n + n * (n - 1) // 2 + m * (2 * m + 1), 2 * m + 2 * m * n)
    evens = ["x", "y", "z"][:n]
    odds = [f"th{i}" for i in range(1, two_m + 1)]
    chart = Chart(evens, odds, box={v: (0, 1) for v in evens})
    assert solve_killing(flat_metric(chart), degree).dims == dims
