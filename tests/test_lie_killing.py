"""Lie derivatives, the three Killing characterisations, and the solver."""

import itertools
import math
from fractions import Fraction

import pytest
import sympy as sp

from supergeo import Chart
from supergeo import lie, scalars
from supergeo.errors import (
    CertificateFailure, Check, InvalidArgument, MetricViolation, UnsupportedMetric,
)
from supergeo.exactlinalg import Nullspace, nullspace
from supergeo.geometry import (
    BilinearForm, MetricContext, VectorField, flat_metric, validate_metric,
)
from supergeo.morphisms import HarmonicSetup, Morphism
from supergeo.parsing import parse_expression
from supergeo.lie import (
    KillingChecker,
    form_check,
    killing_check,
    lie_derivative_bilinear,
    solve_killing,
)
from supergeo.scalars import Superfunction
from supergeo.supermatrix import SuperMatrix, flip_sides, osp_residuals

from conftest import in_osp, random_field, random_superfunction, seeded
from test_exactlinalg import _domain_matrix_nullspace

x, y = sp.symbols("x y")


class TestLieDerivativeFunction:
    """L_X f = X(f), which is VectorField.apply."""

    def test_classical(self, chart_classical):
        ch = chart_classical
        assert ch.coordinate_field(0).apply(ch.pool.scalar(x**2)) == ch.pool.scalar(2 * x)

    def test_odd(self, chart_flat22):
        ch = chart_flat22
        assert ch.coordinate_field(2).apply(ch.pool.odd("th1")) == ch.pool.one()

    def test_odd_coefficient(self, chart_flat22):
        ch = chart_flat22
        X = VectorField(ch, [ch.pool.odd("th1"), 0, 0, 0], 1)
        assert X.apply(ch.pool.even("x")) == ch.pool.odd("th1")


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
            assert got.supersymmetry().passed
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
        assert B.is_homogeneous() and not B.supersymmetry().passed
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
        """L_X g = 2 dx^2 for X = x d_x: each mode's one failure is labelled
        by where it broke and carries the exact residual."""
        ch = metric_flat22.chart
        X = VectorField(ch, [ch.pool.even("x"), 0, 0, 0], 0)
        report = killing_check(X, metric_flat22, "all")
        assert not report.passed
        assert report.agreement
        two = ch.pool.scalar(2)
        assert report.modes == {"i": Check([("L[x,x]", two)]), "ii": Check([("pair[x,x]", two)]),
                                "v": Check([("osp[0,0]", -two)])}

    def test_odd_field_failures_are_labelled_in_order(self, metric_flat22):
        """X = x d_th1 is odd and not Killing: mode (i) lists both entries
        of L_X g in row order, mode (ii) the pair with a <= b only, and mode
        (v) the two osp entries by frame index."""
        ch = metric_flat22.chart
        X = VectorField(ch, [0, 0, ch.pool.even("x"), 0], 1)
        minus, plus = ch.pool.scalar(-1), ch.pool.one()
        checker = KillingChecker(metric_flat22)
        assert checker.mode_i(X).failures == [("L[x,th2]", minus), ("L[th2,x]", minus)]
        assert checker.mode_ii(X).failures == [("pair[x,th2]", minus)]
        assert checker.mode_v(X).failures == [("osp[0,3]", plus), ("osp[3,0]", plus)]

    def test_rotation_passes(self, chart_classical):
        g = flat_metric(chart_classical)
        rot = VectorField(
            chart_classical, [-chart_classical.pool.even("y"),
                              chart_classical.pool.even("x")], 0
        )
        report = killing_check(rot, g, "all")
        assert report.passed and report.agreement

    def test_mode_agreement_random_fields(self, metric_flat22, metric_curved,
                                          metric_deformed, metric_mixed):
        rng = seeded(404)
        for g in (metric_flat22, metric_curved, metric_deformed, metric_mixed):
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

    @staticmethod
    def _count_nullspace_calls(monkeypatch):
        calls = []
        solve = lie.nullspace
        monkeypatch.setattr(lie, "nullspace", lambda *args: calls.append(args) or solve(*args))
        return calls

    def test_odd_form_rejected_before_solving(self, monkeypatch):
        """An odd form that is polynomial and supersymmetric fails the
        evenness axiom before any system is eliminated."""
        calls = self._count_nullspace_calls(monkeypatch)
        ch = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)})
        B = BilinearForm(ch, [[ch.pool.odd("th1"), 1, 0], [1, 0, 0], [0, 0, 0]], 1)
        assert B.supersymmetry().passed
        with pytest.raises(MetricViolation) as err:
            solve_killing(B, 1)
        assert err.value.violation == "evenness"
        assert calls == []

    def test_inhomogeneous_even_form_rejected_before_solving(self, monkeypatch):
        """A parity-0 form with an odd term in its even block is no metric:
        the solver rejects it as validate_metric does, before any
        elimination, instead of solving for a basis."""
        calls = self._count_nullspace_calls(monkeypatch)
        ch = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)})
        B = BilinearForm(ch, [[1 + ch.pool.odd("th1"), 0, 0], [0, 0, -1], [0, 1, 0]])
        assert B.parity == 0 and B.supersymmetry().passed
        with pytest.raises(MetricViolation) as err:
            solve_killing(B, 1)
        assert err.value.violation == "evenness"
        assert calls == []

    @pytest.mark.parametrize("rows, box", [
        (lambda x: [[1, 0], [0, 0]], {"x": (0, 1), "y": (0, 1)}),
        (lambda x: [[1, 0], [0, x * x]], {"x": (-1, 1), "y": (0, 1)}),
    ], ids=["identically_degenerate", "singular_at_the_sample_point"])
    def test_degenerate_form_rejected_before_solving(self, monkeypatch, rows, box):
        """A polynomial form whose body determinant vanishes identically, or
        vanishes at a point of the closed box (here x^2 at the midpoint x =
        0, where the sign test of the body determinant cuts [-1, 1]), is
        rejected for nondegeneracy as validate_metric rejects it, before any
        elimination."""
        calls = self._count_nullspace_calls(monkeypatch)
        ch = Chart(["x", "y"], [], box=box)
        B = BilinearForm(ch, rows(ch.pool.even("x")))
        with pytest.raises(MetricViolation) as err:
            validate_metric(B)
        assert err.value.violation == "nondegeneracy"
        with pytest.raises(MetricViolation) as err:
            solve_killing(B, 1)
        assert err.value.violation == "nondegeneracy"
        assert calls == []

    def test_deformed_metric_solver_consistent(self, metric_deformed):
        basis = solve_killing(metric_deformed, 1)
        checker = KillingChecker(metric_deformed)
        for X in basis.fields:
            rep = checker.check(X, "all")
            assert rep.passed and rep.agreement

    @pytest.mark.parametrize("degree, dims", [(1, (2, 1)), (2, (2, 2))])
    def test_mixed_block_metric(self, metric_mixed, degree, dims):
        """Modes (ii) and (v) check the solver's fields without the Leibniz
        table that the solver and mode (i) share."""
        basis = solve_killing(metric_mixed, degree)
        assert basis.dims == dims
        checker = KillingChecker(metric_mixed)
        for X in basis.fields:
            rep = checker.check(X, "all")
            assert rep.passed and rep.agreement

    def test_one_set_up_per_metric(self, monkeypatch, metric_mixed):
        """A solve reads each metric entry's coefficients once, not once per
        parity, and the solver and mode (i) share one Leibniz table of g."""
        g = metric_mixed
        entries = [e for row in g.components for e in row if not e.is_zero()]
        ids = {id(e) for e in entries}
        reads, tables = [], []
        coefficients, leibniz = Superfunction.rational_coefficients, lie._leibniz

        def counting(self):
            if id(self) in ids:
                reads.append(self)
            return coefficients(self)

        def recording(B):
            tables.append(leibniz(B))
            return tables[-1]

        monkeypatch.setattr(Superfunction, "rational_coefficients", counting)
        monkeypatch.setattr(lie, "_leibniz", recording)
        assert solve_killing(g, 1).dims == (2, 1)
        assert len(reads) == len(entries)
        assert KillingChecker(g).mode_i(g.chart.coordinate_field(1)).passed
        assert len(tables) > 2 and all(t is tables[0] for t in tables)

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

    @pytest.mark.parametrize("degree, parity", [(1, 2), (1, -1), (1, True), (True, None),
                                                (1.0, None)])
    def test_bad_degree_or_parity_rejected(self, metric_flat22, degree, parity):
        """The degree is an int and the parity 0, 1 or None; bools are not
        taken as ints.  Parity 2 raised an IndexError and -1 returned an
        empty basis."""
        with pytest.raises(InvalidArgument, match="degree|parity"):
            solve_killing(metric_flat22, degree, parity)


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


def _mode_v_by_frame_inverse(g, X):
    """The osp residuals of mode (v) by the inverse route: the left
    coefficients of ``[X, e_i]`` in the frame by the inverse of the matrix
    ``M[m][a] = (e_m)^a``, flipped to the right coefficients ``L_mi``."""
    chart, pool = g.chart, g.chart.pool
    metric = MetricContext.of(g)
    frame, sig = metric.frame, metric.signature
    M = SuperMatrix(pool, chart.n, chart.two_m, [e.components for e in frame.fields])
    Minv = M.inverse()
    cols = []
    for i, ei in enumerate(frame.fields):
        br = X.bracket(ei).components
        u = [sum((c * Minv.entries[a][m] for a, c in enumerate(br)), start=pool.zero())
             for m in range(chart.dim)]
        cols.append(flip_sides(u, X.parity + chart.parity(i), chart.n))
    L = SuperMatrix(pool, chart.n, chart.two_m, [list(r) for r in zip(*cols)], X.parity)
    return Check.grid("osp", osp_residuals(L, sig.t, sig.s, sig.two_m // 2), range(chart.dim))


class TestModeV:
    """Mode (v) reads ``L_mi = s_m g(e_{J(m)}, [X, e_i])`` off the metric."""

    @pytest.mark.parametrize("metric", [
        "metric_flat22", "metric_curved", "metric_deformed", "minkowski_super", "metric_mixed",
    ])
    def test_mode_v_matches_the_inverse_route(self, request, metric):
        g = request.getfixturevalue(metric)
        checker = KillingChecker(g)
        rng = seeded(25)
        failed = 0
        for parity in (0, 1, 0, 1, 0, 1):
            X = random_field(g.chart, rng, parity, allow_flesh=False)
            got = checker.mode_v(X)
            assert got == _mode_v_by_frame_inverse(g, X), (metric, X)
            failed += not got.passed
        assert failed  # the failure lists compared are not all empty

    def test_mode_v_builds_no_supermatrix_inverse(self, monkeypatch, metric_deformed):
        checker = KillingChecker(metric_deformed)
        checker.metric.frame  # Gram-Schmidt may invert; mode (v) may not

        def refuse(self):
            raise AssertionError("mode (v) inverted a supermatrix")

        monkeypatch.setattr(SuperMatrix, "inverse", refuse)
        chart = metric_deformed.chart
        assert checker.mode_v(chart.coordinate_field(0)).passed
        assert not checker.mode_v(VectorField(chart, [chart.pool.even("x"), 0, 0], 0)).passed


@pytest.fixture
def metric_odd02():
    return flat_metric(Chart([], ["th1", "th2"], box={}))


@pytest.fixture
def metric_flat32():
    box = {"x": (0, 1), "y": (0, 1), "z": (0, 1)}
    return flat_metric(Chart(["x", "y", "z"], ["th1", "th2"], box=box))


def _ansatz_fields(chart, degree):
    """The solver's ansatz columns as ``(k, c)`` pairs, ``X = c d_k``."""
    return [[(k, chart.pool.from_coefficients([(mono, exps, 1)])) for k, mono, exps in columns]
            for columns in lie._ansatz(chart, degree)]


def _coefficient_rows(columns):
    """Sparse rational rows ``{column: int or Fraction}``, one column per
    list of superfunctions; a row is one (list index, odd monomial, even
    exponents) key, in order of first appearance."""
    keys = {}
    rows = []
    for col, entries in enumerate(columns):
        for k, entry in enumerate(entries):
            for mono, exps, q in entry.rational_coefficients():
                r = keys.setdefault((k, mono, exps), len(keys))
                if r == len(rows):
                    rows.append({})
                rows[r][col] = q
    return rows


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
            sum((fields[c].scale(chart.pool.scalar(q)) for c, q in vec.items()),
                start=VectorField(chart, [0] * chart.dim, parity))
            for vec in (nullspace(rows, len(fields)) if fields else [])
        ]
        basis = solve_killing(g, degree, parity)
        assert basis.fields == expected
        assert [X.parity for X in basis.fields] == [parity] * len(expected)

    @pytest.mark.parametrize("entries", [
        [[1, 1], [0, 1]],  # not symmetric
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],  # symmetric odd block
    ])
    def test_non_supersymmetric_metric_rejected(self, entries):
        evens = ["x", "y"]
        odds = ["th1", "th2"][: len(entries) - 2]
        ch = Chart(evens, odds, box={"x": (0, 1), "y": (0, 1)})
        with pytest.raises(MetricViolation) as err:
            solve_killing(BilinearForm(ch, entries), 1)
        assert err.value.violation == "supersymmetry"

    def test_each_ansatz_monomial_differentiated_once_per_direction(self, monkeypatch):
        chart = Chart(["x", "y"], ["th1", "th2", "th3", "th4"],
                      box={"x": (0, 1), "y": (0, 1)})
        pool = chart.pool
        g = flat_metric(chart)
        lie._leibniz(g)  # the metric's derivatives, taken before counting
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


def _flat_dims(n, two_m):
    m = two_m // 2
    return n + n * (n - 1) // 2 + m * (2 * m + 1), 2 * m + 2 * m * n


@pytest.mark.parametrize("n, two_m, degree, dims", [
    (2, 6, 1, (24, 18)),
    (3, 4, 2, (16, 16)),
])
def test_flat_killing_dims_scale(n, two_m, degree, dims):
    """Flat ``(n|2m)`` has the Killing dimensions
    ``n + n(n-1)/2 + m(2m+1) | 2m + 2mn`` at every degree >= 1."""
    assert dims == _flat_dims(n, two_m)
    evens = ["x", "y", "z"][:n]
    odds = [f"th{i}" for i in range(1, two_m + 1)]
    chart = Chart(evens, odds, box={v: (0, 1) for v in evens})
    assert solve_killing(flat_metric(chart), degree).dims == dims


def _even_degree(f):
    return max((sum(exps) for _, exps, _ in f.rational_coefficients()), default=0)


def _unipotent_images(chart, rng):
    """A seeded unipotent triangular map ``u_i = x_i + p_i``, ``e_a = th_a +
    q_a``: ``p_i`` is a power of a later even coordinate plus ``th_a th_b``
    times an even coordinate or a constant, which makes the pulled-back
    mixed block depend on the thetas; ``q_a`` is a later odd coordinate
    times an even coordinate, plus a cubic in later odd coordinates where
    three exist.  The body of the Jacobian is unipotent upper triangular, so
    the map has a polynomial inverse and every leading minor of the
    pulled-back body is 1: the OSp frame of mode (v) is exact."""
    pool, n, q = chart.pool, chart.n, chart.two_m
    xs = [pool.even(name) for name in pool.even_names]
    ths = [pool.odd(name) for name in pool.odd_names]
    images = []
    for i in range(n):
        f = xs[i]
        if i + 1 < n:
            f = f + rng.choice([-1, 1, 2]) * rng.choice(xs[i + 1:]) ** rng.randint(1, 2)
        a, b = sorted(rng.sample(range(q), 2))
        images.append(f + ths[a] * ths[b] * rng.choice([*xs, 1, -1, 2]))
    for a in range(q):
        f = ths[a]
        if a + 1 < q:
            f = f + ths[rng.randint(a + 1, q - 1)] * rng.choice(xs) * rng.choice([1, -1, 3])
        if q - a >= 4:
            b, c, d = sorted(rng.sample(range(a + 1, q), 3))
            f = f + ths[b] * ths[c] * ths[d]
        images.append(f)
    return images


def _roadmap_images(chart):
    """u = x + th1 th2, e1 = th1 + x th2, e2 = th2 on (1|2)."""
    pool = chart.pool
    x, t1, t2 = pool.even("x1"), pool.odd("th1"), pool.odd("th2")
    return [x + t1 * t2, t1 + x * t2, t2]


@pytest.mark.parametrize("n, two_m, seed", [
    (1, 2, None), (1, 2, 0), (2, 2, 0), (2, 2, 1), (1, 4, 0), (1, 4, 1), (2, 4, 0), (2, 4, 1),
])
def test_pulled_back_flat_metric_has_the_flat_killing_algebra(n, two_m, seed):
    """The Killing algebra does not depend on coordinates: for a polynomial
    automorphism phi, ``phi^* g_flat`` has the flat dimensions.  Every flat
    Killing field has components of degree <= 1 in the target coordinates,
    and its push-forward through phi^-1 has components ``(Y o phi) J^-1``
    for the Jacobian ``J_ka = d_k phi^a``; so the degree D below, from the
    map and the exact inverse of J, covers them.  At each degree up to D the
    solver returns no more than the flat count, never fewer than at the
    degree before, and at D exactly the flat count.  The fields at D span
    those of every lower degree, and modes (ii) and (v), which do not read
    the Leibniz table of the solver, pass on each of them."""
    even = [f"x{i + 1}" for i in range(n)]
    odd = [f"th{a + 1}" for a in range(two_m)]
    source = Chart(even, odd, box={v: (0, 1) for v in even})
    target = Chart([f"u{i + 1}" for i in range(n)], [f"e{a + 1}" for a in range(two_m)],
                   box={f"u{i + 1}": (-100, 100) for i in range(n)})
    images = _roadmap_images(source) if seed is None else _unipotent_images(source, seeded(seed))
    phi = Morphism(source, target, dict(zip(target.coordinate_names(), images)))
    g = HarmonicSetup(phi, flat_metric(source), flat_metric(target)).pullback_metric()
    assert any(mono for e in g.components[0][n:] for mono, _, _ in e.rational_coefficients())
    J = SuperMatrix(source.pool, n, two_m, [[source.coordinate_field(k).apply(f) for f in images]
                                            for k in range(source.dim)])
    D = max(map(_even_degree, images)) + max(_even_degree(e) for row in J.inverse().entries
                                              for e in row)
    flat = _flat_dims(n, two_m)
    dims = [solve_killing(g, d).dims for d in range(1, D)]
    basis = solve_killing(g, D)
    dims.append(basis.dims)
    assert all(e <= f for dim in dims for e, f in zip(dim, flat))
    assert all(e <= f for lo, hi in zip(dims, dims[1:]) for e, f in zip(lo, hi))
    assert dims[-1] == flat
    checker = KillingChecker(g)
    for X in basis.fields:
        assert checker.check(X, "ii").passed and checker.check(X, "v").passed


@pytest.fixture
def metric_odd_entries():
    """Supersymmetric on (2|2) with odd entries, th1*th2 in a body and
    x, y in the coefficients."""
    ch = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
    p = ch.pool
    x, y, t1, t2 = p.even("x"), p.even("y"), p.odd("th1"), p.odd("th2")
    return BilinearForm(ch, [[1 + t1 * t2, 0, t2, 0],
                             [0, y + 2, 0, x * t1],
                             [t2, 0, 0, -1 - x * t1 * t2],
                             [0, x * t1, 1 + x * t1 * t2, 0]])


@pytest.fixture
def metric_rational():
    """Polynomial entries with rational coefficients over three denominators."""
    ch = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
    x, y = ch.pool.even("x"), ch.pool.even("y")
    return BilinearForm(ch, [[x * Fraction(1, 2) + Fraction(1, 3), 0, 0, 0],
                             [0, y * y * Fraction(2, 5) + 1, 0, 0],
                             [0, 0, 0, Fraction(-3, 4)],
                             [0, 0, Fraction(3, 4), 0]])


@pytest.fixture
def metric_flesh():
    """A (1|2) chart with two flesh generators in the metric's entries."""
    ch = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)}, flesh=["eta1", "eta2"])
    p = ch.pool
    x, t1, e1, e2 = p.even("x"), p.odd("th1"), p.odd("eta1"), p.odd("eta2")
    return BilinearForm(ch, [[1 + t1 * e1 + x * e1 * e2, e2, x * e1],
                             [e2, 0, -1 - e1 * e2],
                             [x * e1, 1 + e1 * e2, 0]])


def _normalised(row):
    """A sparse row divided by its entry at its first column."""
    lead = Fraction(row[min(row)])
    return sorted((c, Fraction(v) / lead) for c, v in row.items())


class TestKillingRows:
    """The solver's integer rows against the Leibniz route: the ``i <= j``
    entries of ``L_X g`` for each column field ``X = c d_k``, flattened by
    ``_coefficient_rows``."""

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("metric", [
        "metric_flat22", "metric_curved", "metric_deformed", "metric_odd_entries",
        "metric_rational", "metric_flesh", "metric_mixed",
    ])
    def test_rows_match_the_leibniz_route(self, request, metric, degree, parity):
        g = request.getfixturevalue(metric)
        chart = g.chart
        pairs = [(i, j) for i in range(chart.dim) for j in range(i, chart.dim)]
        den = math.lcm(1, *(q.denominator for row in g.components for e in row
                            for _, _, q in e.rational_coefficients()))
        rows = lie._killing_rows(g, lie._ansatz(chart, degree)[parity], parity, den)
        tables = []
        for k, c in _ansatz_fields(chart, degree)[parity]:
            comps = [chart.pool.zero()] * chart.dim
            comps[k] = c
            L = lie_derivative_bilinear(VectorField(chart, comps, parity), g).components
            tables.append([L[i][j] for i, j in pairs])
        oracle = _coefficient_rows(tables)
        assert all(type(c) is int and c for row in rows for c in row.values())
        ncols = len(tables)
        assert nullspace(rows, ncols) == nullspace(oracle, ncols)
        # the same rows, each up to a scale: no row or entry that cancels is kept
        assert sorted(map(_normalised, rows)) == sorted(map(_normalised, oracle))

    @pytest.mark.parametrize("metric", ["metric_odd_entries", "metric_rational", "metric_flesh"])
    def test_solver_certifies_its_basis(self, request, metric):
        g = request.getfixturevalue(metric)
        basis = solve_killing(g, 1)
        assert all(lie_derivative_bilinear(X, g).is_zero() for X in basis.fields)


def test_a_non_killing_basis_field_is_named_with_its_first_failure(monkeypatch,
                                                                  chart_classical):
    """The solver's Killing certificate names the field that failed it and
    that field's first failure: here the second even field, bent into the
    Euler field x d_x, whose L_X g is 2 dx^2."""
    g, pool = flat_metric(chart_classical), chart_classical.pool
    columns = lie._ansatz(chart_classical, 1)[0]
    [euler] = [c for c in range(len(columns))
               if lie._components(chart_classical, {c: 1}, columns) == [pool.even("x"), 0]]

    def bending(rows, ncols):
        vectors = nullspace(rows, ncols)
        vectors[1] = {euler: Fraction(1)}
        return vectors

    monkeypatch.setattr(lie, "nullspace", bending)
    with pytest.raises(CertificateFailure) as err:
        solve_killing(g, 1)
    assert str(err.value) == "solver produced a non-Killing field even_2: L[x,x]: (2)"


def test_a_dependent_basis_is_refused_with_its_rank(monkeypatch, metric_flat22):
    """The independence certificate names the exact rank of the basis's
    coefficient rows and the field count: here each system's last vector
    repeats its first, so 12 Killing fields span a rank of 10."""
    def repeating(rows, ncols):
        vectors = nullspace(rows, ncols)
        vectors[-1] = vectors[0]
        return vectors

    monkeypatch.setattr(lie, "nullspace", repeating)
    with pytest.raises(CertificateFailure) as err:
        solve_killing(metric_flat22, 1)
    assert str(err.value) == "solver basis is linearly dependent: rank 10 for 12 fields"


@pytest.mark.parametrize("evens, odds, degree, x1x1, rank", [
    (1, 2, 1, None, 8),
    (2, 2, 1, None, 12),
    (2, 4, 1, None, 25),
    (1, 2, 2, None, 8),
    (2, 4, 1, "1 + th1 th2 + x2^2", 9),
], ids=["flat12", "flat22", "flat24", "flat12_degree2", "deformed24"])
def test_killing_fields_form_a_lie_superalgebra(evens, odds, degree, x1x1, rank):
    """The super bracket of two Killing fields is Killing, so the solver's
    basis spans a Lie superalgebra: every [X, Y] of two basis fields passes
    :func:`form_check` and lies in their span, since the exact rank over QQ
    of the basis and all brackets stays the basis's.  [Y, X] is
    -(-1)^{|X||Y|} [X, Y], so the pairs X <= Y suffice."""
    xs = [f"x{i}" for i in range(1, evens + 1)]
    chart = Chart(xs, [f"th{i}" for i in range(1, odds + 1)], box=dict.fromkeys(xs, (0, 1)))
    g = flat_metric(chart)
    if x1x1 is not None:
        rows = [list(row) for row in g.components]
        rows[0][0] = parse_expression(x1x1, chart.pool)
        g = BilinearForm(chart, rows)
    basis = solve_killing(g, degree).fields
    brackets = [X.bracket(Y) for i, X in enumerate(basis) for Y in basis[i:]]
    assert not all(B.is_zero() for B in brackets)
    for B in brackets:
        assert form_check(lie_derivative_bilinear(B, g)).passed
    fields = basis + brackets
    ranks = [_domain_matrix_nullspace(_coefficient_rows([X.components for X in f]), len(f))[1]
             for f in (basis, fields)]
    assert ranks == [rank, rank]


def _linear_part(X):
    """The linear part of a field X, the supermatrix of X's parity with
    entry (a, b) equal to (-1)^{|X||b|} d_b X^a: then [X, d_b] = -sum_a d_a
    L[a][b] on the constant entries of a flat chart's affine fields."""
    chart = X.chart
    names = chart.coordinate_names()
    rows = [[c.partial(names[b]) * (-1 if X.parity * chart.parity(b) else 1)
             for b in range(chart.dim)] for c in X.components]
    return SuperMatrix(chart.pool, chart.n, chart.two_m, rows, X.parity)


@pytest.mark.parametrize("evens, odds", [(1, 2), (2, 2), (2, 4)],
                         ids=["flat12", "flat22", "flat24"])
def test_flat_killing_fields_are_translations_and_osp(evens, odds):
    """On a flat chart the degree-1 Killing fields are affine: the constant
    ones are the dim translations, which span an abelian ideal, and the
    linear part of every other field lies in ``osp(0, n | 2m)``, with the
    bracket going to minus the supercommutator of the linear parts, formed
    by supermatrix products of factors of either parity."""
    xs = [f"x{i}" for i in range(1, evens + 1)]
    chart = Chart(xs, [f"th{i}" for i in range(1, odds + 1)], box=dict.fromkeys(xs, (0, 1)))
    names = chart.coordinate_names()

    def constant(X):
        return all(c.partial(n).is_zero() for c in X.components for n in names)

    basis = solve_killing(flat_metric(chart), 1).fields
    constants = [X for X in basis if constant(X)]
    others = [X for X in basis if not constant(X)]
    assert len(constants) == chart.dim
    for X in basis:
        assert all(constant(X.bracket(C)) for C in constants)
    assert all(C.bracket(D).is_zero() for C in constants for D in constants)
    linear = [_linear_part(X) for X in others]
    assert all(in_osp(L, 0, evens, odds // 2) for L in linear)
    parities = set()
    for i, (X, LX) in enumerate(zip(others, linear)):
        for Y, LY in zip(others[i:], linear[i:]):
            sign = -1 if X.parity * Y.parity else 1
            assert _linear_part(X.bracket(Y)) == -(LX * LY - LY * LX * sign)
            parities.add((X.parity, Y.parity))
    assert parities == {(0, 0), (0, 1), (1, 1)}  # the basis lists even fields first


class TestCompleteness:
    """``rank(rows) = N - k``, the exact rank of the elimination the basis
    came from, proves that no Killing field of the ansatz is missing from a
    basis of k certified fields."""

    def test_basis_missing_a_vector_is_refused(self, monkeypatch, metric_flat22):
        def dropping_last(rows, ncols):
            vectors = nullspace(rows, ncols)
            del vectors[-1]
            return vectors

        monkeypatch.setattr(lie, "nullspace", dropping_last)
        with pytest.raises(CertificateFailure) as err:
            solve_killing(metric_flat22, 1)
        assert str(err.value) == ("Killing basis completeness unproven for parity 0:"
                                  " rank 18 + 5 fields != 24 columns")

    def test_a_short_rank_is_refused(self, monkeypatch, metric_flat22):
        """An elimination whose rank falls short leaves a rank below
        ``N - k``, which does not prove completeness."""
        def short(rows, ncols):
            vectors = nullspace(rows, ncols)
            return Nullspace(vectors, vectors.rank - 1)

        monkeypatch.setattr(lie, "nullspace", short)
        with pytest.raises(CertificateFailure) as err:
            solve_killing(metric_flat22, 1)
        assert str(err.value) == ("Killing basis completeness unproven for parity 0:"
                                  " rank 17 + 6 fields != 24 columns")


class TestLifting:
    """Systems whose exact basis has wide entries, or whose rank drops mod a
    prime that divides them: one elimination over the integers per system
    gives the basis that ``DomainMatrix.rref`` over QQ gives."""

    @staticmethod
    def _systems(monkeypatch):
        systems = []

        def recording(rows, ncols):
            systems.append((rows, ncols))
            return nullspace(rows, ncols)

        monkeypatch.setattr(lie, "nullspace", recording)
        return systems

    def test_a_132_bit_entry_is_exact(self, monkeypatch):
        """``y,y = 97^-20``: the rotation ``-97^-20 y d_x + x d_y`` has an
        entry of 132 bits."""
        ch = Chart(["x", "y"], [], box={"x": (0, 1), "y": (0, 1)})
        g = BilinearForm(ch, [[1, 0], [0, Fraction(1, 97**20)]])
        systems = self._systems(monkeypatch)
        basis = solve_killing(g, 1, 0)
        assert basis.dims == (3, 0)
        x, y = ch.pool.even("x"), ch.pool.even("y")
        assert VectorField(ch, [y * Fraction(-1, 97**20), x], 0) in basis.fields
        (rows, ncols), = systems
        assert nullspace(rows, ncols) == _domain_matrix_nullspace(rows, ncols)[0]

    def test_a_metric_entry_of_97_is_exact(self, monkeypatch):
        """``y,y = 97``: the system loses rank mod 97, not over QQ."""
        ch = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
        g = BilinearForm(ch, [[1, 0, 0, 0], [0, 97, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        systems = self._systems(monkeypatch)
        assert solve_killing(g, 1).dims == (6, 6)
        for rows, ncols in systems:
            vectors = nullspace(rows, ncols)
            assert (vectors, vectors.rank) == _domain_matrix_nullspace(rows, ncols)

    def test_rows_of_determinant_2_61_minus_1_have_full_rank(self):
        rows = [{0: 1, 1: 1}, {0: 1, 1: 2**61}]  # determinant 2^61 - 1, a prime
        vectors = nullspace(rows, 2)
        assert (vectors, vectors.rank) == ([], 2) == _domain_matrix_nullspace(rows, 2)


@pytest.mark.parametrize("even, odd, flesh", [
    (["x", "y"], [], ()), ([], ["th1", "th2"], ()), (["x"], ["th1", "th2"], ("lam1", "lam2")),
    (["x", "y"], ["th1", "th2", "th3", "th4"], ()),
], ids=["(2|0)", "(0|2)", "(1|2)+flesh", "(2|4)"])
def test_ansatz_size_counts_the_ansatz(even, odd, flesh):
    """``ansatz_size`` is the number of columns ``_ansatz`` builds, for each
    parity and both together; flesh generators take no part."""
    ch = Chart(even, odd, {name: (0, 1) for name in even}, flesh)
    for degree in range(4):
        bases = lie._ansatz(ch, degree)
        assert lie.ansatz_size(ch, degree) == len(bases[0]) + len(bases[1])
        for p in (0, 1):
            assert lie.ansatz_size(ch, degree, p) == len(bases[p])
