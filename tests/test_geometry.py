"""Charts, brackets, metrics, Levi-Civita, frames and divergences."""

import itertools
from fractions import Fraction

import pytest
import sympy as sp

from supergeo import Chart
from supergeo.errors import (ChartMismatch, InexactCoefficient, InvalidArgument, MetricViolation,
                             ParityError)
from supergeo.geometry import (
    BilinearForm,
    Connection,
    OneForm,
    OSpFrame,
    VectorField,
    connection_residuals,
    divergence,
    divergence_via_frame,
    flat_metric,
    levi_civita,
    str_with_metric,
    str_with_metric_via_matrix,
    validate_metric,
)
from supergeo.lie import KillingChecker
from supergeo.morphisms import FieldAlongMorphism, Morphism
from supergeo.supermatrix import SuperMatrix, pair_columns

from conftest import random_field, random_superfunction, seeded, tensor_product

x, y = sp.symbols("x y")


class TestVectorFieldBasics:
    def test_apply_classical(self, chart_classical):
        ch = chart_classical
        X = VectorField(ch, [ch.pool.even("x"), 0], 0)
        assert X.apply(ch.pool.scalar(x**2)) == ch.pool.scalar(2 * x**2)

    def test_apply_odd(self, chart_flat22):
        ch = chart_flat22
        f = ch.pool.odd("th1") * ch.pool.odd("th2")
        assert ch.coordinate_field(2).apply(f) == ch.pool.odd("th2")

    def test_apply_mixed(self, chart_flat22):
        ch = chart_flat22
        X = VectorField(ch, [ch.pool.odd("th1"), 0, 0, 0], 1)
        f = ch.pool.even("x") * ch.pool.odd("th2")
        assert X.apply(f) == ch.pool.odd("th1") * ch.pool.odd("th2")

    def test_chart_mismatch(self, chart_flat22, chart_classical):
        with pytest.raises(ChartMismatch):
            chart_flat22.coordinate_field(0).apply(chart_classical.pool.one())

    def test_coordinate_fields_are_built_once(self, chart_flat22):
        ch = chart_flat22
        for i in range(ch.dim):
            assert ch.coordinate_field(i) is ch.coordinate_field(i)
            assert ch.coordinate_field(i).parity == ch.parity(i)
            assert [not c.is_zero() for c in ch.coordinate_field(i).components] == [
                a == i for a in range(ch.dim)]


@pytest.mark.parametrize("name", ["z", "th1", "lam1"])
def test_a_chart_box_names_only_even_coordinates(name):
    """A box interval for an unknown name, an odd coordinate or a flesh
    generator is rejected, not ignored."""
    with pytest.raises(ValueError, match=f"box interval for '{name}', which is not an even"):
        Chart(["x"], ["th1", "th2"], box={"x": (0, 1), name: (0, 1)}, flesh=("lam1",))


@pytest.mark.parametrize("bounds", [(0.1, 1), (0, 1.0), (False, True)])
def test_a_chart_box_bound_must_be_exact(bounds):
    """A float or a bool box bound raises InexactCoefficient, as
    ``pool.scalar(0.5)`` and ``pool.scalar(True)`` do, instead of being kept
    as the float's binary fraction or as 0 and 1; ints and ``Fraction``s
    are kept as ``Fraction``s, and a sympy Rational is no bound."""
    with pytest.raises(InexactCoefficient, match="'x' needs exact rational bounds"):
        Chart(["x"], [], {"x": bounds})
    exact = Chart(["x"], [], {"x": (0, Fraction(1, 2))}).box["x"]
    assert exact == (Fraction(0), Fraction(1, 2))
    assert all(type(q) is Fraction for q in exact)
    with pytest.raises(InexactCoefficient, match="'x' needs exact rational bounds"):
        Chart(["x"], [], {"x": (sp.Rational(1, 3), Fraction(1, 2))})


@pytest.mark.parametrize("box", [{"x": (0, 1, 2)}, {"x": (0,)}, {"x": 5}, None])
def test_a_chart_box_is_a_dict_of_pairs(box):
    """A box that is not a dict, or an interval that is not a pair, raises
    InvalidArgument; an unpacking ValueError or a TypeError escaped."""
    with pytest.raises(InvalidArgument, match="box") as excinfo:
        Chart(["x"], [], box)
    assert excinfo.type is InvalidArgument


@pytest.mark.parametrize("parity", [0.5, 1.0, True, False, "1", None, Fraction(1)])
@pytest.mark.parametrize("kind", ["vector", "oneform", "zero_field", "along"])
def test_field_parity_is_an_int(chart_flat22, kind, parity):
    """A non-int parity was kept as ``parity % 2`` (0.5 built a field of
    parity 0.5, True was taken as 1) or leaked a bare TypeError."""
    ch = chart_flat22
    zero = [0] * ch.dim
    identity = Morphism(ch, ch, {n: ch.pool.generator(n) for n in ch.coordinate_names()})
    build = {
        "vector": lambda p: VectorField(ch, zero, p),
        "oneform": lambda p: OneForm(ch, zero, p),
        "zero_field": ch.zero_field,
        "along": lambda p: FieldAlongMorphism(identity, zero, p),
    }[kind]
    with pytest.raises(InvalidArgument, match="parity") as excinfo:
        build(parity)
    assert excinfo.type is InvalidArgument
    assert build(3).parity == 1


@pytest.mark.parametrize("t", [-1, 3, True])
def test_flat_metric_needs_t_in_range(chart_flat22, t):
    """t counts the negative even directions: an int in 0..n, else
    InvalidArgument (an IndexError escaped for t = -1 and t = n + 1)."""
    with pytest.raises(InvalidArgument, match=r"an int in 0\.\.2"):
        flat_metric(chart_flat22, t)
    assert validate_metric(flat_metric(chart_flat22, 2)).as_tuple() == (2, 0, 2)


class TestBracket:
    def test_odd_odd_anticommutator(self, chart_deformed):
        ch = chart_deformed
        # [d_th, th d_x] = d_x
        X = ch.coordinate_field(1)
        Y = VectorField(ch, [ch.pool.odd("th1"), 0, 0], 1)
        assert X.bracket(Y) == ch.coordinate_field(0)

    def test_square_of_odd_derivative(self, chart_deformed):
        ch = chart_deformed
        X = ch.coordinate_field(1)
        assert X.bracket(X).is_zero()

    def test_classical(self, chart_classical):
        ch = chart_classical
        X = VectorField(ch, [ch.pool.even("x"), 0], 0)
        assert X.bracket(ch.coordinate_field(0)) == VectorField(ch, [-1, 0], 0)

    def test_graded_antisymmetry_and_jacobi(self, chart_flat22):
        ch = chart_flat22
        rng = seeded(301)
        for _ in range(8):
            ps = [rng.randint(0, 1) for _ in range(3)]
            X, Y, Z = (random_field(ch, rng, p) for p in ps)
            s = -1 if ps[0] * ps[1] else 1
            assert (X.bracket(Y) + Y.bracket(X).scale(s)).is_zero() or \
                X.bracket(Y) == Y.bracket(X).scale(-s)
            # graded Jacobi: [X,[Y,Z]] = [[X,Y],Z] + (-1)^{|X||Y|}[Y,[X,Z]]
            lhs = X.bracket(Y.bracket(Z))
            rhs = X.bracket(Y).bracket(Z)
            t = Y.bracket(X.bracket(Z)).scale(-1 if ps[0] * ps[1] else 1)
            diff = [
                a - b - c
                for a, b, c in zip(lhs.components, rhs.components, t.components)
            ]
            assert all(d.is_zero() for d in diff)

    def test_bracket_is_derivation(self, chart_flat22):
        ch = chart_flat22
        rng = seeded(302)
        for _ in range(5):
            X = random_field(ch, rng, rng.randint(0, 1))
            Y = random_field(ch, rng, rng.randint(0, 1))
            f = random_superfunction(ch.pool, rng)
            sign = -1 if X.parity * Y.parity else 1
            lhs = X.bracket(Y).apply(f)
            rhs = X.apply(Y.apply(f)) - Y.apply(X.apply(f)) * sign
            assert (lhs - rhs).is_zero()


class TestEvalBilinear:
    def test_flat_even_block(self, chart_classical):
        g = flat_metric(chart_classical)
        dx = chart_classical.coordinate_field(0)
        assert g.evaluate(dx, dx) == chart_classical.pool.one()

    def test_odd_block_values(self):
        ch = Chart([], ["th1", "th2"], box={})
        g = flat_metric(ch)
        d1, d2 = ch.coordinate_field(0), ch.coordinate_field(1)
        assert g.evaluate(d1, d2) == ch.pool.scalar(-1)
        assert g.evaluate(d2, d1) == ch.pool.one()

    def test_left_linearity(self, chart_flat22, metric_flat22):
        ch = chart_flat22
        rng = seeded(303)
        for _ in range(8):
            X = random_field(ch, rng, rng.randint(0, 1))
            Y = random_field(ch, rng, rng.randint(0, 1))
            f = random_superfunction(ch.pool, rng)
            lhs = metric_flat22.evaluate(X.scale(f), Y)
            rhs = f * metric_flat22.evaluate(X, Y)
            assert (lhs - rhs).is_zero()

    def test_supersymmetry_reproduced(self, chart_flat22, metric_flat22):
        ch = chart_flat22
        rng = seeded(304)
        for _ in range(8):
            px, py = rng.randint(0, 1), rng.randint(0, 1)
            X, Y = random_field(ch, rng, px), random_field(ch, rng, py)
            sign = -1 if px * py else 1
            lhs = metric_flat22.evaluate(X, Y)
            rhs = metric_flat22.evaluate(Y, X) * sign
            assert (lhs - rhs).is_zero()


    def test_pair_columns_obeys_right_module_axioms(self):
        """The kernel on flipped right columns, for forms of either parity:
        B(e_a, e_b) = B_ab, B(v*f, w) = (-1)^{|f||w|} B(v, w)*f and
        B(v, w*f) = B(v, w)*f.  Flesh generators leave room for nonzero
        products of odd elements."""
        ch = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)}, flesh=["e1", "e2", "e3"])
        pool = ch.pool
        rng = seeded(308)

        def column(p):
            return [random_superfunction(pool, rng, p + ch.parity(a), 1)
                    for a in range(ch.dim)]

        nontrivial = 0
        for parity, pv, pw, pf in itertools.product((0, 1), repeat=4):
            B = _random_form(ch, rng, parity)
            for a in range(ch.dim):
                for b in range(ch.dim):
                    ea, eb = ch.coordinate_field(a), ch.coordinate_field(b)
                    got = pair_columns(B, ea.components, eb.components,
                                       ch.parity(a), ch.parity(b))
                    assert got == B.entries[a][b]
            v, w = column(pv), column(pw)
            f = random_superfunction(pool, rng, pf, 1)
            base = pair_columns(B, v, w, pv, pw)
            sign = -1 if pf * pw else 1
            vf = pair_columns(B, [c * f for c in v], w, pv + pf, pw)
            assert vf == base * f * sign
            wf = pair_columns(B, v, [c * f for c in w], pv, pw + pf)
            assert wf == base * f
            nontrivial += not (base * f).is_zero()
        assert nontrivial >= 12


class TestValidateMetric:
    def test_flat_signature(self, metric_flat22):
        assert validate_metric(metric_flat22).as_tuple() == (0, 2, 2)

    def test_minkowski(self, chart_classical):
        g = BilinearForm(chart_classical, [[1, 0], [0, -1]])
        assert validate_metric(g).as_tuple() == (1, 1, 0)

    def test_degenerate_rejected(self, chart_classical):
        g = BilinearForm(chart_classical, [[1, 0], [0, 0]])
        with pytest.raises(MetricViolation) as err:
            validate_metric(g)
        assert err.value.violation == "nondegeneracy"

    def test_supersymmetry_violation_named(self, chart_classical):
        g = BilinearForm(chart_classical, [[1, 1], [0, 1]])
        with pytest.raises(MetricViolation) as err:
            validate_metric(g)
        assert err.value.args == ("supersymmetry", "supersymmetry[0,1]: (1)")

    def test_evenness_violation_named(self, chart_deformed):
        ch = chart_deformed
        comps = [[ch.pool.one(), 0, 0], [0, 0, -1], [0, 1, 0]]
        comps[0][1] = ch.pool.one()  # even entry in an odd slot
        comps[1][0] = ch.pool.one()
        g = BilinearForm(ch, comps)
        with pytest.raises(MetricViolation) as err:
            validate_metric(g)
        assert err.value.violation == "evenness"

    def test_degenerate_at_sample_point_rejected(self, chart_classical):
        # determinant nonzero as a rational function, but zero at the box
        # midpoint x = 3/2, a point of the closed box where the sign test of
        # the body determinant finds it
        xs = chart_classical.pool.even("x")
        g = BilinearForm(chart_classical, [[xs - Fraction(3, 2), 0], [0, 1]])
        with pytest.raises(MetricViolation) as err:
            validate_metric(g)
        assert err.value.violation == "nondegeneracy"

    def test_zero_at_a_box_corner_rejected(self, chart_classical):
        """det [[2, xy], [xy, 4 + y^2]] = 8 + 2y^2 - x^2 y^2 is positive at
        every corner of [1, 2]^2 but (2, 2), where it is 0."""
        pool = chart_classical.pool
        xs, ys = pool.even("x"), pool.even("y")
        g = BilinearForm(chart_classical, [[2, xs * ys], [xs * ys, 4 + ys * ys]])
        with pytest.raises(MetricViolation) as err:
            validate_metric(g)
        assert err.value.args == ("nondegeneracy", "body determinant vanishes at x = 2, y = 2")


class TestMetricContext:
    def test_each_metric_is_validated_once(self, metric_flat22, monkeypatch):
        from supergeo import geometry
        from supergeo.integration import volume_density
        from supergeo.lie import KillingChecker
        from supergeo.morphisms import HarmonicSetup, Morphism

        calls = []

        def counted(g):
            calls.append(g)
            return validate_metric(g)

        monkeypatch.setattr(geometry, "validate_metric", counted)
        g = metric_flat22
        ch = g.chart
        rotation = VectorField(ch, [-ch.pool.even("y"), ch.pool.even("x"), 0, 0], 0)
        checker = KillingChecker(g)
        assert checker.check(rotation, "all").passed
        setup = HarmonicSetup(Morphism.identity(ch), g, g)
        assert setup.tension().is_zero()
        volume_density(g)
        assert len(calls) == 1 and calls[0] is g
        # one connection and one frame, shared by every consumer
        assert setup.source_connection is checker.metric.connection
        assert setup.target_connection is checker.metric.connection
        assert setup.frame is checker.metric.frame

    def test_invalid_metric_raises_every_time(self, chart_classical):
        from supergeo.lie import KillingChecker

        g = BilinearForm(chart_classical, [[1, 0], [0, 0]])
        for _ in range(2):
            with pytest.raises(MetricViolation) as err:
                KillingChecker(g)
            assert err.value.violation == "nondegeneracy"


class TestLeviCivita:
    def test_flat_connection_vanishes(self, metric_flat22):
        conn = levi_civita(metric_flat22)
        assert all(
            e.is_zero() for a in conn.gamma for b in a for e in b
        )

    def test_classical_oracle(self, metric_curved):
        conn = levi_civita(metric_curved)
        pool = metric_curved.chart.pool
        assert conn.gamma[1][1][0] == pool.scalar(-x)
        assert conn.gamma[0][1][1] == pool.scalar(1 / x)
        assert conn.gamma[1][0][1] == pool.scalar(1 / x)

    @pytest.mark.parametrize(
        "gxx,gxy,gyy",
        [
            (sp.Integer(1) + x**2, sp.Integer(0), sp.Integer(4) + y**2),
            (sp.Integer(2), x * y, sp.Integer(5) + y**2),
            (sp.Integer(1) + y**2, sp.Integer(1), sp.Integer(2) + x**2),
        ],
    )
    def test_classical_koszul_oracle(self, chart_classical, gxx, gxy, gyy):
        """Independent classical oracle: Koszul with commuting entries.  Each
        determinant is at least 2 on the closed box [1, 2]^2."""
        ch = chart_classical
        pool = ch.pool
        g = BilinearForm(
            ch, [[pool.scalar(gxx), pool.scalar(gxy)],
                 [pool.scalar(gxy), pool.scalar(gyy)]]
        )
        conn = levi_civita(g)
        gm = sp.Matrix([[gxx, gxy], [gxy, gyy]])
        ginv = gm.inv()
        coords = [x, y]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    want = sum(
                        sp.Rational(1, 2)
                        * ginv[k, l]
                        * (
                            sp.diff(gm[j, l], coords[i])
                            + sp.diff(gm[i, l], coords[j])
                            - sp.diff(gm[i, j], coords[l])
                        )
                        for l in range(2)
                    )
                    assert sp.cancel(conn.gamma[i][j][k].body() - want) == 0

    @pytest.mark.parametrize("which", ["flat22", "curved", "deformed", "mixed"])
    def test_certificates_all_metrics(self, request, which):
        g = request.getfixturevalue(f"metric_{which}")
        conn = levi_civita(g)
        torsion, metricity = connection_residuals(g, conn)
        assert torsion.passed and metricity.passed

    def test_a_connection_of_another_metric_fails_metricity_where_it_breaks(self, metric_curved):
        """The zero connection of the flat plane is torsion-free but not
        metric for dx^2 + x^2 dy^2: d_x g_yy = 2x is its one failure."""
        chart = metric_curved.chart
        torsion, metricity = connection_residuals(metric_curved, levi_civita(flat_metric(chart)))
        assert torsion.passed
        assert metricity.failures == [("metricity[x,y,y]", 2 * chart.pool.even("x"))]

    def test_an_asymmetric_connection_fails_torsion_where_it_breaks(self, metric_flat22):
        """Gamma^x_xy = 1 alone: the torsion residuals at (x, y, x) and
        (y, x, x) are 1 and -1, in index order."""
        chart, pool = metric_flat22.chart, metric_flat22.chart.pool
        gamma = [[[pool.zero()] * chart.dim for _ in range(chart.dim)] for _ in range(chart.dim)]
        gamma[0][1][0] = pool.one()
        torsion, _ = connection_residuals(metric_flat22, Connection(chart, gamma))
        assert torsion.failures == [("torsion[x,y,x]", pool.one()), ("torsion[y,x,x]", -pool.one())]

    @pytest.mark.parametrize("which", ["curved", "deformed", "mixed"])
    def test_derivative_is_metric_and_torsion_free_on_fields(self, request, which):
        """nabla_X on whole fields of both parities, checked only through
        B.evaluate and [X, Y]: X g(Y,Z) = g(nabla_X Y, Z)
        + (-1)^{|X||Y|} g(Y, nabla_X Z) and
        nabla_X Y - (-1)^{|X||Y|} nabla_Y X = [X, Y]."""
        g = request.getfixturevalue(f"metric_{which}")
        ch = g.chart
        conn = levi_civita(g)
        rng = seeded(611)
        for xp, yp, zp in itertools.product((0, 1), repeat=3):
            X, Y, Z = (random_field(ch, rng, p) for p in (xp, yp, zp))
            sign = -1 if xp * yp else 1
            lhs = X.apply(g.evaluate(Y, Z))
            rhs = g.evaluate(conn.derivative(X, Y), Z)
            rhs = rhs + g.evaluate(Y, conn.derivative(X, Z)) * sign
            assert (lhs - rhs).is_zero()
            torsion = conn.derivative(X, Y) - conn.derivative(Y, X).scale(sign)
            assert torsion == X.bracket(Y)

    def test_certificate_derives_each_coordinate_field_once(
        self, metric_flat22, monkeypatch
    ):
        # nabla_{d_i} d_k is built once per (i, k), not again per j
        conn = levi_civita(metric_flat22)
        calls = []
        original = type(conn).coordinate_derivative

        def counting(self, i, Y):
            calls.append(i)
            return original(self, i, Y)

        monkeypatch.setattr(type(conn), "coordinate_derivative", counting)
        connection_residuals(metric_flat22, conn)
        assert len(calls) == metric_flat22.chart.dim ** 2


class TestOSpFrame:
    def test_flat_frame_is_coordinates(self, metric_flat22):
        frame = OSpFrame.build(metric_flat22)
        for j, f in enumerate(frame.fields):
            assert f == metric_flat22.chart.coordinate_field(j)

    def test_curved_frame(self, metric_curved):
        frame = OSpFrame.build(metric_curved)
        ch = metric_curved.chart
        assert frame.fields[1] == VectorField(ch, [0, ch.pool.scalar(1 / x)], 0)

    def test_deformed_frame_certified(self, metric_deformed):
        frame = OSpFrame.build(metric_deformed)
        pool = metric_deformed.chart.pool
        want = pool.one() - pool.odd("th1") * pool.odd("th2") * Fraction(1, 2)
        assert frame.fields[0].components[0] == want

    def test_defining_equations_exact(self, metric_deformed):
        # certify() raises on any mismatch; run it explicitly once more
        frame = OSpFrame.build(metric_deformed)
        frame.certify(metric_deformed)

    def test_second_odd_pair_is_projected_off_the_first(self):
        """A (1|4) metric whose odd block pairs every odd coordinate with
        every other (Pfaffian 7 + x - x^3, no zero on [0, 1]): Gram-Schmidt
        takes two odd pairs, so the second is projected off the first by
        w - f1 B(f2, w) + f2 B(f1, w), which the frame certificate checks."""
        ch = Chart(["x"], ["t1", "t2", "t3", "t4"], box={"x": (0, 1)})
        pool = ch.pool
        xs = pool.even("x")
        t1, t2, t3, t4 = (pool.odd(f"t{i}") for i in range(1, 5))
        first = [1 + t1 * t2, t2, t3, 0, t4]
        odd = [[0, 1 + xs, xs, 2], [-(1 + xs), 0, 3, xs**2],
               [-xs, -3, 0, 1], [-2, -xs**2, -1, 0]]
        g = BilinearForm(ch, [first] + [[c] + row for c, row in zip(first[1:], odd)])
        frame = OSpFrame.build(g)
        assert frame.signature.as_tuple() == (0, 1, 4)
        report = KillingChecker(g).check(ch.coordinate_field(0))
        assert report.agreement and not report.passed and set(report.modes) == {"i", "ii", "v"}


class TestDivergence:
    def test_classical_euler_field(self):
        ch = Chart(["x"], [], box={"x": (0, 1)})
        g = flat_metric(ch)
        conn = levi_civita(g)
        X = VectorField(ch, [ch.pool.even("x")], 0)
        assert divergence(X, conn) == ch.pool.one()

    def test_constant_odd_field(self):
        ch = Chart([], ["th1", "th2"], box={})
        g = flat_metric(ch)
        conn = levi_civita(g)
        assert divergence(ch.coordinate_field(0), conn).is_zero()

    def test_odd_euler_field_both_paths(self):
        ch = Chart([], ["th1", "th2"], box={})
        g = flat_metric(ch)
        conn = levi_civita(g)
        frame = OSpFrame.build(g)
        X = VectorField(ch, [ch.pool.odd("th1"), 0], 0)
        lhs = divergence(X, conn)
        rhs = divergence_via_frame(X, g, conn, frame)
        assert lhs == rhs == ch.pool.scalar(-1)

    @pytest.mark.parametrize("which", ["flat22", "curved", "deformed"])
    def test_dual_path_agreement(self, which, metric_flat22, metric_curved,
                                 metric_deformed):
        g = {"flat22": metric_flat22, "curved": metric_curved,
             "deformed": metric_deformed}[which]
        conn = levi_civita(g)
        frame = OSpFrame.build(g)
        rng = seeded(305)
        for _ in range(6):
            X = random_field(g.chart, rng, rng.randint(0, 1))
            lhs = divergence(X, conn)
            rhs = divergence_via_frame(X, g, conn, frame)
            assert (lhs - rhs).is_zero()

    def test_supertrace_matches_the_frame_oracle_on_curved_metrics(self):
        """40 seeded fields of both parities on each of three curved
        supermetrics, (1|2) and (2|2), whose even-odd blocks depend on the odd
        coordinates: Gamma^i_ij with |i| != |j| is nonzero, so every sign of
        the contracted symbols c_j meets a nonzero term."""
        one = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)})
        two = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
        x1, a1, b1 = map(one.pool.generator, ("x", "th1", "th2"))
        x2, y2, a2, b2 = map(two.pool.generator, ("x", "y", "th1", "th2"))
        metrics = [
            BilinearForm(one, [[(1 + x1) ** 2, b1, 0], [b1, 0, -(1 + x1)], [0, 1 + x1, 0]]),
            BilinearForm(one, [[(2 + x1) ** 2 + a1 * b1, x1 * a1, b1 + a1],
                               [x1 * a1, 0, -(1 + x1 * x1)],
                               [b1 + a1, 1 + x1 * x1, 0]]),
            BilinearForm(two, [[(1 + x2) ** 2, a2 * b2, b2, x2 * a2],
                               [a2 * b2, (2 + y2) ** 2 + x2 * a2 * b2, y2 * a2, b2],
                               [b2, y2 * a2, 0, -(1 + x2)],
                               [x2 * a2, b2, 1 + x2, 0]]),
        ]
        rng = seeded(341)
        for g in metrics:
            conn, frame = levi_civita(g), OSpFrame.build(g)
            assert any(not conn.gamma[i][j][i].is_zero() for i in range(g.chart.dim)
                       for j in range(g.chart.dim) if g.chart.parity(i) != g.chart.parity(j))
            for k in range(40):
                X = random_field(g.chart, rng, k % 2)
                assert divergence(X, conn) == divergence_via_frame(X, g, conn, frame)


class TestFieldOwners:
    """A (2|2) field against the objects of a (1|2) chart: every route that
    meets it reports ChartMismatch, instead of a PoolMismatch from the
    scalar ring or a value computed with the other chart's names."""

    @pytest.fixture
    def setting(self):
        src = Chart(["x"], ["th1", "th2"], box={"x": (1, 2)})
        other = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
        xx = src.pool.even("x")
        curved = BilinearForm(src, [[xx * xx, 0, 0], [0, 0, -1], [0, 1, 0]])
        X = VectorField(other, [other.pool.even("x"), 0, other.pool.odd("th1"), 0], 0)
        return src, curved, X

    def test_divergence_against_a_flat_connection(self, setting):
        src, _, X = setting
        with pytest.raises(ChartMismatch):
            divergence(X, levi_civita(flat_metric(src)))

    def test_divergence_against_a_curved_connection(self, setting):
        _, curved, X = setting
        with pytest.raises(ChartMismatch):
            divergence(X, levi_civita(curved))

    def test_one_form_evaluate(self, setting):
        src, _, X = setting
        with pytest.raises(ChartMismatch):
            OneForm.differential(src, src.pool.even("x")).evaluate(X)

    def test_divergence_via_frame_through_the_connection(self, setting):
        """The frame route reaches X through ``Connection.derivative``."""
        _, curved, X = setting
        with pytest.raises(ChartMismatch):
            divergence_via_frame(X, curved, levi_civita(curved), OSpFrame.build(curved))


class TestStrWithMetric:
    def test_metric_supertrace_is_dimension_difference(self, metric_flat22,
                                                       metric_deformed):
        for g, want in [(metric_flat22, 0), (metric_deformed, -1)]:
            frame = OSpFrame.build(g)
            assert str_with_metric(g, frame) == g.chart.pool.scalar(want)

    def test_zero_form(self, metric_flat22):
        frame = OSpFrame.build(metric_flat22)
        K = BilinearForm.zero(metric_flat22.chart)
        assert str_with_metric(K, frame).is_zero()

    @pytest.mark.parametrize("which", ["flat22", "deformed"])
    def test_frame_path_equals_matrix_path(self, which, metric_flat22,
                                           metric_deformed):
        g = {"flat22": metric_flat22, "deformed": metric_deformed}[which]
        ch = g.chart
        frame = OSpFrame.build(g)
        rng = seeded(306)
        for parity in (0, 1):
            for _ in range(4):
                K = _random_form(ch, rng, parity)
                lhs = str_with_metric(K, frame)
                rhs = str_with_metric_via_matrix(K, g)
                assert (lhs - rhs).is_zero()

    def test_alternate_frame_sum(self, metric_deformed):
        """str_g K = sum_j K(e_j, J e_j) = sum_j (-1)^{|e_j|} K(J e_j, e_j)."""
        g = metric_deformed
        ch = g.chart
        frame = OSpFrame.build(g)
        rng = seeded(307)
        for parity in (0, 1):
            K = _random_form(ch, rng, parity)
            first = str_with_metric(K, frame)
            second = ch.pool.zero()
            for j in range(ch.dim):
                sj, jej = frame.j_field(j)
                val = K.evaluate(jej, frame.fields[j]) * sj
                second = second + val * (-1 if ch.parity(j) else 1)
            assert (first - second).is_zero()


def _random_form(ch, rng, parity):
    rows = []
    for i in range(ch.dim):
        row = []
        for j in range(ch.dim):
            p = (parity + ch.parity(i) + ch.parity(j)) % 2
            row.append(random_superfunction(ch.pool, rng, p, 1))
        rows.append(row)
    return BilinearForm(ch, rows, parity)


class TestFieldAlgebra:
    def test_constructors_check_homogeneity(self, chart_flat22):
        ch = chart_flat22
        th1 = ch.pool.odd("th1")
        for cls in (VectorField, OneForm):
            assert cls(ch, [th1, 0, 0, 0], 1).parity == 1
            with pytest.raises(ParityError, match="component x"):
                cls(ch, [th1, 0, 0, 0], 0)

    def test_equality_sees_the_chart(self, chart_classical):
        wide = Chart(["x", "y"], [], box={"x": (1, 3), "y": (1, 2)})
        F = OneForm(chart_classical, [1, 0])
        assert F == OneForm(chart_classical, [1, 0])
        assert F != OneForm(wide, [1, 0])
        assert chart_classical.coordinate_field(0) != wide.coordinate_field(0)

    def test_render_and_repr(self, chart_flat22):
        ch = chart_flat22
        p = ch.pool
        x_plus = p.even("x") + p.odd("th1") * p.odd("th2")
        X = VectorField(ch, [x_plus, 0, 0, p.odd("th2")], 0)
        assert X.render() == "((x) + (1)*th1*th2)*d_x + (1)*th2*d_th2"
        assert repr(X) == f"VectorField({X.render()})"
        assert repr(ch.zero_field()) == "VectorField(0)"


class TestOneForm:
    def test_differential_classical(self, chart_classical):
        ch = chart_classical
        F = OneForm.differential(ch, ch.pool.scalar(x**2))
        assert F.components[0] == ch.pool.scalar(2 * x)

    def test_tensor_product_convention(self, chart_flat22):
        ch = chart_flat22
        F = OneForm.differential(ch, ch.pool.even("x"))
        G = OneForm.differential(ch, ch.pool.even("y"))
        B = tensor_product(F, G)
        assert B.components[0][1] == ch.pool.one()
        assert B.components[1][0].is_zero()


class TestBilinearFormIsItsGramMatrix:
    """A form is its Gram supermatrix over a chart: the matrix invariants are
    the plain matrix's, element-wise results keep the chart, products and
    mixed sums do not."""

    @pytest.mark.parametrize("which", ["flat22", "curved", "deformed"])
    def test_matrix_invariants_are_the_plain_matrix(self, which, metric_flat22,
                                                    metric_curved, metric_deformed):
        g = {"flat22": metric_flat22, "curved": metric_curved,
             "deformed": metric_deformed}[which]
        ch = g.chart
        plain = SuperMatrix(ch.pool, ch.n, ch.two_m, g.components)
        assert type(g.inverse()) is SuperMatrix
        assert g.inverse() == plain.inverse()
        assert g.berezinian() == plain.berezinian()
        assert g.is_homogeneous() == plain.is_homogeneous()

    def test_elementwise_results_stay_on_the_chart(self, chart_flat22):
        ch = chart_flat22
        rng = seeded(440)
        g, h = _random_form(ch, rng, 0), _random_form(ch, rng, 0)
        f = random_superfunction(ch.pool, rng, 0, 1)
        cases = [
            (g + h, lambda i, j: g[i, j] + h[i, j]),
            (g - h, lambda i, j: g[i, j] - h[i, j]),
            (-g, lambda i, j: -g[i, j]),
            (g * f, lambda i, j: f * g[i, j]),
        ]
        for got, want in cases:
            assert type(got) is BilinearForm and got.chart is ch
            assert got.parity == 0
            assert all(got[i, j] == want(i, j)
                       for i in range(ch.dim) for j in range(ch.dim))

    def test_product_with_a_plain_matrix_is_plain(self, metric_deformed):
        g = metric_deformed
        ch = g.chart
        plain = SuperMatrix(ch.pool, ch.n, ch.two_m, g.components)
        M = SuperMatrix.identity(ch.pool, ch.n, ch.two_m) * 2
        assert type(g * M) is SuperMatrix and type(M * g) is SuperMatrix
        assert g * M == plain * M
        assert M * g == M * plain

    def test_sums_need_a_form_on_the_same_chart(self, metric_flat22, chart_classical):
        """In either order: a plain matrix plus a form is no more a sum than
        a form plus a plain matrix."""
        g = metric_flat22
        ch = g.chart
        wide = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 2), "y": (0, 1)})
        others = [
            flat_metric(wide),
            flat_metric(chart_classical),
            SuperMatrix(ch.pool, ch.n, ch.two_m, g.components),
        ]
        for other in others:
            for a, b in ((g, other), (other, g)):
                with pytest.raises(ChartMismatch):
                    a + b
                with pytest.raises(ChartMismatch):
                    a - b

    def test_zero_and_identity_by_block_dimensions_are_plain(self, chart_flat22):
        """A form needs a chart, so the constructors that take only a pool
        and block dimensions build plain matrices, also through the form."""
        ch = chart_flat22
        identity = BilinearForm.identity(ch.pool, ch.n, ch.two_m)
        assert type(identity) is SuperMatrix
        assert identity == SuperMatrix.identity(ch.pool, ch.n, ch.two_m)
        assert type(BilinearForm.zero(ch)) is BilinearForm
        assert BilinearForm.zero(ch).is_zero()

    def test_a_form_never_equals_a_plain_matrix(self, metric_flat22):
        g = metric_flat22
        ch = g.chart
        plain = SuperMatrix(ch.pool, ch.n, ch.two_m, g.components)
        assert not g == plain
        assert not plain == g
        assert g == flat_metric(ch)
