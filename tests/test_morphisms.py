"""Maps with flesh: pullbacks, tension, currents, and the Noether identities."""

from fractions import Fraction

import pytest
import sympy as sp

from supergeo import Chart
from supergeo.errors import ChartMismatch, ParityError, ScenarioError
from supergeo.geometry import BilinearForm, Connection, OneForm, VectorField, flat_metric
from supergeo.lie import lie_derivative_bilinear
from supergeo.morphisms import FieldAlongMorphism, HarmonicSetup, Morphism
from supergeo.supermatrix import SuperMatrix

from conftest import (
    in_osp,
    orthogonal_frame_change,
    random_field,
    random_superfunction,
    rotate_frame,
    seeded,
    tensor_product,
)

x, y = sp.symbols("x y")


@pytest.fixture
def classical_square():
    """phi(y) = x^2 between flat lines."""
    src = Chart(["x"], [], box={"x": (0, 1)})
    tgt = Chart(["y"], [], box={"y": (0, 1)})
    phi = Morphism(src, tgt, {"y": src.pool.even("x") ** 2})
    return HarmonicSetup(phi, flat_metric(src), flat_metric(tgt))


@pytest.fixture
def fleshy():
    """Source (0,1|2) with two flesh generators, target (0,1|2)."""
    src = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)}, flesh=("lam1", "lam2"))
    tgt = Chart(["u"], ["e1", "e2"], box={"u": (-100, 100)})
    p = src.pool
    images = {
        "u": p.even("x") + p.odd("th1") * p.odd("lam1"),
        "e1": p.odd("lam1") + p.even("x") * p.odd("th1"),
        "e2": p.odd("th2") + p.odd("lam2"),
    }
    phi = Morphism(src, tgt, images)
    return HarmonicSetup(phi, flat_metric(src), flat_metric(tgt))


class TestPullbackFunction:
    def test_identity(self, chart_flat22):
        phi = Morphism.identity(chart_flat22)
        rng = seeded(501)
        for _ in range(5):
            f = random_superfunction(chart_flat22.pool, rng)
            assert phi.pullback(f) == f

    def test_classical_composition(self, classical_square):
        phi = classical_square.phi
        f = phi.target.pool.scalar(sp.Symbol("y") ** 2)
        assert phi.pullback(f) == phi.source.pool.scalar(x**4)

    def test_flesh_substitution(self, fleshy):
        phi = fleshy.phi
        f = phi.target.pool.odd("e1")
        got = phi.pullback(f)
        p = phi.source.pool
        assert got == p.odd("lam1") + p.even("x") * p.odd("th1")

    def test_multiplicativity_certificate(self, fleshy):
        phi = fleshy.phi
        rng = seeded(502)
        for _ in range(8):
            f = random_superfunction(phi.target.pool, rng)
            g = random_superfunction(phi.target.pool, rng)
            assert (phi.pullback(f * g) - phi.pullback(f) * phi.pullback(g)).is_zero()


class TestDifferential:
    def test_identity_is_kronecker(self, chart_flat22):
        phi = Morphism.identity(chart_flat22)
        for i in range(chart_flat22.dim):
            d = phi.differential(chart_flat22.coordinate_field(i))
            for a, c in enumerate(d.components):
                want = chart_flat22.pool.one() if a == i else chart_flat22.pool.zero()
                assert c == want

    def test_classical_derivative(self, classical_square):
        phi = classical_square.phi
        d = phi.differential(phi.source.coordinate_field(0))
        assert d.components[0] == phi.source.pool.scalar(2 * x)

    def test_odd_derivative_of_even_product(self):
        src = Chart([], ["th1", "th2"], box={}, flesh=("lam1",))
        tgt = Chart(["u"], [], box={"u": (-5, 5)})
        p = src.pool
        phi = Morphism(src, tgt, {"u": p.odd("lam1") * p.odd("th1")})
        d = phi.differential(src.coordinate_field(0))
        assert d.components[0] == -p.odd("lam1")  # left derivative moves past lam1

    def test_chain_rule_certificate(self, fleshy):
        """dPhi[Y] is a derivation with respect to pullback on random products."""
        phi = fleshy.phi
        rng = seeded(503)
        for _ in range(8):
            yp = rng.randint(0, 1)
            Y = random_field(phi.source, rng, yp)
            dY = phi.differential(Y)
            fp = rng.randint(0, 1)
            f = random_superfunction(phi.target.pool, rng, fp)
            g = random_superfunction(phi.target.pool, rng)
            sign = -1 if yp * fp else 1
            lhs = dY.apply(f * g)
            rhs = dY.apply(f) * phi.pullback(g) + phi.pullback(f) * dY.apply(g) * sign
            assert (lhs - rhs).is_zero()


class TestPullbackTensors:
    def test_identity_pullback_metric(self, metric_flat22):
        chart = metric_flat22.chart
        setup = HarmonicSetup(Morphism.identity(chart), metric_flat22, metric_flat22)
        assert setup.pullback_metric() == metric_flat22
        # an odd form: L_X g for an odd field X
        X = random_field(chart, seeded(520), 1, allow_flesh=False)
        odd = lie_derivative_bilinear(X, metric_flat22)
        assert odd.parity == 1 and not odd.is_zero()
        pulled = setup.pullback_bilinear(odd)
        assert pulled.parity == 1 and pulled == odd

    def test_classical_pullback(self, classical_square):
        pg = classical_square.pullback_metric()
        assert pg.components[0][0] == classical_square.phi.source.pool.scalar(4 * x**2)

    def test_constant_morphism_pullback_vanishes(self):
        src = Chart(["x"], [], box={"x": (0, 1)})
        tgt = Chart(["y"], [], box={"y": (0, 1)})
        phi = Morphism(src, tgt, {"y": src.pool.scalar(sp.Rational(1, 2))})
        setup = HarmonicSetup(phi, flat_metric(src), flat_metric(tgt))
        assert setup.pullback_metric().is_zero()

    def test_pullback_metric_even_supersymmetric(self, fleshy):
        pg = fleshy.pullback_metric()
        assert pg.supersymmetry().passed
        assert pg.is_homogeneous()

    def test_pullback_of_scaled_oneform(self, fleshy):
        """Phi*(f F) = (Phi* f)(Phi* F) on random one-forms."""
        phi = fleshy.phi
        rng = seeded(504)
        for _ in range(6):
            fp = rng.randint(0, 1)
            f = random_superfunction(phi.target.pool, rng, fp)
            gfun = random_superfunction(phi.target.pool, rng, rng.randint(0, 1))
            F = OneForm.differential(phi.target, gfun)
            lhs = _pullback_oneform(fleshy, F.scale(f))
            R = _pullback_oneform(fleshy, F)
            pf = phi.pullback(f)
            rhs = [pf * c for c in R.components]
            assert all((a - b).is_zero() for a, b in zip(lhs.components, rhs))

    def test_pullback_of_tensor_product(self, fleshy):
        """Phi*(F ox G) = Phi*F ox Phi*G on random differentials."""
        phi = fleshy.phi
        rng = seeded(505)
        for _ in range(6):
            f = random_superfunction(phi.target.pool, rng, rng.randint(0, 1))
            g = random_superfunction(phi.target.pool, rng, rng.randint(0, 1))
            F = OneForm.differential(phi.target, f)
            G = OneForm.differential(phi.target, g)
            lhs = fleshy.pullback_bilinear(tensor_product(F, G))
            rhs = tensor_product(
                _pullback_oneform(fleshy, F), _pullback_oneform(fleshy, G)
            )
            assert (lhs - rhs).is_zero()

    def test_pullback_of_differentials_identity(self, fleshy):
        """Phi* df [Y] = (-1)^{|f||Y|} dPhi[Y](f) on random inputs."""
        phi = fleshy.phi
        rng = seeded(506)
        for _ in range(8):
            fp, yp = rng.randint(0, 1), rng.randint(0, 1)
            f = random_superfunction(phi.target.pool, rng, fp)
            Y = random_field(phi.source, rng, yp)
            F = _pullback_oneform(fleshy, OneForm.differential(phi.target, f))
            sign = -1 if fp * yp else 1
            lhs = F.evaluate(Y)
            rhs = phi.differential(Y).apply(f) * sign
            assert (lhs - rhs).is_zero()


def _pullback_oneform(setup, F):
    """(Phi* F)_i = F_Phi(dPhi[d_i]) through the right-module expansion."""
    phi = setup.phi
    src, tgt = phi.source, phi.target
    comps = []
    for i in range(src.dim):
        D = phi.differential(src.coordinate_field(i))
        acc = src.pool.zero()
        for a in range(tgt.dim):
            da = D.components[a]
            if da.is_zero():
                continue
            pa = tgt.parity(a)
            # right coefficient of dPhi[d_i]: flip from the evaluation component
            sign = -1 if pa * ((D.parity + pa) % 2) else 1
            acc = acc + phi.pullback(F.components[a]) * da * sign
        comps.append(acc)
    return OneForm(src, comps, F.parity)


class TestPullbackConnection:
    def test_flat_constant_field(self, fleshy):
        V = FieldAlongMorphism(
            fleshy.phi, [fleshy.phi.source.pool.one(),
                         fleshy.phi.source.pool.zero(),
                         fleshy.phi.source.pool.zero()], 0
        )
        out = fleshy.connection_apply(fleshy.phi.source.coordinate_field(0), V)
        assert out.is_zero()

    def test_identity_morphism_reduces_to_nabla(self, metric_curved, metric_deformed):
        """Along the identity, nabla^Phi is Levi-Civita: on the classical
        surface, and on the (1|2) chart with an odd entry for fields of
        both parities."""
        rng = seeded(507)
        for g in (metric_curved, metric_deformed):
            ch = g.chart
            setup = HarmonicSetup(Morphism.identity(ch), g, g)
            for xp, yp in [(0, 0), (0, 0), (1, 0), (0, 1), (1, 1)]:
                X = random_field(ch, rng, xp)
                Y = random_field(ch, rng, yp)
                V = setup.phi.differential(Y)
                got = setup.connection_apply(X, V)
                want = setup.source_connection.derivative(X, Y)
                assert all(
                    (a - b).is_zero() for a, b in zip(got.components, want.components)
                )

    def test_classical_second_derivative(self, classical_square):
        setup = classical_square
        dx = setup.phi.source.coordinate_field(0)
        V = setup.phi.differential(dx)
        out = setup.connection_apply(dx, V)
        assert out.components[0] == setup.phi.source.pool.scalar(2)

    def test_metricity_certificate(self, fleshy):
        rng = seeded(508)
        phi = fleshy.phi
        for _ in range(6):
            xp, vp, wp = (rng.randint(0, 1) for _ in range(3))
            X = random_field(phi.source, rng, xp)
            V = _random_fam(phi, rng, vp)
            W = _random_fam(phi, rng, wp)
            lhs = X.apply(fleshy.pair(V, W))
            sign = -1 if xp * vp else 1
            rhs = fleshy.pair(fleshy.connection_apply(X, V), W)
            rhs = rhs + fleshy.pair(V, fleshy.connection_apply(X, W)) * sign
            assert (lhs - rhs).is_zero()


def _random_fam(phi, rng, parity):
    comps = [
        random_superfunction(phi.source.pool, rng, (parity + phi.target.parity(a)) % 2, 1)
        for a in range(phi.target.dim)
    ]
    return FieldAlongMorphism(phi, comps, parity)


class TestFieldAlongMorphism:
    def test_constructor_checks_homogeneity(self, fleshy):
        pool = fleshy.phi.source.pool
        with pytest.raises(ParityError, match="component e1"):
            FieldAlongMorphism(fleshy.phi, [pool.one(), pool.one(), 0], 0)

    def test_add_needs_equal_morphisms(self, fleshy):
        phi = fleshy.phi
        twin = Morphism(phi.source, phi.target, dict(phi.images))
        V = FieldAlongMorphism(phi, [1, 0, 0], 0)
        assert (V + FieldAlongMorphism(twin, [1, 0, 0], 0)) == V.scale(2)
        images = dict(phi.images, u=phi.source.pool.even("x"))
        other = FieldAlongMorphism(Morphism(phi.source, phi.target, images), [1, 0, 0], 0)
        with pytest.raises(ChartMismatch):
            V + other

    def test_render_and_repr(self, fleshy):
        p = fleshy.phi.source.pool
        odd_sum = p.odd("th1") + p.odd("lam1")
        V = FieldAlongMorphism(fleshy.phi, [p.even("x"), 0, odd_sum], 0)
        assert V.render() == "(x)*D_u + ((1)*th1 + (1)*lam1)*D_e2"
        assert repr(V) == f"FieldAlongMorphism({V.render()})"

    def test_pair_left_linearity_under_mixed_scale(self, fleshy):
        phi = fleshy.phi
        rng = seeded(512)
        for _ in range(6):
            V = _random_fam(phi, rng, rng.randint(0, 1))
            W = _random_fam(phi, rng, rng.randint(0, 1))
            f = random_superfunction(phi.source.pool, rng, max_degree=1)
            lhs = fleshy.pair(V.scale(f), W)
            assert (lhs - f * fleshy.pair(V, W)).is_zero()


class TestSecondFundamentalForm:
    def test_linear_map_is_totally_geodesic(self, chart_flat22):
        ch = chart_flat22
        p = ch.pool
        images = {
            "x": p.even("x") + p.even("y"),
            "y": p.even("y"),
            "th1": p.odd("th1") + p.odd("th2"),
            "th2": p.odd("th2"),
        }
        # the target box holds the images of the source box's corners
        tgt = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 2), "y": (0, 1)})
        phi = Morphism(ch, tgt, images)
        setup = HarmonicSetup(phi, flat_metric(ch), flat_metric(tgt))
        rng = seeded(509)
        for _ in range(4):
            X = random_field(ch, rng, rng.randint(0, 1))
            Y = random_field(ch, rng, rng.randint(0, 1))
            assert setup.second_fundamental_form(X, Y).is_zero()

    def test_classical_hessian(self, classical_square):
        dx = classical_square.phi.source.coordinate_field(0)
        B = classical_square.second_fundamental_form(dx, dx)
        assert B.components[0] == classical_square.phi.source.pool.scalar(2)

    def test_tensorial_in_first_slot(self, fleshy):
        rng = seeded(510)
        phi = fleshy.phi
        for _ in range(5):
            X = random_field(phi.source, rng, rng.randint(0, 1))
            Y = random_field(phi.source, rng, rng.randint(0, 1))
            f = random_superfunction(phi.source.pool, rng, rng.randint(0, 1))
            lhs = fleshy.second_fundamental_form(X.scale(f), Y)
            rhs = fleshy.second_fundamental_form(X, Y).scale(f)
            assert all(
                (a - b).is_zero() for a, b in zip(lhs.components, rhs.components)
            )

    def test_supersymmetric(self, fleshy):
        rng = seeded(511)
        phi = fleshy.phi
        for _ in range(6):
            xp, yp = rng.randint(0, 1), rng.randint(0, 1)
            X = random_field(phi.source, rng, xp)
            Y = random_field(phi.source, rng, yp)
            sign = -1 if xp * yp else 1
            lhs = fleshy.second_fundamental_form(X, Y)
            rhs = fleshy.second_fundamental_form(Y, X).scale(sign)
            assert all(
                (a - b).is_zero() for a, b in zip(lhs.components, rhs.components)
            )

    def test_odd_odd_antisymmetry(self, fleshy):
        phi = fleshy.phi
        d1 = phi.source.coordinate_field(1)
        d2 = phi.source.coordinate_field(2)
        lhs = fleshy.second_fundamental_form(d1, d2)
        rhs = fleshy.second_fundamental_form(d2, d1)
        assert all((a + b).is_zero() for a, b in zip(lhs.components, rhs.components))


class TestTension:
    def test_identity_is_harmonic(self, metric_flat22):
        setup = HarmonicSetup(
            Morphism.identity(metric_flat22.chart), metric_flat22, metric_flat22
        )
        assert setup.tension().is_zero()

    def test_classical_value(self, classical_square):
        tau = classical_square.tension()
        assert tau.components[0] == classical_square.phi.source.pool.scalar(2)

    def test_affine_map_is_harmonic(self):
        src = Chart(["x"], [], box={"x": (0, 1)})
        tgt = Chart(["y"], [], box={"y": (-1, 4)})
        phi = Morphism(src, tgt, {"y": src.pool.even("x") * 3 + 1})
        setup = HarmonicSetup(phi, flat_metric(src), flat_metric(tgt))
        assert setup.tension().is_zero()

    def test_frame_independence(self, fleshy, metric_curved):
        for setup in (fleshy,):
            rot = orthogonal_frame_change(setup.frame)
            frame2 = rotate_frame(setup.frame, rot)
            frame2.certify(setup.h)
            t1 = setup.tension()
            t2 = setup.tension_with_frame(frame2)
            assert all(
                (a - b).is_zero() for a, b in zip(t1.components, t2.components)
            )

    def test_frame_independence_curved_source(self, metric_curved):
        ch = metric_curved.chart
        phi = Morphism.identity(ch)
        setup = HarmonicSetup(phi, metric_curved, metric_curved)
        rot = orthogonal_frame_change(setup.frame)
        frame2 = rotate_frame(setup.frame, rot)
        frame2.certify(setup.h)
        t1 = setup.tension()
        t2 = setup.tension_with_frame(frame2)
        assert all((a - b).is_zero() for a, b in zip(t1.components, t2.components))

    @pytest.mark.parametrize("metric", ["metric_linear_pivot", "metric_nonsquare"])
    def test_frame_routes_on_pivots_that_are_not_squares(self, request, metric):
        """The identity from a metric with no rational OSp frame into the
        flat metric of its chart: the tension agrees over two orthogonal
        frames of different pivots, and the Noether current identity and
        the stress-energy identities, all frame routes, vanish."""
        h = request.getfixturevalue(metric)
        ch = h.chart
        setup = HarmonicSetup(Morphism.identity(ch), h, flat_metric(ch))
        frame2 = rotate_frame(setup.frame, orthogonal_frame_change(setup.frame))
        frame2.certify(h)
        assert frame2.pivots != setup.frame.pivots
        tau = setup.tension()
        assert not tau.is_zero()
        assert tau == setup.tension_with_frame(frame2)
        rng = seeded(431)
        for parity in (0, 1):
            xi = _random_fam(setup.phi, rng, parity)
            assert setup.div_identity_residual(xi).is_zero()
            rep = setup.stress_energy_report(random_field(ch, rng, parity, allow_flesh=False))
            assert rep.lemma.passed and rep.current.passed

    def test_frame_independence_indefinite_signature(self):
        # the second frame shears two pivots of opposite sign
        ch = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
        g = BilinearForm(
            ch, [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
        )
        setup = HarmonicSetup(Morphism.identity(ch), g, g)
        # and exp(L) for an L in osp with odd entries in the mixed blocks,
        # which exercises the right-to-left flip in ``rotate_frame``
        a, b = ch.pool.odd("th1"), ch.pool.odd("th2")
        L = SuperMatrix(
            ch.pool, 2, 2,
            [[0, 0, -b, a], [0, 0, -a, -b], [a, b, 0, 0], [b, -a, 0, 0]],
        )
        assert in_osp(L, 1, 1, 1)
        odd_rotation = SuperMatrix.identity(ch.pool, 2, 2) + L + L * L * Fraction(1, 2)
        tau = setup.tension()
        for rot in (orthogonal_frame_change(setup.frame), odd_rotation):
            frame2 = rotate_frame(setup.frame, rot)
            frame2.certify(g)
            tau2 = setup.tension_with_frame(frame2)
            assert all(
                (u - v).is_zero() for u, v in zip(tau.components, tau2.components)
            )


class TestDivergenceAlong:
    def test_zero_field(self, fleshy):
        z = FieldAlongMorphism(
            fleshy.phi, [fleshy.phi.source.pool.zero()] * fleshy.phi.target.dim, 0
        )
        assert fleshy.divergence_along(z).is_zero()

    def test_identity_reduces_to_divergence(self, metric_flat22):
        ch = metric_flat22.chart
        setup = HarmonicSetup(Morphism.identity(ch), metric_flat22, metric_flat22)
        X = VectorField(ch, [ch.pool.even("x"), 0, 0, 0], 0)
        assert setup.divergence_along(setup.phi.differential(X)) == ch.pool.one()


class TestNoetherCurrentIdentity:
    def test_identity_morphism_current(self, metric_flat22):
        ch = metric_flat22.chart
        setup = HarmonicSetup(Morphism.identity(ch), metric_flat22, metric_flat22)
        xi = setup.phi.differential(ch.coordinate_field(0))
        W = setup.noether_current(xi)
        assert W == ch.coordinate_field(0)

    def test_a_zero_current_keeps_the_parity_of_xi(self, metric_flat22):
        """frame_sum skips zero terms: a zero xi gives the zero W_xi of parity
        |xi|, not the parity of the last zero term c_j e_t (odd here)."""
        setup = HarmonicSetup(Morphism.identity(metric_flat22.chart), metric_flat22,
                              metric_flat22)
        for parity in (0, 1):
            xi = FieldAlongMorphism(setup.phi, [0] * metric_flat22.chart.dim, parity)
            W = setup.noether_current(xi)
            assert W.is_zero() and W.parity == parity

    def test_current_parity(self, fleshy):
        rng = seeded(512)
        for parity in (0, 1):
            xi = _random_fam(fleshy.phi, rng, parity)
            W = fleshy.noether_current(xi)
            assert W.parity == parity
            for k, c in enumerate(W.components):
                assert c.has_parity((parity + fleshy.phi.source.parity(k)) % 2)

    def test_div_identity_on_seeded_corpus(self, fleshy, classical_square):
        rng = seeded(513)
        for setup in (fleshy, classical_square):
            for _ in range(6):
                xi = _random_fam(setup.phi, rng, rng.randint(0, 1))
                assert setup.div_identity_residual(xi).is_zero()

    def test_div_identity_for_differentials(self, fleshy):
        rng = seeded(514)
        for _ in range(4):
            X = random_field(fleshy.phi.source, rng, rng.randint(0, 1))
            xi = fleshy.phi.differential(X)
            assert fleshy.div_identity_residual(xi).is_zero()


class TestNoetherTarget:
    def test_translation_on_flat_target(self, fleshy):
        tgt = fleshy.phi.target
        xi = VectorField(tgt, [tgt.pool.one(), 0, 0], 0)
        rep = fleshy.check_noether_target(xi)
        assert rep.passed
        assert rep.divergence.passed
        assert rep.lemma.passed

    def test_odd_target_translation(self, fleshy):
        tgt = fleshy.phi.target
        xi = VectorField(tgt, [tgt.pool.zero(), tgt.pool.one(), tgt.pool.zero()], 1)
        rep = fleshy.check_noether_target(xi)
        assert rep.passed

    def test_rotation_on_identity(self, chart_classical):
        g = flat_metric(chart_classical)
        setup = HarmonicSetup(Morphism.identity(chart_classical), g, g)
        rot = VectorField(
            chart_classical,
            [-chart_classical.pool.even("y"), chart_classical.pool.even("x")], 0,
        )
        rep = setup.check_noether_target(rot)
        assert rep.passed and rep.tension_is_zero
        assert rep.current.passed

    def test_odd_killing_field_through_images_with_flesh(self, monkeypatch):
        """The odd Killing field xi = -e2 d_u + u d_e1 of a flat (2|2) target,
        pulled back along images with flesh in both parities: both Koszul
        signs of the pullback Lie-derivative lemma meet nonzero terms, so
        dropping either leaves nonzero lemma residuals.  With 1 added to
        every entry of Phi*(L_xi g), the lemma fails on all 16 coordinate
        pairs, in row order through the last, ``lemma[th2,th2]``."""
        src = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)},
                    flesh=("l1", "l2"))
        tgt = Chart(["u", "v"], ["e1", "e2"], box={"u": (-100, 100), "v": (-100, 100)})
        x, y, th1, th2, l1, l2 = map(src.pool.generator, ("x", "y", "th1", "th2", "l1", "l2"))
        images = {"u": x + th1 * l1, "v": y + th1 * th2, "e1": th1 + l1 * x, "e2": th2 + l2}
        setup = HarmonicSetup(Morphism(src, tgt, images), flat_metric(src), flat_metric(tgt))
        q = tgt.pool
        xi = VectorField(tgt, [-q.odd("e2"), 0, q.even("u"), 0], 1)
        rep = setup.check_noether_target(xi)
        assert rep.precondition.passed
        assert rep.lemma.passed
        pullback_bilinear = HarmonicSetup.pullback_bilinear

        def shifted(self, B):
            return BilinearForm(src, [[e + 1 for e in row]
                                      for row in pullback_bilinear(self, B).components])

        monkeypatch.setattr(HarmonicSetup, "pullback_bilinear", shifted)
        names = src.coordinate_names()
        one = src.pool.one()
        assert setup.check_noether_target(xi).lemma.failures == [
            (f"lemma[{a},{b}]", one) for a in names for b in names]

    def test_non_killing_detected_with_nonzero_residual(self, classical_square):
        tgt = classical_square.phi.target
        xi = VectorField(tgt, [tgt.pool.even("y")], 0)  # y d_y is not Killing
        rep = classical_square.check_noether_target(xi)
        assert rep.precondition.failures == [("L[y,y]", tgt.pool.scalar(2))]
        assert not rep.passed
        # sensitivity: the divergence residual itself must be nonzero here,
        # div(phi o xi) = 4 x^2 for phi#(y) = x^2
        x_ = classical_square.phi.source.pool.even("x")
        assert rep.divergence.failures == [("div_residual", 4 * x_ * x_)]
        assert rep.lemma.passed


class TestNoetherDomain:
    def test_identity_translation(self, metric_flat22):
        ch = metric_flat22.chart
        setup = HarmonicSetup(Morphism.identity(ch), metric_flat22, metric_flat22)
        rep = setup.check_noether_domain(ch.coordinate_field(0))
        assert rep.passed
        assert rep.current is not None and rep.current.passed

    def test_linear_isometry_rotation(self, chart_classical):
        ch = chart_classical
        p = ch.pool
        # rotate by the rational 3-4-5 point: an exact isometry of the plane
        images = {
            "x": p.even("x") * Fraction(3, 5) - p.even("y") * Fraction(4, 5),
            "y": p.even("x") * Fraction(4, 5) + p.even("y") * Fraction(3, 5),
        }
        # the rotated box (1, 2)^2 lies in the target box
        tgt = Chart(["x", "y"], [], box={"x": (-1, 1), "y": (1, 3)})
        phi = Morphism(ch, tgt, images)
        setup = HarmonicSetup(phi, flat_metric(ch), flat_metric(tgt))
        rot = VectorField(ch, [-p.even("y"), p.even("x")], 0)
        rep = setup.check_noether_domain(rot)
        assert rep.passed

    def test_euler_field_fails_precondition(self, metric_flat22):
        ch = metric_flat22.chart
        setup = HarmonicSetup(Morphism.identity(ch), metric_flat22, metric_flat22)
        X = VectorField(ch, [ch.pool.even("x"), 0, 0, 0], 0)
        rep = setup.check_noether_domain(X)
        two = ch.pool.scalar(2)
        # the residual 2 of L_X (Phi*g) at (x, x), and div dPhi[X] = 1
        assert rep.precondition.failures == [("L[x,x]", two)]
        assert rep.divergence.failures == [("div_residual", ch.pool.one())]
        assert rep.current.failures == [("current_div", ch.pool.one())]


class TestStressEnergy:
    def test_identity_flat_energy(self):
        for n in (1, 2, 3):
            ch = Chart([f"x{i}" for i in range(n)], [],
                       box={f"x{i}": (0, 1) for i in range(n)})
            g = flat_metric(ch)
            setup = HarmonicSetup(Morphism.identity(ch), g, g)
            assert setup.energy_density() == ch.pool.scalar(sp.Rational(n, 2))
            S = setup.stress_energy()
            want = g * ch.pool.scalar(sp.Rational(n, 2) - 1)
            assert S == want

    def test_identities_on_seeded_corpus(self, fleshy, classical_square):
        rng = seeded(515)
        for setup in (fleshy, classical_square):
            for _ in range(4):
                xi = random_field(setup.phi.source, rng, rng.randint(0, 1))
                rep = setup.stress_energy_report(xi)
                assert rep.lemma.passed
                assert rep.current.passed

    def test_identities_for_an_odd_field_on_a_mixed_metric(self):
        """An odd source field on a (1|2) metric with x,x = (1 + x)^2 + th1 th2
        and th1,th2 = -(1 + x): the sign (-1)^{|X||Y|} of (nabla_X S)(Y, Z)
        meets a nonzero term, so dropping it breaks both identities."""
        src = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)})
        x, th1, th2 = map(src.pool.generator, ("x", "th1", "th2"))
        h = BilinearForm(src, [[(1 + x) ** 2 + th1 * th2, 0, 0],
                               [0, 0, -(1 + x)],
                               [0, 1 + x, 0]])
        tgt = Chart(["u"], ["e1", "e2"], box={"u": (-100, 100)})
        phi = Morphism(src, tgt, {"u": x + th1 * th2, "e1": th1 + x * th2, "e2": th2})
        rep = HarmonicSetup(phi, h, flat_metric(tgt)).stress_energy_report(
            VectorField(src, [th2, x, 0], 1))
        assert rep.lemma.passed
        assert rep.current.passed

    def test_conserved_current_for_killing_and_harmonic(self, metric_flat22):
        ch = metric_flat22.chart
        setup = HarmonicSetup(Morphism.identity(ch), metric_flat22, metric_flat22)
        rot = VectorField(ch, [-ch.pool.even("y"), ch.pool.even("x"), 0, 0], 0)
        rep = setup.stress_energy_report(rot)
        assert rep.conserved is not None
        assert rep.conserved.passed
        assert rep.passed

    @staticmethod
    def _line_identity():
        line = Chart(["x"], [], box={"x": (0, 1)})
        g = flat_metric(line)
        return HarmonicSetup(Morphism.identity(line), g, g), line.coordinate_field(0)

    def test_a_wrong_tension_fails_the_lemma_with_its_residual(self, monkeypatch):
        """With tau replaced by the field 1 along the identity of a flat
        line, div S[xi] + <dPhi[xi], tau> = <d_x, d_x> = 1 for xi = d_x."""
        setup, d_x = self._line_identity()
        monkeypatch.setattr(HarmonicSetup, "tension",
                            lambda self: FieldAlongMorphism(self.phi, [self.h.chart.pool.one()], 0))
        rep = setup.stress_energy_report(d_x)
        assert rep.lemma.failures == [("lemma_residual", d_x.chart.pool.one())]
        assert rep.current.passed and rep.conserved is None and not rep.passed

    def test_a_wrong_divergence_fails_the_current_identity_with_its_residual(self, monkeypatch):
        """With 1 added to every source divergence, div Y_xi - div S[xi] = 1
        for the Killing xi = d_x of the identity of a flat line, and so is
        the conserved divergence div Y_xi."""
        setup, d_x = self._line_identity()
        source_divergence = HarmonicSetup.source_divergence
        monkeypatch.setattr(HarmonicSetup, "source_divergence",
                            lambda self, X: source_divergence(self, X) + 1)
        rep = setup.stress_energy_report(d_x)
        one = d_x.chart.pool.one()
        assert rep.lemma.passed
        assert rep.current.failures == [("current_identity_residual", one)]
        assert rep.conserved.failures == [("conserved_div", one)]

    def test_nonharmonic_morphism_breaks_conservation(self, classical_square):
        """Sensitivity: tau != 0 makes div W nonzero for a Killing target field."""
        setup = classical_square
        tgt = setup.phi.target
        xi = VectorField(tgt, [tgt.pool.one()], 0)  # target translation, Killing
        pulled = setup.phi.pull_target_field(xi)
        w_div = setup.source_divergence(setup.noether_current(pulled))
        assert not w_div.is_zero()
        assert w_div == setup.phi.source.pool.scalar(2)  # <xi, tau> = tau^y

    def test_non_killing_source_field_breaks_conservation(self, metric_flat22):
        ch = metric_flat22.chart
        setup = HarmonicSetup(Morphism.identity(ch), metric_flat22, metric_flat22)
        X = VectorField(ch, [ch.pool.even("x"), 0, 0, 0], 0)
        rep = setup.stress_energy_report(X)
        # identities still hold; only the conserved current is not available
        assert rep.lemma.passed
        assert rep.current.passed
        assert rep.conserved is None
        # and div Y_xi itself is nonzero: broken input detected
        S = setup.stress_energy()
        Y = ch.zero_field(0)
        for i in range(ch.dim):
            coeff = S.evaluate(X, setup.frame.fields[i])
            if coeff.is_zero():
                continue
            w, t = setup.frame.inverse_pairing[i]  # f^i = f_t w
            Y = Y + setup.frame.fields[t].scale(coeff * w)
        # S vanishes identically here (n=2, m=1 gives e = 0 on the identity)
        # so use the domain theorem instead for sensitivity
        rep2 = setup.check_noether_domain(X)
        assert not rep2.precondition.passed


class TestMorphismValidation:
    def test_flesh_in_target_rejected(self):
        src = Chart(["x"], [], box={"x": (0, 1)})
        tgt = Chart(["y"], [], box={"y": (0, 1)}, flesh=("lam1",))
        with pytest.raises(ScenarioError):
            Morphism(src, tgt, {"y": src.pool.even("x")})

    def test_parity_clash_rejected(self, chart_flat22):
        ch = chart_flat22
        images = {n: ch.pool.generator(n) for n in ch.coordinate_names()}
        images["th1"] = ch.pool.even("x")
        with pytest.raises(ParityError):
            Morphism(ch, ch, images)

    def test_box_certificate(self):
        src = Chart(["x"], [], box={"x": (0, 1)})
        tgt = Chart(["y"], [], box={"y": (0, 1)})
        with pytest.raises(ScenarioError):
            Morphism(src, tgt, {"y": src.pool.even("x") * 5})


class TestFieldOwners:
    """A field along another morphism is a ChartMismatch, not a silent value."""

    @pytest.fixture
    def other(self, fleshy):
        """A second morphism between the charts of ``fleshy``."""
        phi = fleshy.phi
        p = phi.source.pool
        images = dict(phi.images, u=p.even("x") * 2)
        return Morphism(phi.source, phi.target, images)

    def test_pair_rejects_a_field_along_another_morphism(self, fleshy, other):
        d = fleshy.phi.source.coordinate_field(0)
        W, V = fleshy.phi.differential(d), other.differential(d)
        with pytest.raises(ChartMismatch):
            fleshy.pair(W, V)
        with pytest.raises(ChartMismatch):
            fleshy.pair(V, W)

    def test_connection_apply_rejects_a_field_along_another_morphism(self, fleshy, other):
        d = fleshy.phi.source.coordinate_field(0)
        with pytest.raises(ChartMismatch):
            fleshy.connection_apply(d, other.differential(d))


def test_setup_forms_each_differential_once_per_field(monkeypatch):
    """tension, the domain Noether check and the stress-energy report on one
    setup form dPhi[Y] at most once per field object, xi included.  The
    wrapper keeps every field it sees, so no id is reused among them."""
    src = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)})
    x, th1, th2 = map(src.pool.generator, ("x", "th1", "th2"))
    h = BilinearForm(src, [[(1 + x) ** 2, th2, 0], [th2, 0, -(1 + x)], [0, 1 + x, 0]])
    xi = VectorField(src, [x, th1, th2], 0)
    seen = []
    differential = Morphism.differential

    def counted(self, Y):
        seen.append(Y)
        return differential(self, Y)

    monkeypatch.setattr(Morphism, "differential", counted)
    setup = HarmonicSetup(Morphism.identity(src), h, h)
    setup.tension()
    setup.check_noether_domain(xi)
    setup.stress_energy_report(xi)
    assert len({id(Y) for Y in seen}) == len(seen)
    assert sum(Y is xi for Y in seen) == 1


def test_setup_forms_each_frame_derivative_once(monkeypatch):
    """The tension and every stress-energy report read nabla_{e_j} e_t of
    the source frame; the setup forms each once.  One tension and two
    reports on different fields xi form dim of them and nabla_{e_j} xi once
    per report and frame field, and no pair twice."""
    src = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)})
    x, th1, th2 = map(src.pool.generator, ("x", "th1", "th2"))
    h = BilinearForm(src, [[(1 + x) ** 2, th2, 0], [th2, 0, -(1 + x)], [0, 1 + x, 0]])
    seen = []
    derivative = Connection.derivative

    def counted(self, X, Y):
        seen.append((X, Y))
        return derivative(self, X, Y)

    monkeypatch.setattr(Connection, "derivative", counted)
    setup = HarmonicSetup(Morphism.identity(src), h, h)
    setup.tension()
    for xi in (VectorField(src, [x, th1, th2], 0), VectorField(src, [1, 0, th1], 0)):
        setup.stress_energy_report(xi)
    assert len({(id(X), id(Y)) for X, Y in seen}) == len(seen) == 3 * src.dim
