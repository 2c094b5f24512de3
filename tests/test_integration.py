"""Volume densities, exact Berezin-box integration, and action values."""

from fractions import Fraction

import pytest
import sympy as sp

from supergeo import Chart
from supergeo.errors import MetricViolation, NonPolynomialIntegrand
from supergeo.geometry import BilinearForm, VectorField, flat_metric
from supergeo.integration import action, integrate, volume_density
from supergeo.morphisms import FieldAlongMorphism, HarmonicSetup, Morphism

from conftest import random_superfunction, seeded

x = sp.Symbol("x")


class TestVolumeDensity:
    def test_flat_scale_is_one(self, metric_flat22):
        assert volume_density(metric_flat22).scale == metric_flat22.chart.pool.one()

    def test_classical_rescaled_line(self):
        ch = Chart(["x"], [], box={"x": (0, 1)})
        g = BilinearForm(ch, [[4]])
        assert volume_density(g).scale == ch.pool.scalar(2)

    def test_negative_definite_uses_absolute_value(self):
        ch = Chart(["x"], [], box={"x": (0, 1)})
        g = BilinearForm(ch, [[-4]])
        assert volume_density(g).scale == ch.pool.scalar(2)

    def test_root_sign_follows_the_box(self):
        """h = (2-x)^2 dx^2 on [0, 1]: the density is 2 - x, not x - 2."""
        ch = Chart(["x"], [], box={"x": (0, 1)})
        vol = volume_density(BilinearForm(ch, [[(2 - x) ** 2]]))
        assert vol.scale == ch.pool.scalar(2 - x)
        assert integrate(ch.pool.one(), vol) == Fraction(3, 2)

    def test_zero_at_a_box_corner_rejected(self):
        """(1-x)^2 dx^2 vanishes at the corner x = 1 of [0, 1], a point of
        the closed box the action integrates over."""
        ch = Chart(["x"], [], box={"x": (0, 1)})
        with pytest.raises(MetricViolation) as err:
            volume_density(BilinearForm(ch, [[(1 - x) ** 2]]))
        assert err.value.args == ("nondegeneracy", "body determinant vanishes at x = 1")

    def test_nilpotent_deformation(self, metric_deformed):
        vd = volume_density(metric_deformed)
        pool = metric_deformed.chart.pool
        t12 = pool.odd("th1") * pool.odd("th2")
        assert vd.scale == pool.one() + t12 * Fraction(1, 2)
        assert vd.scale * vd.scale == pool.one() + t12


class TestIntegrate:
    def test_top_monomial_convention(self, metric_deformed):
        ch = metric_deformed.chart
        vol = volume_density(flat_metric(ch))
        t12 = ch.pool.odd("th1") * ch.pool.odd("th2")
        assert integrate(t12, vol) == Fraction(1)

    def test_no_top_monomial_gives_zero(self, metric_flat22):
        vol = volume_density(metric_flat22)
        assert integrate(metric_flat22.chart.pool.one(), vol) == Fraction(0)

    def test_polynomial_box_integral(self):
        ch = Chart(["x"], ["th1", "th2"], box={"x": (0, 2)})
        vol = volume_density(flat_metric(ch))
        f = ch.pool.even("x") * ch.pool.odd("th1") * ch.pool.odd("th2")
        assert integrate(f, vol) == Fraction(2)

    def test_rational_integrand_rejected(self):
        ch = Chart(["x"], ["th1", "th2"], box={"x": (1, 2)})
        vol = volume_density(flat_metric(ch))
        f = ch.pool.scalar(1 / x) * ch.pool.odd("th1") * ch.pool.odd("th2")
        with pytest.raises(NonPolynomialIntegrand):
            integrate(f, vol)

    def test_linearity(self):
        ch = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)})
        vol = volume_density(flat_metric(ch))
        rng = seeded(601)
        for _ in range(6):
            f = _poly_sf(ch, rng)
            g = _poly_sf(ch, rng)
            assert integrate(f + g, vol) == integrate(f, vol) + integrate(g, vol)
            assert integrate(f * 3, vol) == 3 * integrate(f, vol)

    def test_box_additivity(self):
        whole = Chart(["x"], ["th1", "th2"], box={"x": (0, 2)})
        left = Chart(["x"], ["th1", "th2"], box={"x": (0, Fraction(1, 2))})
        right = Chart(["x"], ["th1", "th2"], box={"x": (Fraction(1, 2), 2)})
        rng = seeded(602)
        from supergeo.scalars import Superfunction

        for _ in range(5):
            fw = _poly_sf(whole, rng)
            vw = integrate(fw, volume_density(flat_metric(whole)))
            vl = integrate(
                Superfunction(left.pool, fw.terms, fw.den),
                volume_density(flat_metric(left)),
            )
            vr = integrate(
                Superfunction(right.pool, fw.terms, fw.den),
                volume_density(flat_metric(right)),
            )
            assert vw == vl + vr

    def test_berezin_fubini_on_factored_integrands(self):
        """Odd-first extraction equals even-first integration on p(x)*q(theta)."""
        ch = Chart(["x"], ["th1", "th2"], box={"x": (0, 3)})
        pool = ch.pool
        rng = seeded(603)
        vol = volume_density(flat_metric(ch))
        for _ in range(5):
            px = sum(
                (pool.scalar(rng.randint(-3, 3) * x**d) for d in range(3)),
                start=pool.zero(),
            )
            c = rng.randint(-3, 3)
            q = pool.odd("th1") * pool.odd("th2") * c + pool.scalar(rng.randint(-2, 2))
            f = px * q
            # odd first
            odd_first = integrate(f, vol)
            # even first: integrate the polynomial, then extract the top
            ex = sp.integrate(px.body(), (x, 0, 3))
            even_first = sp.Rational(ex) * q.berezin_top()
            assert odd_first == Fraction(sp.Rational(even_first).p,
                                         sp.Rational(even_first).q)


    def test_monomial_sum_matches_sympy_integrate(self):
        """Exact monomial integration against sp.integrate, the reference, on
        random multivariate polynomials over random rational boxes."""
        rng = seeded(604)
        for _ in range(8):
            box = {}
            for name in ("x", "y", "z"):
                a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                box[name] = (a, a + Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            ch = Chart(["x", "y", "z"], ["th1", "th2"], box=box)
            pool = ch.pool
            poly = pool.zero()
            for _ in range(rng.randint(1, 6)):
                term = pool.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                for sym in pool.even_symbols:
                    term = term * pool.scalar(sym ** rng.randint(0, 3))
                poly = poly + term
            f = poly * pool.odd("th1") * pool.odd("th2") + _poly_sf(ch, rng)
            ref = f.berezin_top()
            for sym in pool.even_symbols:
                a, b = box[sym.name]
                ref = sp.integrate(ref, (sym, sp.Rational(a), sp.Rational(b)))
            ref = sp.Rational(ref)
            vol = volume_density(flat_metric(ch))
            assert integrate(f, vol) == Fraction(ref.p, ref.q)


def _poly_sf(ch, rng):
    f = random_superfunction(ch.pool, rng, None, max_degree=2)
    return f


class TestAction:
    def test_identity_flat_plane(self):
        ch = Chart(["x", "y"], [], box={"x": (0, 1), "y": (0, 1)})
        g = flat_metric(ch)
        setup = HarmonicSetup(Morphism.identity(ch), g, g)
        assert action(setup) == Fraction(1)

    def test_identity_flat_22_cancellation(self, metric_flat22):
        setup = HarmonicSetup(
            Morphism.identity(metric_flat22.chart), metric_flat22, metric_flat22
        )
        assert action(setup) == Fraction(0)

    def test_constant_morphism(self):
        src = Chart(["x"], [], box={"x": (0, 1)})
        tgt = Chart(["y"], [], box={"y": (0, 1)})
        phi = Morphism(src, tgt, {"y": src.pool.scalar(sp.Rational(1, 2))})
        setup = HarmonicSetup(phi, flat_metric(src), flat_metric(tgt))
        assert action(setup) == Fraction(0)

    def test_identity_action_equals_half_dim_times_volume(self):
        # flat metric, box [0,2] x [0,3]: A = (n/2) * vol
        ch = Chart(["x", "y"], [], box={"x": (0, 2), "y": (0, 3)})
        g = flat_metric(ch)
        setup = HarmonicSetup(Morphism.identity(ch), g, g)
        assert action(setup) == Fraction(6)

    def test_classical_dirichlet_energy(self):
        # phi(y) = x^2 on [0,1]: A = 1/2 int 4x^2 = 2/3
        src = Chart(["x"], [], box={"x": (0, 1)})
        tgt = Chart(["y"], [], box={"y": (0, 1)})
        phi = Morphism(src, tgt, {"y": src.pool.even("x") ** 2})
        setup = HarmonicSetup(phi, flat_metric(src), flat_metric(tgt))
        assert action(setup) == Fraction(2, 3)


class TestActionAdditivity:
    """The action over a box is the sum of the actions over the two halves
    of a rational split of one even coordinate.  The source metric is
    h = sum_k (p_k x_k + q_k)^2 dx_k^2, each root outside the box, so its
    density prod_k |p_k x_k + q_k| is not constant; the target is the same
    box with g = sum_k (p_k u_k + q_k)^2 (1 + c_k u_k^2) du_k^2, and the map
    is the identity, so that the integrand 1/2 sum_k (1 + c_k x_k^2) times
    the density is a polynomial."""

    @staticmethod
    def _setup(names, box, factors, source_box):
        """The identity setup from ``source_box`` into ``box``."""
        src = Chart(names, [], box=source_box)
        tgt = Chart(names, [], box=box)

        def diagonal(pool, extra):
            gens = [pool.even(n) for n in names]
            return [[(p * v + q) ** 2 * (1 + c * v * v if extra else 1) if i == j else 0
                     for j in range(len(names))]
                    for i, (v, (p, q, c)) in enumerate(zip(gens, factors))]

        phi = Morphism(src, tgt, {n: src.pool.even(n) for n in names})
        return HarmonicSetup(phi, BilinearForm(src, diagonal(src.pool, False)),
                             BilinearForm(tgt, diagonal(tgt.pool, True)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_the_action_is_additive_over_a_split(self, n):
        rng = seeded(940 + n)
        names = ["x", "y"][:n]
        for _ in range(4):
            box, factors = {}, []
            for name in names:
                a = Fraction(rng.randint(-4, 2), rng.randint(1, 2))
                b = a + Fraction(rng.randint(1, 4), rng.randint(1, 2))
                p = rng.choice((-3, -2, -1, 1, 2, 3))
                q = Fraction(rng.randint(-9, 9))
                while a <= -q / p <= b:  # the root -q/p lies outside [a, b]
                    q += 1
                box[name] = (a, b)
                factors.append((p, q, rng.randint(0, 2)))
            k = rng.randrange(n)
            a, b = box[names[k]]
            m = a + (b - a) * Fraction(rng.randint(1, 6), 7)
            whole = action(self._setup(names, box, factors, box))
            parts = [action(self._setup(names, box, factors, {**box, names[k]: piece}))
                     for piece in ((a, m), (m, b))]
            assert whole == sum(parts)

    @pytest.mark.parametrize("source_box", [(0, 1), (0, Fraction(1, 3)), (Fraction(1, 3), 1)],
                             ids=["whole", "left", "right"])
    def test_a_density_with_a_zero_in_the_box_is_rejected(self, source_box):
        """(3x - 1)^2 dx^2 vanishes at 1/3: on [0, 1] its sign test is
        undecided, on [0, 1/3] and [1/3, 1] it finds the zero at a corner.
        With the root's sign read off the midpoint alone the density on
        [0, 1] is 3x - 1, and the action 1/4 is not 1/12 + 1/3, the sum over
        the two thirds."""
        with pytest.raises(MetricViolation) as err:
            action(self._setup(["x"], {"x": (0, 1)}, [(3, -1, 0)], {"x": source_box}))
        assert err.value.violation == "nondegeneracy"


def _line(a, b):
    """The (1|2) chart x | th1 th2 on [a, b]."""
    return Chart(["x"], ["th1", "th2"], box={"x": (a, b)})


class TestActionOracles:
    """The action against laws that share no code with it.  The source is
    (1|2) on [0, 1] with x,x = 1 + x th1 th2 and th1,th2 = -1, the target
    flat (1|2) with u in [-40, 40], wide enough for the moved maps, and the
    map u = x^2 + 2 th1 th2, e1 = th1 + x th2, e2 = 3 th2 - x^2 th1, whose
    action is 39/10.  A change of coordinates
    chi composes as phi o chi with the pulled-back metric chi* h; a
    composite's images are the outer images substituted with the inner ones."""

    @pytest.fixture
    def case(self):
        src = _line(0, 1)
        x, th1, th2 = map(src.pool.generator, ("x", "th1", "th2"))
        h = BilinearForm(src, [[1 + x * th1 * th2, 0, 0], [0, 0, -1], [0, 1, 0]])
        tgt = Chart(["u"], ["e1", "e2"], box={"u": (-40, 40)})
        images = {"u": x * x + 2 * th1 * th2, "e1": th1 + x * th2, "e2": 3 * th2 - x * x * th1}
        return HarmonicSetup(Morphism(src, tgt, images), h, flat_metric(tgt))

    @staticmethod
    def _composite(outer, target, inner):
        """The morphism into ``target`` with images ``outer`` after ``inner``."""
        pool = inner.source.pool
        return Morphism(inner.source, target,
                        {n: f.substitute(inner.images, pool) for n, f in outer.items()})

    def _after(self, case, chi):
        """The setup of phi o chi over chi's source, with the metric chi* h;
        the setup that pulls h back reads no metric of chi's source, so the
        flat one stands in."""
        pulled = HarmonicSetup(chi, flat_metric(chi.source), case.h).pullback_metric()
        return HarmonicSetup(self._composite(case.phi.images, case.phi.target, chi), pulled,
                             case.g)

    def test_the_action(self, case):
        assert action(case) == Fraction(39, 10)

    def test_a_target_isometry_keeps_the_action(self, case):
        """u -> 3 - u, e1 -> 2 e1, e2 -> e2/2 preserves the flat target metric."""
        u, e1, e2 = map(case.g.chart.pool.generator, ("u", "e1", "e2"))
        iso = {"u": 3 - u, "e1": 2 * e1, "e2": e2 * Fraction(1, 2)}
        moved = self._composite(iso, case.g.chart, case.phi)
        assert action(HarmonicSetup(moved, case.h, case.g)) == Fraction(39, 10)

    def test_an_affine_change_of_the_box_keeps_the_action(self, case):
        """x -> 2x - 1 from [1/2, 1] onto [0, 1]."""
        half = _line(Fraction(1, 2), 1)
        x, th1, th2 = map(half.pool.generator, ("x", "th1", "th2"))
        chi = Morphism(half, case.phi.source, {"x": 2 * x - 1, "th1": th1, "th2": th2})
        assert action(self._after(case, chi)) == Fraction(39, 10)

    def test_an_odd_change_of_coordinates_keeps_the_action(self, case):
        """th1 -> th1 + x th2, th2 -> 2 th2 + x th1, with x fixed."""
        src = case.phi.source
        x, th1, th2 = map(src.pool.generator, ("x", "th1", "th2"))
        chi = Morphism(src, src, {"x": x, "th1": th1 + x * th2, "th2": 2 * th2 + x * th1})
        assert action(self._after(case, chi)) == Fraction(39, 10)

    def test_an_even_nilpotent_shift_moves_the_action_by_a_boundary_term(self, case):
        """x -> x + nu with nu = th1 th2 is no invariance on a box: the action
        becomes 49/10, and the change is [B(nu D)] from x = 0 to x = 1, with
        B the Berezin top coefficient and D the density dsvol_h e(Phi)."""
        src = case.phi.source
        x, th1, th2 = map(src.pool.generator, ("x", "th1", "th2"))
        nu = th1 * th2
        shifted = action(self._after(case, Morphism(src, src, {"x": x + nu, "th1": th1,
                                                                "th2": th2})))
        B = (nu * volume_density(case.h).scale * case.energy_density()).top_part()
        assert shifted == Fraction(49, 10)
        assert shifted - action(case) == B.body_at((1,)) - B.body_at((0,))

    # -- the paper's laws: first variation, Stokes, Killing stationarity ------

    @staticmethod
    def _moved(case, V, t):
        """S(t) = action(Phi + t V) for a field V along Phi."""
        images = {n: f + c * t for (n, f), c in zip(case.phi.images.items(), V.components)}
        return action(HarmonicSetup(Morphism(case.phi.source, case.phi.target, images),
                                    case.h, case.g))

    @staticmethod
    def _flux(case, W):
        """[B(rho W^x)] from x = 0 to x = 1, rho the volume density and B the
        Berezin top coefficient: the boundary term of the box."""
        B = (volume_density(case.h).scale * W.components[0]).top_part()
        return B.body_at((1,)) - B.body_at((0,))

    @staticmethod
    def _target_field(case, *components):
        pool = case.g.chart.pool
        return VectorField(case.g.chart, [pool.zero() + c for c in components], 0)

    @pytest.mark.parametrize("images, first, bulk, flux", [
        (lambda x, t1, t2: (x * x, 0, 0), Fraction(-1, 2), Fraction(1, 2), -1),
        (lambda x, t1, t2: (x, x * t1, t2), Fraction(-13, 12), Fraction(-1, 12), -1),
        (lambda x, t1, t2: (1 + x * t1 * t2, x * x * t2, x * t1), Fraction(27, 8),
         Fraction(11, 8), 2),
    ], ids=["u", "u_e1_e2", "nilpotent"])
    def test_the_first_variation_is_minus_the_tension_plus_a_flux(self, case, images, first,
                                                                   bulk, flux):
        """(S(1) - S(-1))/2 = -int <tau, V> + [B(rho W_V^x)] with W_V the
        Noether current of V: the tension is the Euler-Lagrange field of the
        action.  On a flat target S is quadratic in t, so the central
        difference is the exact first variation."""
        pool = case.phi.source.pool
        comps = [pool.zero() + c for c in images(*map(pool.generator, ("x", "th1", "th2")))]
        V = FieldAlongMorphism(case.phi, comps, 0)
        assert (self._moved(case, V, 1) - self._moved(case, V, -1)) / 2 == first
        assert -integrate(case.pair(case.tension(), V), volume_density(case.h)) == bulk
        assert self._flux(case, case.noether_current(V)) == flux
        assert first == bulk + flux

    @pytest.mark.parametrize("xi, flux", [
        (lambda u, e1, e2: (1, 0, 0), -1),
        (lambda u, e1, e2: (0, e1, -e2), 1),
    ], ids=["d_u", "osp"])
    def test_the_noether_current_integrates_to_its_flux(self, case, xi, flux):
        """Stokes on the box: int div W = [B(rho W^x)] for the Noether current
        W of a target Killing field, though div W itself is nonzero off
        shell."""
        target = self._target_field(case, *xi(*map(case.g.chart.pool.generator,
                                                    ("u", "e1", "e2"))))
        W = case.noether_current(case.phi.pull_target_field(target))
        assert not case.source_divergence(W).is_zero()
        assert integrate(case.source_divergence(W), volume_density(case.h)) == flux
        assert self._flux(case, W) == flux

    @pytest.mark.parametrize("xi, values, first", [
        (lambda u, e1, e2: (1, 0, 0), [Fraction(39, 10)] * 4, 0),
        (lambda u, e1, e2: (0, e1, -e2),
         [Fraction(15, 4), Fraction(39, 10), Fraction(15, 4), Fraction(33, 10)], 0),
        (lambda u, e1, e2: (u, 0, 0), None, Fraction(15, 2)),
        (lambda u, e1, e2: (0, e1, 0), None, Fraction(3, 20)),
    ], ids=["d_u", "osp", "u_d_u", "e1_d_e1"])
    def test_a_killing_field_leaves_the_action_stationary(self, case, xi, values, first):
        """S(t) = action(Phi + t xi o Phi) at t = -1, 0, 1, 2: a Killing field
        of the target has first variation 0, a field that is not one moves it;
        every third difference is 0, so S is quadratic and the central
        difference exact."""
        target = self._target_field(case, *xi(*map(case.g.chart.pool.generator,
                                                    ("u", "e1", "e2"))))
        V = case.phi.pull_target_field(target)
        S = [self._moved(case, V, t) for t in (-1, 0, 1, 2)]
        assert S[1] == Fraction(39, 10)
        assert values is None or S == values
        assert (S[2] - S[0]) / 2 == first
        assert S[3] - 3 * S[2] + 3 * S[1] - S[0] == 0
