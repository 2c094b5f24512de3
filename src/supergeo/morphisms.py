"""Maps with flesh between charts and the superharmonic field theory on top.

A morphism is stored through its coordinate pullbacks ``phi#(eta^a)``, one
even/odd superfunction over the source pool per target coordinate.  Fields
along the morphism keep evaluation components ``V^a := V(eta^a)``; every
contraction then happens in source-ring arithmetic through the right-module
pairing axioms

    <V*f, W> = (-1)^{|f||W|} <V, W> * f,      <V, W*f> = <V, W> * f,

which on evaluation components are the package's one graded pairing
(:func:`supermatrix.graded_pair`) against the pulled-back metric entries.  The
package certifies the resulting sign bookkeeping with the metricity,
chain-rule and Noether residual identities rather than per-formula sign
derivations; each Noether theorem and stress identity is an
:class:`errors.Check`, and its report passes when all of them pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import Check, ChartMismatch, ParityError, ScenarioError, _Checks
from .geometry import (
    BilinearForm,
    Chart,
    MetricContext,
    OSpFrame,
    VectorField,
    _covariant_derivative,
    _Field,
    _same_owner,
    divergence,
    frame_sum,
    str_with_metric,
)
from .lie import form_check, lie_derivative_bilinear
from .scalars import Superfunction
from .supermatrix import graded_pair


class Morphism:
    """Map with flesh from a source chart into a (flesh-free) target chart."""

    def __init__(self, source: Chart, target: Chart, images: dict):
        if target.pool.n_flesh:
            raise ScenarioError("target charts of morphisms must carry no flesh")
        self.source = source
        self.target = target
        self.images = {}
        names = target.coordinate_names()
        for i, name in enumerate(names):
            if name not in images:
                raise ScenarioError(f"missing pullback expression for {name!r}")
            img = images[name]
            if not isinstance(img, Superfunction) or img.pool != source.pool:
                raise ChartMismatch("pullback expressions must live over the source pool")
            if not img.has_parity(target.parity(i)):
                raise ParityError(f"pullback of {name!r} must have parity {target.parity(i)}")
            self.images[name] = img
        self._certify_box()

    @classmethod
    def identity(cls, chart: Chart) -> "Morphism":
        images = {n: chart.pool.generator(n) for n in chart.coordinate_names()}
        return cls(chart, chart, images)

    def _certify_box(self):
        """The bodies of the even images map the closed source box into the
        target box: for each target interval [a, b], the bodies of ``image -
        a`` and ``b - image`` are proven >= 0 there by
        :meth:`Superfunction.body_sign` (the non-strict test, as the
        identity map touches the target box's faces), whose strict test of
        the denominator first raises ``NonInvertible`` for a pole; else
        ``ScenarioError`` names a point where the body leaves the box."""
        box = tuple(self.source.box.values())
        pool = self.source.pool
        for name, (a, b) in self.target.box.items():
            image = self.images[name]
            for bound in (image - a, b - image):
                sign, points = bound.body_sign(box, strict=False)
                if not sign:
                    raise ScenarioError(
                        f"body of pullback for {name!r} leaves the target box"
                        f" {pool.render_witness(points)}" if points else
                        f"body of pullback for {name!r} is not proven to stay in the target"
                        " box: its sign test is undecided")

    def pullback(self, f: Superfunction) -> Superfunction:
        """phi#(f): graded-safe substitution of the coordinate pullbacks; a
        zero is the source pool's zero, with no substitution."""
        if f.pool != self.target.pool:
            raise ChartMismatch("function must live over the target pool")
        if f.is_zero():
            return self.source.pool.zero()
        return f.substitute(self.images, self.source.pool)

    def differential(self, Y: VectorField) -> "FieldAlongMorphism":
        """dPhi[Y] with components Y(phi# eta^a)."""
        if Y.chart != self.source:
            raise ChartMismatch("field must live on the source chart")
        comps = [
            Y.apply(self.images[name]) for name in self.target.coordinate_names()
        ]
        return FieldAlongMorphism(self, comps, Y.parity)

    def pull_target_field(self, xi: VectorField) -> "FieldAlongMorphism":
        """phi o xi with components phi#(xi^a)."""
        if xi.chart != self.target:
            raise ChartMismatch("field must live on the target chart")
        comps = [self.pullback(c) for c in xi.components]
        return FieldAlongMorphism(self, comps, xi.parity)

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    __hash__ = None

    def __repr__(self):
        parts = ", ".join(
            f"{n} -> {img.render()}" for n, img in self.images.items()
        )
        return f"Morphism({parts})"


class FieldAlongMorphism(_Field):
    """Derivation along the morphism, stored as V^a = V(eta^a)."""

    _prefix = "D_"

    def __init__(self, phi: Morphism, components, parity: int):
        super().__init__(phi, phi.target, phi.source.pool, components, parity)

    @property
    def phi(self) -> Morphism:
        return self.owner

    def apply(self, f: Superfunction) -> Superfunction:
        """Act as a derivation along phi#: V(f) in source-ring arithmetic."""
        names, pullback = self.slots.coordinate_names(), self.phi.pullback
        return self.pool.sum([comp * pullback(d) for a, comp in self.nonzero
                              if not (d := f.partial(names[a])).is_zero()])


class NoetherReport(_Checks):
    """Labels ``L[a,b]`` (precondition) and ``lemma[a,b]``; ``current`` is
    made for a superharmonic Phi only, ``lemma`` for a target field only."""

    __slots__ = ("precondition", "divergence", "tension_is_zero", "current", "lemma")

    def __init__(self, precondition: Check, divergence: Check, tension_is_zero: bool,
                 current: Check | None = None, lemma: Check | None = None):
        self.precondition, self.divergence = precondition, divergence
        self.tension_is_zero, self.current, self.lemma = tension_is_zero, current, lemma


class StressEnergyReport(_Checks):
    """``lemma``: div S[xi] + <dPhi[xi], tau>; ``current``: div Y_xi - div S[xi]
    - correction; ``conserved`` (made when tau = 0 and xi is Killing): div Y_xi."""

    __slots__ = ("energy", "lemma", "current", "conserved")

    def __init__(self, energy: Superfunction, lemma: Check, current: Check,
                 conserved: Check | None = None):
        self.energy, self.lemma, self.current, self.conserved = energy, lemma, current, conserved


class HarmonicSetup:
    """A morphism between semi-Riemannian charts with everything precomputed.

    Bundles the source metric h (with Levi-Civita connection and OSp frame)
    and the target metric g (with its connection, pulled back once); both
    come from the metrics' contexts.  Every dPhi[Y] and nabla_X Y it reuses
    is formed once per field object (:meth:`_formed_once`).
    """

    def __init__(self, phi: Morphism, h: BilinearForm, g: BilinearForm):
        if h.chart != phi.source or g.chart != phi.target:
            raise ChartMismatch("metrics must live on the morphism's charts")
        self.phi = phi
        self.h = h
        self.g = g
        source, target = MetricContext.of(h), MetricContext.of(g)
        self.source_connection = source.connection
        self.target_connection = target.connection
        self.frame = source.frame
        self._g_pulled = self._pull_grid(g)
        # phi#(Gamma) as a sparse table: the nonzero pullbacks of the nonzero symbols
        self._gamma_pulled = [
            [[(k, p) for k, c in row if not (p := phi.pullback(c)).is_zero()] for row in plane]
            for plane in self.target_connection.table
        ]
        self._formed = {}  # (id(Y),) -> ((Y,), dPhi[Y]); (id(X), id(Y)) -> ((X, Y), nabla_X Y)

    def _formed_once(self, make, *fields):
        """make(*fields) once per tuple of field objects (dPhi[Y] or nabla_X Y);
        the memo keeps the fields, so their ids are not reused while the
        setup lives (fields are immutable)."""
        key = tuple(map(id, fields))
        hit = self._formed.get(key)
        if hit is None:
            hit = self._formed[key] = (fields, make(*fields))
        return hit[1]

    def _differential(self, Y: VectorField) -> FieldAlongMorphism:
        """dPhi[Y], formed once per field object."""
        return self._formed_once(self.phi.differential, Y)

    # -- pairing and pullbacks -------------------------------------------------

    def pair(self, V: FieldAlongMorphism, W: FieldAlongMorphism) -> Superfunction:
        """<V, W>_{g_Phi} on evaluation components."""
        _same_owner(self.phi, V, W)
        return graded_pair(
            self.phi.source.pool, self.phi.target.n, self._g_pulled,
            V.nonzero, V.parity, W.nonzero, W.parity,
        )

    def pullback_metric(self) -> BilinearForm:
        """Phi* g, computed once."""
        return self._pullback_metric

    @cached_property
    def _pullback_metric(self):
        return self._pair_grid(self._g_pulled, self.g.parity)

    def pullback_bilinear(self, B: BilinearForm) -> BilinearForm:
        """Phi* B via <B_Phi>(dPhi[.], dPhi[.]); B may have either parity."""
        if B.chart != self.phi.target:
            raise ChartMismatch("form must live on the target chart")
        return self._pair_grid(self._pull_grid(B), B.parity)

    def _pull_grid(self, B: BilinearForm):
        """The components phi#(B_ab) of a target form."""
        return [[self.phi.pullback(e) for e in row] for row in B.components]

    def _pair_grid(self, pulled, parity: int) -> BilinearForm:
        """The source form <B_Phi>(dPhi[d_i], dPhi[d_j]) for a pulled grid."""
        source = self.phi.source
        diffs = [self._differential(source.coordinate_field(i)) for i in range(source.dim)]
        rows = [
            [
                graded_pair(
                    source.pool, self.phi.target.n, pulled,
                    V.nonzero, V.parity, W.nonzero, W.parity, parity,
                )
                for W in diffs
            ]
            for V in diffs
        ]
        return BilinearForm(source, rows, parity)

    # -- pullback connection -----------------------------------------------------

    def connection_apply(self, X: VectorField, V: FieldAlongMorphism) -> FieldAlongMorphism:
        """(nabla_Phi)_X V: the covariant derivative on dPhi[X] and phi#(Gamma)."""
        _same_owner(self.phi, V)
        return _covariant_derivative(X.apply, self._differential(X), self._gamma_pulled, V)

    def second_fundamental_form(self, X: VectorField, Y: VectorField) -> FieldAlongMorphism:
        """B_{X,Y}(Phi) = nabla_X(dPhi[Y]) - dPhi[nabla_X Y]."""
        return self.connection_apply(X, self._differential(Y)) - self._differential(
            self._formed_once(self.source_connection.derivative, X, Y)
        )

    def tension(self) -> FieldAlongMorphism:
        """tau(Phi) over the source frame, computed once."""
        return self._tension

    @cached_property
    def _tension(self):
        return self.tension_with_frame(self.frame)

    def tension_with_frame(self, frame: OSpFrame) -> FieldAlongMorphism:
        """tau(Phi) = sum_j s_j B_{e_j, e_t}(Phi) for J e_j = s_j e_t over any
        OSp frame; a second frame gives the frame-independence certificate
        of :meth:`tension`."""
        e = frame.fields
        zero = FieldAlongMorphism(self.phi, [self.phi.source.pool.zero()] * self.phi.target.dim, 0)
        return frame_sum(frame, lambda j, t: self.second_fundamental_form(e[j], e[t]), 0, zero)

    def is_superharmonic(self) -> bool:
        return self.tension().is_zero()

    # -- divergence and currents ---------------------------------------------------

    def divergence_along(self, xi: FieldAlongMorphism) -> Superfunction:
        """div xi = (-1)^{|e_i||xi|} <nabla_{e_i} xi, dPhi[J e_i]>."""
        e = self.frame.fields
        return frame_sum(
            self.frame,
            lambda j, t: self.pair(self.connection_apply(e[j], xi), self._differential(e[t])),
            xi.parity,
        )

    def noether_current(self, xi: FieldAlongMorphism) -> VectorField:
        """W_xi = <xi, dPhi[e_j]> J e_j, a source vector field of parity |xi|."""
        e = self.frame.fields
        return frame_sum(
            self.frame, lambda j, t: e[t].scale(self.pair(xi, self._differential(e[j]))), 0,
            self.phi.source.zero_field(xi.parity),
        )

    def source_divergence(self, X: VectorField) -> Superfunction:
        return divergence(X, self.source_connection)

    def div_identity_residual(self, xi: FieldAlongMorphism) -> Superfunction:
        """div W_xi - div xi - <xi, tau(Phi)>; identically zero."""
        w = self.noether_current(xi)
        return (
            self.source_divergence(w)
            - self.divergence_along(xi)
            - self.pair(xi, self.tension())
        )

    # -- Noether theorems ------------------------------------------------------------

    def check_noether_target(self, xi: VectorField) -> NoetherReport:
        """Target-space Killing field: div(phi o xi) = 0, and for
        superharmonic Phi also div W = 0; plus the pullback Lie-derivative
        lemma, verified componentwise."""
        L = lie_derivative_bilinear(xi, self.g)
        pulled = self.phi.pull_target_field(xi)
        return self._noether_report(L, pulled, self._pullback_lie_lemma(xi, L, pulled))

    def _noether_report(self, L: BilinearForm, along: FieldAlongMorphism, lemma=None):
        """The conclusion both Noether theorems share: given L_xi of the metric
        the symmetry preserves, div(along) = 0, and div W_along = 0 when Phi
        is superharmonic."""
        harmonic, current = self.is_superharmonic(), None
        if harmonic:
            current = Check([("current_div",
                               self.source_divergence(self.noether_current(along)))])
        return NoetherReport(form_check(L), Check([("div_residual", self.divergence_along(along))]),
                             harmonic, current, lemma)

    def _pullback_lie_lemma(self, xi: VectorField, L: BilinearForm, phi_xi) -> Check:
        """Phi*(L_xi g)(Y,Z) = (-1)^{|xi||Y|} <nabla_Y (phi o xi), dPhi[Z]>
        + (-1)^{|xi||Y|+|xi||Z|} <dPhi[Y], nabla_Z (phi o xi)> on coordinates."""
        source = self.phi.source
        pulled_L = self.pullback_bilinear(L)
        pxi = xi.parity
        coord = [source.coordinate_field(i) for i in range(source.dim)]
        diffs = [self._differential(c) for c in coord]
        nabla_phi_xi = [self.connection_apply(c, phi_xi) for c in coord]
        residuals = []
        for i in range(source.dim):
            pi = source.parity(i)
            residuals.append([])
            for j in range(source.dim):
                pj = source.parity(j)
                rhs = self.pair(nabla_phi_xi[i], diffs[j])
                rhs = -rhs if (pxi * pi) % 2 else rhs
                t2 = self.pair(diffs[i], nabla_phi_xi[j])
                rhs = rhs - t2 if (pxi * pi + pxi * pj) % 2 else rhs + t2
                residuals[i].append(pulled_L.components[i][j] - rhs)
        return Check.grid("lemma", residuals, source.coordinate_names())

    def check_noether_domain(self, xi: VectorField) -> NoetherReport:
        """Phi-Killing field on the source: L_xi(Phi* g) = 0 implies
        div(dPhi[xi]) = 0; for superharmonic Phi also div W_{dPhi[xi]} = 0."""
        L = lie_derivative_bilinear(xi, self.pullback_metric())
        return self._noether_report(L, self._differential(xi))

    # -- stress-energy ------------------------------------------------------------

    def energy_density(self) -> Superfunction:
        """e(Phi) = 1/2 str_h(Phi* g), computed once."""
        return self._energy_density

    @cached_property
    def _energy_density(self):
        return str_with_metric(self.pullback_metric(), self.frame) * Fraction(1, 2)

    def stress_energy(self) -> BilinearForm:
        """S_Phi = e(Phi) h - Phi* g."""
        e = self.energy_density()
        return self.h * e - self.pullback_metric()

    def stress_energy_report(self, xi: VectorField) -> StressEnergyReport:
        """All three stress-energy identities for a source vector field xi.
        The values S(xi, e_t) are formed once and serve both div S[xi] and
        Y_xi; the correction term is formed only when L_xi h != 0."""
        S = self.stress_energy()
        tau = self.tension()
        e, conn = self.frame.fields, self.source_connection
        s_xi = [S.evaluate(xi, f) for f in e]

        def nabla_s(j, t):
            """<(nabla_{e_j} S)>(xi, e_t) = e_j S(xi, e_t) - S(nabla_{e_j} xi, e_t)
            - (-1)^{|e_j||xi|} S(xi, nabla_{e_j} e_t)."""
            val = e[j].apply(s_xi[t]) - S.evaluate(conn.derivative(e[j], xi), e[t])
            last = S.evaluate(xi, self._formed_once(conn.derivative, e[j], e[t]))
            return val + last if (e[j].parity * xi.parity) % 2 else val - last

        # div S[xi] = (-1)^{|e_j||xi|} <(nabla_{e_j} S)>(xi, J e_j)
        divS = frame_sum(self.frame, nabla_s, xi.parity)
        r1 = divS + self.pair(self._differential(xi), tau)

        # Y_xi = <S>(xi, e_i) J e_i
        divY = self.source_divergence(frame_sum(self.frame, lambda j, t: e[t].scale(s_xi[j]), 0,
                                                self.phi.source.zero_field(xi.parity)))
        r2 = divY - divS

        Lh = lie_derivative_bilinear(xi, self.h)
        killing = Lh.is_zero()
        if not killing:
            def corr_term(i, ti, j, tj):
                """<L_xi h>(e_i, e_tj) <S>(e_j, e_ti), with S read only where
                the first factor is nonzero."""
                lh = Lh.evaluate(e[i], e[tj])
                return lh if lh.is_zero() else lh * S.evaluate(e[j], e[ti])

            # corr = sum_j (-1)^{|e_j|} sum_i <L_xi h>(e_i, J e_j) <S>(e_j, J e_i)
            corr = frame_sum(self.frame, lambda j, tj: frame_sum(
                self.frame, lambda i, ti: corr_term(i, ti, j, tj)), 1)
            r2 = r2 - corr * Fraction(1, 2)

        return StressEnergyReport(
            self.energy_density(), Check([("lemma_residual", r1)]),
            Check([("current_identity_residual", r2)]),
            Check([("conserved_div", divY)]) if tau.is_zero() and killing else None)
