"""Charts, vector fields, bilinear forms, connections and OSp frames.

Vector fields carry left coefficients, ``X = sum_i X^i d_i``; one-forms and
bilinear forms are evaluated through the right-module pairing axioms.  On left
coefficients a bilinear form is the package's one graded pairing
(:func:`supermatrix.graded_pair`),

    B(X, Y) = sum_ij (-1)^{|Y^j||xi_i| + |B|(|X^i| + |Y^j|)} X^i Y^j B_ij,

where ``B_ij = B(d_i, d_j)`` is the form's Gram supermatrix:
:class:`BilinearForm` is a :class:`supermatrix.SuperMatrix` that carries its
chart, so its inverse, Berezinian and Gram-Schmidt frame are the matrix's.
A one-form is a plain sum against the right coefficients of its argument
(:func:`supermatrix.flip_sides`), ``F[Y] = sum_j F_j (-1)^{|xi_j||Y^j|} Y^j``.
Vector fields, one-forms and fields along a morphism
(:class:`morphisms.FieldAlongMorphism`) share one graded component algebra,
:class:`_Field`: one homogeneity check, one sum, one scaling rule
(:func:`supermatrix.scaled_parity`) and one renderer.  Connections use
``nabla_{d_i} d_j = sum_k Gamma^k_ij d_k`` with left coefficients, and one
covariant derivative, which the pullback connection shares; it reads a
sparse table of the nonzero Christoffel symbols (:class:`Connection`), and
a constant metric has the zero connection with no inverse formed.  A metric
is validated once and its derived objects are built once, in its
:class:`MetricContext`; every sum over an OSp frame against ``J e_j``, of
superfunctions or of fields, is :func:`frame_sum`, which skips zero terms
and applies a sign -1 by negation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import (
    ChartMismatch,
    InexactCoefficient,
    InvalidArgument,
    MetricViolation,
    NonInvertible,
    ParityError,
    _Record,
)
from .exactlinalg import signature
from .scalars import GeneratorPool, Superfunction, _rational
from .supermatrix import (
    SuperMatrix,
    flip_sides,
    _gram_schmidt,
    graded_pair,
    j_map_signs,
    scaled_parity,
    standard_metric,
)


class Chart:
    """A single global coordinate chart with a rational box domain.

    ``even`` and ``odd`` name the coordinates; ``flesh`` adds odd constants
    for maps with flesh.  ``box`` maps each even coordinate, and no other
    name, to a rational interval (a, b) with a < b.  The dimensions ``n``,
    ``two_m`` and ``dim``, the coordinate parities and names are fixed at
    construction.
    """

    def __init__(self, even, odd, box, flesh=()):
        self.pool = GeneratorPool(even, odd, flesh)
        if self.pool.n_coordinate_odd % 2:
            raise InvalidArgument("the number of odd coordinates must be even")
        if not isinstance(box, dict):
            raise InvalidArgument("box must be a dict of intervals")
        self.box = {}
        for name in self.pool.even_names:
            if name not in box:
                raise InvalidArgument(f"missing box interval for {name!r}")
            if not isinstance(box[name], (tuple, list)) or len(box[name]) != 2:
                raise InvalidArgument(f"box interval for {name!r} must be a pair (a, b)")
            bounds = [_rational(v) for v in box[name]]
            if None in bounds:
                raise InexactCoefficient(f"box interval for {name!r} needs exact rational bounds")
            a, b = (Fraction(*q) for q in bounds)
            if not a < b:
                raise InvalidArgument(f"box interval for {name!r} must have a < b")
            self.box[name] = (a, b)
        for name in box:
            if name not in self.box:
                raise InvalidArgument(f"box interval for {name!r}, which is not an even"
                                      " coordinate")
        self.n = self.pool.n_even
        self.two_m = self.pool.n_coordinate_odd
        self.dim = self.n + self.two_m
        self._parities = (0,) * self.n + (1,) * self.two_m
        self._names = self.pool.even_names + self.pool.odd_names[: self.two_m]

    def parity(self, i: int) -> int:
        return self._parities[i]

    def coordinate_names(self):
        return self._names

    def coordinate(self, i: int) -> str:
        return self._names[i]

    def sample_point(self):
        """Rational midpoint of the box, one ``Fraction`` per even coordinate
        in pool order (see :meth:`Superfunction.body_at`)."""
        return tuple((a + b) / 2 for a, b in self.box.values())

    def zero_field(self, parity=0):
        return VectorField(self, [self.pool.zero()] * self.dim, parity)

    def coordinate_field(self, i: int) -> "VectorField":
        """``d_i``; one field per index, shared by every caller."""
        return self._coordinate_fields[i]

    @cached_property
    def _coordinate_fields(self):
        zero, one = self.pool.zero(), self.pool.one()
        return [VectorField(self, [one if a == i else zero for a in range(self.dim)],
                            self.parity(i)) for i in range(self.dim)]

    def __eq__(self, other):
        return (
            isinstance(other, Chart)
            and self.pool == other.pool
            and self.box == other.box
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"Chart({self.n}|{self.two_m}"
            + (f"+{self.pool.n_flesh} flesh" if self.pool.n_flesh else "")
            + ")"
        )


def _same_owner(owner, *fields):
    """Raise ChartMismatch unless every field lives on ``owner`` (a chart,
    or a morphism), compared by identity first."""
    for f in fields:
        if f.owner is not owner and f.owner != owner:
            raise ChartMismatch("fields live on different charts or morphisms")


class _Field:
    """Graded components indexed by a chart's coordinates.

    ``owner`` is what two fields must share to be added (a chart, or a
    morphism); ``slots`` is the chart whose coordinates index the components
    and ``pool`` holds their values.  Component ``a`` of a field of parity p
    has parity ``p + |a|``.  The public constructors check this; the
    algebra's own results come from :meth:`_new` unchecked, as they are
    homogeneous by construction, or mixed after :meth:`scale` by a mixed f.

    Fields are immutable: nothing may change ``components`` or an entry of
    it after construction.  Results share component lists and values with
    their operands, and a chart hands out one shared field per coordinate
    (:meth:`Chart.coordinate_field`).
    """

    _prefix = "d_"

    def __init__(self, owner, slots: Chart, pool: GeneratorPool, components, parity: int):
        if type(parity) is not int:
            raise InvalidArgument(f"parity must be an int, not {parity!r}")
        self.owner, self.slots, self.pool = owner, slots, pool
        self.components = [
            c if isinstance(c, Superfunction) else pool.scalar(c) for c in components
        ]
        if len(self.components) != slots.dim:
            raise InvalidArgument("one component per coordinate is required")
        self.parity = parity % 2
        for a, c in enumerate(self.components):
            if not c.has_parity(self.parity + slots.parity(a)):
                raise ParityError(f"component {slots.coordinate(a)} breaks homogeneity")

    def _new(self, components, parity: int):
        """A field of this type and owner, with components not checked again."""
        out = object.__new__(type(self))
        out.owner, out.slots, out.pool = self.owner, self.slots, self.pool
        out.components = components
        out.parity = parity % 2
        return out

    @cached_property
    def nonzero(self):
        """The nonzero ``(slot, component)`` pairs in slot order, built once
        (fields are immutable); pairings, derivations and covariant
        derivatives iterate them."""
        return [(a, c) for a, c in enumerate(self.components) if not c.is_zero()]

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _same_owner(self.owner, other)
        if other.parity != self.parity and not other.is_zero() and not self.is_zero():
            raise ParityError("cannot add fields of different parity")
        comps = [a + b for a, b in zip(self.components, other.components)]
        return self._new(comps, other.parity if self.is_zero() else self.parity)

    def __neg__(self):
        return self._new([-c for c in self.components], self.parity)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        """Left multiplication f*X; the parity follows a homogeneous f."""
        if not isinstance(f, Superfunction):
            f = self.pool.scalar(f)
        return self._new([f * c for c in self.components], scaled_parity(self.parity, f))

    def is_zero(self):
        return not self.nonzero

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.owner == other.owner
            and all(a == b for a, b in zip(self.components, other.components))
        )

    __hash__ = None

    def render(self) -> str:
        """``c*d_x + (a + b)*d_y``, with parentheses only around sums."""
        parts = []
        for c, name in zip(self.components, self.slots.coordinate_names()):
            if c.is_zero():
                continue
            s = c.render()
            if " + " in s:
                s = f"({s})"
            parts.append(f"{s}*{self._prefix}{name}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


class VectorField(_Field):
    """X = sum_i X^i d_i with left coefficients over a chart."""

    def __init__(self, chart: Chart, components, parity: int = 0):
        super().__init__(chart, chart, chart.pool, components, parity)

    @property
    def chart(self) -> Chart:
        return self.owner

    def apply(self, f: Superfunction) -> Superfunction:
        if f.pool is not self.pool and f.pool != self.pool:
            raise ChartMismatch("function lives over a different pool")
        names = self.slots.coordinate_names()
        return self.pool.sum([c * d for i, c in self.nonzero
                              if not (d := f.partial(names[i])).is_zero()])

    def bracket(self, other: "VectorField") -> "VectorField":
        """[X, Y] = XY - (-1)^{|X||Y|} YX as a derivation."""
        _same_owner(self.owner, other)
        both_odd = self.parity * other.parity
        comps = [
            self.apply(yc) + other.apply(xc) if both_odd else self.apply(yc) - other.apply(xc)
            for xc, yc in zip(self.components, other.components)
        ]
        return self._new(comps, self.parity + other.parity)


class OneForm(_Field):
    """One-form stored through its values F_j = F[d_j]."""

    def __init__(self, chart: Chart, components, parity: int = 0):
        super().__init__(chart, chart, chart.pool, components, parity)

    @property
    def chart(self) -> Chart:
        return self.owner

    @classmethod
    def differential(cls, chart: Chart, f: Superfunction) -> "OneForm":
        """df with df[X] = (-1)^{|f||X|} X(f)."""
        pf = f.parity()
        if pf is None:
            raise ParityError("df needs a homogeneous f")
        comps = []
        for i, name in enumerate(chart.coordinate_names()):
            sign = -1 if pf * chart.parity(i) else 1
            comps.append(f.partial(name) * sign)
        return cls(chart, comps, pf)

    def evaluate(self, Y: VectorField) -> Superfunction:
        """F[Y] = sum_j F_j y^j with y the right coefficients of Y."""
        _same_owner(self.owner, Y)
        y = flip_sides(Y.components, Y.parity, self.slots.n)
        return sum((f * c for f, c in zip(self.components, y)), start=self.pool.zero())


class BilinearForm(SuperMatrix):
    """Bilinear form stored through its Gram supermatrix B_ij = B(d_i, d_j)
    over a chart: entry (i, j) of a form of parity p has parity
    p + |i| + |j|.  The matrix algebra is inherited; sums, negatives and
    scalar multiples stay forms on the chart, and a matrix product is a
    plain :class:`SuperMatrix`."""

    def __init__(self, chart: Chart, components, parity: int = 0):
        super().__init__(chart.pool, chart.n, chart.two_m, components, parity)
        self.chart = chart

    def _new(self, entries, parity: int) -> "BilinearForm":
        return BilinearForm(self.chart, entries, parity)

    @property
    def components(self):
        """The Gram grid, the same list as :attr:`entries`."""
        return self.entries

    @classmethod
    def zero(cls, chart, parity=0):
        z = chart.pool.zero()
        return cls(chart, [[z] * chart.dim for _ in range(chart.dim)], parity)

    def evaluate(self, X: VectorField, Y: VectorField) -> Superfunction:
        chart = self.chart
        _same_owner(chart, X, Y)
        return graded_pair(
            chart.pool, chart.n, self.entries, X.nonzero, X.parity, Y.nonzero, Y.parity,
            self.parity,
        )

    def _check_compat(self, other):
        """Forms add only to forms on the same chart."""
        if not isinstance(other, BilinearForm) or other.chart != self.chart:
            raise ChartMismatch("forms live on different charts")

    def __eq__(self, other):
        return (
            isinstance(other, BilinearForm)
            and self.chart == other.chart
            and super().__eq__(other)
        )

    __hash__ = None


class Signature(_Record):
    __slots__ = ("t", "s", "two_m")

    def __init__(self, t: int, s: int, two_m: int):
        self.t, self.s, self.two_m = t, s, two_m

    def as_tuple(self):
        return (self.t, self.s, self.two_m)


def flat_metric(chart: Chart, t: int = 0) -> BilinearForm:
    """Standard supermetric g0 with t negative even directions on this chart."""
    if type(t) is not int or not 0 <= t <= chart.n:
        raise InvalidArgument(f"the number of negative directions must be an int in 0..{chart.n}")
    return BilinearForm(
        chart, standard_metric(chart.pool, t, chart.n - t, chart.two_m // 2).entries
    )


def validate_metric(g: BilinearForm) -> Signature:
    """Check the supermetric axioms (:meth:`SuperMatrix.check_supermetric`:
    evenness, supersymmetry, and nondegeneracy of the body as a rational
    function); return the signature, sampled at the rational midpoint of
    the box.
    """
    g.check_supermetric()
    chart = g.chart
    n, point = chart.n, chart.sample_point()
    t, s = signature([[e.body_at(point) for e in row[:n]] for row in g.components[:n]])
    if t + s < n:
        raise MetricViolation(
            "nondegeneracy", "even block is singular at the sample point"
        )
    return Signature(t, s, chart.two_m)


class MetricContext:
    """A validated metric and the objects derived from it, each built once.

    ``MetricContext.of(g)`` validates ``g`` once and keeps the context on
    ``g``, which is safe because bilinear forms are never mutated; an invalid
    metric caches nothing, so it raises every time.  The connection and the
    frame are built on first use.
    """

    def __init__(self, g: BilinearForm, signature: Signature):
        self.g = g
        self.signature = signature

    @classmethod
    def of(cls, g: BilinearForm) -> "MetricContext":
        """The context of ``g``, validating ``g`` on first use."""
        ctx = getattr(g, "_metric_context", None)
        if ctx is None:
            ctx = g._metric_context = cls(g, validate_metric(g))
        return ctx

    @cached_property
    def connection(self) -> "Connection":
        return levi_civita(self.g)

    @cached_property
    def frame(self) -> "OSpFrame":
        return OSpFrame.build(self.g)


class Connection:
    """Christoffel symbols of nabla_{d_i} d_j = sum_k Gamma^k_ij d_k.

    ``gamma[i][j][k]`` is the dense grid, which the ``levi-civita`` command
    prints and :func:`connection_residuals` reads; ``table[i][j]`` lists the
    nonzero ``(k, Gamma^k_ij)`` in index order, built once, and is what the
    covariant derivative reads, so its work follows the nonzero symbols.
    """

    def __init__(self, chart: Chart, gamma):
        self.chart = chart
        self.gamma = gamma  # gamma[i][j][k] -> Superfunction
        self.table = [[[(k, c) for k, c in enumerate(row) if not c.is_zero()] for row in plane]
                      for plane in gamma]
        self._contracted = {}

    def contracted(self, parity: int):
        """The nonzero contracted symbols of :func:`divergence` for fields of
        the given parity p, as ``{j: c_j}`` with

            c_j = sum_i (-1)^{|i|(1+p) + (|i|+|j|)(p+|j|)} Gamma^i_ij,

        built once per parity."""
        p = parity % 2
        if p not in self._contracted:
            par, sums = self.chart.parity, {}
            for i, plane in enumerate(self.table):
                for j, row in enumerate(plane):
                    for k, gam in row:
                        if k == i:
                            odd = (par(i) * (1 + p) + (par(i) + par(j)) * (p + par(j))) % 2
                            sums[j] = sums.get(j, self.chart.pool.zero()) + (-gam if odd else gam)
            self._contracted[p] = {j: c for j, c in sums.items() if not c.is_zero()}
        return self._contracted[p]

    def coordinate_derivative(self, i: int, Y: VectorField) -> VectorField:
        """nabla_{d_i} Y."""
        return self.derivative(self.chart.coordinate_field(i), Y)

    def derivative(self, X: VectorField, Y: VectorField) -> VectorField:
        """nabla_X Y."""
        _same_owner(self.chart, X, Y)
        return _covariant_derivative(X.apply, X, self.table, Y)


def _covariant_derivative(apply, dX: _Field, table, V: _Field) -> _Field:
    """The one covariant derivative over the slots of V, with X acting by ``apply``:
    (nabla_X V)^b = X(V^b) + sum_i dX^i sum_j (-1)^{(|j|+|b|)(|V|+|j|)} Gamma^b_ij V^j,
    where dX = X on a chart, and dX = dPhi[X] and Gamma = phi#(Gamma) along Phi.
    ``table[i][j]`` lists the nonzero ``(b, Gamma^b_ij)`` (:attr:`Connection.table`),
    and only terms with nonzero factors are formed."""
    par, pool, comps = V.slots.parity, V.pool, V.components
    extra = [[] for _ in comps]
    for i, di in dX.nonzero:
        if not any(table[i]):
            continue
        inner = [[] for _ in comps]
        for j, vj in V.nonzero:
            for b, gam in table[i][j]:
                t = gam * vj
                inner[b].append(-t if ((par(j) + par(b)) * (V.parity + par(j))) % 2 else t)
        for b, terms in enumerate(inner):
            t = pool.sum(terms)
            if not t.is_zero():
                extra[b].append(di * t)
    for b, vb in V.nonzero:
        extra[b].append(apply(vb))
    return V._new([pool.sum(e) for e in extra], dX.parity + V.parity)


def levi_civita(g: BilinearForm) -> Connection:
    """The unique graded metric, torsion-free connection, via the Koszul rule

    2 <nabla_i d_j, d_k> = d_i g_jk + (-1)^{|i|(|j|+|k|)} d_j g_ki
                           - (-1)^{|k|(|i|+|j|)} d_k g_ij

    A constant metric (every d_i g_jk zero) has the zero connection, with no
    inverse of g; otherwise only the nonzero Koszul terms are formed, and
    each is paired with the nonzero entries of its row of g^-1.
    """
    chart = g.chart
    MetricContext.of(g)
    dim, par, pool = chart.dim, chart.parity, chart.pool
    dg = [[[e.partial(name) for e in row] for row in g.components]
          for name in chart.coordinate_names()]  # dg[i][j][k] = d_i g_jk
    gamma = [[[pool.zero()] * dim for _ in range(dim)] for _ in range(dim)]
    if all(e.is_zero() for plane in dg for row in plane for e in row):
        return Connection(chart, gamma)
    half = pool.scalar(Fraction(1, 2))
    ginv = [[(l, e) for l, e in enumerate(row) if not e.is_zero()] for row in g.inverse().entries]
    for i in range(dim):
        for j in range(dim):
            # solve sum_l Gamma^l_ij g_lk = K_k  =>  Gamma^l = sum_k K_k (g^-1)_kl
            sums = [[] for _ in range(dim)]
            for k in range(dim):
                koszul = pool.sum((
                    dg[i][j][k],
                    -dg[j][k][i] if (par(i) * (par(j) + par(k))) % 2 else dg[j][k][i],
                    dg[k][i][j] if (par(k) * (par(i) + par(j))) % 2 else -dg[k][i][j],
                ))
                if not koszul.is_zero():
                    K = koszul * half
                    for l, e in ginv[k]:
                        sums[l].append(K * e)
            gamma[i][j] = [pool.sum(terms) for terms in sums]
    return Connection(chart, gamma)


def connection_residuals(g: BilinearForm, conn: Connection):
    """Independent certificate: torsion and metricity residuals per triple.

    torsion[i][j][k]   = Gamma^k_ij - (-1)^{|i||j|} Gamma^k_ji
    metricity[i][j][k] = d_i g_jk - <nabla_i d_j, d_k>
                         - (-1)^{|i||j|} <d_j, nabla_i d_k>
    """
    chart = g.chart
    names = chart.coordinate_names()
    dim = chart.dim
    torsion = []
    metricity = []
    coord = [chart.coordinate_field(i) for i in range(dim)]
    for i in range(dim):
        ti, mi = [], []
        nab_i = [conn.coordinate_derivative(i, c) for c in coord]
        for j in range(dim):
            tj, mj = [], []
            sign_ij = -1 if chart.parity(i) * chart.parity(j) else 1
            for k in range(dim):
                tj.append(
                    conn.gamma[i][j][k] - conn.gamma[j][i][k] * sign_ij
                )
                res = g.components[j][k].partial(names[i])
                res = res - g.evaluate(nab_i[j], coord[k])
                res = res - g.evaluate(coord[j], nab_i[k]) * sign_ij
                mj.append(res)
            ti.append(tj)
            mi.append(mj)
        torsion.append(ti)
        metricity.append(mi)
    return torsion, metricity


class OSpFrame:
    """Frame fields e_j with g(e_i, e_j) = (g0)_{ij} exactly."""

    def __init__(self, chart: Chart, fields, signature: Signature):
        self.chart = chart
        self.fields = list(fields)
        self.signature = signature
        self.j_signs = j_map_signs(signature.t, signature.s, signature.two_m // 2)

    @classmethod
    def build(cls, g: BilinearForm) -> "OSpFrame":
        """Run graded Gram-Schmidt over the scalar ring on the metric its
        context has validated, and certify the result."""
        sig = MetricContext.of(g).signature
        E, (t, s, m) = _gram_schmidt(g)
        if (t, s, 2 * m) != sig.as_tuple():
            # algebraic and sampled signatures must agree
            raise MetricViolation(
                "nondegeneracy",
                f"signature mismatch: sampled {sig.as_tuple()}, reduced {(t, s, 2 * m)}",
            )
        chart = g.chart
        parities = [chart.parity(j) for j in range(chart.dim)]
        fields = [
            VectorField(chart, flip_sides(col, pj, chart.n), pj)
            for pj, col in zip(parities, zip(*E.entries))
        ]
        frame = cls(chart, fields, Signature(t, s, 2 * m))
        frame.certify(g)
        return frame

    def certify(self, g: BilinearForm):
        sig = self.signature
        g0 = standard_metric(self.chart.pool, sig.t, sig.s, sig.two_m // 2)
        for i in range(self.chart.dim):
            for j in range(self.chart.dim):
                got = g.evaluate(self.fields[i], self.fields[j])
                if not (got - g0.entries[i][j]).is_zero():
                    raise MetricViolation(
                        "frame", f"g(e_{i}, e_{j}) != (g0)_{i}{j}: {got.render()}"
                    )

    def j_field(self, j: int):
        """J e_j as (sign, frame field)."""
        sign, tgt = self.j_signs[j]
        return sign, self.fields[tgt]


def frame_sum(frame: OSpFrame, term, parity: int = 0, start=None):
    """sum_j (-1)^{|e_j| parity} s_j term(j, t), where J e_j = s_j e_t: the
    term gets frame indices, so that it can read what its caller built per
    frame field; a sign -1 negates the term, and a zero term is skipped.
    Superfunctions sum in the pool, fields onto ``start``, the zero field of
    the result's parity, which an all-zero sum keeps."""
    chart = frame.chart
    terms = []
    for j, (sj, t) in enumerate(frame.j_signs):
        v = term(j, t)
        if not v.is_zero():
            terms.append(-v if (sj < 0) != bool(chart.parity(j) * parity % 2) else v)
    return chart.pool.sum(terms) if start is None else sum(terms, start)


def divergence(X: VectorField, conn: Connection) -> Superfunction:
    """div X, the supertrace of Y -> (-1)^{|X||Y|} nabla_Y X in coordinates:

        div X = sum_i (-1)^{|i|(1+|X|)} d_i X^i + sum_j c_j X^j

    with the contracted symbols c_j of :meth:`Connection.contracted`, so it
    costs one partial per nonzero component; :func:`divergence_via_frame`
    is its independent oracle."""
    _same_owner(conn.chart, X)
    chart = X.chart
    names, par = chart.coordinate_names(), chart.parity
    c = conn.contracted(X.parity)
    terms = []
    for j, xj in X.nonzero:
        d = xj.partial(names[j])
        terms.append(-d if (par(j) * (1 + X.parity)) % 2 else d)
        if j in c:
            terms.append(c[j] * xj)
    return chart.pool.sum(terms)


def divergence_via_frame(
    X: VectorField, g: BilinearForm, conn: Connection, frame: OSpFrame
) -> Superfunction:
    """Frame route: div X = sum_j (-1)^{|e_j||X|} <nabla_{e_j} X, J e_j>_g;
    the dual path for :func:`divergence`."""
    e = frame.fields
    return frame_sum(frame, lambda j, t: g.evaluate(conn.derivative(e[j], X), e[t]), X.parity)


def str_with_metric(K: BilinearForm, frame: OSpFrame) -> Superfunction:
    """str_g K = sum_j K(e_j, J e_j) over an OSp frame."""
    e = frame.fields
    return frame_sum(frame, lambda j, t: K.evaluate(e[j], e[t]))


def str_with_metric_via_matrix(K: BilinearForm, g: BilinearForm) -> Superfunction:
    """Dual path: supertrace of the map K~ with <K~ v, w>_g = K(v, w)."""
    chart = K.chart
    dim = chart.dim
    pool = chart.pool
    acc = pool.zero()
    for j in range(dim):
        pj = chart.parity(j)
        # solve sum_k (-1)^{|K~_kj||i|} g_ki x_k = K_ji for the column x = K~_.j
        rows = []
        for i in range(dim):
            pi = chart.parity(i)
            row = []
            for k in range(dim):
                pK = (K.parity + chart.parity(k) + pj) % 2
                sign = -1 if (pK * pi) % 2 else 1
                row.append(g.components[k][i] * sign)
            rows.append(row)
        A = SuperMatrix(pool, chart.n, chart.two_m, rows)
        try:
            Ainv = A.inverse()
        except NonInvertible:
            raise MetricViolation("nondegeneracy", "metric matrix not invertible") from None
        xjj = sum(
            (Ainv.entries[j][i] * K.components[j][i] for i in range(dim)),
            start=pool.zero(),
        )
        sign = -1 if (pj * (K.parity + 1)) % 2 else 1
        acc = acc + xjj * sign
    return acc
