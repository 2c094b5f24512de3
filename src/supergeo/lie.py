"""Lie derivatives, Killing vector fields and the exact Killing solver.

Killing fields are recognised in three flow-free ways:

(i)   all components of ``L_X g`` vanish,
(ii)  ``<nabla_Y X, Z> + (-1)^{|X||Y|+|X||Z|+|Y||Z|} <nabla_Z X, Y> = 0`` on
      the coordinate pairs ``(d_i, d_j)``, ``i <= j`` (swapping the pair only
      multiplies the left side by the sign),
(v)   the frame response matrix ``L`` of ``L_X e_i = sum_m e_m L_mi``, one
      pairing ``L_mi = g(J e_m, [X, e_i])`` per entry over an OSp frame, lies
      in the orthosymplectic algebra over the scalar ring.

All three agree on homogeneous fields; the package tests this agreement on
seeded corpora.  Mode (i) is :func:`lie_derivative_bilinear` on the whole
field; mode (v) reads each osp residual off two signed entries of ``L``
(:func:`supermatrix.osp_residuals`).

The Leibniz rule of ``L_X B`` is one table per form (:func:`_leibniz`),
which holds every sign of the rule.  :func:`lie_derivative_bilinear` forms
its signed products on superfunctions; the solver forms the same terms as
integer monomial shifts.  The solver :func:`solve_killing` validates its
metric as the checker does (:meth:`MetricContext.of`) and requires
polynomial components; it writes the equations ``(L_X g)_ij = 0`` for
``i <= j`` only.  An ansatz column ``c d_k`` has a monomial coefficient
c, so it assembles those equations as sparse integer rows over the
metric's common denominator (:func:`_killing_rows`), with no superfunction
per column and no monomial arithmetic: the pool gives the monomials, their
signed partials and their merges.
:func:`exactlinalg.nullspace` solves each system by one elimination mod a
wide prime, lifted exactly.  Each basis of k fields over N ansatz columns is
certified exactly: every field is Killing by :func:`lie_derivative_bilinear`,
the fields' coefficient rows have rank k mod a prime (independence), and the
rank of the elimination is ``N - k`` (completeness).
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    CertificateFailure,
    ChartMismatch,
    InvalidArgument,
    ParityError,
    UnsupportedMetric,
    _Record,
)
from .exactlinalg import PRIME, modular_rank, nullspace
from .geometry import BilinearForm, Chart, MetricContext, VectorField
from .supermatrix import SuperMatrix, osp_residuals


def _leibniz(B: BilinearForm):
    """The Leibniz rule of ``L_X B`` as one table over B's nonzero entries,
    kept on the form (forms are never mutated): ``(L_X B)_ij`` sums
    ``X^k f`` over ``(i, j, f)`` in ``moved[k]`` and ``s (d_a X^k) f`` over
    ``(i, j, s, f)`` in ``through[|X|][a][k]``.  Every sign of the rule,
    with ``[X, d_a] = -(-1)^{|X||a|} sum_k (d_a X^k) d_k``, is written here."""
    table = B.__dict__.get("_leibniz")
    if table is None:
        chart, rows = B.chart, B.components
        dim, par = chart.dim, chart.parity
        moved = [[(i, j, d) for i, row in enumerate(rows) for j, e in enumerate(row)
                  if not (d := e.partial(name)).is_zero()] for name in chart.coordinate_names()]
        through = [[[] for _ in range(dim)] for _ in range(dim)]  # for an even X
        for i, j, k in itertools.product(range(dim), repeat=3):
            if not rows[k][j].is_zero():  # (d_i X^k) B_kj
                through[i][k].append((i, j, 1, rows[k][j]))
            if not rows[i][k].is_zero():  # (-1)^{|i|(|j|+|k|)} (d_j X^k) B_ik
                s = -1 if par(i) * (par(j) + par(k)) % 2 else 1
                through[j][k].append((i, j, s, rows[i][k]))
        odd = [[[(i, j, -s, f) for i, j, s, f in t] if par(a) else t for t in by_k]
               for a, by_k in enumerate(through)]  # times (-1)^{|X||a|}
        table = B.__dict__["_leibniz"] = moved, (through, odd)
    return table


def lie_derivative_bilinear(X: VectorField, B: BilinearForm) -> BilinearForm:
    """Components of L_X B, the products of :func:`_leibniz` (left factor
    first) for the nonzero ``X^k`` and ``d_a X^k``:

        (L_X B)_ij = sum_k X^k d_k(B_ij)
                     + (-1)^{|X||i|} sum_k (d_i X^k) B_kj
                     + (-1)^{|X|(|i|+|j|)} sum_k (-1)^{|i|(|X|+|j|+|k|)} (d_j X^k) B_ik
    """
    if X.chart != B.chart:
        raise ChartMismatch("field and form live on different charts")
    if B.parity != 0:
        raise ParityError("Lie derivative expects an even bilinear form")
    chart = X.chart
    moved, through = _leibniz(B)
    through = through[X.parity]
    zero = chart.pool.zero()
    out = [[zero] * chart.dim for _ in range(chart.dim)]
    for k, c in enumerate(X.components):
        if c.is_zero():
            continue
        for i, j, f in moved[k]:
            out[i][j] = out[i][j] + c * f
        for a, name in enumerate(chart.coordinate_names()):
            d = c.partial(name)
            if not d.is_zero():
                for i, j, s, f in through[a][k]:
                    out[i][j] = out[i][j] + d * f if s > 0 else out[i][j] - d * f
    return BilinearForm(chart, out, X.parity)


class ModeResult(_Record):
    __slots__ = ("passed", "residuals")

    def __init__(self, passed: bool, residuals: list):
        self.passed, self.residuals = passed, residuals


class KillingReport(_Record):
    __slots__ = ("modes", "field_parity")

    def __init__(self, modes: dict, field_parity: int):
        self.modes, self.field_parity = modes, field_parity

    @property
    def agreement(self) -> bool:
        verdicts = {m.passed for m in self.modes.values()}
        return len(verdicts) <= 1

    @property
    def passed(self) -> bool:
        return self.agreement and all(m.passed for m in self.modes.values())


class KillingChecker:
    """Runs the Killing tests against a metric's context, whose connection
    and frame are built on first use and shared with every other checker."""

    def __init__(self, g: BilinearForm):
        self.g = g
        self.metric = MetricContext.of(g)

    def mode_i(self, X: VectorField) -> ModeResult:
        table = lie_derivative_bilinear(X, self.g)
        res = [e for row in table.components for e in row if not e.is_zero()]
        return ModeResult(not res, res)

    def mode_ii(self, X: VectorField) -> ModeResult:
        chart = self.g.chart
        coord = [chart.coordinate_field(i) for i in range(chart.dim)]
        conn = self.metric.connection
        nabla_X = [conn.coordinate_derivative(i, X) for i in range(chart.dim)]
        res = []  # val_ji = s_ij val_ij, so the pairs j >= i suffice
        for i in range(chart.dim):
            pi = chart.parity(i)
            for j in range(i, chart.dim):
                pj = chart.parity(j)
                val = self.g.evaluate(nabla_X[i], coord[j])
                other = self.g.evaluate(nabla_X[j], coord[i])
                val = val - other if (X.parity * pi + X.parity * pj + pi * pj) % 2 else val + other
                if not val.is_zero():
                    res.append(val)
        return ModeResult(not res, res)

    def mode_v(self, X: VectorField) -> ModeResult:
        """Test L of [X, e_i] = sum_m e_m L_mi against osp.  The frame is
        orthonormal, g(e_a, e_b) = (g0)_ab, and g(v, w f) = g(v, w) f, so
        L_mi = g(J e_m, [X, e_i]) = s_m g(e_{J(m)}, [X, e_i])."""
        chart = self.g.chart
        frame = self.metric.frame
        sig = self.metric.signature
        brackets = [X.bracket(ei) for ei in frame.fields]
        rows = []
        for m in range(chart.dim):
            sm, jem = frame.j_field(m)
            row = [self.g.evaluate(jem, br) for br in brackets]
            rows.append([-v for v in row] if sm < 0 else row)
        L = SuperMatrix(chart.pool, chart.n, chart.two_m, rows, X.parity)
        res = osp_residuals(L, sig.t, sig.s, sig.two_m // 2)
        flat = [e for row in res for e in row if not e.is_zero()]
        return ModeResult(not flat, flat)

    MODES = {"i": mode_i, "ii": mode_ii, "v": mode_v}

    def check(self, X: VectorField, mode: str = "all") -> KillingReport:
        """The report of one mode of :attr:`MODES`, or of all of them in
        that order."""
        if mode != "all" and mode not in self.MODES:
            raise InvalidArgument(f"unknown killing mode {mode!r}")
        selected = self.MODES if mode == "all" else (mode,)
        return KillingReport({m: self.MODES[m](self, X) for m in selected}, X.parity)


KILLING_MODES = tuple(KillingChecker.MODES)


def killing_check(X: VectorField, g: BilinearForm, mode: str = "all") -> KillingReport:
    return KillingChecker(g).check(X, mode)


# -- exact degree-bounded solver ----------------------------------------------


class KillingBasis(_Record):
    __slots__ = ("metric", "degree", "fields", "parities")

    def __init__(self, metric: BilinearForm, degree: int, fields: list, parities: list):
        self.metric, self.degree = metric, degree
        self.fields, self.parities = fields, parities

    @property
    def even_fields(self):
        return [f for f, p in zip(self.fields, self.parities) if p == 0]

    @property
    def odd_fields(self):
        return [f for f, p in zip(self.fields, self.parities) if p == 1]

    @property
    def dims(self):
        return (len(self.even_fields), len(self.odd_fields))


def _ansatz(chart: Chart, degree: int):
    """Ordered bases of candidate fields ``c d_k`` of parity 0 and 1, as lists
    of ``(k, mono, exps)`` for ``c = th^mono x^exps`` the pool's monomials."""
    coeffs = chart.pool.monomials(degree)
    return [[(k, *coeff) for k in range(chart.dim) for coeff in coeffs[(p + chart.parity(k)) % 2]]
            for p in (0, 1)]


def ansatz_size(chart: Chart, degree: int, parity=None) -> int:
    """The number of columns of :func:`_ansatz` that :func:`solve_killing`
    solves for ``degree`` and ``parity``, without building them: each
    coordinate ``d_k`` takes C(n + degree, n) even monomials times the odd
    monomials of one parity: half of the 2^q over the q odd coordinates, or
    for q = 0 the empty monomial, which is even."""
    n, q = chart.pool.n_even, chart.pool.n_coordinate_odd
    odd = (2 ** (q - 1),) * 2 if q else (1, 0)  # odd monomials by parity
    per_even = sum(n * odd[p] + q * odd[1 - p] for p in (0, 1) if parity in (None, p))
    return per_even * math.comb(n + degree, n)


def _killing_rows(g: BilinearForm, columns, p: int, den: int):
    """The solver's sparse integer rows ``{column: int}``: the equations
    ``(L_X g)_ij = 0`` for ``i <= j``, one row per (index pair, odd
    monomial, even exponents) key with a nonzero entry.  Column ``col`` is
    ``X = c d_k`` of parity p for ``columns[col] = (k, mono, exps)``,
    ``c = th^mono x^exps`` (see :func:`_ansatz`).

    The terms are those of :func:`_leibniz`, and ``c`` and ``d_a c`` are
    monomials times ints, so :meth:`GeneratorPool.monomial_multiple` gives
    each term's coefficients over the metric's common denominator ``den``;
    no superfunction is built."""
    moved, through = _leibniz(g)
    through = through[p]
    multiple = g.chart.pool.monomial_multiple
    partials = {}  # per coefficient, shared by every k
    rows = {}  # key -> row, in order of first appearance
    for col, (k, mono, exps) in enumerate(columns):
        ds = partials.get((mono, exps))
        if ds is None:
            ds = partials[mono, exps] = g.chart.pool.monomial_partials(mono, exps)
        acc = {}
        for i, j, f in moved[k]:
            if i <= j:
                for m, e, c in multiple(mono, exps, f, den):
                    key = i, j, m, e
                    acc[key] = acc.get(key, 0) + c
        for a, s, dmono, dexps in ds:
            for i, j, t, f in through[a][k]:
                if i <= j:
                    for m, e, c in multiple(dmono, dexps, f, den):
                        key = i, j, m, e
                        acc[key] = acc.get(key, 0) + s * t * c
        for key, c in acc.items():
            if c:
                rows.setdefault(key, {})[col] = c
    return list(rows.values())


def solve_killing(g: BilinearForm, degree: int, parity=None) -> KillingBasis:
    """Exact nullspace of L_X g = 0 over a polynomial ansatz.

    The even-variable degree is bounded by ``degree``; the Grassmann degree is
    unrestricted.  The metric is validated by :meth:`MetricContext.of`
    (the point-free axioms, then the signature at the box midpoint), which
    raises ``MetricViolation``, and must be polynomial, else
    ``UnsupportedMetric``; supersymmetry gives ``(L_X g)_ji = (-1)^{|i||j|}
    (L_X g)_ij``, so only the equations with ``i <= j`` are written.  The
    basis is certified Killing, independent (:func:`_certify_basis`) and
    complete, else ``CertificateFailure`` is raised.
    """
    if type(degree) is not int or degree < 0:
        raise InvalidArgument("degree bound must be a nonnegative int")
    if parity is not None and (type(parity) is not int or parity not in (0, 1)):
        raise InvalidArgument(f"parity must be 0, 1 or None, not {parity!r}")
    chart = g.chart
    MetricContext.of(g)
    if not all(entry.is_polynomial() for row in g.components for entry in row):
        raise UnsupportedMetric("metric components must be polynomial")
    den = math.lcm(1, *(q.denominator for row in g.components for e in row
                        for _, _, q in e.rational_coefficients()))
    systems = [(p, ansatz, nullspace(_killing_rows(g, ansatz, p, den), len(ansatz)))
               for p, ansatz in enumerate(_ansatz(chart, degree))
               if ansatz and parity in (None, p)]
    fields = [VectorField(chart, _components(chart, vec, ansatz), p)
              for p, ansatz, vectors in systems for vec in vectors]
    basis = KillingBasis(g, degree, fields, [X.parity for X in fields])
    _certify_basis(basis, g)
    # rank_p <= rank_QQ <= N - k for k independent Killing fields, so
    # rank_p = N - k proves that they span the nullspace
    if any(vectors.rank != len(ansatz) - len(vectors) for _, ansatz, vectors in systems):
        raise CertificateFailure("Killing basis completeness unproven")
    return basis


def _components(chart: Chart, vec, columns):
    """The components of ``sum_c vec[c] th^mono x^exps d_k`` for
    ``columns[c] = (k, mono, exps)``."""
    coefficients = [[] for _ in range(chart.dim)]
    for col, q in vec.items():
        k, mono, exps = columns[col]
        coefficients[k].append((mono, exps, q))
    return [chart.pool.from_coefficients(c) for c in coefficients]


def _certify_basis(basis: KillingBasis, g: BilinearForm):
    for X in basis.fields:
        if not lie_derivative_bilinear(X, g).is_zero():
            raise CertificateFailure("solver produced a non-Killing field")
    # linear independence: a nonzero k x k minor mod a prime is nonzero over
    # Q; a column is one (component, odd monomial, even exponents) key
    columns = {}
    rows = [{columns.setdefault((k, mono, exps), len(columns)): q
             for k, c in enumerate(X.components) for mono, exps, q in c.rational_coefficients()}
            for X in basis.fields]
    if modular_rank(rows, PRIME) != len(rows):
        raise CertificateFailure("solver basis is linearly dependent")
