"""Lie derivatives, Killing vector fields and the exact Killing solver.

Killing fields are recognised in three flow-free ways:

(i)   all components of ``L_X g`` vanish,
(ii)  ``<nabla_Y X, Z> + (-1)^{|X||Y|+|X||Z|+|Y||Z|} <nabla_Z X, Y> = 0`` on
      all coordinate pairs,
(v)   the frame response matrix ``L`` of ``L_X e_i = sum_m e_m L_mi`` lies in
      the orthosymplectic algebra over the scalar ring.

All three agree on homogeneous fields; the package tests this agreement on
seeded corpora.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from sympy.polys.fields import FracElement

from .errors import ChartMismatch, ParityError, UnsupportedMetric
from .exactlinalg import nullspace, rank
from .geometry import BilinearForm, Chart, MetricContext, OneForm, VectorField
from .scalars import Superfunction
from .supermatrix import SuperMatrix, flip_sides, osp_residuals


def lie_derivative_function(X: VectorField, f: Superfunction) -> Superfunction:
    """L_X f = X(f)."""
    return X.apply(f)


def lie_derivative_oneform(X: VectorField, F: OneForm) -> OneForm:
    """(L_X F)[Y] = X(F[Y]) - (-1)^{|X||F|} F([X, Y])."""
    if X.chart != F.chart:
        raise ChartMismatch("field and form live on different charts")
    chart = X.chart
    sign = -1 if X.parity * F.parity else 1
    comps = []
    for j in range(chart.dim):
        dj = chart.coordinate_field(j)
        val = X.apply(F.evaluate(dj)) - F.evaluate(X.bracket(dj)) * sign
        comps.append(val)
    return OneForm(chart, comps, (X.parity + F.parity) % 2)


def lie_derivative_bilinear(X: VectorField, B: BilinearForm) -> BilinearForm:
    """L_X B (Y,Z) = X B(Y,Z) - B([X,Y],Z) - (-1)^{|X||Y|} B(Y,[X,Z])."""
    if X.chart != B.chart:
        raise ChartMismatch("field and form live on different charts")
    if B.parity != 0:
        raise ParityError("Lie derivative expects an even bilinear form")
    chart = X.chart
    coord = [chart.coordinate_field(i) for i in range(chart.dim)]
    brackets = [X.bracket(c) for c in coord]
    rows = []
    for i in range(chart.dim):
        sign = -1 if X.parity * chart.parity(i) else 1
        row = []
        for j in range(chart.dim):
            val = X.apply(B.components[i][j])
            val = val - B.evaluate(brackets[i], coord[j])
            val = val - B.evaluate(coord[i], brackets[j]) * sign
            row.append(val)
        rows.append(row)
    return BilinearForm(chart, rows, (X.parity + B.parity) % 2)


@dataclass
class ModeResult:
    passed: bool
    residuals: list


@dataclass
class KillingReport:
    modes: dict
    field_parity: int

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
        res = []
        for i in range(chart.dim):
            pi = chart.parity(i)
            for j in range(chart.dim):
                pj = chart.parity(j)
                sign = -1 if (X.parity * pi + X.parity * pj + pi * pj) % 2 else 1
                val = self.g.evaluate(nabla_X[i], coord[j])
                val = val + self.g.evaluate(nabla_X[j], coord[i]) * sign
                if not val.is_zero():
                    res.append(val)
        return ModeResult(not res, res)

    def mode_v(self, X: VectorField) -> ModeResult:
        """Solve [X, e_i] = sum_m e_m L_mi and test L against osp."""
        chart = self.g.chart
        pool = chart.pool
        sig = self.metric.signature
        Minv = self.metric.frame_inverse
        cols = []
        for i, ei in enumerate(self.metric.frame.fields):
            br = X.bracket(ei)
            # u_m = sum_a c_a (M^-1)_am are the left coefficients of column i
            u = [
                sum(
                    (c * Minv.entries[a][m] for a, c in enumerate(br.components)
                     if not c.is_zero()),
                    start=pool.zero(),
                )
                for m in range(chart.dim)
            ]
            cols.append(flip_sides(u, X.parity + chart.parity(i), chart.n))
        L = SuperMatrix(
            pool,
            chart.n,
            chart.two_m,
            [[cols[i][m] for i in range(chart.dim)] for m in range(chart.dim)],
            X.parity,
        )
        res = osp_residuals(L, sig.t, sig.s, sig.two_m // 2)
        flat = [e for row in res for e in row if not e.is_zero()]
        return ModeResult(not flat, flat)

    def check(self, X: VectorField, mode: str = "all") -> KillingReport:
        runners = {"i": self.mode_i, "ii": self.mode_ii, "v": self.mode_v}
        if mode == "all":
            selected = ["i", "ii", "v"]
        elif mode in runners:
            selected = [mode]
        else:
            raise ValueError(f"unknown killing mode {mode!r}")
        return KillingReport(
            {m: runners[m](X) for m in selected}, X.parity
        )


def killing_check(X: VectorField, g: BilinearForm, mode: str = "all") -> KillingReport:
    return KillingChecker(g).check(X, mode)


# -- exact degree-bounded solver ----------------------------------------------


def _even_monomials(chart: Chart, degree: int):
    """Even-variable monomials of total degree <= degree, lexicographic."""
    ring = chart.pool.ring
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(ring.ngens), total):
            m = ring.one
            for i in combo:
                m *= ring.gens[i]
            out.append(m)
    return out


def _odd_monomials(chart: Chart):
    """All subsets of the odd coordinates, by (size, indices)."""
    idx = range(chart.two_m)
    out = []
    for size in range(chart.two_m + 1):
        out.extend(itertools.combinations(idx, size))
    return out


@dataclass
class KillingBasis:
    metric: BilinearForm
    degree: int
    fields: list
    parities: list

    @property
    def even_fields(self):
        return [f for f, p in zip(self.fields, self.parities) if p == 0]

    @property
    def odd_fields(self):
        return [f for f, p in zip(self.fields, self.parities) if p == 1]

    @property
    def dims(self):
        return (len(self.even_fields), len(self.odd_fields))


def _ansatz_fields(chart: Chart, degree: int, parity: int):
    """Deterministic ordered basis of candidate fields of the given parity."""
    evens = _even_monomials(chart, degree)
    odds = _odd_monomials(chart)
    fields = []
    pool = chart.pool
    for k in range(chart.dim):
        comp_parity = (parity + chart.parity(k)) % 2
        for om in odds:
            if len(om) % 2 != comp_parity:
                continue
            for em in evens:
                coeff = pool.scalar(em)
                for i in om:
                    coeff = coeff * pool.odd(pool.odd_names[i])
                comps = [pool.zero()] * chart.dim
                comps[k] = coeff
                fields.append(VectorField(chart, comps, parity))
    return fields


def _rational_coefficients(f: Superfunction):
    """``(odd monomial, even exponents, Fraction)`` for every rational
    coefficient of a superfunction with polynomial coefficients."""
    for mono, c in f.terms.items():
        for exps, q in c.terms():
            yield mono, exps, Fraction(int(q.numerator), int(q.denominator))


def _coefficient_rows(columns):
    """Rational coefficient matrix with one column per list of superfunctions;
    a row is one (list index, odd monomial, even exponents) key, in order of
    first appearance."""
    keys = {}
    cols = []
    for entries in columns:
        col = {}
        for k, entry in enumerate(entries):
            for mono, exps, q in _rational_coefficients(entry):
                col[keys.setdefault((k, mono, exps), len(keys))] = q
        cols.append(col)
    return [[col.get(r, Fraction(0)) for col in cols] for r in range(len(keys))]


def solve_killing(g: BilinearForm, degree: int, parity=None) -> KillingBasis:
    """Exact nullspace of L_X g = 0 over a polynomial ansatz.

    The even-variable degree is bounded by ``degree``; the Grassmann degree is
    unrestricted.  Requires polynomial metric components.
    """
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    chart = g.chart
    for row in g.components:
        for entry in row:
            if any(isinstance(c, FracElement) for c in entry.terms.values()):
                raise UnsupportedMetric("metric components must be polynomial")
    parities = [0, 1] if parity is None else [parity]
    fields = []
    field_parities = []
    for p in parities:
        ansatz = _ansatz_fields(chart, degree, p)
        if not ansatz:
            continue
        tables = [lie_derivative_bilinear(b, g).components for b in ansatz]
        rows = _coefficient_rows([[e for row in t for e in row] for t in tables])
        for vec in nullspace(rows, len(ansatz)):
            comps = [chart.pool.zero()] * chart.dim
            for c, b in zip(vec, ansatz):
                if c == 0:
                    continue
                for k in range(chart.dim):
                    comps[k] = comps[k] + b.components[k] * c
            X = VectorField(chart, comps, p)
            fields.append(X)
            field_parities.append(p)
    basis = KillingBasis(g, degree, fields, field_parities)
    _certify_basis(basis, g)
    return basis


def _certify_basis(basis: KillingBasis, g: BilinearForm):
    for X in basis.fields:
        if not lie_derivative_bilinear(X, g).is_zero():
            raise AssertionError("solver produced a non-Killing field")
    # linear independence certificate over Q
    if rank(_coefficient_rows([X.components for X in basis.fields])) != len(basis.fields):
        raise AssertionError("solver basis is linearly dependent")
