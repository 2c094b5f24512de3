"""Lie derivatives, Killing vector fields and the exact Killing solver.

Killing fields are recognised in three flow-free ways:

(i)   all components of ``L_X g`` vanish,
(ii)  ``<nabla_Y X, Z> + (-1)^{|X||Y|+|X||Z|+|Y||Z|} <nabla_Z X, Y> = 0`` on
      the coordinate pairs ``(d_i, d_j)``, ``i <= j`` (swapping the pair only
      multiplies the left side by the sign),
(v)   the frame response matrix ``L`` of ``L_X e_i = sum_m e_m L_mi`` lies in
      the orthosymplectic algebra over the scalar ring.

All three agree on homogeneous fields; the package tests this agreement on
seeded corpora.

The solver :func:`solve_killing` requires a polynomial, supersymmetric
metric; it writes the equations ``(L_X g)_ij = 0`` for ``i <= j`` only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    CertificateFailure,
    ChartMismatch,
    InvalidArgument,
    ParityError,
    UnsupportedMetric,
)
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
    """Components of L_X B by the Leibniz rule, with
    [X, d_i] = -(-1)^{|X||i|} sum_k (d_i X^k) d_k (docs/sign-conventions.md):

        (L_X B)_ij = sum_k X^k d_k(B_ij)
                     + (-1)^{|X||i|} sum_k (d_i X^k) B_kj
                     + (-1)^{|X|(|i|+|j|)} sum_k (-1)^{|i|(|X|+|j|+|k|)} (d_j X^k) B_ik

    Only the nonzero X^k and nonzero factors are visited; d_k(B_ij) comes from
    :meth:`BilinearForm.partials`, so it is computed once per form.
    """
    if X.chart != B.chart:
        raise ChartMismatch("field and form live on different charts")
    dim = X.chart.dim
    names = X.chart.coordinate_names()
    support = [(k, c, [c.partial(name) for name in names])
               for k, c in enumerate(X.components) if not c.is_zero()]
    flat = _lie_entries(support, X.parity, B, itertools.product(range(dim), repeat=2))
    return BilinearForm(X.chart, [flat[i * dim:(i + 1) * dim] for i in range(dim)],
                        X.parity)


def _lie_entries(support, p, B, pairs):
    """The entries (L_X B)_ij for the index ``pairs``, where X has parity p
    and nonzero components ``support = [(k, X^k, [d_i X^k for each i])]``;
    the kernel of :func:`lie_derivative_bilinear`."""
    if B.parity != 0:
        raise ParityError("Lie derivative expects an even bilinear form")
    chart = B.chart
    par = [chart.parity(i) for i in range(chart.dim)]
    Bc = B.components
    dX = [  # the nonzero (k, d_i X^k) for each coordinate i
        [(k, ds[i]) for k, _, ds in support if not ds[i].is_zero()]
        for i in range(chart.dim)
    ]
    dB = [(c, B.partials(k)) for k, c, _ in support]
    out = []
    for i, j in pairs:
        pi, pj = par[i], par[j]
        acc = chart.pool.zero()
        for c, dk in dB:
            if not dk[i][j].is_zero():
                acc = acc + c * dk[i][j]
        for k, d in dX[i]:
            if not Bc[k][j].is_zero():
                acc = acc + d * Bc[k][j] * (-1 if p * pi else 1)
        for k, d in dX[j]:
            if not Bc[i][k].is_zero():
                odd = (p * (pi + pj) + pi * (p + pj + par[k])) % 2
                acc = acc + d * Bc[i][k] * (-1 if odd else 1)
        out.append(acc)
    return out


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
        res = []  # val_ji = s_ij val_ij, so the pairs j >= i suffice
        for i in range(chart.dim):
            pi = chart.parity(i)
            for j in range(i, chart.dim):
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
            raise InvalidArgument(f"unknown killing mode {mode!r}")
        return KillingReport(
            {m: runners[m](X) for m in selected}, X.parity
        )


def killing_check(X: VectorField, g: BilinearForm, mode: str = "all") -> KillingReport:
    return KillingChecker(g).check(X, mode)


# -- exact degree-bounded solver ----------------------------------------------


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


def _ansatz_fields(chart: Chart, degree: int):
    """Deterministic ordered bases of candidate fields ``c d_k`` of parity 0
    and 1, as lists of ``(k, c)`` pairs.  A coefficient c is an odd monomial
    (by size, then indices) times an even one of degree <= degree
    (lexicographic), one superfunction shared by every k and field parity."""
    pool = chart.pool
    gens = [pool.even(name) for name in pool.even_names]
    evens = [math.prod(m, start=pool.one()) for total in range(degree + 1)
             for m in itertools.combinations_with_replacement(gens, total)]
    coeffs = ([], [])
    for size in range(chart.two_m + 1):
        for om in itertools.combinations(pool.odd_names[:chart.two_m], size):
            odd = math.prod(map(pool.odd, om), start=pool.one())
            coeffs[size % 2].extend(em * odd for em in evens)
    return [[(k, c) for k in range(chart.dim) for c in coeffs[(p + chart.parity(k)) % 2]]
            for p in (0, 1)]


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


def solve_killing(g: BilinearForm, degree: int, parity=None) -> KillingBasis:
    """Exact nullspace of L_X g = 0 over a polynomial ansatz.

    The even-variable degree is bounded by ``degree``; the Grassmann degree is
    unrestricted.  Requires a polynomial, supersymmetric metric: then
    ``(L_X g)_ji = (-1)^{|i||j|} (L_X g)_ij``, so only the equations with
    ``i <= j`` are written.
    """
    if degree < 0:
        raise InvalidArgument("degree bound must be nonnegative")
    chart = g.chart
    if not all(entry.is_polynomial() for row in g.components for entry in row):
        raise UnsupportedMetric("metric components must be polynomial")
    if not g.is_supersymmetric():
        raise UnsupportedMetric("metric must be supersymmetric")
    pairs = [(i, j) for i in range(chart.dim) for j in range(i, chart.dim)]
    parities = [0, 1] if parity is None else [parity]
    fields = []
    field_parities = []
    ansatz_by_parity = _ansatz_fields(chart, degree)
    names = chart.coordinate_names()
    partials = {}  # d_i c, taken once per coefficient shared by every k and parity
    for p in parities:
        ansatz = ansatz_by_parity[p]
        if not ansatz:
            continue
        for _, c in ansatz:
            if id(c) not in partials:
                partials[id(c)] = [c.partial(name) for name in names]
        rows = _coefficient_rows([_lie_entries([(k, c, partials[id(c)])], p, g, pairs)
                                  for k, c in ansatz])
        for vec in nullspace(rows, len(ansatz)):
            comps = [chart.pool.zero()] * chart.dim
            for q, (k, c) in zip(vec, ansatz):
                if q != 0:
                    comps[k] = comps[k] + c * q
            fields.append(VectorField(chart, comps, p))
            field_parities.append(p)
    basis = KillingBasis(g, degree, fields, field_parities)
    _certify_basis(basis, g)
    return basis


def _certify_basis(basis: KillingBasis, g: BilinearForm):
    for X in basis.fields:
        if not lie_derivative_bilinear(X, g).is_zero():
            raise CertificateFailure("solver produced a non-Killing field")
    # linear independence certificate over Q
    n = len(basis.fields)
    if rank(_coefficient_rows([X.components for X in basis.fields]), n) != n:
        raise CertificateFailure("solver basis is linearly dependent")
