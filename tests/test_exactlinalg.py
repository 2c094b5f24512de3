"""Exact rational nullspace, rank and integer echelon form, checked against sympy's Matrix
and DomainMatrix; and the signature oracle, checked against Sylvester's law of inertia and the
characteristic polynomial."""

import math
from fractions import Fraction

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from supergeo import Chart, lie
from supergeo.exactlinalg import (
    _combine,
    _integer_rows,
    _reduced_echelon,
    nullspace,
    rank,
)
from supergeo.geometry import flat_metric

from conftest import seeded


# The oracle of the signature that geometry.validate_metric reads off the
# pivots of the frame's Gram-Schmidt elimination (test_geometry.py compares
# them); it also takes singular matrices.
def signature(rows):
    """``(t, s)``: the numbers of negative and positive eigenvalues of a
    symmetric rational matrix, given as a list of rows (possibly empty).

    Diagonalised by congruence: a nonzero ``d = a_kk`` is a pivot, and the
    rest becomes the Schur complement ``a_ij - a_ik a_kj / d``; on a zero
    diagonal, adding row and column ``j`` to row and column ``i`` makes
    ``a_ii = 2 a_ij``.  By Sylvester's law of inertia ``t`` and ``s`` count
    the negative and positive pivots, and ``t + s`` is the rank.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    t = s = 0
    while a:
        k = next((k for k in range(len(a)) if a[k][k]), None)
        if k is None:
            k, j = next(((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x),
                        (None, None))
            if k is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += row[j]
        d = a[k][k]
        t, s = (t + 1, s) if d < 0 else (t, s + 1)
        a = [[x - r[k] * y / d for x, y in zip(r[:k] + r[k + 1:], a[k][:k] + a[k][k + 1:])]
             for r in a[:k] + a[k + 1:]]
    return t, s


def _random_rows(rng, nrows, ncols):
    rows = [
        [Fraction(rng.choice([0, 0, 0, 1, -1, 2, -3]), rng.randint(1, 3))
         for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if nrows > 2:
        rows[2] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
    return rows


def test_nullspace_is_the_reduced_echelon_basis():
    """One vector per non-pivot column c (c is a pivot when it raises the
    rank of the columns before it): 1 at c, 0 at the other free columns, and
    in the kernel.  These conditions fix the basis uniquely."""
    rng = seeded(801)
    # an all-zero row and explicit zero entries, which add no pivot
    cases = [([[0, 0, 0, 0], [0, 0, 2, 0], [0, Fraction(1, 3), 0, 0]], 4)]
    for _ in range(40):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 8)
        cases.append((_random_rows(rng, nrows, ncols), ncols))
    for rows, ncols in cases:
        nrows = len(rows)
        M = sp.Matrix(nrows, ncols, lambda i, j: sp.Rational(rows[i][j]))
        ranks = [M[:, :c].rank() if nrows else 0 for c in range(ncols + 1)]
        free = [c for c in range(ncols) if ranks[c + 1] == ranks[c]]
        sparse = [dict(enumerate(row)) for row in rows]
        basis = nullspace(sparse, ncols)
        assert len(basis) == len(free)
        assert rank(sparse, ncols) == ranks[-1]
        for c, v in zip(free, basis):
            assert all(isinstance(e, Fraction) and e for e in v.values())
            assert [v.get(f, 0) for f in free] == [int(f == c) for f in free]
            assert all(sum(row[j] * q for j, q in v.items()) == 0 for row in rows)


def test_signature_is_invariant_under_congruence():
    """Sylvester's law of inertia: for P of full row rank k <= n, P^T D P has
    as many negative and positive eigenvalues as the k x k diagonal D; k < n
    gives singular matrices."""
    rng = seeded(805)
    checked = singular = 0
    for _ in range(80):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        P = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(k)]
        if rank([dict(enumerate(row)) for row in P], n) < k:
            continue
        d = [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)) for _ in range(k)]
        M = [
            [sum(P[r][i] * d[r] * P[r][j] for r in range(k)) for j in range(n)]
            for i in range(n)
        ]
        want = (sum(q < 0 for q in d), sum(q > 0 for q in d))
        assert signature(M) == want, (P, d)
        checked += 1
        singular += k < n
    assert checked >= 60 and singular >= 20


def test_signature_with_a_zero_diagonal():
    """Hand-computed signatures of matrices whose diagonal is zero at some
    step, so that the elimination must first make a pivot from an
    off-diagonal entry: eigenvalues +-1; a zero row before +-3; 2, -1, -1;
    a positive pivot, then +-5 in the Schur complement; the zero matrix;
    the 0 x 0 matrix."""
    assert signature([[0, 1], [1, 0]]) == (1, 1)
    assert signature([[0, 0, 0], [0, 0, -3], [0, -3, 0]]) == (1, 1)
    assert signature([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == (2, 1)
    assert signature([[1, 0, 0], [0, 0, 5], [0, 5, 0]]) == (1, 2)
    assert signature([[0] * 3 for _ in range(3)]) == (0, 0)
    assert signature([]) == (0, 0)


# -- differential tests against sympy's DomainMatrix, the route the native
# kernels replaced ---------------------------------------------------------


def _domain_matrix(rows, ncols):
    entries = {}
    for i, row in enumerate(rows):
        nonzero = {j: QQ.convert(q) for j, q in row.items() if q}
        if nonzero:
            entries[i] = nonzero
    return DomainMatrix(entries, (len(rows), ncols), QQ)


def _domain_matrix_nullspace(rows, ncols):
    """``(basis, rank)`` read off ``DomainMatrix.rref`` over QQ, the basis
    as sparse vectors ``{column: Fraction}``."""
    m, pivots = _domain_matrix(rows, ncols).rref()
    m = m.to_sparse().rep
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = {fc: Fraction(1)}
        for r, pc in enumerate(pivots):
            q = m[r].get(fc)
            if q:
                v[pc] = -Fraction(int(q.numerator), int(q.denominator))
        basis.append(v)
    return basis, len(pivots)


def _sparse_cases(rng):
    """Seeded sparse systems: no rows, all-zero rows, explicit zeros, full and
    deficient rank, and entries with large numerators and denominators, some
    of them integers above 2^64."""
    big = 10**30 + 7
    wide = 2**64 + 13
    cases = [([], 0), ([], 3), ([{}, {0: 0, 2: 0}], 3),
             ([{0: 1}, {1: Fraction(2, 3)}, {2: -5}], 3),
             ([{0: Fraction(big, 3), 1: Fraction(1, big)}, {0: 2, 1: Fraction(6, big**2)}], 2),
             ([{0: wide, 1: -3 * 2**70, 2: 1}, {0: 2**65 + 1, 1: wide, 3: wide**2},
               {0: 3 * wide + 2**65 + 1, 1: wide - 9 * 2**70, 2: 3, 3: wide**2}], 4),
             ([{0: 2**64, 1: 2**64 + 1}, {0: 2**64 - 1, 1: 2**64}], 2)]
    for _ in range(120):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = [{j: Fraction(rng.choice([0, 1, -1, 2, -3, big]), rng.choice([1, 1, 2, 3, big]))
                 for j in range(ncols) if rng.random() < 0.4} for _ in range(nrows)]
        if nrows > 2 and rng.random() < 0.5:  # a dependent row
            rows[2] = {j: 2 * rows[0].get(j, 0) - rows[1].get(j, 0) for j in range(ncols)}
        cases.append((rows, ncols))
    return cases


def test_nullspace_and_rank_match_domain_matrix():
    """The basis equals the one read off ``DomainMatrix.rref``, vector for
    vector, and the rank, also the one carried by the basis, its number of
    pivots."""
    ranks = set()
    for rows, ncols in _sparse_cases(seeded(811)):
        basis, r = _domain_matrix_nullspace(rows, ncols)
        vectors = nullspace(rows, ncols)
        assert vectors == basis, rows
        assert rank(rows, ncols) == vectors.rank == r
        ranks.add("full" if r == min(len(rows), ncols) else "deficient")
    assert ranks == {"full", "deficient"}


def test_integer_rows_drop_zero_entries():
    """A zero entry never reaches the elimination: rows that differ only in
    sign once their zeros are dropped are one primitive row, as are rows
    that are multiples of each other."""
    assert _integer_rows([{0: 0, 1: 1}, {0: 0, 1: -1}]) == [{1: 1}]
    assert _integer_rows([{2: Fraction(-2, 3), 0: 0}, {2: 4}, {1: 0}]) == [{2: 1}]


def test_reduced_echelon_matches_domain_matrix_rref():
    """The pivots of the integer elimination are those of
    ``DomainMatrix.rref`` over QQ, and each pivot row is a primitive integer
    row with a positive pivot entry whose quotient by that entry is the
    rref row."""
    for rows, ncols in _sparse_cases(seeded(821)):
        m, pivots = _domain_matrix(rows, ncols).rref()
        m = m.to_sparse().rep
        echelon = _reduced_echelon(_integer_rows(rows))
        assert sorted(echelon) == list(pivots), rows
        for r, p in enumerate(pivots):
            row = echelon[p]
            assert row[p] > 0 and math.gcd(*row.values()) == 1
            assert ({c: Fraction(v, row[p]) for c, v in row.items()}
                    == {c: Fraction(int(q.numerator), int(q.denominator))
                        for c, q in m[r].items() if q}), rows


def test_integer_rows_clear_denominators_in_order_of_first_column():
    """Rational rows become primitive integer rows, their first entry made
    positive, ordered by first column; an empty row is dropped."""
    rows = [{2: Fraction(3, 4), 3: Fraction(-1, 6)}, {0: -4, 1: 6}, {}]
    assert _integer_rows(rows) == [{0: 2, 1: -3}, {2: 9, 3: -2}]


def test_combine_is_the_primitive_row_zero_at_the_pivot_column():
    """``_combine(row, j, pivot)`` is a positive multiple of
    ``row - row[j] / pivot[j] * pivot``, primitive, without zero entries and
    without column ``j``; a multiple of the pivot row combines to the empty
    row."""
    rng = seeded(827)
    empty = 0
    for _ in range(200):
        ncols = rng.randint(1, 6)
        pivot = {c: rng.choice([0, 1, -1, 2, -6, 2**64 + 1]) for c in range(ncols)}
        j = rng.randrange(ncols)
        pivot[j] = rng.choice([1, 3, 4, 2**65])
        pivot = {c: v for c, v in pivot.items() if v}
        if rng.random() < 0.2:
            row = {c: -3 * v for c, v in pivot.items()}
        else:
            row = {c: rng.choice([0, 1, -2, 5, 2**64]) for c in range(ncols)}
            row[j] = rng.choice([-4, 6, 2**70])
            row = {c: v for c, v in row.items() if v}
        exact = {c: row.get(c, 0) - Fraction(row[j], pivot[j]) * pivot.get(c, 0)
                 for c in row.keys() | pivot.keys()}
        exact = {c: q for c, q in exact.items() if q}
        out = _combine(row, j, pivot)
        assert j not in out and 0 not in out.values()
        assert out.keys() == exact.keys(), (row, j, pivot)
        if out:
            assert math.gcd(*out.values()) == 1
            assert len({Fraction(v) / exact[c] for c, v in out.items()}) == 1
            assert all(Fraction(v) / exact[c] > 0 for c, v in out.items())
        empty += not out
    assert empty


def test_flat_killing_echelons_hold_only_unit_entries(monkeypatch):
    """The elimination shows no coefficient growth on flat metrics: every
    row of the integer echelon form of the flat (2|4) degree-2 and (3|6)
    degree-1 Killing systems holds only 1 and -1."""
    systems = []

    def recording(rows, ncols):
        systems.append(rows)
        return nullspace(rows, ncols)

    monkeypatch.setattr(lie, "nullspace", recording)
    for n, two_m, degree in [(2, 4, 2), (3, 6, 1)]:
        evens = [f"x{i}" for i in range(1, n + 1)]
        odds = [f"th{i}" for i in range(1, two_m + 1)]
        lie.solve_killing(flat_metric(Chart(evens, odds, box={v: (0, 1) for v in evens})), degree)
    assert len(systems) == 4
    for rows in systems:
        echelon = _reduced_echelon(_integer_rows(rows))
        assert echelon and {v for row in echelon.values() for v in row.values()} == {1, -1}


def test_killing_system_matches_domain_matrix(monkeypatch):
    """The rows of the flat (2|6) degree-2 Killing solve (4,176 x 1,536 for
    each parity) give DomainMatrix's basis."""
    systems = []

    def recording(rows, ncols):
        systems.append((rows, ncols))
        return nullspace(rows, ncols)

    monkeypatch.setattr(lie, "nullspace", recording)
    evens, odds = ["x1", "x2"], [f"th{i}" for i in range(1, 7)]
    g = flat_metric(Chart(evens, odds, box={v: (0, 1) for v in evens}))
    assert lie.solve_killing(g, 2).dims == (24, 18)
    assert [(len(rows), ncols) for rows, ncols in systems] == [(4176, 1536)] * 2
    for rows, ncols in systems:
        assert nullspace(rows, ncols) == _domain_matrix_nullspace(rows, ncols)[0]


def _descartes_signature(coeffs):
    """The sign count of :func:`signature` on a charpoly from sympy."""
    coeffs = coeffs[::-1]

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return (sign_changes([-c if k % 2 else c for k, c in enumerate(coeffs)]),
            sign_changes(coeffs))


def test_signature_matches_the_charpoly_route():
    """The signature equals Descartes' sign count on
    ``DomainMatrix.charpoly``, on the 0 x 0 matrix and on seeded singular,
    definite and indefinite symmetric matrices."""
    rng = seeded(813)
    assert signature([]) == (0, 0)
    seen = set()
    for _ in range(150):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        P = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(k)]
        d = [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)) for _ in range(k)]
        M = [[sum(P[r][i] * d[r] * P[r][j] for r in range(k)) for j in range(n)]
             for i in range(n)]
        want = [Fraction(int(c.numerator), int(c.denominator))
                for c in _domain_matrix([dict(enumerate(row)) for row in M], n).charpoly()]
        t, s = signature(M)
        assert (t, s) == _descartes_signature(want)
        seen.add("singular" if t + s < n else "definite" if not (t and s) else "indefinite")
    assert seen == {"singular", "definite", "indefinite"}
