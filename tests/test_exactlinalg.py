"""Exact rational nullspace, rank and signature, checked against sympy's Matrix
and Sylvester's law of inertia."""

from fractions import Fraction

import sympy as sp

from supergeo.exactlinalg import nullspace, rank, signature

from conftest import seeded


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
            assert all(isinstance(e, Fraction) for e in v)
            assert [v[f] for f in free] == [int(f == c) for f in free]
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


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
