"""Exact rational nullspace and rank, checked against sympy's Matrix."""

from fractions import Fraction

import sympy as sp

from supergeo.exactlinalg import nullspace, rank

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
    for _ in range(40):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 8)
        rows = _random_rows(rng, nrows, ncols)
        M = sp.Matrix(nrows, ncols, lambda i, j: sp.Rational(rows[i][j]))
        ranks = [M[:, :c].rank() if nrows else 0 for c in range(ncols + 1)]
        free = [c for c in range(ncols) if ranks[c + 1] == ranks[c]]
        basis = nullspace(rows, ncols)
        assert len(basis) == len(free)
        assert rank(rows) == ranks[-1]
        for c, v in zip(free, basis):
            assert all(isinstance(e, Fraction) for e in v)
            assert [v[f] for f in free] == [int(f == c) for f in free]
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
