"""Exact linear algebra over the rationals, in Python ints and ``Fraction``s.

:func:`nullspace`, :func:`rank` and :func:`modular_rank` share one sparse
Gauss-Jordan elimination on integer rows: fraction-free over the integers
(the design of sympy's ``sdm_irref``), or over ``GF(p)`` for a prime
``p``; :func:`signature` counts signs on a division-free characteristic
polynomial.  Nothing here imports sympy, not even lazily:
a scenario run solves Killing systems and validates metrics, and must not
pay sympy's import for it.  The tests keep sympy's ``DomainMatrix`` as the
oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _integer_row(row):
    """A sparse row ``{column: rational}`` as a primitive integer row, its
    zero entries dropped; None when every entry is zero."""
    out = {j: q for j, q in row.items() if q}
    if len(out) < 2:
        return dict.fromkeys(out, 1) if out else None
    if any(type(q) is not int for q in out.values()):
        lcm = math.lcm(*(q.denominator for q in out.values()))
        out = {j: int(q.numerator) * (lcm // int(q.denominator)) for j, q in out.items()}
    g = math.gcd(*out.values())
    return out if g == 1 else {j: c // g for j, c in out.items()}


def _combine(a, row, b, other, modulus=0):
    """The row ``a * row - b * other``, zeros dropped (empty when it
    vanishes): primitive over the integers, or reduced mod a prime
    ``modulus``."""
    out = {j: a * c for j, c in row.items()} if a != 1 else dict(row)
    for j, c in other.items():
        c = out.get(j, 0) - b * c
        if modulus:
            c %= modulus
        if c:
            out[j] = c
        else:
            del out[j]
    if modulus:
        return out
    g = math.gcd(*out.values())
    return out if g == 1 else {j: c // g for j, c in out.items()}


def _reduced_echelon(rows, modulus=0):
    """``{pivot column: row}``: the reduced row echelon form of the rational
    span of ``rows``, each row primitive over the integers with a positive
    entry at its pivot and zeros at every other pivot column.  With a prime
    ``modulus``, the same for the span over ``GF(modulus)`` of the primitive
    integer rows, entries in ``range(modulus)`` and each pivot entry 1, so
    that every combination is ``row - b * other`` and stays reduced.

    Rows are taken in order of their first column.  A new row is reduced by
    the pivot rows at its pivot columns, which vanish at each other's
    pivots; its first column left becomes a pivot, which is then cleared
    from the pivot rows that hold that column.  ``holders`` tracks, for
    each non-pivot column, the pivots whose rows hold it, so a new pivot
    touches only those rows.  The reduced echelon form of a span is unique,
    whatever the order of the rows."""
    pivots = {}
    holders = {}
    integer_rows = (r for r in map(_integer_row, rows) if r is not None)
    if modulus:
        integer_rows = (r for r in ({j: c % modulus for j, c in r.items() if c % modulus}
                                    for r in integer_rows) if r)
    for row in sorted(integer_rows, key=min):
        for j in [j for j in row if j in pivots]:
            g = math.gcd(pivots[j][j], row[j])
            row = _combine(pivots[j][j] // g, row, row[j] // g, pivots[j], modulus)
        if not row:
            continue
        p = min(row)
        if modulus and row[p] != 1:
            inverse = pow(row[p], -1, modulus)
            row = {c: v * inverse % modulus for c, v in row.items()}
        elif row[p] < 0:
            row = {c: -v for c, v in row.items()}
        for k in holders.pop(p, ()):
            old = pivots[k]
            g = math.gcd(row[p], old[p])
            new = _combine(row[p] // g, old, old[p] // g, row, modulus)
            for c in old.keys() - new.keys():
                if c != p:
                    holders[c].discard(k)
            for c in new.keys() - old.keys():
                holders.setdefault(c, set()).add(k)
            pivots[k] = new
        for c in row:
            if c != p:
                holders.setdefault(c, set()).add(p)
        pivots[p] = row
    return pivots


def nullspace(rows, ncols):
    """Deterministic rational nullspace basis (one vector per free column) of
    sparse rows ``{column: rational}``: the vector of the free column ``c``
    has 1 at ``c``, 0 at the other free columns, and ``Fraction`` entries."""
    pivots = _reduced_echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = {c: [Fraction(0)] * ncols for c in free}
    for c in free:
        basis[c][c] = Fraction(1)
    for p, row in pivots.items():
        for c, v in row.items():
            if c != p:
                basis[c][p] = Fraction(-v, row[p])
    return [basis[c] for c in free]


def rank(rows, ncols):
    """Rank of sparse rows ``{column: rational}`` with ``ncols`` columns."""
    return len(_reduced_echelon(rows))


def modular_rank(rows, prime):
    """Rank over ``GF(prime)`` of sparse rows ``{column: rational}``, each
    first scaled to a primitive integer row.  A nonzero minor mod ``prime``
    is a nonzero integer, so this is a lower bound on the rank over the
    rationals, equal to it for all but finitely many primes."""
    return len(_reduced_echelon(rows, prime))


def _charpoly(rows):
    """Coefficients of ``det(x I - A)``, leading coefficient first, for a
    square matrix ``A`` of rationals, without a division (Berkowitz 1984,
    "On computing the determinant in small parallel time").

    With ``A = [[a, R], [C, A1]]``, ``p_A = T p_A1``, where ``T`` is the
    lower-triangular Toeplitz matrix with first column ``1, -a, -R C,
    -R A1 C, ..., -R A1^(n-2) C``; the recursion runs from the last
    diagonal entry up."""
    n = len(rows)
    poly = [1]
    for k in range(n - 1, -1, -1):
        a = rows[k][k]
        r = rows[k][k + 1:]
        sub = [row[k + 1:] for row in rows[k + 1:]]
        col = [row[k] for row in rows[k + 1:]]
        column = [1, -a]
        for _ in range(len(poly) - 1):
            column.append(-sum(x * y for x, y in zip(r, col)))
            col = [sum(x * y for x, y in zip(row, col)) for row in sub]
        poly = [sum(column[i - j] * poly[j] for j in range(min(i, len(poly) - 1) + 1))
                for i in range(len(poly) + 1)]
    return poly


def signature(rows):
    """``(t, s)``: the numbers of negative and positive eigenvalues of a
    symmetric rational matrix, given as a list of rows (possibly empty).

    The characteristic polynomial of a symmetric matrix has only real roots,
    so Descartes' rule of signs counts its positive roots exactly; the
    negative roots are the positive roots of ``p(-x)``.
    """
    coeffs = _charpoly(rows)[::-1]  # constant term first

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    flipped = [-c if k % 2 else c for k, c in enumerate(coeffs)]
    return sign_changes(flipped), sign_changes(coeffs)
