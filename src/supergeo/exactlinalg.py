"""Exact linear algebra over the rationals, in Python ints and ``Fraction``s.

:func:`nullspace`, :func:`rank` and :func:`modular_rank` share one sparse
Gauss-Jordan elimination on integer rows: fraction-free over the integers
(the design of sympy's ``sdm_irref``), or over ``GF(p)`` for a prime
``p``; :func:`signature` counts the signs of the pivots of a congruence
diagonalisation over ``Fraction``s.  Nothing here imports sympy, not even
lazily: a scenario run solves Killing systems and validates metrics, and
must not pay sympy's import for it.  The tests keep sympy's ``DomainMatrix`` as the
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
