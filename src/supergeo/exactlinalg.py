"""Exact linear algebra over the rationals, in Python ints and ``Fraction``s.

:func:`nullspace` solves a sparse system by one Gauss-Jordan elimination over
the integers, fraction-free as in Bareiss (1968, "Sylvester's identity and
multistep integer-preserving Gaussian elimination"): every row stays a
primitive integer row, so no entry is ever rounded or reconstructed.
:func:`rank` is the number of pivots of the same elimination.  A metric's
signature is not read here: it counts the negative pivots of the frame's
Gram-Schmidt elimination (:func:`geometry.validate_metric`).  Nothing here
imports sympy; the tests keep sympy's ``DomainMatrix`` as the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter


def _integer_rows(rows):
    """The distinct primitive integer rows of sparse rows ``{column:
    rational}``, zero entries and zero rows dropped, each with a positive
    entry at its first column, in order of that column."""
    distinct = {}
    for row in rows:
        if 0 in row.values():
            row = {j: q for j, q in row.items() if q}
        if not row:
            continue
        try:
            g = math.gcd(*row.values())
        except TypeError:  # not all ints: clear the denominators first
            lcm = math.lcm(*(q.denominator for q in row.values()))
            row = {j: int(q.numerator) * (lcm // int(q.denominator)) for j, q in row.items()}
            g = math.gcd(*row.values())
        first = min(row)
        if row[first] < 0:
            g = -g
        if g != 1:
            row = {j: c // g for j, c in row.items()}
        distinct.setdefault(tuple(row.items()), (first, row))
    return [row for _, row in sorted(distinct.values(), key=itemgetter(0))]


def _combine(row, j, pivot):
    """The primitive row ``a * row - b * pivot``, zeros dropped, where
    ``b / a`` is ``row[j] / pivot[j]`` in lowest terms with ``a > 0``
    (``pivot[j]`` is positive), so that it is 0 at ``j``."""
    a, b = pivot[j], row[j]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    out = {c: a * v for c, v in row.items()} if a != 1 else dict(row)
    for c, v in pivot.items():
        v = out.get(c, 0) - b * v
        if v:
            out[c] = v
        else:
            del out[c]
    g = math.gcd(*out.values())
    return {c: v // g for c, v in out.items()} if g > 1 else out


def _reduced_echelon(rows):
    """``{pivot column: row}``: the reduced row echelon form over the
    integers of primitive integer rows, each row primitive with a positive
    pivot entry and zeros at every other pivot column.  A new row is
    reduced by the pivot rows at its pivot columns; its first column left
    becomes a pivot, cleared from the pivot rows that hold it, which
    ``holders`` tracks per non-pivot column."""
    pivots = {}
    holders = {}
    for row in rows:
        for j in [j for j in row if j in pivots]:
            row = _combine(row, j, pivots[j])
        if not row:
            continue
        p = min(row)
        if row[p] < 0:
            row = {c: -v for c, v in row.items()}
        for k in holders.pop(p, ()):
            old = pivots[k]
            new = _combine(old, p, row)
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


class Nullspace(list):
    """Nullspace vectors, with the ``rank`` of the elimination they came from."""

    def __init__(self, vectors, rank):
        super().__init__(vectors)
        self.rank = rank


def nullspace(rows, ncols):
    """The reduced echelon basis of the rational nullspace of sparse rows
    ``{column: rational}``, a :class:`Nullspace`: per free column ``c`` in
    increasing order, the kernel vector ``{column: Fraction}`` with 1 at
    ``c``, ``-R[p][c] / R[p][p]`` at each pivot ``p`` of the reduced
    echelon form ``R`` and 0 (not stored) at the other free columns."""
    echelon = _reduced_echelon(_integer_rows(rows))
    basis = {c: {} for c in range(ncols) if c not in echelon}
    for p in sorted(echelon):
        row = echelon[p]
        d = row[p]
        for c, v in row.items():
            if c != p:
                basis[c][p] = Fraction(-v, d)
    for c, vec in basis.items():
        vec[c] = Fraction(1)
    return Nullspace(list(basis.values()), len(echelon))


def rank(rows, ncols):
    """Rank of sparse rows ``{column: rational}`` with ``ncols`` columns:
    the number of pivots of their reduced echelon form."""
    return len(_reduced_echelon(_integer_rows(rows)))

