"""Exact linear algebra over the rationals, in Python ints and ``Fraction``s.

:func:`nullspace` solves a sparse system by one Gauss-Jordan elimination mod
a wide prime and lifts its reduced echelon basis by rational reconstruction
(Wang 1981, "A p-adic algorithm for univariate partial fractions"), adding
primes by Chinese remaindering until the basis is exactly in the kernel.
:func:`rank` is read off it, :func:`modular_rank` is the elimination over one
prime, and :func:`signature` counts the signs of the pivots of a congruence
diagonalisation.  Nothing here imports sympy; the tests keep sympy's
``DomainMatrix`` as the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

PRIME = 2**61 - 1  # the first modulus: no slower to eliminate with than a 30-bit one


def _primes():
    """:data:`PRIME`, then the primes below it that are 3 mod 4 like it, in
    descending order.  For such n Miller-Rabin is ``a^((n-1)/2) = +-1`` mod
    n; the prime bases up to 23 make it exact below 3.8 * 10^18."""
    yield PRIME
    for n in range(PRIME - 4, 3, -4):
        if all(pow(a, n // 2, n) in (1, n - 1) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23)):
            yield n


def _integer_rows(rows):
    """The distinct primitive integer rows of sparse rows ``{column:
    rational}``, zero rows dropped, each with a nonnegative entry at its
    first column, in order of that column.  Zero entries may stay; the
    elimination drops them."""
    distinct = {}
    for row in rows:
        try:
            g = math.gcd(*row.values())
        except TypeError:  # not all ints: clear the denominators first
            lcm = math.lcm(*(q.denominator for q in row.values()))
            row = {j: int(q.numerator) * (lcm // int(q.denominator)) for j, q in row.items()}
            g = math.gcd(*row.values())
        if not g:
            continue
        first = min(row)
        if row[first] < 0:
            g = -g
        if g != 1:
            row = {j: c // g for j, c in row.items()}
        distinct.setdefault(tuple(row.items()), (first, row))
    return [row for _, row in sorted(distinct.values(), key=itemgetter(0))]


def _combine(row, b, other, prime):
    """The row ``row - b * other`` mod ``prime``, zeros dropped."""
    out = dict(row)
    for j, c in other.items():
        c = (out.get(j, 0) - b * c) % prime
        if c:
            out[j] = c
        else:
            del out[j]
    return out


def _reduced_echelon(rows, prime):
    """``{pivot column: row}``: the reduced row echelon form over
    ``GF(prime)`` of integer rows, entries in ``range(prime)``, each pivot
    entry 1 and zeros at every other pivot column.  A new row is reduced by
    the pivot rows at its pivot columns; its first column left becomes a
    pivot, cleared from the pivot rows that hold it, which ``holders``
    tracks per non-pivot column."""
    pivots = {}
    holders = {}
    for row in rows:
        row = {j: r for j, c in row.items() if (r := c % prime)}
        for j in [j for j in row if j in pivots]:
            row = _combine(row, row[j], pivots[j], prime)
        if not row:
            continue
        p = min(row)
        if row[p] != 1:
            inverse = pow(row[p], -1, prime)
            row = {c: v * inverse % prime for c, v in row.items()}
        for k in holders.pop(p, ()):
            old = pivots[k]
            new = _combine(old, old[p], row, prime)
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


def _lift(echelon, modulus, ncols):
    """The basis read off an echelon form mod ``modulus``: per free column
    c, 1 at c and ``-R[p][c]`` at each pivot p, lifted to the one ``a/b``
    with ``|a|, b <= sqrt(modulus / 2)`` by Wang's half-extended Euclid;
    None when an entry has no such lift."""
    bound = math.isqrt(modulus // 2)
    lifted = {}  # residue -> fraction; most entries repeat
    basis = {c: {} for c in range(ncols) if c not in echelon}
    for p in sorted(echelon):
        for c, v in echelon[p].items():
            if c == p:
                continue
            if v not in lifted:
                r0, r1, t0, t1 = modulus, modulus - v, 0, 1
                while r1 > bound:
                    q = r0 // r1
                    r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
                if abs(t1) > bound or math.gcd(r1, t1) != 1:
                    return None
                lifted[v] = Fraction(r1, t1)
            basis[c][p] = lifted[v]
    for c, vec in basis.items():
        vec[c] = Fraction(1)
    return list(basis.values())


def _in_kernel(rows, basis):
    """Whether every integer row is exactly orthogonal to every vector."""
    holding = {}  # column -> [(vector, entry times the vector's denominator)]
    for k, vec in enumerate(basis):
        den = math.lcm(*(q.denominator for q in vec.values()))
        for j, q in vec.items():
            holding.setdefault(j, []).append((k, q.numerator * (den // q.denominator)))
    for row in rows:
        sums = {}
        for j, a in row.items():
            for k, w in holding.get(j, ()):
                sums[k] = sums.get(k, 0) + a * w
        if any(sums.values()):
            return False
    return True


class Nullspace(list):
    """Nullspace vectors, with the ``rank`` of the elimination they came from."""

    def __init__(self, vectors, rank):
        super().__init__(vectors)
        self.rank = rank


def nullspace(rows, ncols):
    """The reduced echelon basis of the rational nullspace of sparse rows
    ``{column: rational}``, a :class:`Nullspace`: per free column ``c`` in
    increasing order, the kernel vector ``{column: Fraction}`` with 1 at
    ``c`` and 0 (not stored) at the other free columns.

    A prime whose echelon form is worse than the best seen (a lower rank,
    or at equal rank later pivots) is unlucky and dropped.  A lifted basis
    in the kernel is exact: the vector for ``c`` ends at ``c``, so the
    ``ncols - rank_p`` vectors are independent; they span the kernel, as
    the rational rank is at least ``rank_p``; its free columns are their
    last columns."""
    rows = _integer_rows(rows)
    best = None
    for prime in _primes():
        echelon = _reduced_echelon(rows, prime)
        key = (-len(echelon), sorted(echelon))
        if best is None or key < best:
            best, residues, modulus = key, echelon, prime
        elif key == best:  # Chinese remaindering, entry by entry
            inverse = pow(modulus, -1, prime)
            residues = {p: {c: a + modulus * ((echelon[p].get(c, 0) - a) * inverse % prime)
                            for c, a in (dict.fromkeys(echelon[p], 0) | row).items()}
                        for p, row in residues.items()}
            modulus *= prime
        else:
            continue
        basis = _lift(residues, modulus, ncols)
        if basis is not None and _in_kernel(rows, basis):
            return Nullspace(basis, len(echelon))


def rank(rows, ncols):
    """Rank of sparse rows ``{column: rational}`` with ``ncols`` columns."""
    return ncols - len(nullspace(rows, ncols))


def modular_rank(rows, prime):
    """Rank over ``GF(prime)`` of sparse rows ``{column: rational}``, each
    first scaled to a primitive integer row.  A nonzero minor mod ``prime``
    is a nonzero integer, so this is a lower bound on the rank over the
    rationals, equal to it for all but finitely many primes."""
    return len(_reduced_echelon(_integer_rows(rows), prime))


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
