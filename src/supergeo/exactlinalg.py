"""Exact linear algebra over the rationals, on sympy's sparse ``DomainMatrix``."""

from __future__ import annotations

from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix


def _matrix(rows, ncols):
    """Sparse ``DomainMatrix`` over QQ of sparse rows ``{column: rational}``;
    zero entries and empty rows are dropped."""
    entries = {}
    for i, row in enumerate(rows):
        nonzero = {j: QQ.convert(q) for j, q in row.items() if q}
        if nonzero:
            entries[i] = nonzero
    return DomainMatrix(entries, (len(rows), ncols), QQ)


def nullspace(rows, ncols):
    """Deterministic rational nullspace basis (one vector per free column) of
    sparse rows ``{column: rational}``."""
    m, pivots = _matrix(rows, ncols).rref()
    m = m.to_sparse().rep
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            q = m[r].get(fc)
            if q:
                v[pc] = -Fraction(int(q.numerator), int(q.denominator))
        basis.append(v)
    return basis


def rank(rows, ncols):
    """Rank of sparse rows ``{column: rational}``."""
    return _matrix(rows, ncols).rank()


def signature(rows):
    """``(t, s)``: the numbers of negative and positive eigenvalues of a
    symmetric rational matrix.

    The characteristic polynomial of a symmetric matrix has only real roots,
    so Descartes' rule of signs counts its positive roots exactly; the
    negative roots are the positive roots of ``p(-x)``.
    """
    dense = [dict(enumerate(row)) for row in rows]
    coeffs = _matrix(dense, len(rows)).charpoly()[::-1]  # constant term first

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    flipped = [-c if k % 2 else c for k, c in enumerate(coeffs)]
    return sign_changes(flipped), sign_changes(coeffs)
