"""Parity-graded matrices over the Grassmann scalar ring.

Matrix conventions follow the right-action picture: a map ``L`` sends the
``i``-th basis vector to ``sum_m e_m * L[m][i]`` (right coefficients), and a
basis tuple transforms as ``(X * A)_j = sum_i X_i * A[i][j]``.  Entry ``(i, j)``
of a homogeneous matrix of parity ``p`` carries parity ``p + |i| + |j|``.

The pairing of coefficient columns against a bilinear form ``B`` uses the
right-module axioms ``B(v*f, w) = (-1)^{|f||w|} B(v, w) * f`` and
``B(v, w*f) = B(v, w) * f``.  :func:`graded_pair` is the one implementation of
that pairing, on left coefficients; :func:`flip_sides` exchanges right and
left coefficients, and :func:`pair_columns` is the kernel on flipped columns.

:class:`SuperMatrix` is the package's one graded grid type: a bilinear form
(:class:`geometry.BilinearForm`) is its Gram supermatrix over a chart.  Sums,
differences, negatives and scalar multiples are built through
:meth:`SuperMatrix._new`, so those of a form stay forms on its chart; a matrix
product is always a plain :class:`SuperMatrix`.  A product grid, ``start +
sign * X Y`` in :func:`_product`, is one :func:`scalars.grid_product`, which
fills each row of the result in one sweep; the Schur complement and the
inverse pass their minus signs to it instead of negating a grid.  The
algebra's own results are built without the public constructor's checks.
"""

from __future__ import annotations

import functools
import itertools

from .errors import (
    Check,
    InhomogeneousMatrix,
    InvalidArgument,
    MetricViolation,
    NonInvertible,
    NonInvertibleBlock,
    NotASquare,
    PoolMismatch,
)
from .scalars import GeneratorPool, Superfunction, grid_product


class SuperMatrix:
    """Square matrix with block dimensions p|q over a generator pool."""

    def __init__(self, pool: GeneratorPool, p: int, q: int, entries, parity: int = 0):
        if type(p) is not int or type(q) is not int or p < 0 or q < 0:
            raise InvalidArgument("block sizes must be nonnegative ints")
        if type(parity) is not int:
            raise InvalidArgument(f"parity must be an int, not {parity!r}")
        self.pool = pool
        self.p = p
        self.q = q
        self.parity = parity % 2
        dim = p + q
        if len(entries) != dim or any(len(row) != dim for row in entries):
            raise InvalidArgument("entry grid does not match block dimensions")
        self.entries = [[e if isinstance(e, Superfunction) and e.pool is pool else _entry(pool, e)
                         for e in row] for row in entries]

    # -- basics ---------------------------------------------------------------

    @property
    def dim(self):
        return self.p + self.q

    def slot_parity(self, i: int) -> int:
        return 0 if i < self.p else 1

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @staticmethod
    def zero(pool, p, q, parity=0):
        """A plain zero matrix, also on subclasses: a form needs a chart."""
        z = pool.zero()
        return SuperMatrix(pool, p, q, [[z] * (p + q) for _ in range(p + q)], parity)

    @staticmethod
    def identity(pool, p, q):
        m = SuperMatrix.zero(pool, p, q)
        one = pool.one()
        for i in range(p + q):
            m.entries[i][i] = one
        return m

    def _new(self, entries, parity: int) -> "SuperMatrix":
        """A matrix of this type and shape with the given entries, which
        the algebra computed, so the constructor's checks are not run again;
        the one constructor of the element-wise results, which a bilinear
        form extends to keep its chart."""
        return _built(type(self), self.pool, self.p, self.q, entries, parity)

    def _check_compat(self, other):
        if not isinstance(other, SuperMatrix):
            raise TypeError("expected a SuperMatrix")
        if other.pool != self.pool:
            raise PoolMismatch("matrices over different pools")
        if (other.p, other.q) != (self.p, self.q):
            raise InvalidArgument("block dimension mismatch")

    def __add__(self, other):
        """Each operand checks the other, so that a form and a plain matrix
        do not add, or subtract, in either order."""
        self._check_compat(other)
        other._check_compat(self)
        rows = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        return self._new(rows, self.parity)

    def __sub__(self, other):
        self._check_compat(other)
        other._check_compat(self)
        rows = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        return self._new(rows, self.parity)

    def __neg__(self):
        return self._new([[-e for e in row] for row in self.entries], self.parity)

    def __mul__(self, other):
        """The matrix product, a plain supermatrix whatever the factors; or
        the entries times a scalar on the right, M_ij * f."""
        if isinstance(other, SuperMatrix):
            SuperMatrix._check_compat(self, other)
            rows = _product(self.pool, self.entries, other.entries)
            return _built(SuperMatrix, self.pool, self.p, self.q, rows, self.parity + other.parity)
        scalar = other if isinstance(other, Superfunction) else self.pool.scalar(other)
        rows = [[e * scalar for e in row] for row in self.entries]
        return self._new(rows, scaled_parity(self.parity, scalar))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def is_homogeneous(self) -> bool:
        par = [self.slot_parity(i) for i in range(self.dim)]
        for pi, row in zip(par, self.entries):
            for pj, e in zip(par, row):
                if not e.has_parity(self.parity + pi + pj):
                    return False
        return True

    def supersymmetry(self) -> Check:
        """The check that M_ij - (-1)^{|i||j|} M_ji vanishes for i <= j,
        labelled ``supersymmetry[i,j]`` by slot index."""
        E, par = self.entries, [self.slot_parity(i) for i in range(self.dim)]
        return Check.cells("supersymmetry", (
            ((i, j), E[i][j] + E[j][i] if par[i] * par[j] else E[i][j] - E[j][i])
            for i, j in itertools.combinations_with_replacement(range(self.dim), 2)),
            range(self.dim))

    def check_supermetric(self):
        """Raise ``MetricViolation`` unless this matrix meets the point-free
        supermetric axioms, the one check of every metric in the package: it
        is even and homogeneous ('evenness'), its odd dimension is even and
        the determinant of its body does not vanish identically
        ('nondegeneracy'), and :meth:`supersymmetry` passes ('supersymmetry',
        with the check's ``first`` failure).  Returns that determinant, whose
        sign on a box :func:`geometry.validate_metric` decides."""
        if self.parity != 0 or not self.is_homogeneous():
            raise MetricViolation("evenness", "components break the even grading")
        if self.q % 2:
            raise MetricViolation("nondegeneracy", "odd dimension must be even")
        check = self.supersymmetry()
        if not check.passed:
            raise MetricViolation("supersymmetry", check.first)
        body = [[e.body_part() for e in row] for row in self.entries]
        det = _det_commuting(self.pool, body)
        if det.is_zero():
            raise MetricViolation("nondegeneracy", "body determinant vanishes identically")
        return det

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if (other.p, other.q) != (self.p, self.q) or other.pool != self.pool:
            return False
        return all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(self.dim)
            for j in range(self.dim)
        )

    __hash__ = None

    def __repr__(self):
        rows = "; ".join(
            ", ".join(e.render() for e in row) for row in self.entries
        )
        return f"{type(self).__name__}({self.p}|{self.q}: [{rows}])"

    def blocks(self):
        p, q, E = self.p, self.q, self.entries
        A = [row[:p] for row in E[:p]]
        B = [row[p:] for row in E[:p]]
        C = [row[:p] for row in E[p:]]
        D = [row[p:] for row in E[p:]]
        return A, B, C, D

    # -- graded invariants ----------------------------------------------------

    def supertrace(self) -> Superfunction:
        """str M = sum_j (-1)^{|f_j|(|M|+1)} M[j][j] in an adapted right basis."""
        if not self.is_homogeneous():
            raise InhomogeneousMatrix("supertrace needs a homogeneous matrix")
        acc = self.pool.zero()
        for j in range(self.dim):
            sign = -1 if (self.slot_parity(j) * (self.parity + 1)) % 2 else 1
            acc = acc + self.entries[j][j] * sign
        return acc

    def _eliminate(self, what: str):
        """``(adj D, d, S)`` for an even homogeneous matrix, with d = det D,
        adj D over the commuting even entries of D, and the Schur complement
        of D scaled by d, S = A d - B adj(D) C = (A - B D^-1 C) d.  The one
        block elimination behind :meth:`berezinian` and :meth:`inverse`;
        nothing is divided, so S is polynomial when the entries are.  An
        empty block (p or q = 0) gives an empty adj or S and d = 1."""
        if self.parity != 0 or not self.is_homogeneous():
            raise InhomogeneousMatrix(f"{what} needs an even homogeneous matrix")
        pool = self.pool
        A, B, C, D = self.blocks()
        adj, d = _adjugate_commuting(pool, D)
        ad = [[a * d for a in row] for row in A]
        schur = _product(pool, _product(pool, B, adj), C, ad, sign=-1)
        return adj, d, schur

    def berezinian(self) -> Superfunction:
        """Ber(M) = det(A - B D^-1 C) * det(D)^-1 for an even homogeneous M.

        From the fraction-free elimination of :meth:`_eliminate`,
        Ber(M) = det(S) / d^(p+1) with S = A d - B adj(D) C, the only
        division: the scalar division kernel cancels a polynomial d with one
        gcd chain for the whole quotient, and a constant d with none.
        """
        _, d, schur = self._eliminate("Berezinian")
        if not d.has_body():
            raise NonInvertibleBlock("odd-odd block has singular body")
        return _det_commuting(self.pool, schur) / d ** (self.p + 1)

    def inverse(self) -> "SuperMatrix":
        """Two-sided inverse of an even homogeneous M by the block elimination
        the Berezinian uses: with D^-1 = adj(D)/d and X = (A - B D^-1 C)^-1
        = d adj(S)/det(S) for the S of :meth:`_eliminate`,

            M^-1 = [[X, -X B D^-1], [-D^-1 C X, D^-1 + D^-1 C X B D^-1]].

        The body of M is block diagonal, so M is invertible iff d and det(S)
        have a body.
        """
        adj, d, schur = self._eliminate("inverse")
        pool = self.pool
        s_adj, s = _adjugate_commuting(pool, schur)
        if not (d.has_body() and s.has_body()):
            raise NonInvertible("matrix body is singular")
        _, B, C, _ = self.blocks()
        x = [[e * d / s for e in row] for row in s_adj]
        d_inv = [[e / d for e in row] for row in adj]
        bd = _product(pool, B, d_inv)
        minus_dcx = _product(pool, _product(pool, d_inv, C), x, sign=-1)
        rows = [r + t for r, t in zip(x, _product(pool, x, bd, sign=-1))]
        rows += [r + t for r, t in zip(minus_dcx, _product(pool, minus_dcx, bd, d_inv, sign=-1))]
        return _built(SuperMatrix, pool, self.p, self.q, rows, 0)


def _entry(pool, e):
    """An entry of the public constructor as a superfunction over ``pool``:
    a superfunction over it (or an equal pool) as it is, any other value
    lifted by :meth:`GeneratorPool.scalar`."""
    if isinstance(e, Superfunction):
        if e.pool is not pool and e.pool != pool:
            raise PoolMismatch("a matrix entry belongs to another pool")
        return e
    return pool.scalar(e)


def _built(cls, pool, p, q, entries, parity):
    """A matrix of type ``cls`` with entries the algebra computed over
    ``pool``, without the public constructor's checks."""
    out = object.__new__(cls)
    out.pool, out.p, out.q, out.entries, out.parity = pool, p, q, entries, parity % 2
    return out


def scaled_parity(parity: int, f: Superfunction) -> int:
    """The parity of a graded object of the given parity times f, for fields,
    forms and matrices alike: it follows a homogeneous f, and a mixed f leaves
    it as it was on a product that is then mixed."""
    fp = f.parity()
    return parity if fp is None else (parity + fp) % 2


def _product(pool, X, Y, start=None, sign=1):
    """start + sign * X Y for entry grids (lists of rows), in factor order,
    by the row kernel :func:`scalars.grid_product`: each nonzero entry of a
    row of X sweeps the nonzero entries of its row of Y once, the products
    of an output entry over one denominator accumulate in one integer table,
    and each entry is made canonical once, over the least common multiple
    of its tables' denominators.  Sign is 1 or -1.  The default
    start is zero; an explicit one also fixes the shape of the result when
    the inner dimension is 0, where Y has no rows to tell its width."""
    if start is None:
        start = [[pool.zero()] * (len(Y[0]) if Y else 0) for _ in X]
    return grid_product(pool, X, Y, start, sign)


# -- commuting-entry helpers (all entries even, hence mutually commuting) ----


def _minors(pool, rows):
    """det of the rows R and columns C (sorted index tuples) of a grid of
    commuting entries, by Laplace expansion along the first row of R; the
    returned function caches every minor under its (row set, column set), so
    a determinant and all its cofactors share one table."""

    @functools.cache
    def minor(R, C):
        if len(R) < 2:
            return rows[R[0]][C[0]] if R else pool.one()
        acc = pool.zero()
        for j, c in enumerate(C):
            e = rows[R[0]][c]
            if e.is_zero():
                continue
            term = e * minor(R[1:], C[:j] + C[j + 1 :])
            acc = acc + (-term if j % 2 else term)
        return acc

    return minor


def _det_commuting(pool, rows) -> Superfunction:
    full = tuple(range(len(rows)))
    return _minors(pool, rows)(full, full)


def _adjugate_commuting(pool, rows):
    """(adj M, det M), with adj(M)[k][l] = (-1)^(k+l) det(M without row l and
    column k), all from one table of minors."""
    minor = _minors(pool, rows)
    full = tuple(range(len(rows)))

    def cofactor(k, l):
        det = minor(full[:l] + full[l + 1 :], full[:k] + full[k + 1 :])
        return -det if (k + l) % 2 else det

    return [[cofactor(k, l) for l in full] for k in full], minor(full, full)


# -- the standard supermetric and the J map ----------------------------------


def j_map_signs(t: int, s: int, m: int):
    """The J map as (sign, target index) per basis slot: J e_k = sign * e_target."""
    out = []
    for k in range(t):
        out.append((-1, k))
    for k in range(t, t + s):
        out.append((1, k))
    for l in range(m):
        a = t + s + 2 * l
        out.append((1, a + 1))   # J e_a = e_{a+1}
        out.append((-1, a))      # J e_{a+1} = -e_a
    return out


def standard_metric(pool: GeneratorPool, t: int, s: int, m: int) -> SuperMatrix:
    """g0 = diag(G_{t,s}, J_{2m}) with G = diag(-1_t, 1_s), J_2 = [[0,-1],[1,0]].

    g0 is also the signed permutation matrix of the J map in the right-action
    convention, J e_k = sum_m e_m * J[m][k], so ``j_map`` is this function."""
    g = SuperMatrix.zero(pool, t + s, 2 * m)
    for k, (sign, tgt) in enumerate(j_map_signs(t, s, m)):
        g.entries[tgt][k] = pool.scalar(sign)
    return g


j_map = standard_metric


# -- the graded pairing ---------------------------------------------------------


def flip_sides(column, p: int, n_even: int):
    """Right <-> left coefficients of a column of parity p: the entry in slot
    a picks up (-1)^{|a|(p+|a|)}; slots from ``n_even`` on are odd."""
    return [
        -c if a >= n_even and (p + 1) % 2 else c for a, c in enumerate(column)
    ]


def graded_pair(pool, n_even: int, B, v, pv: int, w, pw: int, parity: int = 0):
    """The graded pairing of left-coefficient columns v, w (parities pv, pw)
    against the entry grid B of a bilinear form of the given parity:

        sum_ab (-1)^{|W^b||a| + |B|(|V^a|+|W^b|)} V^a W^b B_ab

    Slots from ``n_even`` on are odd.  ``v`` and ``w`` are the columns'
    nonzero entries as ``(slot, value)`` pairs (:attr:`geometry._Field.nonzero`),
    so the sum runs over nonzero factors only.  Every pairing in the package
    (vector fields, fields along a morphism, coefficient columns) is this sum.
    """
    terms = []
    for a, va in v:
        pa = a >= n_even
        row = B[a]
        for b, wb in w:
            bab = row[b]
            if bab.is_zero():
                continue
            pwb = pw + (b >= n_even)
            term = va * wb * bab
            terms.append(-term if (pwb * pa + parity * (pv + pa + pwb)) % 2 else term)
    return pool.sum(terms)


def pair_columns(B: SuperMatrix, v, w, pv: int, pw: int) -> Superfunction:
    """B(v, w) for right-coefficient columns of declared parities pv, pw."""
    def nonzero(column, p):
        return [(a, c) for a, c in enumerate(flip_sides(column, p, B.p)) if not c.is_zero()]

    return graded_pair(B.pool, B.p, B.entries, nonzero(v, pv), pv, nonzero(w, pw), pw, B.parity)


def osp_residuals(L: SuperMatrix, t: int, s: int, m: int):
    """<L e_i, e_j> + (-1)^{|L||e_i|} <e_i, L e_j> against g0, per basis pair.

    g0 is the signed permutation of the J map, ``(g0)_{J(b) b} = eps_b`` for
    ``J e_b = eps_b e_{J(b)}``, and J is an involution on the slots.  With
    the right-to-left flip of :func:`pair_columns` this gives
    ``<L e_i, e_j> = (-1)^{|j|(|L|+|i|+1)} eps_j L_{J(j) i}`` and
    ``<e_i, L e_j> = eps_{J(i)} L_{J(i) j}``: each residual is two signed
    entries of L.  The tests keep the pairing route as the oracle."""
    dim = t + s + 2 * m
    if L.dim != dim or (L.p, L.q) != (t + s, 2 * m):
        raise InvalidArgument("matrix dimensions do not match the signature")
    J = j_map_signs(t, s, m)
    par = [L.slot_parity(i) for i in range(dim)]
    out = []
    for i, (_, b) in enumerate(J):
        right = -J[b][0] if L.parity * par[i] else J[b][0]
        flip = -1 if (L.parity + par[i] + 1) % 2 else 1  # on an odd slot j
        out.append([L.entries[a][i] * (eps * flip if par[j] else eps) + L.entries[b][j] * right
                    for j, (eps, a) in enumerate(J)])
    return out


# -- graded Gram-Schmidt ------------------------------------------------------


def gram_schmidt_osp(B: SuperMatrix):
    """Change of basis E with B(E_i, E_j) = (g0)_{ij} exactly.

    Returns ``(E, (t, s, m))``.  B must pass :meth:`SuperMatrix.check_supermetric`,
    else its ``MetricViolation`` propagates.  Pivot normalisations must be
    exact squares in the scalar ring; otherwise NotASquare propagates and the
    caller may rescale the form.  Basis vectors are ordered negatives,
    positives, odd pairs.
    """
    B.check_supermetric()
    return _gram_schmidt(B)


def _gram_schmidt(B: SuperMatrix):
    """The elimination of :func:`gram_schmidt_osp` on a B that has passed
    :meth:`SuperMatrix.check_supermetric`, which the caller vouches for (a
    metric's context has checked it); each pivot pairing is formed once,
    when it is tested."""
    pool, dim = B.pool, B.dim

    def pair(u, pu, w, pw):
        return pair_columns(B, u, w, pu, pw)

    def minus(w, v, c):
        """The column w - v c, one coefficient c for the whole column."""
        return w if c.is_zero() else [a if b.is_zero() else a - b * c for a, b in zip(w, v)]

    basis = SuperMatrix.identity(pool, B.p, B.q).entries  # rows = columns
    evens, odds = basis[: B.p], basis[B.p :]
    negatives, positives, odd_pairs = [], [], []

    while evens:
        pick = next(((idx, c) for idx, u in enumerate(evens)
                     if (c := pair(u, 0, u, 0)).has_body()), None)
        if pick is None:
            # no diagonal pivot: since the body is nondegenerate over the
            # rational functions (check_supermetric), some pair i, j has
            # B(u_i, u_j) != 0 there, and then B(u_i + u_j, u_i + u_j) != 0
            i, j = next((i, j) for i, j in itertools.combinations(range(len(evens)), 2)
                        if pair(evens[i], 0, evens[j], 0).has_body())
            evens[i] = [evens[i][r] + evens[j][r] for r in range(dim)]
            continue
        idx, c = pick
        u = evens.pop(idx)
        cinv = c.invert()
        # w -> w - u * (B(u,w)/B(u,u)) kills the pairing with u on both sides
        evens = [minus(w, u, pair(u, 0, w, 0) * cinv) for w in evens]
        odds = [minus(w, u, pair(u, 0, w, 1) * cinv) for w in odds]
        try:
            scale = c.sqrt().invert()
            sign = 1
        except NotASquare:
            scale = (-c).sqrt().invert()
            sign = -1
        u = [e * scale for e in u]
        (negatives if sign < 0 else positives).append(u)

    while odds:
        # the odd body is nondegenerate too, so some pair pairs with a body
        i, j, c = next((i, j, c) for i, j in itertools.combinations(range(len(odds)), 2)
                       if (c := pair(odds[i], 1, odds[j], 1)).has_body())
        f2 = odds.pop(j)
        f1 = odds.pop(i)
        k = -c.invert()
        f2 = [e * k for e in f2]  # now B(f1, f2) = -1, B(f2, f1) = 1
        odds = [minus(minus(w, f1, pair(f2, 1, w, 1)), f2, -pair(f1, 1, w, 1)) for w in odds]
        odd_pairs.extend([f1, f2])

    cols = negatives + positives + odd_pairs
    E = SuperMatrix(
        B.pool,
        B.p,
        B.q,
        [[cols[j][r] for j in range(dim)] for r in range(dim)],
    )
    return E, (len(negatives), len(positives), len(odd_pairs) // 2)
