"""Exact rational nullspace, rank, modular rank and signature, checked against sympy's Matrix
and DomainMatrix and Sylvester's law of inertia."""

import itertools
import math
from fractions import Fraction

import sympy as sp
from sympy.polys.domains import GF, QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from supergeo import Chart, exactlinalg, lie
from supergeo.exactlinalg import (
    PRIME,
    _integer_rows,
    _reduced_echelon,
    modular_rank,
    nullspace,
    rank,
    signature,
)
from supergeo.geometry import flat_metric

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
    deficient rank, and entries with large numerators and denominators."""
    big = 10**30 + 7
    cases = [([], 0), ([], 3), ([{}, {0: 0, 2: 0}], 3),
             ([{0: 1}, {1: Fraction(2, 3)}, {2: -5}], 3),
             ([{0: Fraction(big, 3), 1: Fraction(1, big)}, {0: 2, 1: Fraction(6, big**2)}], 2)]
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


def test_primes_are_the_primes_below_the_first():
    """The moduli are 2^61 - 1 and then every prime below it that is 3 mod
    4, in descending order: none is skipped and none is composite."""
    primes = list(itertools.islice(exactlinalg._primes(), 30))
    assert primes == [n for n in range(PRIME, primes[-1] - 1, -4) if sp.isprime(n)]


def test_a_wrong_lift_is_refused_by_the_kernel_check(monkeypatch):
    """``x = p + 5`` for p = 2^61 - 1 is 5 mod p, and 5 lifts within the
    bound, so the first prime gives the vector ``(5, 1)``; it is not in the
    kernel, two primes bound the lift below x, and the third lifts x."""
    x = PRIME + 5
    seen = []
    lift = exactlinalg._lift

    def recording(echelon, modulus, ncols):
        basis = lift(echelon, modulus, ncols)
        seen.append(basis)
        return basis

    monkeypatch.setattr(exactlinalg, "_lift", recording)
    assert nullspace([{0: 1, 1: -x}], 2) == [{0: x, 1: 1}]
    assert seen == [[{0: 5, 1: 1}], None, [{0: x, 1: 1}]]


def _primitive_rows(rows):
    """Each nonzero row cleared of denominators and divided by its content."""
    out = []
    for row in rows:
        qs = {j: Fraction(q) for j, q in row.items() if q}
        if qs:
            lcm = math.lcm(*(q.denominator for q in qs.values()))
            ints = {j: int(q * lcm) for j, q in qs.items()}
            g = math.gcd(*ints.values())
            out.append({j: c // g for j, c in ints.items()})
    return out


def test_modular_rank_matches_domain_matrix_over_gf():
    """The rank over GF(p) equals DomainMatrix's on the primitive integer
    rows, for small primes, where it drops below the rank over QQ, and for a
    large one, where it does not on these systems."""
    drops = 0
    for rows, ncols in _sparse_cases(seeded(821)):
        ints = _primitive_rows(rows)
        r = rank(rows, ncols)
        for p in (2, 3, 5, PRIME):
            want = 0
            if ints:
                dm = DomainMatrix({i: {j: ZZ(c) for j, c in row.items()} for i, row in enumerate(ints)},
                                  (len(ints), ncols), ZZ)
                want = dm.convert_to(GF(p)).rank()
            assert modular_rank(rows, p) == want <= r, (rows, p)
            pivots = _reduced_echelon(_integer_rows(rows), p)
            assert all(row[c] == 1 and all(0 < v < p for v in row.values())
                       for c, row in pivots.items())
            drops += want < r
            if p > 5:
                assert want == r
    assert drops


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
