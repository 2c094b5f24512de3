"""Graded matrices: supertrace, Berezinian, osp membership, Gram-Schmidt."""

import itertools
import math
from fractions import Fraction

import pytest
import sympy as sp

from supergeo import GeneratorPool, scalars, supermatrix
from supergeo.errors import (
    InhomogeneousMatrix,
    InvalidArgument,
    MetricViolation,
    NonInvertible,
    NonInvertibleBlock,
    NotASquare,
    SupergeoError,
)
from supergeo.exactlinalg import nullspace
from supergeo.supermatrix import (
    SuperMatrix,
    gram_schmidt_osp,
    j_map,
    pair_columns,
    standard_metric,
)

from conftest import in_osp, random_superfunction, seeded

x = sp.Symbol("x")


@pytest.fixture
def pool():
    return GeneratorPool(["x"], ["th1", "th2"])


def random_matrix(pool, p, q, parity, rng, max_degree=1):
    rows = []
    for i in range(p + q):
        row = []
        for j in range(p + q):
            sl = (parity + (0 if i < p else 1) + (0 if j < p else 1)) % 2
            row.append(random_superfunction(pool, rng, sl, max_degree, coeff_range=2))
        rows.append(row)
    return SuperMatrix(pool, p, q, rows, parity)


def test_ragged_grid_is_a_supergeo_error(pool):
    """A grid with a short row is an InvalidArgument: a SupergeoError that is
    still a ValueError."""
    with pytest.raises(SupergeoError, match="entry grid") as err:
        SuperMatrix(pool, 1, 2, [[1, 0, 0], [0, 1], [0, 0, 1]])
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("p, q", [(-1, 2), (2, -1), (True, 0), (1.0, 0)])
def test_block_sizes_are_nonnegative_ints(pool, p, q):
    """Each grid below matches ``p + q``; a negative, bool or float block size
    was accepted."""
    with pytest.raises(InvalidArgument, match="block sizes"):
        SuperMatrix(pool, p, q, [[1]])


@pytest.mark.parametrize("parity", [0.5, True, 1.0, "1", None])
def test_parity_is_an_int(pool, parity):
    """A bool, float or other non-int parity was kept as ``parity % 2``
    (0.5 built a matrix of parity 0.5) or crashed with a bare TypeError."""
    grid = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(InvalidArgument, match="parity"):
        SuperMatrix(pool, 1, 2, grid, parity)
    assert SuperMatrix(pool, 1, 2, grid, 3).parity == 1


def random_invertible(pool, p, q, rng):
    while True:
        M = random_matrix(pool, p, q, 0, rng)
        det = sp.Matrix(p + q, p + q, lambda i, j: M.entries[i][j].body()).det()
        if sp.cancel(det) != 0:
            return M


class TestSupertrace:
    def test_identity(self, pool):
        assert SuperMatrix.identity(pool, 2, 2).supertrace() == pool.scalar(0)
        assert SuperMatrix.identity(pool, 3, 1).supertrace() == pool.scalar(2)

    def test_diag_1_1(self, pool):
        M = SuperMatrix(pool, 1, 1, [[5, 0], [0, 3]])
        assert M.supertrace() == pool.scalar(2)

    def test_vanishes_on_supercommutators(self, pool):
        rng = seeded(201)
        for _ in range(30):
            pa, pb = rng.randint(0, 1), rng.randint(0, 1)
            A = random_matrix(pool, 1, 2, pa, rng)
            B = random_matrix(pool, 1, 2, pb, rng)
            sign = -1 if pa * pb else 1
            comm = A * B - (B * A) * pool.scalar(sign)
            assert comm.supertrace().is_zero()

    def test_odd_scalar_product_is_odd(self, pool):
        """M * f takes the parity of a homogeneous f; a mixed f leaves M mixed."""
        a = pool.odd("th1")
        M = SuperMatrix.identity(pool, 1, 2) * a
        assert M.parity == 1 and M.is_homogeneous()
        assert M.supertrace() == a * 3
        mixed = SuperMatrix.identity(pool, 1, 2) * (1 + a)
        assert mixed.parity == 0 and not mixed.is_homogeneous()

    def test_linear(self, pool):
        rng = seeded(202)
        A = random_matrix(pool, 1, 2, 0, rng)
        B = random_matrix(pool, 1, 2, 0, rng)
        assert ((A + B).supertrace() - A.supertrace() - B.supertrace()).is_zero()


class TestBerezinian:
    def test_identity(self, pool):
        assert SuperMatrix.identity(pool, 2, 2).berezinian() == pool.one()

    def test_block_diagonal(self, pool):
        M = SuperMatrix(pool, 1, 1, [[2, 0], [0, 3]])
        assert M.berezinian() == pool.scalar(sp.Rational(2, 3))

    def test_multiplicative_random_pairs(self, pool):
        rng = seeded(203)
        for _ in range(10):
            M = random_invertible(pool, 2, 2, rng)
            N = random_invertible(pool, 2, 2, rng)
            lhs = (M * N).berezinian()
            rhs = M.berezinian() * N.berezinian()
            assert (lhs - rhs).is_zero()

    @pytest.mark.parametrize("p, q", [(2, 2), (1, 2), (2, 0), (0, 2), (1, 4)])
    def test_inverse_roundtrip(self, pool, flesh_pool, p, q):
        rng = seeded(204)
        matrices = [random_invertible(pool, p, q, rng) for _ in range(5)]
        # with flesh terms and 1/(x+2) coefficients
        matrices += [rational_invertible(flesh_pool, p, q, rng) for _ in range(2)]
        for M in matrices:
            eye = SuperMatrix.identity(M.pool, p, q)
            Minv = M.inverse()
            assert M * Minv == eye
            assert Minv * M == eye

    def test_singular_body_not_inverted(self, pool):
        th12 = pool.odd("th1") * pool.odd("th2")
        singular_a = [
            SuperMatrix(pool, 2, 0, [[1, x], [1, x]]),
            SuperMatrix(pool, 2, 1, [[1, 1, 0], [1, 1 + th12, 0], [0, 0, 1]]),
        ]
        singular_d = [
            SuperMatrix(pool, 0, 2, [[1, 1], [1, 1]]),
            SuperMatrix(pool, 1, 1, [[1, 0], [0, 0]]),
            SuperMatrix(pool, 1, 2, [[1, 0, 0], [0, 1 + th12, 1], [0, 1, 1]]),
        ]
        for M in singular_a + singular_d:
            with pytest.raises(NonInvertible, match="matrix body is singular"):
                M.inverse()

    def test_inhomogeneous_and_odd_rejected(self, pool):
        th1, th2 = pool.odd("th1"), pool.odd("th2")
        mixed = SuperMatrix(pool, 1, 1, [[1 + th1, 0], [0, 1]])
        odd = SuperMatrix(pool, 1, 1, [[th1, 1], [1, th2]], parity=1)
        assert odd.is_homogeneous() and not mixed.is_homogeneous()
        with pytest.raises(InhomogeneousMatrix):
            mixed.berezinian()
        for M in (mixed, odd):
            with pytest.raises(InhomogeneousMatrix):
                M.inverse()

    def test_ber_of_invertible_has_invertible_body(self, pool):
        rng = seeded(205)
        for _ in range(5):
            M = random_invertible(pool, 2, 2, rng)
            assert sp.cancel(M.berezinian().body()) != 0

    def test_singular_odd_block_raises(self, pool):
        # the second odd block has det th1*th2: not zero, but without body
        th12 = pool.odd("th1") * pool.odd("th2")
        for M in (
            SuperMatrix(pool, 1, 1, [[1, 0], [0, 0]]),
            SuperMatrix(pool, 1, 2, [[1, 0, 0], [0, 1 + th12, 1], [0, 1, 1]]),
        ):
            with pytest.raises(NonInvertibleBlock):
                M.berezinian()

    def test_pure_blocks(self, pool):
        even_only = SuperMatrix(pool, 2, 0, [[2, 0], [1, 3]])
        assert even_only.berezinian() == pool.scalar(6)
        odd_only = SuperMatrix(pool, 0, 2, [[2, 0], [0, 3]])
        assert odd_only.berezinian() == pool.scalar(sp.Rational(1, 6))

    def test_rendered_value_pinned(self, pool):
        # the value the Gauss-Jordan Schur complement gave, as an independent pin
        M = random_invertible(pool, 2, 2, seeded(208))
        M.entries[0][0] = M.entries[0][0] + pool.scalar(1 / (x + 2))
        assert M.berezinian().render() == (
            "((2*x^3 + 4*x^2 - 3*x - 4)/(2*x^2 + 4*x))"
            " + ((-2*x^4 - 14*x^3 - 19*x^2 + 7*x + 4)/(2*x^2 + 4*x))*th1*th2"
        )


def leibniz_det(pool, rows):
    """Sum over permutations; entries are even, so their order is free."""
    acc = pool.zero()
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = pool.scalar(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        acc = acc + term
    return acc


def oracle_berezinian(M):
    """det(A - B Dinv C) * det(D)^-1 with Dinv from SuperMatrix.inverse,
    which shares the Berezinian's table of minors; the exact D Dinv = 1
    check keeps the oracle independent of that shared code."""
    pool, p, q = M.pool, M.p, M.q
    A, B, C, D = M.blocks()
    Dmat = SuperMatrix(pool, q, 0, D)
    Dinv = Dmat.inverse()
    assert Dmat * Dinv == SuperMatrix.identity(pool, q, 0)
    Dinv = Dinv.entries
    schur = [
        [
            A[i][j] - sum(
                (B[i][k] * Dinv[k][l] * C[l][j] for k in range(q) for l in range(q)),
                start=pool.zero(),
            )
            for j in range(p)
        ]
        for i in range(p)
    ]
    return leibniz_det(pool, schur) * leibniz_det(pool, D).invert()


@pytest.fixture
def flesh_pool():
    return GeneratorPool(["x"], ["th1", "th2"], ["eta"])


def rational_invertible(pool, p, q, rng):
    """Even (p|q) matrix with flesh terms, a 1/(x+2) coefficient and a
    diagonal that dominates the body at x = 0, so both blocks are invertible."""
    M = random_matrix(pool, p, q, 0, rng)
    for i in range(p + q):
        M.entries[i][i] = M.entries[i][i] + 10 + pool.scalar(1 / (x + 2))
    j = p if q else 0  # the first odd column, where there is one
    M.entries[0][j] = M.entries[0][j] * pool.scalar(1 / (x + 2))
    return M


class TestBerezinianAgainstOracle:
    @pytest.mark.parametrize("p, q", [(1, 2), (2, 2), (1, 4), (2, 4)])
    def test_matches_oracle(self, flesh_pool, p, q):
        rng = seeded(206 + 10 * p + q)
        for _ in range(2):
            M = rational_invertible(flesh_pool, p, q, rng)
            ber = M.berezinian()
            assert not ber.is_polynomial()
            assert ber.terms == oracle_berezinian(M).terms

    @pytest.mark.parametrize("p, q", [(1, 4), (2, 4)])
    def test_multiplicative(self, flesh_pool, p, q):
        rng = seeded(216 + 10 * p + q)
        M = rational_invertible(flesh_pool, p, q, rng)
        N = rational_invertible(flesh_pool, p, q, rng)
        assert (M * N).berezinian() == M.berezinian() * N.berezinian()


def test_unit_factors_cost_no_cancellation(monkeypatch):
    """A (p|0) Berezinian is det(A * 1) / 1^(p+1): its unit products and its
    unit division hand fractions back untouched, so it cancels exactly as
    often as the determinant of A alone."""
    pool = GeneratorPool(["x"], [])
    rows = [[pool.scalar((i == j) * 5 + 1 / (x + i + j + 1)) for j in range(3)]
            for i in range(3)]
    calls = []
    original = scalars._cancel_common_factor

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(scalars, "_cancel_common_factor", counting)
    det = supermatrix._det_commuting(pool, rows)
    det_calls = len(calls)
    ber = SuperMatrix(pool, 3, 0, rows).berezinian()
    assert det_calls > 0
    assert len(calls) == 2 * det_calls
    assert ber == det


def test_adjugate_computes_each_minor_once(pool, monkeypatch):
    """A 6x6 block has at most C(12, 6) = 924 (row set, column set) minors;
    one cofactor expansion per adjugate entry would make 7,416."""
    rng = seeded(221)
    ints = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(6)]
    original, tables = supermatrix._minors, []

    def recording(pool_, rows):
        tables.append(original(pool_, rows))
        return tables[-1]

    monkeypatch.setattr(supermatrix, "_minors", recording)
    adj, det = supermatrix._adjugate_commuting(
        pool, [[pool.scalar(v) for v in row] for row in ints]
    )
    assert len(tables) == 1
    assert tables[0].cache_info().misses <= math.comb(12, 6)
    M = sp.Matrix(ints)
    assert det == pool.scalar(M.det())
    assert adj == [[pool.scalar(v) for v in row] for row in M.adjugate().tolist()]


def brute_force_osp_dimension(t, s, m, parity):
    """Independent oracle: rank-nullity on the entrywise linear constraints."""
    pool = GeneratorPool([], [])
    dim = t + s + 2 * m
    slots = [
        (i, j)
        for i in range(dim)
        for j in range(dim)
        if ((0 if i < t + s else 1) + (0 if j < t + s else 1)) % 2 == parity
    ]
    rows = []
    for a in range(dim):
        for b in range(dim):
            row = [Fraction(0)] * len(slots)
            for c, (i, j) in enumerate(slots):
                L = SuperMatrix.zero(pool, t + s, 2 * m, parity)
                L.entries[i][j] = pool.one()
                from supergeo.supermatrix import osp_residuals

                res = osp_residuals(L, t, s, m)[a][b]
                val = res.body()
                row[c] = Fraction(sp.Rational(val).p, sp.Rational(val).q)
            rows.append(row)
    return len(nullspace([dict(enumerate(row)) for row in rows], len(slots)))


class TestOspAlgebra:
    def test_zero_matrix_passes(self, pool):
        assert in_osp(SuperMatrix.zero(pool, 2, 2), 0, 2, 1)

    def test_sp2_dimension(self):
        # (0,0)|2: even part is sp(2), dimension 3
        assert brute_force_osp_dimension(0, 0, 1, 0) == 3

    def test_osp_022_dimensions(self):
        # even: (t+s)(t+s-1)/2 + m(2m+1) = 1 + 3; odd: (t+s)*2m = 4
        assert brute_force_osp_dimension(0, 2, 1, 0) == 4
        assert brute_force_osp_dimension(0, 2, 1, 1) == 4

    def test_dimension_formula_more_signatures(self):
        for (t, s, m) in [(1, 1, 1), (0, 3, 1), (0, 1, 2)]:
            n = t + s
            assert brute_force_osp_dimension(t, s, m, 0) == n * (n - 1) // 2 + m * (2 * m + 1)
            assert brute_force_osp_dimension(t, s, m, 1) == n * 2 * m

    def test_closed_under_supercommutator(self, pool):
        rng = seeded(206)
        found = 0
        while found < 6:
            pa, pb = rng.randint(0, 1), rng.randint(0, 1)
            A = random_matrix(pool, 2, 2, pa, rng, max_degree=0)
            B = random_matrix(pool, 2, 2, pb, rng, max_degree=0)
            A = _project_osp(A, 0, 2, 1)
            B = _project_osp(B, 0, 2, 1)
            if A is None or B is None:
                continue
            found += 1
            sign = -1 if pa * pb else 1
            comm = A * B - (B * A) * pool.scalar(sign)
            assert in_osp(comm, 0, 2, 1)


def _osp_residuals_by_pairing(L, t, s, m):
    """The pairing route to :func:`osp_residuals`: ``<L e_i, e_j> + (-1)^{|L||i|}
    <e_i, L e_j>`` through :func:`pair_columns` against the matrix g0."""
    dim = t + s + 2 * m
    pool = L.pool
    g0 = standard_metric(pool, t, s, m)
    par = L.slot_parity
    cols = [list(col) for col in zip(*L.entries)]
    basis = SuperMatrix.identity(pool, L.p, L.q).entries  # rows = columns
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            lhs = pair_columns(g0, cols[i], basis[j], L.parity + par(i), par(j))
            rhs = pair_columns(g0, basis[i], cols[j], par(i), L.parity + par(j))
            row.append(lhs - rhs if (L.parity * par(i)) % 2 else lhs + rhs)
        out.append(row)
    return out


@pytest.mark.parametrize("t, s, m", [
    (0, 2, 1), (1, 1, 1), (2, 0, 1), (0, 2, 2), (1, 2, 1), (0, 3, 2), (1, 2, 0),
])
def test_osp_residuals_match_the_pairing_route(t, s, m):
    """The residuals read off the J map equal the pairing route entry for
    entry, on seeded homogeneous L of both parities; a matrix built from an
    osp element passes both."""
    pool = GeneratorPool(["x"], ["a", "b", "c"])
    rng = seeded(230 + 10 * t + 3 * s + m)
    for parity in (0, 1):
        for _ in range(3):
            L = random_matrix(pool, t + s, 2 * m, parity, rng)
            assert supermatrix.osp_residuals(L, t, s, m) == _osp_residuals_by_pairing(L, t, s, m)


def _project_osp(M, t, s, m):
    """(g0-antisymmetrise) M into osp; returns None when the projection is 0."""
    pool = M.pool
    g0 = standard_metric(pool, t, s, m)
    g0inv = g0.inverse()
    # osp condition: g0 L + (-1)^{|L|} L^st g0 = 0 entrywise in the right form;
    # project by L -> (L - g0^-1 L' g0)/2 with L' the sign-twisted transpose.
    dim = M.dim
    Lp = SuperMatrix.zero(pool, M.p, M.q, M.parity)
    for i in range(dim):
        for j in range(dim):
            pi = 0 if i < M.p else 1
            pj = 0 if j < M.p else 1
            pL = (M.parity + pi + pj) % 2
            sign = -1 if (pL * pj + M.parity * pi) % 2 else 1
            Lp.entries[i][j] = M.entries[j][i] * sign
    proj = (M - g0inv * Lp * g0) * pool.scalar(sp.Rational(1, 2))
    if all(e.is_zero() for row in proj.entries for e in row):
        return None
    return proj if in_osp(proj, t, s, m) else None


class TestGramSchmidt:
    def test_standard_metric_gives_identity(self, pool):
        g0 = standard_metric(pool, 1, 1, 1)
        E, sig = gram_schmidt_osp(g0)
        assert sig == (1, 1, 1)
        assert E == SuperMatrix.identity(pool, 2, 2)

    def test_scalar_two_rejected_four_accepted(self, pool):
        with pytest.raises(NotASquare):
            gram_schmidt_osp(SuperMatrix(pool, 1, 0, [[2]]))
        E, sig = gram_schmidt_osp(SuperMatrix(pool, 1, 0, [[4]]))
        assert sig == (0, 1, 0)
        assert E.entries[0][0] == pool.scalar(sp.Rational(1, 2))

    def test_scaled_symplectic_block(self, pool):
        B = SuperMatrix(pool, 0, 2, [[0, -2], [2, 0]])
        E, sig = gram_schmidt_osp(B)
        assert sig == (0, 0, 1)
        c1 = [E.entries[r][0] for r in range(2)]
        c2 = [E.entries[r][1] for r in range(2)]
        assert pair_columns(B, c1, c2, 1, 1) == pool.scalar(-1)
        assert pair_columns(B, c2, c1, 1, 1) == pool.scalar(1)

    def test_supersymmetry_violation_names_first_entry(self, pool):
        assert standard_metric(pool, 1, 1, 1).supersymmetry_violation() is None
        # an odd-odd diagonal entry must vanish: B_ii = -B_ii
        B = SuperMatrix(pool, 1, 2, [[1, 0, 0], [0, 1, -1], [0, 1, 0]])
        assert B.supersymmetry_violation() == (1, 1)
        B = SuperMatrix(pool, 1, 2, [[1, 0, 0], [0, 0, -1], [0, 2, 0]])
        assert B.supersymmetry_violation() == (1, 2)
        with pytest.raises(MetricViolation) as err:
            gram_schmidt_osp(B)
        assert err.value.args == ("supersymmetry", "B_ij != +-B_ji at entry (1,2)")

    def test_inhomogeneous_even_matrix_rejected_as_uneven(self):
        """A parity-0 matrix with an odd term in its even block breaks the
        evenness axiom; Gram-Schmidt names it before taking any square root."""
        pool = GeneratorPool(["x"], ["th1", "th2"])
        th1 = pool.odd("th1")
        B = SuperMatrix(pool, 1, 2, [[1 + th1, 0, 0], [0, 0, -1], [0, 1, 0]])
        assert B.parity == 0 and B.supersymmetry_violation() is None
        with pytest.raises(MetricViolation) as err:
            gram_schmidt_osp(B)
        assert err.value.violation == "evenness"

    def test_degenerate_rejected(self, pool):
        B = SuperMatrix(pool, 2, 0, [[0, 0], [0, 1]])
        with pytest.raises(MetricViolation):
            gram_schmidt_osp(B)

    def test_output_matches_g0_on_random_admissible_forms(self, pool):
        rng = seeded(207)
        done = 0
        while done < 20:
            B = _random_admissible_form(pool, rng)
            if B is None:
                continue
            try:
                E, (t, s, m) = gram_schmidt_osp(B)
            except NotASquare:
                continue
            done += 1
            _assert_frame_gives_g0(B, E, (t, s, m))

    def test_even_block_pairing_fallback(self, pool):
        """x,y = 1/2; th1,th2 = -1: no even basis vector has a nonzero
        self-pairing, so the first pivot is e_x + e_y."""
        half = sp.Rational(1, 2)
        B = SuperMatrix(pool, 2, 2, [[0, half, 0, 0], [half, 0, 0, 0],
                                     [0, 0, 0, -1], [0, 0, 1, 0]])
        E, sig = gram_schmidt_osp(B)
        assert sig == (1, 1, 1)  # signature (1, 1, 2) as (t, s, 2m)
        _assert_frame_gives_g0(B, E, sig)


def _assert_frame_gives_g0(B, E, sig):
    """B(E_i, E_j) = (g0)_ij for every pair of columns of E."""
    t, s, m = sig
    g0 = standard_metric(B.pool, t, s, m)
    dim = B.dim
    cols = [[E.entries[r][j] for r in range(dim)] for j in range(dim)]
    for i in range(dim):
        pi = 0 if i < t + s else 1
        for j in range(dim):
            pj = 0 if j < t + s else 1
            got = pair_columns(B, cols[i], cols[j], pi, pj)
            assert (got - g0.entries[i][j]).is_zero()


def _random_admissible_form(pool, rng):
    """Random even supersymmetric form with nondegenerate body; the even-block
    diagonal gets square bodies so pivots stay exact."""
    p, q = 2, 2
    rows = [[pool.zero()] * (p + q) for _ in range(p + q)]
    for i in range(p):
        d = rng.choice([1, 4, 9]) * rng.choice([1, -1])
        rows[i][i] = pool.scalar(d) + random_superfunction(pool, rng, 0, 0) * (
            pool.odd("th1") * pool.odd("th2")
        )
    rows[0][1] = random_superfunction(pool, rng, 0, 0) * pool.odd("th1") * pool.odd("th2")
    rows[1][0] = rows[0][1]
    # odd-odd antisymmetric block with unit-ish pivot
    c = rng.choice([1, -1])
    rows[p][p + 1] = pool.scalar(-c)
    rows[p + 1][p] = pool.scalar(c)
    for i in range(p):
        for j in range(p, p + q):
            v = random_superfunction(pool, rng, 1, 0)
            rows[i][j] = v
            rows[j][i] = v  # even-odd slot: B_ij = B_ji (sign +1)
    B = SuperMatrix(pool, p, q, rows, 0)
    body = sp.Matrix(p + q, p + q, lambda i, j: B.entries[i][j].body())
    if sp.cancel(body.det()) == 0:
        return None
    return B


def test_j_map_invariants(pool):
    for (t, s, m) in [(0, 2, 1), (1, 1, 1), (0, 0, 2), (2, 1, 0)]:
        g0 = standard_metric(pool, t, s, m)
        J = j_map(pool, t, s, m)
        dim = t + s + 2 * m
        # <e_k, J e_j> = (-1)^{|e_k|} delta_kj
        prod = [[pool.zero()] * dim for _ in range(dim)]
        for k in range(dim):
            for j in range(dim):
                acc = pool.zero()
                for r in range(dim):
                    acc = acc + g0.entries[k][r] * J.entries[r][j]
                want = pool.zero()
                if k == j:
                    want = pool.scalar(-1 if k >= t + s else 1)
                assert (acc - want).is_zero()
        # J^2 = diag(+1 even, -1 odd)
        J2 = J * J
        for k in range(dim):
            want = pool.scalar(1 if k < t + s else -1)
            assert (J2.entries[k][k] - want).is_zero()
