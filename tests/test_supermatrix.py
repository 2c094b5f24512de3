"""Graded matrices: supertrace, Berezinian, osp membership, Gram-Schmidt."""

import itertools
import math
from fractions import Fraction

import pytest
import sympy as sp

from supergeo import Chart, GeneratorPool, Superfunction, morphisms, scalars, supermatrix
from supergeo.errors import (
    InhomogeneousMatrix,
    InvalidArgument,
    MetricViolation,
    NonInvertible,
    NonInvertibleBlock,
    NotASquare,
    PoolMismatch,
    SupergeoError,
)
from supergeo.exactlinalg import nullspace
from supergeo.geometry import (
    BilinearForm,
    MetricContext,
    VectorField,
    connection_residuals,
    flat_metric,
    levi_civita,
    validate_metric,
)
from supergeo.morphisms import HarmonicSetup, Morphism
from supergeo.supermatrix import (
    SuperMatrix,
    gram_schmidt_osp,
    j_map,
    pair_columns,
    standard_metric,
)

from conftest import (
    count_calls,
    in_osp,
    osp_residuals,
    random_field,
    random_superfunction,
    seeded,
)

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


def test_entries_of_another_pool_are_rejected():
    """An entry over a pool that is neither the matrix's nor equal to it is
    a ``PoolMismatch`` for a matrix and a form alike, as it is for the ring
    product; the product of such a matrix folded the foreign entry in
    silently, as ``(x^2) + (x)*a*b``.  An equal pool's entries are kept."""
    P, Q = GeneratorPool(["x"], ["a", "b"]), GeneratorPool(["y"], ["b", "a"])
    foreign = Q.odd("b") * Q.odd("a") + Q.even("y")
    with pytest.raises(PoolMismatch):
        P.even("x") * foreign
    with pytest.raises(PoolMismatch, match="another pool"):
        SuperMatrix(P, 1, 0, [[P.even("x")]]) * SuperMatrix(P, 1, 0, [[foreign]])
    chart = Chart(["x"], ["a", "b"], box={"x": (0, 1)})
    with pytest.raises(PoolMismatch, match="another pool"):
        BilinearForm(chart, [[P.one(), 0, 0], [0, 0, foreign], [0, 1, 0]])
    equal = GeneratorPool(["x"], ["a", "b"]).even("x")
    M = SuperMatrix(P, 1, 0, [[equal]])
    assert M.entries[0][0] is equal and (M * M).entries == [[P.even("x") ** 2]]


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

    def test_homogeneity_reads_each_slot_parity_once(self, pool, monkeypatch):
        """``is_homogeneous`` reads the dim slot parities once and asks each
        entry once for its parity, and agrees with the entrywise rule; one
        entry of the wrong parity, in either block, makes a matrix mixed."""
        rng = seeded(203)
        slots, asked = [], []
        slot_parity, has_parity = SuperMatrix.slot_parity, Superfunction.has_parity
        monkeypatch.setattr(SuperMatrix, "slot_parity",
                            lambda M, i: slots.append(i) or slot_parity(M, i))
        monkeypatch.setattr(Superfunction, "has_parity",
                            lambda f, p: asked.append(p) or has_parity(f, p))
        for parity in (0, 1):
            M = random_matrix(pool, 1, 2, parity, rng)
            slots.clear(), asked.clear()
            assert M.is_homogeneous()
            assert slots == [0, 1, 2] and len(asked) == 9
            for i, j in ((0, 0), (1, 2), (2, 0)):
                rows = [list(row) for row in M.entries]
                even = (parity + (i > 0) + (j > 0)) % 2 == 0
                rows[i][j] = rows[i][j] + (pool.odd("th1") if even else 1)
                assert not SuperMatrix(pool, 1, 2, rows, parity).is_homogeneous()

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
    calls = count_calls(monkeypatch, scalars._make, "cancel_common_factor")
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


def _counting(monkeypatch, cls, name):
    """Count the calls of the method ``cls.name`` from here on."""
    calls = [0]
    original = getattr(cls, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_product_entry_is_one_multiply_accumulate(pool, monkeypatch):
    """The product of two integer (2|2) matrices is one sweep of the row
    kernel ``grid_product``: no ring product and at most one ``_make`` per
    entry, and the result is the ring's sum of entry products."""
    rng = seeded(4002)
    M, N = (random_matrix(pool, 2, 2, parity, rng) for parity in (0, 1))
    want = [[pool.sum([M[i, k] * N[k, j] for k in range(4)]) for j in range(4)]
            for i in range(4)]
    products = _counting(monkeypatch, Superfunction, "__mul__")
    makes = count_calls(monkeypatch, scalars.grid_product, "_make")
    MN = M * N
    assert products[0] == 0
    assert 0 < len(makes) <= 16
    assert MN.entries == want and MN.parity == 1


def test_graded_pair_on_nonzero_entries_matches_the_dense_sum():
    """graded_pair takes the nonzero (slot, value) entries of its columns;
    on seeded columns and forms of both parities, with zero entries, it
    equals the dense sum over every slot pair written out here."""
    chart = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
    pool, dim, n, par = chart.pool, chart.dim, chart.n, chart.parity
    rng = seeded(343)

    def column(p):
        return [random_superfunction(pool, rng, p + par(a), max_degree=1)
                if rng.random() < 0.6 else pool.zero() for a in range(dim)]

    def nonzero(col):
        return [(a, c) for a, c in enumerate(col) if not c.is_zero()]

    for pv, pw, pb in itertools.product((0, 1), repeat=3):
        for _ in range(3):
            v, w = column(pv), column(pw)
            B = [[random_superfunction(pool, rng, pb + par(a) + par(b), max_degree=1)
                  if rng.random() < 0.7 else pool.zero() for b in range(dim)]
                 for a in range(dim)]
            dense = pool.zero()
            for a, b in itertools.product(range(dim), repeat=2):
                sign = (-1) ** ((pw + par(b)) * par(a) + pb * (pv + par(a) + pw + par(b)))
                dense = dense + v[a] * w[b] * B[a][b] * sign
            got = supermatrix.graded_pair(pool, n, B, nonzero(v), pv, nonzero(w), pw, pb)
            assert got == dense


def test_gram_schmidt_forms_each_pivot_pairing_once(monkeypatch):
    """The pairing that picks a pivot is the one its projections divide by:
    on curved (1|2) and (2|2) metrics with theta-dependent mixed blocks, no
    pairing of the same two columns is formed twice."""
    one = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)})
    two = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
    x1, a1, b1 = map(one.pool.generator, ("x", "th1", "th2"))
    x2, y2, a2, b2 = map(two.pool.generator, ("x", "y", "th1", "th2"))
    metrics = [
        BilinearForm(one, [[(1 + x1) ** 2, b1, 0], [b1, 0, -(1 + x1)], [0, 1 + x1, 0]]),
        BilinearForm(two, [[(1 + x2) ** 2, a2 * b2, b2, x2 * a2],
                           [a2 * b2, -(2 + y2) ** 2, y2 * a2, b2],
                           [b2, y2 * a2, 0, -(1 + x2)],
                           [x2 * a2, b2, 1 + x2, 0]]),
    ]
    original, formed = supermatrix.pair_columns, []

    def recording(B, v, w, pv, pw):
        formed.append((tuple(e.render() for e in v), tuple(e.render() for e in w), pv, pw))
        return original(B, v, w, pv, pw)

    monkeypatch.setattr(supermatrix, "pair_columns", recording)
    for g in metrics:
        formed.clear()
        gram_schmidt_osp(g)
        assert formed and len(set(formed)) == len(formed)


def test_frame_of_a_fresh_metric_checks_it_once(monkeypatch):
    """The frame runs Gram-Schmidt on the metric its context validated, so
    building it checks the supermetric axioms once, in validate_metric."""
    chart = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)})
    x_, t1, t2 = map(chart.pool.generator, ("x", "th1", "th2"))
    g = BilinearForm(chart, [[(1 + x_) ** 2 + t1 * t2, t2, 0], [t2, 0, -1], [0, 1, 0]])
    checks = _counting(monkeypatch, SuperMatrix, "check_supermetric")
    frame = MetricContext.of(g).frame
    assert checks[0] == 1
    assert frame.pivots == [g[0, 0]]


def test_stress_report_of_a_killing_field_pairs_nothing_against_lie_h(monkeypatch):
    """L_xi h = 0 for a Killing xi, so the correction term sum <L_xi h>(e_i,
    J e_j) <S>(e_j, J e_i) is not formed: no pairing reads L_xi h."""
    chart = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
    g = flat_metric(chart)
    setup = HarmonicSetup(Morphism.identity(chart), g, g)
    rotation = VectorField(chart, [-chart.pool.even("y"), chart.pool.even("x"), 0, 0], 0)
    lie_forms, paired = [], []
    original_lie, original_eval = morphisms.lie_derivative_bilinear, BilinearForm.evaluate

    def lie(X, B):
        lie_forms.append(original_lie(X, B))
        return lie_forms[-1]

    def evaluate(B, X, Y):
        paired.append(B)
        return original_eval(B, X, Y)

    monkeypatch.setattr(morphisms, "lie_derivative_bilinear", lie)
    monkeypatch.setattr(BilinearForm, "evaluate", evaluate)
    rep = setup.stress_energy_report(rotation)
    assert rep.passed and rep.conserved is not None
    assert lie_forms and all(L.is_zero() for L in lie_forms)
    assert not any(B is L for B in paired for L in lie_forms)


def test_stress_report_evaluates_s_xi_e_t_once_per_frame_field(monkeypatch):
    """div S[xi] and the current Y_xi share the values S(xi, e_t): on the
    identity of a (1|2) chart with a theta-dependent mixed block, each is
    formed once."""
    chart = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)})
    x_, t1, t2 = map(chart.pool.generator, ("x", "th1", "th2"))
    h = BilinearForm(chart, [[(1 + x_) ** 2 + t1 * t2, t2, 0], [t2, 0, -(1 + x_)],
                             [0, 1 + x_, 0]])
    setup = HarmonicSetup(Morphism.identity(chart), h, h)
    xi = VectorField(chart, [t2, x_, 0], 1)
    stress, calls = [], []
    original_stress, original_eval = HarmonicSetup.stress_energy, BilinearForm.evaluate

    def stress_energy(self):
        stress.append(original_stress(self))
        return stress[-1]

    def evaluate(B, X, Y):
        calls.append((B, X, Y))
        return original_eval(B, X, Y)

    monkeypatch.setattr(HarmonicSetup, "stress_energy", stress_energy)
    monkeypatch.setattr(BilinearForm, "evaluate", evaluate)
    rep = setup.stress_energy_report(xi)
    assert rep.lemma.passed and rep.current.passed
    [S] = stress
    for e in setup.frame.fields:
        assert sum(B is S and X is xi and Y is e for B, X, Y in calls) == 1


def test_levi_civita_of_a_constant_metric_inverts_nothing(monkeypatch):
    """Every d_i g_jk of a constant metric is zero, so its connection is zero
    and g^-1 is never formed."""
    chart = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
    g = BilinearForm(chart, [[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, 0, -5], [0, 0, 5, 0]])
    inverses = _counting(monkeypatch, SuperMatrix, "inverse")
    conn = levi_civita(g)
    assert inverses[0] == 0
    assert all(e.is_zero() for plane in conn.gamma for row in plane for e in row)
    assert all(not row for plane in conn.table for row in plane)


def test_flat_covariant_derivative_multiplies_only_in_apply(monkeypatch):
    """On a flat (2|2) metric nabla_X Y = X(Y^b): the derivative makes no
    more products than X.apply over Y's components."""
    chart = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
    conn = levi_civita(flat_metric(chart))
    rng = seeded(331)
    muls = _counting(monkeypatch, Superfunction, "__mul__")
    for px, py in itertools.product((0, 1), repeat=2):
        X, Y = random_field(chart, rng, px), random_field(chart, rng, py)
        start = muls[0]
        want = [X.apply(c) for c in Y.components]
        by_apply, start = muls[0] - start, muls[0]
        got = conn.derivative(X, Y)
        assert muls[0] - start <= by_apply
        assert got.components == want


def _koszul_reference(g):
    """The dense Koszul formula, 2 <nabla_i d_j, d_k> = d_i g_jk
    + (-1)^{|i|(|j|+|k|)} d_j g_ki - (-1)^{|k|(|i|+|j|)} d_k g_ij, solved
    against the whole of g^-1: Gamma^l_ij = sum_k K_ijk (g^-1)_kl / 2."""
    chart = g.chart
    names, par, dim = chart.coordinate_names(), chart.parity, chart.dim
    ginv = g.inverse().entries

    def d(i, j, k):
        return g.components[j][k].partial(names[i])

    gamma = []
    for i in range(dim):
        plane = []
        for j in range(dim):
            K = [d(i, j, k) + d(j, k, i) * (-1) ** (par(i) * (par(j) + par(k)))
                 - d(k, i, j) * (-1) ** (par(k) * (par(i) + par(j))) for k in range(dim)]
            plane.append([sum((K[k] * ginv[k][l] for k in range(dim)), chart.pool.zero())
                          * Fraction(1, 2) for l in range(dim)])
        gamma.append(plane)
    return gamma


def _random_supermetric(chart, rng):
    """A supermetric whose entries are drawn zero or nonzero at random; the
    even diagonal and the odd pairs carry a body."""
    pool, dim, par = chart.pool, chart.dim, chart.parity
    rows = [[pool.zero()] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            if i == j and par(i):
                continue  # g_ii = -g_ii on an odd slot
            e = pool.zero()
            if rng.random() < 0.5:
                e = random_superfunction(pool, rng, par(i) + par(j), max_degree=1)
            if (i == j or (par(i) and j == i + 1 and (i - chart.n) % 2 == 0)):
                e = e + rng.choice((-3, 3))
            rows[i][j] = e
            rows[j][i] = -e if par(i) and par(j) else e
    return BilinearForm(chart, rows)


def test_levi_civita_matches_the_dense_koszul_formula():
    """Seeded deformed (2|2) metrics with zero and nonzero entries: the
    sparse connection equals the dense Koszul reference, its table lists
    exactly the nonzero symbols in index order, and the torsion and
    metricity residuals vanish."""
    chart = Chart(["x", "y"], ["th1", "th2"], box={"x": (1, 2), "y": (1, 2)})
    rng = seeded(337)
    checked = 0
    while checked < 6:
        g = _random_supermetric(chart, rng)
        try:
            validate_metric(g)
        except MetricViolation:
            continue  # a body singular at the sample point: draw again
        checked += 1
        conn = levi_civita(g)
        assert conn.gamma == _koszul_reference(g)
        assert conn.table == [[[(k, c) for k, c in enumerate(row) if not c.is_zero()]
                               for row in plane] for plane in conn.gamma]
        assert any(row for plane in conn.table for row in plane)
        torsion, metricity = connection_residuals(g, conn)
        assert torsion.passed and metricity.passed


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
            assert osp_residuals(L, t, s, m) == _osp_residuals_by_pairing(L, t, s, m)


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
        assert standard_metric(pool, 1, 1, 1).supersymmetry().passed
        # an odd-odd diagonal entry must vanish: B_ii = -B_ii
        B = SuperMatrix(pool, 1, 2, [[1, 0, 0], [0, 1, -1], [0, 1, 0]])
        assert B.supersymmetry().first == "supersymmetry[1,1]: (2)"
        B = SuperMatrix(pool, 1, 2, [[1, 0, 0], [0, 0, -1], [0, 2, 0]])
        assert B.supersymmetry().first == "supersymmetry[1,2]: (1)"
        with pytest.raises(MetricViolation) as err:
            gram_schmidt_osp(B)
        assert err.value.args == ("supersymmetry", "supersymmetry[1,2]: (1)")

    def test_inhomogeneous_even_matrix_rejected_as_uneven(self):
        """A parity-0 matrix with an odd term in its even block breaks the
        evenness axiom; Gram-Schmidt names it before taking any square root."""
        pool = GeneratorPool(["x"], ["th1", "th2"])
        th1 = pool.odd("th1")
        B = SuperMatrix(pool, 1, 2, [[1 + th1, 0, 0], [0, 0, -1], [0, 1, 0]])
        assert B.parity == 0 and B.supersymmetry().passed
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
