"""Shared fixtures: charts, metrics, seeded random element generators, and
the one reader of the package's source for the tests that read it."""

import ast
import contextlib
import itertools
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from supergeo import Chart, GeneratorPool, zpoly
from supergeo.geometry import BilinearForm, OSpFrame, VectorField, flat_metric
from supergeo.errors import InvalidArgument
from supergeo.supermatrix import SuperMatrix, flip_sides, j_map_signs, pair_columns


# the modules of the package, read as source by test_package_surface.py and
# test_ownership.py through walk_scopes
SRC = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "supergeo").glob("*.py"))


def walk_scopes(tree):
    """Every node of the syntax tree ``tree``, parents first, as ``(node,
    functions, owner)``: ``functions`` is the frozenset of the names of the
    functions whose bodies enclose the node, and ``owner`` the name of the
    class whose body holds it directly, else None.  A function's own node
    has the scope it is defined in."""

    def visit(node, functions, owner):
        yield node, functions, owner
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions, owner = functions | {node.name}, None
        elif isinstance(node, ast.ClassDef):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, functions, owner)

    return visit(tree, frozenset(), None)


@pytest.fixture
def pool_x12():
    """One even variable, two odd coordinates."""
    return GeneratorPool(["x"], ["th1", "th2"])


@pytest.fixture
def chart_flat22():
    return Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})


@pytest.fixture
def chart_classical():
    return Chart(["x", "y"], [], box={"x": (1, 2), "y": (1, 2)})


@pytest.fixture
def chart_deformed():
    return Chart(["x"], ["th1", "th2"], box={"x": (0, 1)})


@pytest.fixture
def metric_flat22(chart_flat22):
    return flat_metric(chart_flat22)


@pytest.fixture
def metric_curved(chart_classical):
    x = chart_classical.pool.even("x")
    return BilinearForm(chart_classical, [[1, 0], [0, x * x]])


@pytest.fixture
def metric_deformed(chart_deformed):
    pool = chart_deformed.pool
    bump = pool.one() + pool.odd("th1") * pool.odd("th2")
    return BilinearForm(chart_deformed, [[bump, 0, 0], [0, 0, -1], [0, 1, 0]])


@pytest.fixture
def metric_mixed(chart_deformed):
    """A theta-dependent even-odd block on (1|2), so that the Koszul signs
    of the connection and of the Leibniz rule meet nonzero terms.
    Signature (0, 1, 2); Killing dimensions 2|1 at degree 1 and 2|2 at
    degree 2."""
    pool = chart_deformed.pool
    x, t2 = pool.even("x"), pool.odd("th2")
    return BilinearForm(chart_deformed, [[(1 + x) ** 2, t2, 0],
                                         [t2, 0, -(1 + x)],
                                         [0, 1 + x, 0]])


@pytest.fixture
def metric_linear_pivot(chart_deformed):
    """x,x = 1 + x, th1,th2 = -1 on (1|2): the pivot 1 + x is not plus or
    minus a square, so no rational OSp frame exists, but the orthogonal
    frame does."""
    x = chart_deformed.pool.even("x")
    return BilinearForm(chart_deformed, [[1 + x, 0, 0], [0, 0, -1], [0, 1, 0]])


@pytest.fixture
def metric_nonsquare(chart_flat22):
    """A (2|2) metric with the diagonal bodies 2 + x^2 and 3, an even
    off-diagonal x, theta-dependent even-odd entries and the odd block
    1 + y: the pivots 2 + x^2 and (6 + 2x^2)/(2 + x^2) are not squares."""
    pool = chart_flat22.pool
    x, y, t1, t2 = map(pool.generator, ("x", "y", "th1", "th2"))
    return BilinearForm(chart_flat22, [[2 + x * x + t1 * t2, x, t2, 0],
                                       [x, 3, 0, t1],
                                       [t2, 0, 0, -(1 + y)],
                                       [0, t1, 1 + y, 0]])


def random_superfunction(pool, rng, parity=None, max_degree=2, coeff_range=2,
                         allow_flesh=True):
    """Random element with small integer coefficients; homogeneous if parity given."""
    n_odd = pool.n_odd if allow_flesh else pool.n_coordinate_odd
    out = pool.zero()
    for size in range(n_odd + 1):
        for mono in itertools.combinations(range(n_odd), size):
            if parity is not None and size % 2 != parity % 2:
                continue
            if rng.random() < 0.4:
                continue
            c = rng.randint(-coeff_range, coeff_range)
            if not c:
                continue
            term = pool.scalar(c)
            for sym in pool.even_symbols:
                d = rng.randint(0, max_degree)
                if d:
                    term = term * pool.scalar(sym**d)
            for i in mono:
                term = term * pool.odd(pool.odd_names[i])
            out = out + term
    return out


def random_matrix(pool, p, q, parity, rng, max_degree=1):
    """Random (p|q) supermatrix of the given parity, each entry a
    random_superfunction of its slot's parity."""
    rows = []
    for i in range(p + q):
        row = []
        for j in range(p + q):
            sl = (parity + (0 if i < p else 1) + (0 if j < p else 1)) % 2
            row.append(random_superfunction(pool, rng, sl, max_degree, coeff_range=2))
        rows.append(row)
    return SuperMatrix(pool, p, q, rows, parity)


def random_field(chart, rng, parity, max_degree=1, allow_flesh=True):
    comps = [
        random_superfunction(
            chart.pool, rng, (parity + chart.parity(k)) % 2, max_degree,
            allow_flesh=allow_flesh,
        )
        for k in range(chart.dim)
    ]
    return VectorField(chart, comps, parity)


def seeded(seed):
    return random.Random(seed)


def packed(p):
    """A polynomial ``{exponent tuple: int}`` (or an int) as the kernel's
    ``{key: int}``.  With :func:`unpacked`, the one way tests cross between
    exponent tuples and the packed keys of :mod:`supergeo.zpoly`."""
    return p if type(p) is int else {zpoly.pack(e): c for e, c in p.items()}


def unpacked(p, n):
    """A kernel polynomial (or an int) in n variables as ``{exponent tuple: int}``."""
    return p if type(p) is int else {zpoly.unpack(e, n): c for e, c in p.items()}


def random_poly(rng, n, terms=4, degree=3, bound=9):
    """A nonzero kernel polynomial in n variables, drawn as ``{exponent
    tuple: int}``."""
    p = {}
    for _ in range(rng.randint(1, terms)):
        e = tuple(rng.randint(0, degree) for _ in range(n))
        p[e] = p.get(e, 0) + rng.randint(-bound, bound)
    return packed({e: c for e, c in p.items() if c} or {(0,) * n: 1})


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the interpreter's limit on the digits of ``int(str)`` and
    ``str(int)`` inside the block, so that Python's own conversion can serve
    as the reference for a long int."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def count_calls(monkeypatch, caller, name):
    """Wrap the global ``name`` that the function ``caller`` calls, in the
    module that defines ``caller``; the returned list gets the arguments of
    each call.  ``caller`` must name ``name`` itself, so that a counter left
    on a binding nothing calls any more (the function moved to another
    module, say) fails here instead of counting nothing."""
    assert name in caller.__code__.co_names, f"{caller.__qualname__} does not call {name}"
    module = sys.modules[caller.__module__]
    original = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


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


def in_osp(L, t, s, m):
    """True iff L lies in the orthosymplectic algebra of signature (t, s, 2m):
    every residual of :func:`osp_residuals` vanishes."""
    return all(r.is_zero() for row in osp_residuals(L, t, s, m) for r in row)


def tensor_product(F, G):
    """(F ox G)(X, Y) = (-1)^{|G||X|} F(X) G(Y) on coordinate fields."""
    chart = F.chart
    rows = []
    for i in range(chart.dim):
        sign_i = -1 if (G.parity * chart.parity(i)) % 2 else 1
        rows.append([F.components[i] * G.components[j] * sign_i
                     for j in range(chart.dim)])
    return BilinearForm(chart, rows, (F.parity + G.parity) % 2)


def rotate_frame(frame, A):
    """Right action (f * A)_j = sum_i f_i A_ij, with the even pivots
    (A^T D A)_jj by the pairing D of the frame; A must keep D diagonal on
    the even fields and J on the odd ones for the result to stay an
    orthogonal frame (certified by the caller)."""
    chart = frame.chart
    fields = []
    for j, col in enumerate(zip(*A.entries)):
        parity = chart.parity(j)
        acc = chart.zero_field(parity)
        # the right coefficients A_ij of column j, flipped to the left
        for field, coeff in zip(frame.fields, flip_sides(col, parity, chart.n)):
            if not coeff.is_zero():
                acc = acc + field.scale(coeff)
        fields.append(acc)
    pivots = [pair_columns(frame.pairing, col, col, 0, 0)
              for col in list(zip(*A.entries))[: chart.n]]
    return OSpFrame(chart, fields, pivots)


def orthogonal_frame_change(frame):
    """A nontrivial change of basis that keeps the frame orthogonal; used as
    the second frame in frame-independence certificates.  On the first two
    even fields, of pivots d_0 and d_1, the columns f_0 + f_1 / 2 and f_1 -
    f_0 d_1 / (2 d_0), which change both pivots; on a single even field the
    scale 2; on the first odd pair the symplectic shear, which keeps J."""
    chart, pool = frame.chart, frame.chart.pool
    n = chart.n
    A = SuperMatrix.identity(pool, n, chart.two_m)
    if n >= 2:
        d0, d1 = frame.pivots[:2]
        A.entries[1][0] = pool.scalar(Fraction(1, 2))
        A.entries[0][1] = -(d1 / d0) * Fraction(1, 2)
    elif n == 1:
        A.entries[0][0] = pool.scalar(2)
    if chart.two_m >= 2:
        A.entries[n][n + 1] = pool.scalar(Fraction(1, 3))  # symplectic shear
    return A
