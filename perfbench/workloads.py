"""Seeded workloads for the supergeo benchmark.

Every workload turns its seed into plain data (ints, ``Fraction``s, tuples and
scenario text) and only then into program objects, inside the timed job.
Inputs are built so that each job's outcome is known by construction:
bodies are drawn until their determinant, computed on the plain data, is
nonzero, Gram-Schmidt pivots are signed squares, Killing fields are
known symmetries plus a known non-Killing witness, and each generated
scenario states the report it must produce.

A job returns ``(ok, outputs)``.  ``ok`` is the job's own exact check;
``outputs`` are program objects or strings the harness renders into the
run's digest, outside the job's timing.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

X_DEN_CHOICES = (1, 2, 3)


class Job:
    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        self.kind = kind
        self.data = data

    def key(self):
        return (self.kind, self.data)


class Workload:
    """Base class: a seed, the job schedule and a set of inputs already used."""

    name = ""
    schedule = ()
    # fresh interpreters one run is split over (see run.py)
    workers = 3
    # time of one round of ``schedule`` on a 2-vCPU x86-64 virtual machine
    # with Python 3.11.7 and sympy 1.14.0; it turns --seconds into rounds
    round_seconds: float

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self._seen = set()

    def stream(self, label: str):
        return random.Random(f"{self.name}/{self.seed}/{label}")

    def fresh(self, make, rng):
        """Draw ``make(rng)`` until it gives a job never drawn before."""
        for _ in range(1000):
            job = make(rng)
            if job.key() not in self._seen:
                self._seen.add(job.key())
                return job
        raise RuntimeError(f"{self.name}: input space exhausted")

    def jobs(self):
        """Endless closed-loop stream of ``(job, ends_round)``: the kinds
        repeat ``schedule``, one round at a time."""
        rng = self.stream("timed")
        k = 0
        while True:
            kind = self.schedule[k % len(self.schedule)]
            job = self.fresh(lambda r: self.make(kind, r, k), rng)
            yield job, k % len(self.schedule) == len(self.schedule) - 1
            k += 1

    def warmup_jobs(self):
        """Warm-up inputs are the same for every seed, so set-up does the
        same work on every run."""
        rng = random.Random(f"{self.name}/warmup")
        # negative indices: warm-up jobs are not positions of the timed stream
        return [self.fresh(lambda r: self.make(kind, r, -1 - i), rng)
                for i, kind in enumerate(self.warmup_kinds)]

    def prepare(self, job):
        """Untimed per-job preparation, such as writing an input file."""

    # subclasses: setup(), make(kind, rng, index), run(job)


# -- plain-data generators ------------------------------------------------------


def rand_fraction(rng, lo=-3, hi=3, nonzero=True):
    while True:
        q = Fraction(rng.randint(lo, hi), rng.choice(X_DEN_CHOICES))
        if q or not nonzero:
            return q


def rand_square(rng):
    """(p/q)^2 for small positive p and q."""
    return Fraction(rng.randint(1, 6), rng.randint(1, 4)) ** 2


ODD_MONOMIALS = ((), (0,), (1,), (0, 1))  # over (th1, th2)


def rand_superfunction(rng, parity, max_degree=1, coeff_range=2):
    """Homogeneous superfunction over (x | th1 th2) as ((monomial, c, d), ...),
    meaning the sum of c * x^d * monomial.

    The same distribution as the entries of the tier-1 superalgebra tests
    (``random_superfunction`` in ``tests/conftest.py``): each monomial of the
    right parity is present with probability 0.6, with an integer
    coefficient in [-coeff_range, coeff_range] (dropped when 0) and a power
    of x up to ``max_degree``."""
    terms = []
    for mono in ODD_MONOMIALS:
        if len(mono) % 2 != parity or rng.random() < 0.4:
            continue
        c = rng.randint(-coeff_range, coeff_range)
        if c:
            terms.append((mono, c, rng.randint(0, max_degree)))
    return tuple(terms)


def with_coefficients(matrix, rng):
    """The matrix with the same terms, each given a new coefficient drawn
    as ``rand_superfunction`` draws them (uniform on the nonzero integers
    in [-2, 2])."""
    return tuple(tuple(tuple((mono, rng.choice((-2, -1, 1, 2)), d) for mono, _, d in entry)
                       for entry in row)
                 for row in matrix)


def _body(entry):
    """Body of an entry as a polynomial in x: {degree: coefficient}."""
    return {d: c for mono, c, d in entry if mono == ()}


def _poly_mul(a, b):
    out = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, 0) + ca * cb
    return out


def body_det_is_nonzero(block):
    """Whether the body of a 2x2 block of even entries has a nonzero
    determinant, computed exactly on the plain data."""
    det = _poly_mul(_body(block[0][0]), _body(block[1][1]))
    for d, c in _poly_mul(_body(block[0][1]), _body(block[1][0])).items():
        det[d] = det.get(d, 0) - c
    return any(det.values())


# -- workload: superalgebra ---------------------------------------------------

# Which terms a Berezinian pair's entries have, and their powers of x, set
# most of its cost: over 12 pairs, each timed with 4 sets of coefficients,
# the standard deviation of the job time was 0.17 s between pairs and
# 0.04 s between coefficient sets of one pair (mean 0.34 s).  So the terms of
# the job at each position of the stream are a fixed draw from the tier-1
# distribution, the same for every seed, and the seed draws the coefficients
# (and the Gram-Schmidt forms).  Every run of the workload then has the same
# mix of job sizes, and seeds differ in the values.

# Seconds per job kind in the tier-1 superalgebra traffic (acceptance
# criterion 5: 200 supertraces, 100 Berezinian pairs, 20 Gram-Schmidt forms;
# plus the 5 inverse round trips of tests/test_supermatrix.py), input
# filters excluded, on a 2-vCPU x86-64 virtual machine with Python 3.11.7 and
# sympy 1.14.0: supertrace 8.8 s (17%), Berezinian 40.2 s (79%), inverse
# 1.8 s (4%), Gram-Schmidt 0.07 s (0.1%).  A round of 20 supertraces, 10
# Berezinian pairs, 2 Gram-Schmidt forms and 1 inverse has about the same
# shares (17%, 76%, 0.1%, 7%); the inverse, one a round, is the smallest
# whole number of them.
SUPERALGEBRA_ROUND = (
    ("supertrace", "supertrace", "berezinian") * 5 + ("gram_schmidt",)
    + ("supertrace", "supertrace", "berezinian") * 5 + ("gram_schmidt", "inverse")
)


class Superalgebra(Workload):
    """Scalars and supermatrices only, over the pool (x | th1 th2), with the
    inputs of acceptance criterion 5."""

    name = "superalgebra"
    schedule = SUPERALGEBRA_ROUND
    round_seconds = 6.5
    warmup_kinds = ("supertrace", "berezinian", "inverse", "gram_schmidt")

    def setup(self):
        from supergeo import GeneratorPool

        self.pool = GeneratorPool(["x"], ["th1", "th2"])
        self.x = self.pool.even_symbol("x")

    # plain data

    def make(self, kind, rng, index):
        """Terms from the fixed stream of position ``index``, coefficients
        from ``rng``."""
        terms = random.Random(f"{self.name}/terms/{index}")
        if kind == "supertrace":
            pa, pb = terms.randint(0, 1), terms.randint(0, 1)
            return Job(kind, (pa, pb,
                              with_coefficients(self._rand_matrix(terms, 1, 2, pa), rng),
                              with_coefficients(self._rand_matrix(terms, 1, 2, pb), rng)))
        if kind == "berezinian":
            return Job(kind, (self._rand_invertible(terms, rng),
                              self._rand_invertible(terms, rng)))
        if kind == "inverse":
            return Job(kind, (self._rand_invertible(terms, rng),))
        if kind == "gram_schmidt":
            return Job(kind, self._rand_admissible(rng))
        raise ValueError(kind)

    @staticmethod
    def _rand_matrix(rng, p, q, parity):
        """Entries of the right parities; see ``rand_superfunction``."""
        dim = p + q
        return tuple(
            tuple(
                rand_superfunction(rng, (parity + (i >= p) + (j >= p)) % 2)
                for j in range(dim)
            )
            for i in range(dim)
        )

    @staticmethod
    def _invertible_body(m):
        a = tuple(row[:2] for row in m[:2])
        d = tuple(row[2:] for row in m[2:])
        return body_det_is_nonzero(a) and body_det_is_nonzero(d)

    def _rand_invertible(self, terms, rng):
        """Even (2|2) matrix whose body is invertible.  Its terms are those
        of a matrix drawn like the tier-1 tests draw theirs and kept only
        when both diagonal blocks have a nonzero body determinant (the odd
        blocks have no body); its coefficients are drawn from ``rng`` until
        that holds again."""
        while True:
            m = self._rand_matrix(terms, 2, 2, 0)
            if self._invertible_body(m):
                break
        while True:
            out = with_coefficients(m, rng)
            if self._invertible_body(out):
                return out

    @staticmethod
    def _rand_admissible(rng):
        """Even supersymmetric (2|2) form, drawn like acceptance criterion 5
        draws its forms: diagonal bodies +-1, +-4 or +-9 with a th1*th2 part,
        a th1*th2 off-diagonal entry, odd block c * J with c in {1, -1, 2}
        and a symmetric mixed block of odd entries.  The body is diagonal and
        nondegenerate, so the signature is known from the signs."""
        def nil(rng):  # times th1*th2 only the body of the draw survives
            return _body(rand_superfunction(rng, 0, 0, 1)).get(0, 0)

        diag = []
        for _ in range(2):
            d = rng.choice((1, 4, 9)) * rng.choice((1, -1))
            diag.append((d, nil(rng)))
        nil_off = nil(rng)
        c = rng.choice((1, -1, 2))
        mixed = tuple(tuple(rand_superfunction(rng, 1, 0, 1) for _ in range(2))
                      for _ in range(2))
        return (tuple(diag), nil_off, c, mixed)

    # program objects

    def superfunction(self, data):
        pool = self.pool
        out = pool.zero()
        for mono, c, d in data:
            term = pool.scalar(c * self.x**d)
            for i in mono:
                term = term * pool.odd(pool.odd_names[i])
            out = out + term
        return out

    def matrix(self, data, p, q, parity):
        from supergeo import SuperMatrix

        return SuperMatrix(self.pool, p, q,
                           [[self.superfunction(e) for e in row] for row in data], parity)

    def admissible(self, data):
        from supergeo import SuperMatrix

        diag, nil_off, c, mixed = data
        pool = self.pool
        th12 = pool.odd("th1") * pool.odd("th2")
        rows = [[pool.zero()] * 4 for _ in range(4)]
        for i, (d, n) in enumerate(diag):
            rows[i][i] = pool.scalar(d) + th12 * n
        rows[0][1] = rows[1][0] = th12 * nil_off
        rows[2][3] = pool.scalar(-c)
        rows[3][2] = pool.scalar(c)
        for i in range(2):
            for j in range(2):
                rows[i][2 + j] = rows[2 + j][i] = self.superfunction(mixed[i][j])
        return SuperMatrix(pool, 2, 2, rows, 0)

    # jobs

    def run(self, job):
        from supergeo.supermatrix import (
            SuperMatrix,
            gram_schmidt_osp,
            pair_columns,
            standard_metric,
        )

        d = job.data
        if job.kind == "supertrace":
            pa, pb, a, b = d
            A = self.matrix(a, 1, 2, pa)
            B = self.matrix(b, 1, 2, pb)
            sign = -1 if pa * pb else 1
            commutator = A * B - (B * A) * self.pool.scalar(sign)
            return commutator.supertrace().is_zero(), [commutator]
        if job.kind == "berezinian":
            M, N = self.matrix(d[0], 2, 2, 0), self.matrix(d[1], 2, 2, 0)
            ber_mn = (M * N).berezinian()
            ber_m, ber_n = M.berezinian(), N.berezinian()
            return (ber_mn - ber_m * ber_n).is_zero(), [ber_m, ber_n]
        if job.kind == "inverse":
            M = self.matrix(d[0], 2, 2, 0)
            Minv = M.inverse()
            eye = SuperMatrix.identity(self.pool, 2, 2)
            return M * Minv == eye and Minv * M == eye, [Minv]
        if job.kind == "gram_schmidt":
            B = self.admissible(d)
            E, (t, s, m) = gram_schmidt_osp(B)
            signs = [v for v, _ in d[0]]
            ok = (t, s, m) == (sum(v < 0 for v in signs), sum(v > 0 for v in signs), 1)
            g0 = standard_metric(self.pool, t, s, m)
            cols = [[E.entries[r][j] for r in range(4)] for j in range(4)]
            for i in range(4):
                for j in range(4):
                    got = pair_columns(B, cols[i], cols[j], int(i >= 2), int(j >= 2))
                    ok = ok and (got - g0.entries[i][j]).is_zero()
            return ok, [E]
        raise ValueError(job.kind)


# -- workload: killing -----------------------------------------------------------

EVEN_NAMES = ("x", "y", "z")


def flat_killing_dims(n, two_m):
    m = two_m // 2
    return (n + n * (n - 1) // 2 + m * (2 * m + 1), 2 * m + 2 * m * n)


# The curved surface dx^2 + x^2 dy^2 is the flat plane in polar coordinates;
# its only polynomial Killing field is d_y.  Summed with a symplectic block
# the algebra is d_y + sp(2) (even) and the two odd translations (odd).
CURVED_DIMS = (4, 2)


class Killing(Workload):
    """Killing solver and checkers: lie, exactlinalg and geometry on
    polynomial coefficients, with a small shared set of metric objects."""

    name = "killing"
    # solve families: (label, n, 2m, degree); (2|4) only at degree 1
    SOLVES = (
        ("flat", 2, 2, 1), ("flat", 3, 2, 1), ("curved", 2, 2, 1), ("flat", 1, 4, 1),
        ("flat", 2, 2, 2), ("flat", 2, 4, 1), ("curved", 2, 2, 2), ("flat", 3, 2, 2),
        ("flat", 1, 4, 2),
    )
    BATCH_FIELDS = 6
    # a round is the whole solve family, so two workers with one round each
    # keep a run short
    workers = 2
    round_seconds = 14.0
    # Four checker batches per solve: the batches are the small jobs (the
    # median falls among them), the solves the large ones (the tail).
    schedule = tuple(
        kind for k in range(len(SOLVES)) for kind in (f"solve{k}",) + ("batch",) * 4
    )
    warmup_kinds = ("solve0", "batch", "batch")

    def setup(self):
        from supergeo import Chart

        box = {"x": (0, 1), "y": (0, 1), "z": (0, 1)}
        self.charts = {}
        for label, n, two_m, _ in self.SOLVES:
            even = EVEN_NAMES[:n]
            odd = [f"th{k + 1}" for k in range(two_m)]
            if label == "curved":
                self.charts[label, n, two_m] = Chart(even, odd, box={"x": (1, 2), "y": (0, 1)})
            else:
                self.charts[label, n, two_m] = Chart(even, odd, box={e: box[e] for e in even})
        # shared metrics for the checker batches, fixed by the seed; two flat
        # ones of similar cost, so batch times do not split into groups
        rng = self.stream("shared-metrics")
        self.shared = []
        for label, n, two_m in (("flat", 2, 2), ("flat", 1, 4)):
            params = self._rand_params(rng, label, n, two_m)
            self.shared.append((label, n, two_m, params,
                                self.metric(label, n, two_m, params)))

    # plain data

    @staticmethod
    def _rand_params(rng, label, n, two_m):
        if label == "curved":
            signs = (1, 1)
        else:
            signs = tuple(rng.choice((1, -1)) for _ in range(n))
        squares = tuple(rand_square(rng) for _ in range(1 if label == "curved" else n))
        symplectic = tuple(rand_square(rng) for _ in range(two_m // 2))
        return (signs, squares, symplectic)

    def make(self, kind, rng, index):
        if kind.startswith("solve"):
            label, n, two_m, degree = self.SOLVES[int(kind[5:])]
            return Job("solve", (label, n, two_m, degree,
                                 self._rand_params(rng, label, n, two_m)))
        if kind == "batch":
            which = index % len(self.shared)
            label, n, two_m, params, _ = self.shared[which]
            fields = tuple(self._rand_field(rng, label, n, two_m, k)
                           for k in range(self.BATCH_FIELDS))
            return Job("batch", (which, fields))
        raise ValueError(kind)

    def _rand_field(self, rng, label, n, two_m, k):
        """(parity, Killing coefficients, witness coefficient): about a third
        of the fields have no witness, so they are Killing; the others are
        not, because the witness is not and the Lie derivative is linear."""
        parity = k % 2
        n_gens = len(self._killing_generators(label, n, two_m, parity, None))
        coeffs = tuple(rand_fraction(rng, nonzero=False) for _ in range(n_gens))
        witness = Fraction(0) if rng.random() < 1 / 3 else rand_fraction(rng)
        return (parity, coeffs, witness)

    # program objects

    def metric(self, label, n, two_m, params):
        from supergeo.geometry import BilinearForm

        chart = self.charts[label, n, two_m]
        pool = chart.pool
        signs, squares, symplectic = params
        dim = n + two_m
        rows = [[pool.zero()] * dim for _ in range(dim)]
        if label == "curved":
            x = pool.even("x")
            rows[0][0] = pool.scalar(squares[0])
            rows[1][1] = x * x * squares[0]
        else:
            for i in range(n):
                rows[i][i] = pool.scalar(signs[i] * squares[i])
        for k, c in enumerate(symplectic):
            a = n + 2 * k
            rows[a][a + 1] = pool.scalar(-c)
            rows[a + 1][a] = pool.scalar(c)
        return BilinearForm(chart, rows, 0)

    def _killing_generators(self, label, n, two_m, parity, params):
        """Known Killing fields (as component dicts) of the metric family.

        With ``params`` None only the count matters."""
        gens = []
        odd = [n + k for k in range(two_m)]
        if parity == 0:
            if label == "curved":
                gens.append({1: ((), 1)})  # d_y
            else:
                gens.extend({i: ((), 1)} for i in range(n))  # translations
                for i in range(n):
                    for j in range(i + 1, n):
                        if params is None:
                            gens.append(None)
                            continue
                        signs, squares, _ = params
                        # X^i = eps_j a_j^2 x_j, X^j = -eps_i a_i^2 x_i
                        gens.append({i: ((("x", j),), signs[j] * squares[j]),
                                     j: ((("x", i),), -signs[i] * squares[i])})
            for k in range(two_m // 2):
                a, b = odd[2 * k], odd[2 * k + 1]
                gens.append({a: ((("th", b),), 1)})
                gens.append({b: ((("th", a),), 1)})
                gens.append({a: ((("th", a),), -1), b: ((("th", b),), 1)})
        else:
            gens.extend({a: ((), 1)} for a in odd)  # odd translations
        return gens

    def field(self, chart, label, n, two_m, params, data):
        from supergeo.geometry import VectorField

        parity, coeffs, witness = data
        pool = chart.pool
        comps = [pool.zero()] * chart.dim
        gens = self._killing_generators(label, n, two_m, parity, params)
        # witness: x d_x (even) or x d_th1 (odd), never Killing
        terms = [(c, g) for c, g in zip(coeffs, gens)]
        terms.append((witness, {0 if parity == 0 else n: ((("x", 0),), 1)}))
        for c, gen in terms:
            if not c:
                continue
            for slot, (factors, scale) in gen.items():
                term = pool.scalar(c * scale)
                for kind, idx in factors:
                    name = (pool.even_names[idx] if kind == "x"
                            else chart.coordinate(idx))
                    term = term * pool.generator(name)
                comps[slot] = comps[slot] + term
        return VectorField(chart, comps, parity)

    # jobs

    def run(self, job):
        from supergeo.lie import KillingChecker, solve_killing

        if job.kind == "solve":
            label, n, two_m, degree, params = job.data
            g = self.metric(label, n, two_m, params)
            basis = solve_killing(g, degree)
            expected = CURVED_DIMS if label == "curved" else flat_killing_dims(n, two_m)
            return basis.dims == expected, basis.fields
        if job.kind == "batch":
            which, fields = job.data
            label, n, two_m, params, g = self.shared[which]
            checker = KillingChecker(g)
            ok = True
            outputs = []
            for data in fields:
                X = self.field(g.chart, label, n, two_m, params, data)
                report = checker.check(X, "all")
                ok = ok and report.agreement and report.passed == (data[2] == 0)
                outputs.append(X)
                outputs.append(str(report.passed))
            return ok, outputs
        raise ValueError(job.kind)


# -- workload: scenarios -----------------------------------------------------------


def fmt(q) -> str:
    """A rational in scenario syntax."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def signed(q) -> str:
    """Rational with explicit sign, for joining terms: '+ 3/2' or '- 1/2'."""
    q = Fraction(q)
    return f"+ {fmt(q)}" if q >= 0 else f"- {fmt(-q)}"


def _pythagorean(rng):
    while True:
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if m > n:
            r = m * m + n * n
            c, s = Fraction(m * m - n * n, r), Fraction(2 * m * n, r)
            if rng.random() < 0.5:
                c, s = s, c
            return c, s * rng.choice((1, -1))


def template_flat_killing(rng):
    """Scaled flat (0,2|2) metric: Killing checks with known verdicts, the
    solver's dimensions, the identity map's tension, action and stress."""
    signs = (rng.choice((1, -1)), rng.choice((1, -1)))
    sq = (rand_square(rng), rand_square(rng))
    c = rand_square(rng)
    t = rand_fraction(rng)
    with_dilation = rng.random() < 0.5
    gxx, gyy = signs[0] * sq[0], signs[1] * sq[1]
    lines = [
        "# scaled flat (0,2|2) metric",
        "[chart]", "even = x y", "odd = th1 th2", "flesh = 0",
        "box x = 0 1", "box y = 0 1", "",
        "[metric g]", f"x,x = {fmt(gxx)}", f"y,y = {fmt(gyy)}", f"th1,th2 = {fmt(-c)}", "",
        "[vectorfield T]", f"x = {fmt(t)}", "",
        "[vectorfield R]", f"x = {fmt(-gyy)} y", f"y = {fmt(gxx)} x", "",
        "[vectorfield D]", f"x = {fmt(t)} x", "",
        "[vectorfield S]", "parity = odd", f"th1 = {fmt(t)}", "",
        "[morphism ID]", "source_metric = g", "target_metric = g",
        "x = x", "y = y", "th1 = th1", "th2 = th2", "",
        "[run]",
    ]
    commands = [
        ("validate-metric g", "pass",
         {"signature": f"({signs.count(-1)}, {signs.count(1)}, 2)"}),
        ("check-killing T g --mode all", "pass", {"agreement": "true"}),
        ("check-killing R g --mode all", "pass", {"agreement": "true"}),
        ("check-killing S g --mode all", "pass", {"agreement": "true"}),
    ]
    if with_dilation:
        commands.append(("check-killing D g --mode all", "fail",
                         {"mode_i": "fail", "mode_ii": "fail", "mode_v": "fail",
                          "agreement": "true"}))
    even, odd = flat_killing_dims(2, 2)
    commands += [
        ("solve-killing g --degree 1", "pass",
         {"even_dim": str(even), "odd_dim": str(odd)}),
        ("tension ID", "pass", {"superharmonic": "true"}),
        # constant volume density: no odd top coefficient survives
        ("action ID", "pass", {"value": "0"}),
        ("check-noether stress ID R", "pass",
         {"lemma_residual": "0", "current_identity_residual": "0", "conserved_div": "0"}),
    ]
    return lines, commands, 1 if with_dilation else 0


def template_noether_flesh(rng, flesh_top):
    """Map with flesh from a deformed (0,1|2) chart.  With ``flesh_top`` the
    map carries th1*lam1 and th2*lam2 in u and the source metric a th1*th2
    deformation, so the action's top coefficient holds lam1*lam2 and the
    action must fail with FleshInTopCoefficient."""
    sx = rng.choice((1, -1))
    a2 = rand_square(rng)
    k = rand_fraction(rng)
    c = rand_square(rng)
    b2 = rand_square(rng)
    d = rand_square(rng)
    p = rand_fraction(rng)
    q = rand_fraction(rng)
    r = rand_fraction(rng)
    u = f"{fmt(p)} x {signed(q)} th1 lam1"
    if flesh_top:
        u += f" {signed(rand_fraction(rng))} th2 lam2"
    lines = [
        "# map with flesh from a deformed (0,1|2) chart",
        "[chart]", "even = x", "odd = th1 th2", "flesh = 2", "box x = 0 1", "",
        "[target]", "even = u", "odd = e1 e2", "flesh = 0", "box u = -10 10", "",
        "[metric h]", f"x,x = {fmt(sx * a2)} {signed(k)} th1*th2", f"th1,th2 = {fmt(-c)}", "",
        "[metric g]", "chart = target", f"u,u = {fmt(b2)}", f"e1,e2 = {fmt(-d)}", "",
        "[vectorfield XI]", "chart = target", "u = 1", "",
        "[vectorfield ETA]", "chart = target", "parity = odd", "e1 = 1", "",
        "[vectorfield RHO]", "x = x", "",
        "[morphism PHI]", "source_metric = h", "target_metric = g",
        f"u = {u}", f"e1 = lam1 {signed(r)} x th1", "e2 = th2 + lam2", "",
        "[run]",
    ]
    sig_h = f"({int(sx < 0)}, {int(sx > 0)}, 2)"
    commands = [
        ("validate-metric h", "pass", {"signature": sig_h}),
        ("validate-metric g", "pass", {"signature": "(0, 1, 2)"}),
        ("osp-frame h", "pass", {"signature": sig_h}),
        ("levi-civita h", "pass", {}),
        ("tension PHI", "pass", {}),
        ("check-noether target PHI XI", "pass",
         {"xi_killing": "true", "div_residual": "0", "lemma_ok": "true"}),
        ("check-noether target PHI ETA", "pass",
         {"xi_killing": "true", "div_residual": "0", "lemma_ok": "true"}),
        ("check-noether stress PHI RHO", "pass",
         {"lemma_residual": "0", "current_identity_residual": "0"}),
    ]
    if flesh_top:
        commands.append(("action PHI", "error",
                         {"error": "FleshInTopCoefficient: top odd-coordinate "
                                   "coefficient contains flesh generators"}))
        return lines, commands, 3
    commands.append(("action PHI", "pass", {}))
    return lines, commands, 0


def template_domain_symmetry(rng):
    """A rigid motion between scaled flat planes: domain Noether theorem for
    the rotation field (pass) and the Euler field (fail); action = a2 * area;
    three Killing fields."""
    a2 = rand_square(rng)
    cs, sn = _pythagorean(rng)
    s1, s2 = Fraction(rng.randint(-2, 2), 4), Fraction(rng.randint(-2, 2), 4)
    lines = [
        "# rigid motion between scaled flat planes",
        "[chart]", "even = x y", "odd =", "flesh = 0", "box x = 0 1", "box y = 0 1", "",
        "[target]", "even = u v", "flesh = 0", "box u = -2 2", "box v = -2 2", "",
        "[metric h]", f"x,x = {fmt(a2)}", f"y,y = {fmt(a2)}", "",
        "[metric g]", "chart = target", f"u,u = {fmt(a2)}", f"v,v = {fmt(a2)}", "",
        "[vectorfield ROT]", "x = -y", "y = x", "",
        "[vectorfield EULER]", "x = x", "",
        "[morphism ISO]", "source_metric = h", "target_metric = g",
        f"u = {fmt(cs)} x {signed(-sn)} y {signed(s1)}",
        f"v = {fmt(sn)} x {signed(cs)} y {signed(s2)}", "",
        "[run]",
    ]
    commands = [
        ("lie-derivative ROT h", "pass", {"zero": "true"}),
        ("lie-derivative EULER h", "pass", {"zero": "false"}),
        ("check-noether domain ISO ROT", "pass",
         {"phi_killing": "true", "div_residual": "0", "superharmonic": "true"}),
        ("check-noether domain ISO EULER", "fail",
         {"phi_killing": "false", "superharmonic": "true"}),
        ("action ISO", "pass", {"value": fmt(a2)}),
        # translations and the rotation
        ("solve-killing h --degree 1", "pass", {"even_dim": "3", "odd_dim": "0"}),
    ]
    return lines, commands, 1


def template_curved(rng):
    """Scaled surface a2 (dx^2 + x^2 dy^2) plus a symplectic block: the
    connection has the three polar Christoffels, d_y is Killing and x d_x
    is not, and the Killing algebra has dimensions CURVED_DIMS."""
    a2 = rand_square(rng)
    c = rand_square(rng)
    t = rand_fraction(rng)
    lines = [
        "# scaled polar surface plus a symplectic block",
        "[chart]", "even = x y", "odd = th1 th2", "flesh = 0",
        "box x = 1 2", "box y = 0 1", "",
        "[metric h]", f"x,x = {fmt(a2)}", f"y,y = {fmt(a2)} x^2", f"th1,th2 = {fmt(-c)}", "",
        "[vectorfield K]", f"y = {fmt(t)}", "",
        "[vectorfield BAD]", f"x = {fmt(t)} x", "",
        "[run]",
    ]
    commands = [
        ("validate-metric h", "pass", {"signature": "(0, 2, 2)"}),
        ("levi-civita h", "pass", {"nonzero": "3"}),
        ("osp-frame h", "pass", {"signature": "(0, 2, 2)"}),
        ("check-killing K h --mode all", "pass", {"agreement": "true"}),
        ("check-killing BAD h --mode all", "fail", {"agreement": "true"}),
        ("solve-killing h --degree 1", "pass",
         {"even_dim": str(CURVED_DIMS[0]), "odd_dim": str(CURVED_DIMS[1])}),
    ]
    return lines, commands, 1


TEMPLATES = {
    "flat_killing": template_flat_killing,
    "noether_flesh": lambda rng: template_noether_flesh(rng, flesh_top=False),
    "noether_flesh_top": lambda rng: template_noether_flesh(rng, flesh_top=True),
    "domain_symmetry": template_domain_symmetry,
    "curved": template_curved,
}


def parse_results(report: str):
    """The ``[results]`` section of a report as {index: {key: value}} and
    the exit code."""
    results = {}
    exit_code = None
    in_results = False
    for line in report.splitlines():
        if line == "[results]":
            in_results = True
            continue
        if not in_results or " = " not in line:
            continue
        key, value = line.split(" = ", 1)
        if key == "exit":
            exit_code = int(value)
            continue
        idx, _, name = key.partition(".")
        if idx.isdigit():
            results.setdefault(int(idx), {})[name] = value
    return results, exit_code


def check_report(report: str, commands, exit_code) -> bool:
    results, got_exit = parse_results(report)
    if got_exit != exit_code or len(results) != len(commands):
        return False
    for k, (command, status, expected) in enumerate(commands, start=1):
        entry = results.get(k, {})
        if entry.get("command") != command or entry.get("status") != status:
            return False
        if any(entry.get(key) != value for key, value in expected):
            return False
    return True


class Scenarios(Workload):
    """The CLI path: ``supergeo.cli.main(["run", file, "--report", out])``."""

    name = "scenarios"
    # Every generated scenario solves or integrates something, so apart from
    # the few tiny golden files all jobs are of one size class and the
    # median and the tail fall among them.
    schedule = ("flat_killing", "noether_flesh", "domain_symmetry", "noether_flesh_top",
                "curved", "flat_killing", "noether_flesh", "domain_symmetry",
                "noether_flesh_top")
    round_seconds = 3.5
    warmup_kinds = ("flat_killing", "noether_flesh", "noether_flesh_top",
                    "domain_symmetry", "curved")

    def setup(self):
        import supergeo.cli  # noqa: F401  (part of set-up: the CLI import)

        data = self.root / "tests" / "data"
        self.goldens = [
            (p.name, p.read_text(encoding="utf-8"),
             p.with_suffix(".report.txt").read_text(encoding="utf-8"))
            for p in sorted(data.glob("*.scn"))
        ]
        if not self.goldens:
            raise FileNotFoundError(f"no golden scenarios under {data}")
        self.workdir = self.root / ".perfbench_out" / f"scenarios-{self.seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)

    def jobs(self):
        """The golden scenarios as a first round, then generated ones."""
        for k, (name, text, report) in enumerate(self.goldens):
            yield Job("golden", (name, text, report)), k == len(self.goldens) - 1
        yield from super().jobs()

    def prepare(self, job):
        name, text, _ = job.data
        (self.workdir / name).write_text(text, encoding="utf-8")

    def make(self, kind, rng, index):
        lines, commands, exit_code = TEMPLATES[kind](rng)
        text = "\n".join(lines + [c for c, _, _ in commands]) + "\n"
        expected = tuple((c, status, tuple(sorted(details.items())))
                         for c, status, details in commands)
        return Job(kind, (f"gen_{kind}.scn", text, (expected, exit_code)))

    def run(self, job):
        from supergeo.cli import main

        name, _, expected = job.data
        scn = self.workdir / name
        out = self.workdir / (name + ".report.txt")
        code = main(["run", str(scn), "--report", str(out)])
        report = out.read_text(encoding="utf-8")
        if job.kind == "golden":
            ok = report == expected and parse_results(expected)[1] == code
        else:
            commands, exit_code = expected
            ok = code == exit_code and check_report(report, commands, exit_code)
        return ok, [report]


WORKLOADS = {w.name: w for w in (Superalgebra, Killing, Scenarios)}
