"""Scaling points of the engine, layer by layer, each timed and checked.

``python bench/points.py`` runs every point at every size of its series and
prints one line per point, the median wall time of its runs; it exits 1 if a
result is wrong, never on time.  ``python bench/points.py paired DIR`` sums up
the ``perfbench/run.py`` outputs a paired loop left as DIR/<workload>-<side>-<seed>.json.
"""

import itertools
import json
import math
import pathlib
import random
import statistics
import sys
import tempfile
import time

from supergeo import BilinearForm, Chart, GeneratorPool, KillingChecker, SuperMatrix, zpoly
from supergeo import flat_metric, solve_killing
from supergeo.cli import main as cli_main


def point(label, fn, check, runs=3, prepare=tuple):
    """Time ``runs`` calls ``fn(*prepare())``, ``prepare`` untimed, and print
    the median; True if ``check`` passes on the last result."""
    times = []
    for _ in range(runs):
        args = prepare()
        start = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - start)
    good = bool(check(out))
    print(f"{label}: {statistics.median(times) * 1e3:.2f} ms, median of {runs}"
          + ("" if good else ", WRONG RESULT"), flush=True)
    return good


def metric(n, two_m, xx=None):
    """The flat metric on (n|two_m), evens x, y, z over the unit box, or
    with x,x = xx(pool)."""
    evens = list("xyz"[:n])
    g = flat_metric(Chart(evens, [f"th{i}" for i in range(1, two_m + 1)],
                          box={v: (0, 1) for v in evens}))
    if xx is None:
        return g
    rows = [list(row) for row in g.components]
    rows[0][0] = xx(g.chart.pool)
    return BilinearForm(g.chart, rows)


def dense(pool, rows, cols, parity, rng, diagonal=0):
    """Entries with every odd monomial of the given parity, coefficients +-1
    or +-2 times 1 or an even generator, plus ``diagonal`` on the diagonal."""
    odd = [pool.odd(n) for n in pool.odd_names]
    evens = [pool.one()] + [pool.even(n) for n in pool.even_names]

    def entry(i, j):
        out = pool.scalar(diagonal) if i == j else pool.zero()
        for size in range(parity, len(odd) + 1, 2):
            for mono in itertools.combinations(odd, size):
                out = out + math.prod(mono, start=rng.choice((-2, -1, 1, 2)) * rng.choice(evens))
        return out

    return [[entry(i, j) for j in range(cols)] for i in range(rows)]


def parts(pool, rng):
    """The even and the odd part of a dense superfunction."""
    return dense(pool, 1, 1, 0, rng)[0][0], dense(pool, 1, 1, 1, rng)[0][0]


def solves(size):
    """A flat solve, of dimensions n + n(n-1)/2 + m(2m+1) | 2m + 2mn, or the
    deformed (2|8) one, x,x = 1 + th1 th2 + y^2, of dimensions 25|6."""
    n, two_m, degree, label = size
    m, xx = two_m // 2, None
    want = (n + n * (n - 1) // 2 + m * (2 * m + 1), 2 * m + 2 * m * n)
    if label == "deformed":
        want, xx = (25, 6), lambda p: 1 + p.odd("th1") * p.odd("th2") + p.even("y") ** 2
    g = metric(n, two_m, xx)
    yield (f"solve_killing {label} ({n}|{two_m}) degree {degree}, {want[0]}|{want[1]}",
           lambda: solve_killing(g, degree).dims, lambda dims: dims == want, 1)


def modes(two_m):
    """Killing modes i, ii and v on d_y over a fresh (2|two_m) metric, flat,
    with x,x = 1 + th1 th2 and with x,x = 2 + x (a pivot that is no square),
    on the first call (which builds the connection and frame) and warm; the
    modes must pass and agree."""
    def all_modes(g):
        report = KillingChecker(g).check(g.chart.coordinate_field(1), "all")
        return report.passed and report.agreement

    def fresh(xx, warm):
        g = metric(2, two_m, xx)
        if warm:
            all_modes(g)
        return (g,)

    for label, xx in (("flat", None), ("x,x = 1 + th1 th2", lambda p: 1 + p.odd("th1") * p.odd("th2")),
                      ("x,x = 2 + x", lambda p: 2 + p.even("x"))):
        for when in ("first call", "warm"):
            yield (f"Killing modes i, ii, v on d_y, (2|{two_m}) {label}, {when}", all_modes, bool, 5,
                   lambda xx=xx, warm=when == "warm": fresh(xx, warm))


def products(q):
    """f g = g0 f0 + g1 f0 + g0 f1 - g1 f1 for dense f and g on (2|q)."""
    pool = GeneratorPool(["x", "y"], [f"th{i}" for i in range(1, q + 1)])
    rng = random.Random(5)
    (f0, f1), (g0, g1) = parts(pool, rng), parts(pool, rng)
    yield (f"product (2|{q})", lambda: (f0 + f1) * (g0 + g1),
           lambda fg: fg == g0 * f0 + g1 * f0 + g0 * f1 - g1 * f1)


def det(rows):
    """The determinant of a block of even entries, by elimination."""
    rows, out = [list(r) for r in rows], rows[0][0].pool.one()
    for k in range(len(rows)):
        out, inv = out * rows[k][k], rows[k][k].invert()
        for i in range(k + 1, len(rows)):
            c = rows[i][k] * inv
            rows[i] = [a - c * b for a, b in zip(rows[i], rows[k])]
    return out


def blocks(pool, a, b, c, d):
    """The even supermatrix of the blocks a, b (top) and c, d (bottom)."""
    return SuperMatrix(pool, len(a), len(d), [r + s for r, s in [*zip(a, b), *zip(c, d)]])


def berezinians(q):
    """Ber M = det A / det D for M = L diag(A, D) U, with L and U unit
    block-triangular and dense off the diagonal."""
    pool = GeneratorPool(["x"], [f"th{i}" for i in range(1, q + 1)])
    rng = random.Random(7)
    A, D = dense(pool, 2, 2, 0, rng, 7), dense(pool, q, q, 0, rng, 7)
    I2, Iq = (SuperMatrix.identity(pool, k, 0).entries for k in (2, q))
    top, bottom = [[pool.zero()] * q] * 2, [[pool.zero()] * 2] * q
    L = blocks(pool, I2, top, dense(pool, q, 2, 1, rng), Iq)
    U = blocks(pool, I2, dense(pool, 2, q, 1, rng), bottom, Iq)
    M = L * blocks(pool, A, top, bottom, D) * U
    want = det(A) / det(D)
    yield f"berezinian (2|{q})", M.berezinian, lambda ber: ber == want


def matrices(q):
    """A dense (2|q) inverse, by M M^-1 = 1; a product, by Ber(M N) =
    Ber(M) Ber(N); and M M^-1, whose entries are rational in x."""
    pool = GeneratorPool(["x"], [f"th{i}" for i in range(1, q + 1)])
    rng = random.Random(8)
    M, N = (blocks(pool, dense(pool, 2, 2, 0, rng, 7), dense(pool, 2, q, 1, rng),
                   dense(pool, q, 2, 1, rng), dense(pool, q, q, 0, rng, 7)) for _ in "MN")
    one, M_inv = SuperMatrix.identity(pool, 2, q), M.inverse()
    yield f"inverse (2|{q})", M.inverse, lambda inv: M * inv == one
    yield (f"matrix product (2|{q})", lambda: M * N,
           lambda MN: MN.berezinian() == M.berezinian() * N.berezinian())
    yield f"matrix product with rational entries (2|{q})", lambda: M * M_inv, lambda P: P == one


def quotients(q):
    """(f / g) g = f and (g / h)(h / g) = 1 on 6 dense draws over (2|q) and
    two flesh generators, g even, h = body(g^2) + th1 eta1 body(f)."""
    pool = GeneratorPool(["x", "y"], [f"th{i}" for i in range(1, q + 1)], ["eta1", "eta2"])
    rng = random.Random(171)
    fs = [sum(parts(pool, rng), pool.zero()) for _ in range(6)]
    gs = [dense(pool, 1, 1, 0, rng, 7)[0][0] for _ in fs]
    hs = [(g * g).body_part() + pool.odd("th1") * pool.odd("eta1") * f.body_part()
          for f, g in zip(fs, gs)]
    yield (f"cancelling quotients (2|{q})+2 flesh",
           lambda: [((f / g) * g, (g / h) * (h / g)) for f, g, h in zip(fs, gs, hs)],
           lambda out: all(a == f and b == pool.one() for (a, b), f in zip(out, fs)))


def pullbacks(count):
    """sub(f g) = sub(f) sub(g) on consecutive dense targets, along a
    rational even image with a nilpotent part."""
    pool, tpool = GeneratorPool(["x"], ["th1", "th2"], ["lam1"]), GeneratorPool(["u"], ["e1", "e2"])
    x, th1, th2, lam1 = map(pool.generator, ("x", "th1", "th2", "lam1"))
    images = {"u": (2 * x + th1 * lam1) / (x + 1), "e1": th1, "e2": th2 + x * lam1}
    rng = random.Random(9)
    fs = [sum(parts(tpool, rng), tpool.zero()) for _ in range(count)]
    yield (f"rational-image pullbacks (1|2)+1 flesh, {count} targets",
           lambda: [f.substitute(images, pool) for f in fs],
           lambda out: all((f * g).substitute(images, pool) == a * b
                           for f, g, a, b in zip(fs, fs[1:], out, out[1:])))


def commutators(count):
    """The superalgebra workload's median job kind: the supertrace of the
    graded commutator of two (1|2) matrices whose entries hold terms c x^d
    th^m, c in +-1, +-2, d <= 1, each odd monomial m with probability 0.6,
    lifted as pool.scalar(c * x**d); it must vanish."""
    pool = GeneratorPool(["x"], ["th1", "th2"])
    xs, th = pool.even_symbol("x"), [pool.odd(n) for n in pool.odd_names]
    rng = random.Random(10)

    def data(parity):
        return parity, [[[(m, rng.choice((-2, -1, 1, 2)), rng.randint(0, 1))
                          for m in ((), (0,), (1,), (0, 1))
                          if len(m) % 2 == (parity + (i > 0) + (j > 0)) % 2 and rng.random() < 0.6]
                         for j in range(3)] for i in range(3)]

    def entry(terms):
        return sum((math.prod((th[k] for k in m), start=pool.scalar(c * xs**d))
                    for m, c, d in terms), pool.zero())

    def supertrace(a, b):
        A, B = (SuperMatrix(pool, 1, 2, [list(map(entry, row)) for row in rows], parity)
                for parity, rows in (a, b))
        return (A * B - (B * A) * pool.scalar(-1 if A.parity * B.parity else 1)).supertrace()

    jobs = [(data(rng.randint(0, 1)), data(rng.randint(0, 1))) for _ in range(count)]
    yield (f"{count} supertrace commutators of monomial (1|2) matrices",
           lambda: [supertrace(a, b) for a, b in jobs], lambda out: all(s.is_zero() for s in out))


def boxes(fn):
    """``fn()`` and the number of boxes the sign kernel examined for it."""
    bernstein, seen = zpoly._bernstein, []
    zpoly._bernstein = lambda *args: seen.append(args) or bernstein(*args)
    try:
        return fn(), len(seen)
    finally:
        zpoly._bernstein = bernstein


def signs(runs):
    """The sign kernel, labelled with its boxes: the body determinant of a
    deformed (2|4) metric must be decided positive, and (3x - 1)^2 on [0, 1]
    undecided after the kernel's whole budget of boxes."""
    chart = Chart(["x", "y"], [f"th{i}" for i in range(1, 5)], box={"x": (0, 1), "y": (0, 1)})
    x, y, th1, th2, th3, th4 = map(chart.pool.generator, ["x", "y", "th1", "th2", "th3", "th4"])
    o = chart.pool.zero()
    det = BilinearForm(chart, [[2 + x * x + th1 * th2, x * y, o, o, o, o],
                               [x * y, 3 + y - x * th3 * th4, o, o, o, o],
                               [o, o, o, -(1 + x), o, th1 * th3], [o, o, 1 + x, o, o, o],
                               [o, o, o, o, o, -(2 + y * y)], [o, o, -th1 * th3, o, 2 + y * y, o]]
                       ).check_supermetric()
    box = tuple(chart.box.values())
    for label, fn, want in (
            ("sign of the deformed (2|4) body determinant", lambda: det.body_sign(box, True), (1, ())),
            ("sign of (3x - 1)^2 on [0, 1], undecided",
             lambda: zpoly.box_sign({2: 9, 1: -6, 0: 1}, [(0, 1)]), (0, ()))):
        n = boxes(fn)[1]
        yield (f"{label}, {n} boxes", fn,
               lambda out, want=want, n=n: out == want and (want[0] or n == zpoly.SIGN_BOXES), runs)


def rewrites(count):
    """``supergeo run`` of flat_killing.scn, each run over the report the one
    before wrote; the report's bytes must be the golden's."""
    scn = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "flat_killing.scn"
    golden = scn.with_suffix(".report.txt").read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "report.txt"
        out.write_bytes(golden)
        yield ("CLI report rewrite, flat_killing.scn",
               lambda: cli_main(["run", str(scn), "--report", str(out)]),
               lambda code: code == 0 and out.read_bytes() == golden, count)


# every series with its sizes, smallest first
SERIES = [
    (solves, [(2, 4, 2, "flat"), (2, 6, 1, "flat"), (2, 6, 2, "flat"), (3, 6, 1, "flat"),
              (2, 8, 1, "flat"), (2, 10, 1, "flat"), (3, 8, 1, "flat"), (2, 12, 1, "flat")]),
    (solves, [(2, 8, 1, "deformed")]),
    (modes, [4]),
    (products, [6, 8]),
    (berezinians, [4, 6]),
    (matrices, [4]),
    (quotients, [4]),
    (pullbacks, [30]),
    (commutators, [200]),
    (signs, [3]),
    (rewrites, [200]),
]


def paired(tmp):
    """Each side's medians of jobs_per_s, job_p50_s and job_tail_s per workload."""
    for workload in ("scenarios", "superalgebra"):
        print(f"paired {workload} runs (3 per side, seeds 101-103, --trace 0), medians:")
        for side in ("parent", "child"):
            runs = []
            for path in sorted(tmp.glob(f"{workload}-{side}-*.json")):
                try:
                    runs.append(json.loads(path.read_text())["metrics"])
                except (ValueError, KeyError):
                    continue
            if not runs:
                print(f"- {side}: no run finished")
                continue
            jobs, p50, tail = (statistics.median(r[name]["value"] for r in runs)
                               for name in ("jobs_per_s", "job_p50_s", "job_tail_s"))
            print(f"- {side}: jobs_per_s {jobs:.1f}, job_p50_s {p50 * 1e3:.2f} ms,"
                  f" job_tail_s {tail * 1e3:.2f} ms ({len(runs)} runs)")


def main(args):
    if args[:1] == ["paired"] and len(args) == 2:
        return paired(pathlib.Path(args[1]))
    if args:
        sys.exit("usage: python bench/points.py [paired DIR]")
    ok = True
    for series, sizes in SERIES:
        for size in sizes:
            for spec in series(size):
                ok = point(*spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
