"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All checks are exact (zero tolerance); timings guard the only budgeted one.
"""

import pathlib
import random
import time
from fractions import Fraction

import pytest
import sympy as sp

from supergeo import Chart, GeneratorPool
from supergeo.errors import NotASquare, ParseError
from supergeo.geometry import (
    BilinearForm,
    VectorField,
    connection_residuals,
    flat_metric,
    levi_civita,
)
from supergeo.integration import action
from supergeo.lie import KillingChecker, solve_killing
from supergeo.morphisms import FieldAlongMorphism, HarmonicSetup, Morphism
from supergeo.parsing import parse_expression
from supergeo.scenario import run_scenario
from supergeo.supermatrix import SuperMatrix, gram_schmidt_osp, pair_columns, standard_metric

from conftest import random_field, random_matrix, random_superfunction, seeded

DATA = pathlib.Path(__file__).parent / "data"

x, y = sp.symbols("x y")


def _report(num, ok, text):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


# -- 1. Killing equivalence ----------------------------------------------------


def _acceptance_metrics():
    flat = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
    curved = Chart(["x", "y"], [], box={"x": (1, 2), "y": (1, 2)})
    deformed = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)})
    xs = curved.pool.even("x")
    bump = deformed.pool.one() + deformed.pool.odd("th1") * deformed.pool.odd("th2")
    return [
        flat_metric(flat),
        BilinearForm(curved, [[1, 0], [0, xs * xs]]),
        BilinearForm(deformed, [[bump, 0, 0], [0, 0, -1], [0, 1, 0]]),
    ]


def test_criterion_1_killing_mode_agreement():
    start = time.perf_counter()
    rng = seeded(1001)
    metrics = _acceptance_metrics()
    total = 0
    agreements = 0
    verdicts = set()
    for g in metrics:
        checker = KillingChecker(g)
        fields = [
            random_field(g.chart, rng, rng.randint(0, 1), max_degree=2)
            for _ in range(18)
        ]
        # seed in the known symmetries as well so both verdicts occur
        fields.append(g.chart.coordinate_field(0))
        if g.chart.n >= 2:
            p = g.chart.pool
            fields.append(VectorField(g.chart, [-p.even("y"), p.even("x")] +
                                      [p.zero()] * (g.chart.dim - 2), 0))
        for X in fields:
            rep = checker.check(X, "all")
            total += 1
            agreements += rep.agreement
            verdicts.add(rep.passed)
    elapsed = time.perf_counter() - start
    ok = total >= 50 and agreements == total and verdicts == {True, False} and elapsed < 60
    _report(
        1,
        ok,
        f"modes (i),(ii),(v) agree on {agreements}/{total} fields over "
        f"{len(metrics)} metrics in {elapsed:.1f}s",
    )


# -- 2. Killing solver dimensions ----------------------------------------------


def test_criterion_2_solver_dimensions():
    plane = Chart(["x", "y"], [], box={"x": (0, 1), "y": (0, 1)})
    odd2 = Chart([], ["th1", "th2"], box={})
    flat22 = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
    expected = [(3, 0), (3, 2), (6, 6)]
    ok = True
    notes = []
    for chart, want in zip((plane, odd2, flat22), expected):
        g = flat_metric(chart)
        basis = solve_killing(g, 1)
        checker = KillingChecker(g)
        dims_ok = basis.dims == want
        mode_ok = all(checker.check(X, "i").passed for X in basis.fields)
        bracket_ok = all(
            checker.check(X.bracket(Y), "i").passed
            for X in basis.fields
            for Y in basis.fields
        )
        ok = ok and dims_ok and mode_ok and bracket_ok
        notes.append(f"{basis.dims}")
    _report(2, ok, f"degree-1 Killing dims {notes} with mode-(i) and bracket closure")


# -- 3. Levi-Civita certificate -------------------------------------------------


def test_criterion_3_levi_civita_certificates():
    ok = True
    for g in _acceptance_metrics():
        conn = levi_civita(g)
        torsion, metricity = connection_residuals(g, conn)
        ok = ok and torsion.passed and metricity.passed
    curved = _acceptance_metrics()[1]
    conn = levi_civita(curved)
    pool = curved.chart.pool
    ok = ok and conn.gamma[1][1][0] == pool.scalar(-x)
    ok = ok and conn.gamma[0][1][1] == pool.scalar(1 / x)
    _report(3, ok, "torsion and metricity residuals vanish; classical "
                   "Gamma^x_yy=-x, Gamma^y_xy=1/x reproduced")


# -- 4. Noether residual suite ---------------------------------------------------


def _corpus(rng):
    """>= 25 morphisms spanning classical, purely odd and flesh-bearing cases."""
    setups = []

    # classical (m = 0, L = 0)
    line = Chart(["x"], [], box={"x": (0, 1)})
    line_t = Chart(["y"], [], box={"y": (-10, 10)})
    lp = line.pool
    for img in [lp.even("x"), lp.even("x") ** 2, lp.even("x") * 3 + 1,
                lp.even("x") * 2 - lp.even("x") ** 2]:
        phi = Morphism(line, line_t, {"y": img})
        setups.append(HarmonicSetup(phi, flat_metric(line), flat_metric(line_t)))
    plane = Chart(["x", "y"], [], box={"x": (0, 1), "y": (0, 1)})
    plane_t = Chart(["u", "v"], [], box={"u": (-10, 10), "v": (-10, 10)})
    pp = plane.pool
    for images in [
        {"u": pp.even("x"), "v": pp.even("y")},
        {"u": pp.even("x") * Fraction(3, 5) - pp.even("y") * Fraction(4, 5),
         "v": pp.even("x") * Fraction(4, 5) + pp.even("y") * Fraction(3, 5)},
        {"u": pp.even("x") + pp.even("y") ** 2, "v": pp.even("y")},
    ]:
        phi = Morphism(plane, plane_t, images)
        setups.append(HarmonicSetup(phi, flat_metric(plane), flat_metric(plane_t)))

    # purely odd
    odd2 = Chart([], ["th1", "th2"], box={})
    odd2_t = Chart([], ["e1", "e2"], box={})
    op = odd2.pool
    for images in [
        {"e1": op.odd("th1"), "e2": op.odd("th2")},
        {"e1": op.odd("th1") + op.odd("th2"), "e2": op.odd("th2")},
        {"e1": op.odd("th2") * 2, "e2": op.odd("th1") * -1},
        {"e1": op.odd("th1") * 3, "e2": op.odd("th1") + op.odd("th2") * 2},
    ]:
        phi = Morphism(odd2, odd2_t, images)
        setups.append(HarmonicSetup(phi, flat_metric(odd2), flat_metric(odd2_t)))

    # flesh-bearing mixed charts
    src = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)}, flesh=("lam1", "lam2"))
    tgt = Chart(["u"], ["e1", "e2"], box={"u": (-100, 100)})
    p = src.pool
    for _ in range(10):
        images = {
            "u": p.even("x")
            + random_superfunction(p, rng, 0, 1, coeff_range=1) * p.odd("th1") * p.odd("th2")
            + random_superfunction(p, rng, 0, 1, coeff_range=1) * p.odd("th1") * p.odd("lam1"),
            "e1": random_superfunction(p, rng, 1, 1, coeff_range=1),
            "e2": random_superfunction(p, rng, 1, 1, coeff_range=1),
        }
        phi = Morphism(src, tgt, images)
        setups.append(HarmonicSetup(phi, flat_metric(src), flat_metric(tgt)))

    # a deformed source metric under the same kind of map
    bump = p.one() + p.odd("th1") * p.odd("th2")
    h_def = BilinearForm(src, [[bump, 0, 0], [0, 0, -1], [0, 1, 0]])
    for _ in range(4):
        images = {
            "u": p.even("x") + random_superfunction(p, rng, 0, 1, coeff_range=1)
            * p.odd("th1") * p.odd("lam2"),
            "e1": random_superfunction(p, rng, 1, 1, coeff_range=1),
            "e2": random_superfunction(p, rng, 1, 1, coeff_range=1),
        }
        phi = Morphism(src, tgt, images)
        setups.append(HarmonicSetup(phi, h_def, flat_metric(tgt)))

    return setups


def _random_fam(phi, rng, parity):
    comps = [
        random_superfunction(
            phi.source.pool, rng, (parity + phi.target.parity(a)) % 2, 1,
            coeff_range=1,
        )
        for a in range(phi.target.dim)
    ]
    return FieldAlongMorphism(phi, comps, parity)


def test_criterion_4_noether_residual_suite():
    rng = seeded(1004)
    setups = _corpus(rng)
    assert len(setups) >= 25
    ok = True

    for setup in setups:
        for parity in (0, 1):
            xi = _random_fam(setup.phi, rng, parity)
            ok = ok and setup.div_identity_residual(xi).is_zero()
            eta = random_field(setup.phi.source, rng, parity, max_degree=1)
            rep = setup.stress_energy_report(eta)
            ok = ok and rep.lemma.passed and rep.current.passed

    # target-space Noether theorem on every corpus element with a flat target
    for setup in setups:
        tgt = setup.phi.target
        for a in range(tgt.dim):
            xi = tgt.coordinate_field(a)  # translations are Killing for g0
            rep = setup.check_noether_target(xi)
            ok = ok and rep.precondition.passed and rep.divergence.passed
            ok = ok and rep.lemma.passed
            if rep.tension_is_zero:
                ok = ok and rep.current.passed

    # domain-space Noether theorem on isometries
    plane = Chart(["x", "y"], [], box={"x": (0, 1), "y": (0, 1)})
    pp = plane.pool
    iso = Morphism(
        plane,
        Chart(["u", "v"], [], box={"u": (-10, 10), "v": (-10, 10)}),
        {"u": pp.even("x") * Fraction(3, 5) - pp.even("y") * Fraction(4, 5),
         "v": pp.even("x") * Fraction(4, 5) + pp.even("y") * Fraction(3, 5)},
    )
    iso_setup = HarmonicSetup(iso, flat_metric(plane), flat_metric(iso.target))
    rot = VectorField(plane, [-pp.even("y"), pp.even("x")], 0)
    for xi in [plane.coordinate_field(0), plane.coordinate_field(1), rot]:
        rep = iso_setup.check_noether_domain(xi)
        ok = ok and rep.passed and rep.current.passed

    # conserved stress current: Killing xi + superharmonic Phi
    flat22 = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
    idsetup = HarmonicSetup(Morphism.identity(flat22), flat_metric(flat22),
                            flat_metric(flat22))
    rot22 = VectorField(
        flat22, [-flat22.pool.even("y"), flat22.pool.even("x"),
                 flat22.pool.zero(), flat22.pool.zero()], 0
    )
    rep = idsetup.stress_energy_report(rot22)
    ok = ok and rep.conserved is not None
    ok = ok and rep.conserved.passed

    # sensitivity: deliberately broken inputs must leave nonzero residuals
    broken = 0
    square = next(
        s for s in setups
        if s.phi.source.dim == 1 and not s.is_superharmonic()
    )
    bad_target = VectorField(square.phi.target,
                             [square.phi.target.pool.even("y")], 0)
    rep = square.check_noether_target(bad_target)
    broken += (not rep.precondition.passed) and (not rep.divergence.passed)

    killing_target = VectorField(square.phi.target,
                                 [square.phi.target.pool.one()], 0)
    pulled = square.phi.pull_target_field(killing_target)
    w_div = square.source_divergence(square.noether_current(pulled))
    broken += not w_div.is_zero()  # non-harmonic Phi breaks the W-current

    euler = VectorField(flat22, [flat22.pool.even("x")] + [flat22.pool.zero()] * 3, 0)
    rep = idsetup.check_noether_domain(euler)
    broken += (not rep.precondition.passed) and (not rep.divergence.passed)

    line = Chart(["x"], [], box={"x": (0, 1)})
    lsetup = HarmonicSetup(Morphism.identity(line), flat_metric(line),
                           flat_metric(line))
    S = lsetup.stress_energy()
    xi_bad = VectorField(line, [line.pool.even("x")], 0)
    Y = line.zero_field(0)
    for i in range(line.dim):
        coeff = S.evaluate(xi_bad, lsetup.frame.fields[i])
        w, t = lsetup.frame.inverse_pairing[i]  # f^i = f_t w
        Y = Y + lsetup.frame.fields[t].scale(coeff * w)
    broken += not lsetup.source_divergence(Y).is_zero()

    ok = ok and broken >= 3
    _report(
        4,
        ok,
        f"all residual identities vanish on {len(setups)} morphisms; "
        f"{broken} broken inputs detected with nonzero residuals",
    )


# -- 5. Superlinear algebra -------------------------------------------------------


def test_criterion_5_superlinear_algebra():
    pool = GeneratorPool(["x"], ["th1", "th2"])
    rng = seeded(1005)
    ok = True

    for _ in range(200):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        A = random_matrix(pool, 1, 2, pa, rng)
        B = random_matrix(pool, 1, 2, pb, rng)
        sign = -1 if pa * pb else 1
        ok = ok and (A * B - (B * A) * pool.scalar(sign)).supertrace().is_zero()

    pairs = 0
    while pairs < 100:
        M = random_matrix(pool, 2, 2, 0, rng)
        N = random_matrix(pool, 2, 2, 0, rng)
        bm = sp.Matrix(4, 4, lambda i, j: M.entries[i][j].body())
        bn = sp.Matrix(4, 4, lambda i, j: N.entries[i][j].body())
        if sp.cancel(bm.det()) == 0 or sp.cancel(bn.det()) == 0:
            continue
        pairs += 1
        ok = ok and ((M * N).berezinian() - M.berezinian() * N.berezinian()).is_zero()

    frames = 0
    while frames < 20:
        B = _random_admissible(pool, rng)
        if B is None:
            continue
        try:
            E, (t, s, m) = gram_schmidt_osp(B)
        except NotASquare:
            continue
        frames += 1
        g0 = standard_metric(pool, t, s, m)
        cols = [[E.entries[r][j] for r in range(4)] for j in range(4)]
        for i in range(4):
            for j in range(4):
                pi = 0 if i < t + s else 1
                pj = 0 if j < t + s else 1
                got = pair_columns(B, cols[i], cols[j], pi, pj)
                ok = ok and (got - g0.entries[i][j]).is_zero()

    _report(5, ok, "200 supercommutator traces vanish, 100 Berezinians "
                   "multiplicative, 20 Gram-Schmidt frames hit g0 exactly")


def _random_admissible(pool, rng):
    rows = [[pool.zero()] * 4 for _ in range(4)]
    for i in range(2):
        d = rng.choice([1, 4, 9]) * rng.choice([1, -1])
        rows[i][i] = pool.scalar(d) + random_superfunction(pool, rng, 0, 0, 1) * (
            pool.odd("th1") * pool.odd("th2")
        )
    nil = random_superfunction(pool, rng, 0, 0, 1) * pool.odd("th1") * pool.odd("th2")
    rows[0][1] = nil
    rows[1][0] = nil
    c = rng.choice([1, -1, 2])
    rows[2][3] = pool.scalar(-c)
    rows[3][2] = pool.scalar(c)
    for i in range(2):
        for j in range(2, 4):
            v = random_superfunction(pool, rng, 1, 0, 1)
            rows[i][j] = v
            rows[j][i] = v
    B = SuperMatrix(pool, 2, 2, rows, 0)
    body = sp.Matrix(4, 4, lambda i, j: B.entries[i][j].body())
    return B if sp.cancel(body.det()) != 0 else None


# -- 6. classical reduction --------------------------------------------------------


def test_criterion_6_classical_reduction():
    ok = True
    # tension of phi(y) = x^2 between flat lines is 2
    line = Chart(["x"], [], box={"x": (0, 1)})
    line_t = Chart(["y"], [], box={"y": (0, 1)})
    sq = HarmonicSetup(
        Morphism(line, line_t, {"y": line.pool.even("x") ** 2}),
        flat_metric(line), flat_metric(line_t),
    )
    ok = ok and sq.tension().components[0] == line.pool.scalar(2)
    ok = ok and sq.pullback_metric().components[0][0] == line.pool.scalar(4 * x**2)

    # divergence of the Euler field
    from supergeo.geometry import divergence

    conn1 = levi_civita(flat_metric(line))
    ok = ok and divergence(VectorField(line, [line.pool.even("x")], 0), conn1) == line.pool.one()

    # classical Lie derivative values
    from supergeo.lie import lie_derivative_bilinear

    plane = Chart(["x", "y"], [], box={"x": (0, 1), "y": (0, 1)})
    gp = flat_metric(plane)
    euler = VectorField(plane, [plane.pool.even("x"), 0], 0)
    table = lie_derivative_bilinear(euler, gp)
    ok = ok and table.components[0][0] == plane.pool.scalar(2)
    rot = VectorField(plane, [-plane.pool.even("y"), plane.pool.even("x")], 0)
    ok = ok and lie_derivative_bilinear(rot, gp).is_zero()

    # identity-map energy is n/2
    for n in (1, 2, 3):
        ch = Chart([f"x{i}" for i in range(n)], [],
                   box={f"x{i}": (0, 1) for i in range(n)})
        setup = HarmonicSetup(Morphism.identity(ch), flat_metric(ch), flat_metric(ch))
        ok = ok and setup.energy_density() == ch.pool.scalar(sp.Rational(n, 2))

    _report(6, ok, "m=0, L=0 reductions match hand-computed classical values")


# -- 7. action values ---------------------------------------------------------------


def test_criterion_7_action_values():
    plane = Chart(["x", "y"], [], box={"x": (0, 1), "y": (0, 1)})
    a1 = action(HarmonicSetup(Morphism.identity(plane), flat_metric(plane),
                              flat_metric(plane)))
    flat22 = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
    a2 = action(HarmonicSetup(Morphism.identity(flat22), flat_metric(flat22),
                              flat_metric(flat22)))
    ok = a1 == Fraction(1) and a2 == Fraction(0)
    _report(7, ok, f"A(identity) = {a1} on (0,2|0) and {a2} on (0,2|2)")


# -- 8. CLI golden reports + fuzz ----------------------------------------------------


def test_criterion_8_cli_golden_and_fuzz():
    golden = {
        "flat_killing": 0,
        "curved_levi_civita": 1,
        "noether_flesh": 0,
        "domain_symmetry": 1,
        "degenerate": 1,
        "parse_error": 2,
        "math_error": 3,
    }
    ok = True
    for name, code in golden.items():
        text = (DATA / f"{name}.scn").read_text()
        report = run_scenario(text, name=f"{name}.scn", seed=0)
        expected = (DATA / f"{name}.report.txt").read_text()
        ok = ok and report.render() == expected and report.exit_code == code

    pool = GeneratorPool(["x", "y"], ["th1", "th2"], ["lam1"])
    rng = random.Random(1008)
    alphabet = "xyth12lam+-*/^() \t\n_#@.[]%&~?!\"'\\<>=;:ZQ"
    crashes = 0
    n_inputs = 100_000
    for k in range(n_inputs):
        n = rng.randint(0, 28)
        if k % 4:  # mostly near-grammar strings, plus raw bytes for coverage
            text = "".join(rng.choice(alphabet) for _ in range(n))
        else:
            text = "".join(chr(rng.randint(0, 255)) for _ in range(n))
        try:
            parse_expression(text, pool)
        except ParseError:
            pass
        except Exception:
            crashes += 1
    ok = ok and crashes == 0
    _report(8, ok, f"{len(golden)} golden reports byte-identical; "
                   f"{n_inputs} fuzz inputs, {crashes} crashes")
