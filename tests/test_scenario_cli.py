"""Scenario runner and CLI: golden reports, exit codes, determinism."""

import pathlib
import re
import subprocess
import sys

import pytest

from supergeo.cli import main as cli_main
from supergeo.scenario import load_scenario, run_scenario

DATA = pathlib.Path(__file__).parent / "data"


def _golden_exit_codes():
    """The exit code of each golden scenario ``tests/data/NAME.scn``, read
    from the last line of ``NAME.report.txt``, ``exit = N``, as the CI
    goldens step reads it."""
    codes = {}
    for scn in DATA.glob("*.scn"):
        last = (DATA / f"{scn.stem}.report.txt").read_text().splitlines()[-1]
        assert re.fullmatch(r"exit = [0-9]", last), f"{scn.stem}: last report line {last!r}"
        codes[scn.stem] = int(last[-1])
    return codes


GOLDEN = _golden_exit_codes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_bytes(name):
    text = (DATA / f"{name}.scn").read_text()
    report = run_scenario(text, name=f"{name}.scn", seed=0)
    expected = (DATA / f"{name}.report.txt").read_text()
    assert report.render() == expected
    assert report.exit_code == GOLDEN[name]


def test_goldens_build_no_expr(monkeypatch):
    """A scenario run never lifts a sympy Expr into the coefficient ring,
    never factors one and never turns a coefficient into one to print it:
    with those entry points disabled the 7 goldens still render byte for
    byte."""
    import sympy
    from sympy.polys.fields import FracElement, FracField
    from sympy.polys.rings import PolyElement, PolyRing

    def blocked(*args, **kwargs):
        raise AssertionError("a scenario run built a sympy Expr")

    monkeypatch.setattr(PolyRing, "from_expr", blocked)
    monkeypatch.setattr(FracField, "from_expr", blocked)
    monkeypatch.setattr(PolyElement, "as_expr", blocked)
    monkeypatch.setattr(FracElement, "as_expr", blocked)
    monkeypatch.setattr(sympy, "factor_list", blocked)
    monkeypatch.setattr(sympy, "fraction", blocked)
    for name in sorted(GOLDEN):
        report = run_scenario((DATA / f"{name}.scn").read_text(), name=f"{name}.scn")
        assert report.render() == (DATA / f"{name}.report.txt").read_text()


def test_goldens_multiply_no_constant_polynomials(monkeypatch):
    """Coefficients are plain ints in the numerator table: while the 7
    goldens run, nothing multiplies sympy polynomials at all, so no
    constant is ever multiplied as one."""
    from sympy.polys.rings import PolyElement

    original = PolyElement.__mul__
    products = []

    def counting(p1, p2):
        products.append(sys._getframe(1).f_globals.get("__name__", ""))
        return original(p1, p2)

    monkeypatch.setattr(PolyElement, "__mul__", counting)
    for name in sorted(GOLDEN):
        report = run_scenario((DATA / f"{name}.scn").read_text(), name=f"{name}.scn")
        assert report.render() == (DATA / f"{name}.report.txt").read_text()
    assert products == []


def test_goldens_take_each_derivative_once(monkeypatch):
    """While the 7 goldens run, no superfunction is differentiated twice by
    the same variable: ``partial`` keeps each derivative on the instance."""
    from supergeo import scalars

    original = scalars._derivative
    alive = []  # every differentiated superfunction, so no id is reused
    seen, repeats = set(), []

    def counting(f, name):
        key = (id(f), name)
        if key in seen:
            repeats.append(key)
        seen.add(key)
        alive.append(f)
        return original(f, name)

    monkeypatch.setattr(scalars, "_derivative", counting)
    for name in sorted(GOLDEN):
        report = run_scenario((DATA / f"{name}.scn").read_text(), name=f"{name}.scn")
        assert report.render() == (DATA / f"{name}.report.txt").read_text()
    assert seen and repeats == []


@pytest.mark.parametrize("name", ["flat_killing", "noether_flesh"])
def test_reports_deterministic_across_runs(name):
    text = (DATA / f"{name}.scn").read_text()
    first = run_scenario(text, name=f"{name}.scn", seed=0).render()
    second = run_scenario(text, name=f"{name}.scn", seed=0).render()
    assert first == second


def test_cli_writes_report_and_exit_code(tmp_path):
    out = tmp_path / "report.txt"
    code = cli_main(
        ["run", str(DATA / "flat_killing.scn"), "--report", str(out)]
    )
    assert code == 0
    assert out.read_text() == (DATA / "flat_killing.report.txt").read_text()


def test_cli_seed_recorded(tmp_path):
    out = tmp_path / "report.txt"
    code = cli_main(
        ["run", str(DATA / "degenerate.scn"), "--report", str(out), "--seed", "7"]
    )
    assert code == 1
    assert "seed: 7" in out.read_text()


def test_cli_missing_file():
    assert cli_main(["run", "/nonexistent/path.scn"]) == 2


def test_cli_scenario_not_utf8(tmp_path, capsys):
    scenario = tmp_path / "latin1.scn"
    scenario.write_bytes("[chart]\neven = \u00e9\n".encode("latin-1"))
    assert cli_main(["run", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("supergeo: cannot read scenario: ")
    assert err.count("\n") == 1


def test_cli_report_into_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "report.txt"
    code = cli_main(["run", str(DATA / "flat_killing.scn"), "--report", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("supergeo: cannot write report: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "supergeo.cli", "run", str(DATA / "math_error.scn")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "NotASquare" in proc.stdout


class TestScenarioLoading:
    def test_metric_supersymmetric_completion(self):
        text = """
[chart]
even =
odd = th1 th2
flesh = 0

[metric g]
th1,th2 = -1

[run]
validate-metric g
"""
        sc = load_scenario(text)
        g = sc.metrics["g"]
        assert g.components[1][0] == sc.source.pool.one()

    def test_unknown_command_is_parse_failure(self):
        text = """
[chart]
even = x
odd =
flesh = 0
box x = 0 1

[run]
frobnicate g
"""
        report = run_scenario(text)
        assert report.exit_code == 2

    def test_unknown_metric_name(self):
        text = """
[chart]
even = x
odd =
flesh = 0
box x = 0 1

[run]
validate-metric nope
"""
        report = run_scenario(text)
        assert report.exit_code == 2

    def test_vectorfield_parity_inference_failure(self):
        text = """
[chart]
even = x
odd = th1 th2
flesh = 0
box x = 0 1

[vectorfield M]
x = 1 + th1

[run]
validate-metric g
"""
        report = run_scenario(text)
        assert report.exit_code == 2
        assert report.load_error == (
            "ScenarioError: vector field parity is not homogeneous (line 8)"
        )

    def test_odd_coordinate_count_must_be_even(self):
        text = """
[chart]
even = x
odd = th1
flesh = 0
box x = 0 1

[run]
"""
        report = run_scenario(text)
        assert report.exit_code == 2

    def test_declared_parity_clash_is_parse_level(self):
        text = """
[chart]
even = x
odd = th1 th2
flesh = 0
box x = 0 1

[vectorfield V]
parity = even
th1 = 1

[run]
"""
        report = run_scenario(text)
        assert report.exit_code == 2

    def test_negative_flesh_count_is_parse_error(self):
        text = """
[chart]
even = x
odd =
flesh = -3
box x = 0 1

[run]
"""
        report = run_scenario(text)
        assert report.exit_code == 2
        assert report.load_error == (
            "ParseError: flesh count must be nonnegative at line 5"
        )

    def test_bad_solver_options_are_parse_level(self):
        base = """
[chart]
even = x
odd =
flesh = 0
box x = 0 1

[metric g]
x,x = 1

[run]
"""
        for cmd in ["solve-killing g --degree nope",
                    "solve-killing g --degree -1",
                    "solve-killing g --degree 1 --parity sideways",
                    "check-killing g g --mode vii"]:
            report = run_scenario(base + cmd + "\n")
            assert report.exit_code == 2, cmd


def test_connection_commands_do_not_need_the_frame():
    """g = 2 dx^2 has no exact OSp frame (see math_error.scn), but its
    connection and the frame-free Killing modes are fine."""
    text = """
[chart]
even = x
odd =
flesh = 0
box x = 0 1

[metric g]
x,x = 2

[vectorfield T]
x = 1

[run]
levi-civita g
check-killing T g --mode i
check-killing T g --mode ii
check-killing T g --mode all
"""
    results = run_scenario(text).results
    assert [r.status for r in results] == ["pass", "pass", "pass", "error"]
    assert results[0].details == [("nonzero", "0")]
    assert results[1].details == [("mode_i", "pass"), ("agreement", "true")]
    assert results[2].details == [("mode_ii", "pass"), ("agreement", "true")]
    assert results[3].details[0][1].startswith("NotASquare")


def test_validate_metric_command_shares_its_result(monkeypatch):
    from supergeo import geometry

    validate = geometry.validate_metric
    calls = []

    def counted(g):
        calls.append(g)
        return validate(g)

    monkeypatch.setattr(geometry, "validate_metric", counted)
    text = """
[chart]
even = x
odd = th1 th2
flesh = 0
box x = 0 1

[metric g]
x,x = 1
th1,th2 = -1

[vectorfield T]
x = 1

[run]
validate-metric g
osp-frame g
levi-civita g
check-killing T g
"""
    report = run_scenario(text)
    assert report.exit_code == 0
    assert len(calls) == 1


def test_failed_solver_certificate_is_an_error(monkeypatch, tmp_path):
    """A solver basis that fails its own certificate is a command error
    (exit 3) in the report, not an exception escaping the CLI."""
    from supergeo import lie

    # the sum of all ansatz fields contains the Euler field x d_x
    monkeypatch.setattr(lie, "nullspace", lambda rows, ncols: [[1] * ncols])
    out = tmp_path / "report.txt"
    code = cli_main(["run", str(DATA / "flat_killing.scn"), "--report", str(out)])
    assert code == 3
    assert "error = CertificateFailure: solver produced a non-Killing field" in (
        out.read_text()
    )


def _declarations(name):
    """The declarations of a golden scenario, up to its [run] section."""
    return (DATA / f"{name}.scn").read_text().split("[run]")[0]


def test_energy_density_is_computed_once_per_setup(monkeypatch):
    from supergeo import morphisms

    str_with_metric = morphisms.str_with_metric
    calls = []

    def counted(*args):
        calls.append(args)
        return str_with_metric(*args)

    monkeypatch.setattr(morphisms, "str_with_metric", counted)
    report = run_scenario(
        _declarations("noether_flesh") + "[run]\ncheck-noether stress PHI RHO\naction PHI\n"
    )
    assert report.exit_code == 0
    assert len(calls) == 1


def test_check_noether_target_on_superharmonic_map():
    """A constant target field is Killing for the flat target metric, and
    the isometry ISO is superharmonic: every line of the target report."""
    text = (_declarations("domain_symmetry") + "[vectorfield T]\nchart = target\nu = 1\n\n"
            "[run]\ncheck-noether target ISO T\n")
    (result,) = run_scenario(text).results
    assert result.status == "pass"
    assert result.details == [
        ("xi_killing", "true"),
        ("div_residual", "0"),
        ("superharmonic", "true"),
        ("current_div", "0"),
        ("lemma_ok", "true"),
    ]


def test_solve_killing_parity_gives_each_half():
    """On the flat (2|2) chart at degree 1, --parity even and --parity odd
    give the two halves of the unrestricted 6|6 solve."""
    text = _declarations("flat_killing") + "[run]\n" + "".join(
        f"solve-killing g --degree 1{opt}\n" for opt in ("", " --parity even", " --parity odd")
    )
    full, even, odd = (dict(r.details) for r in run_scenario(text).results)
    assert (full["even_dim"], full["odd_dim"]) == ("6", "6")
    for half, kind, other in ((even, "even", "odd"), (odd, "odd", "even")):
        assert half.pop(f"{other}_dim") == "0"
        assert half == {k: v for k, v in full.items() if k.startswith(kind + "_")}


@pytest.mark.parametrize("command", [
    "validate-metric g",
    "osp-frame g",
    "levi-civita g",
    "lie-derivative T g",
    "check-killing T g",
    "solve-killing g --degree 1",
    "tension ID",
    "check-noether domain ID R",
    "action ID",
])
def test_commands_reject_an_extra_argument(command):
    """One positional argument too many, alone or next to an option, is a
    usage error (exit 2) for every command, check-noether included."""
    for extra in (" extra", " extra --mode i"):
        report = run_scenario(_declarations("flat_killing") + "[run]\n" + command + extra + "\n")
        assert report.exit_code == 2, command + extra
        assert "usage:" in report.load_error or "unknown options" in report.load_error


@pytest.mark.parametrize("command", [
    "solve-killing g --degree 0 --degree 1",
    "check-killing T g --mode i --mode ii",
])
def test_an_option_given_twice_is_a_usage_error(command):
    """A repeated option is rejected, not overridden by its last value."""
    report = run_scenario(_declarations("flat_killing") + "[run]\n" + command + "\n")
    assert report.exit_code == 2
    option = command.split()[-2]
    assert report.load_error == f"ScenarioError: option {option} given twice (line 35)"


@pytest.mark.parametrize("command, usage", [
    ("check-killing T g --frob 1", "check-killing X G [--mode i|ii|v|all]"),
    ("solve-killing g --degree 1 --frob 1",
     "solve-killing G --degree DEGREE [--parity even|odd]"),
], ids=["check-killing", "solve-killing"])
def test_an_unknown_option_is_a_usage_error(command, usage):
    report = run_scenario(_declarations("flat_killing") + "[run]\n" + command + "\n")
    assert report.exit_code == 2
    assert report.load_error == (
        f"ScenarioError: unknown option --frob; usage: {usage} (line 35)"
    )


def _edited_flat_killing(old, new, run="validate-metric g\n"):
    """The flat_killing declarations with ``old`` replaced by ``new``."""
    declarations = _declarations("flat_killing")
    assert declarations.count(old) == 1
    return declarations.replace(old, new) + "[run]\n" + run


_END = "th2 = th2\n"  # the last declaration line of flat_killing, line 32


@pytest.mark.parametrize("text, error", [
    (_edited_flat_killing("x,x = 1\n", "x,x = 1\nx, x = -1\n"),
     "ParseError: key 'x, x' given twice in [metric g] at line 11"),
    (_edited_flat_killing(_END, _END + "[metric g]\nx,x = -1\n"),
     "ParseError: section [metric g] given twice at line 33"),
    (_edited_flat_killing(_END, _END + "[vectorfield T]\ny = 1\n", "check-killing T g\n"),
     "ParseError: section [vectorfield T] given twice at line 33"),
    (_edited_flat_killing(_END, _END + "[chart]\neven = y\nbox y = 0 1\n"),
     "ParseError: section [chart] given twice at line 33"),
    (_edited_flat_killing(_END, _END + "[target]\neven = u\nbox u = 0 1\n"
                                       "[target]\neven = v\nbox v = 0 1\n"),
     "ParseError: section [target] given twice at line 36"),
    (_edited_flat_killing(_END, _END, "validate-metric g\n[run]\nosp-frame g\n"),
     "ParseError: section [run] given twice at line 36"),
], ids=["metric_key", "metric", "vectorfield", "chart", "target", "run"])
def test_a_repeated_declaration_is_a_usage_error(text, error):
    """A key given twice in a section, a named section given twice, and a
    second [chart], [target] or [run] are rejected, not overridden."""
    report = run_scenario(text)
    assert report.exit_code == 2
    assert report.load_error == error


@pytest.mark.parametrize("text, error", [
    (_edited_flat_killing(_END, _END + "w = x\n", "tension ID\n"),
     "ParseError: unknown coordinate 'w' in [morphism ID] at line 33"),
    (_edited_flat_killing("box y = 0 1\n", "box y = 0 1\nbox z = 0 1\n"),
     "ScenarioError: box interval for 'z', which is not an even coordinate (line 2)"),
], ids=["morphism_key", "box_key"])
def test_a_key_naming_no_coordinate_is_a_usage_error(text, error):
    report = run_scenario(text)
    assert report.exit_code == 2
    assert report.load_error == error


def test_a_morphism_without_metrics_is_named_with_the_command_line():
    report = run_scenario(_edited_flat_killing("source_metric = g\n", "", "tension ID\n"))
    assert report.exit_code == 2
    assert report.load_error == (
        "ScenarioError: morphism 'ID' needs source_metric and target_metric (line 34)"
    )


def test_docs_list_every_command_usage():
    """The ``## Commands`` block of docs/scenario-format.md is the usage line
    of each command in the command table, in table order."""
    from supergeo import scenario

    docs = (pathlib.Path(__file__).parents[1] / "docs" / "scenario-format.md").read_text()
    block = docs.split("## Commands\n", 1)[1].split("```\n")[1]
    assert block.splitlines() == [scenario._usage(name) for name in scenario._COMMANDS]


def test_unknown_check_noether_variant_is_named_first():
    """The variant is checked before the morphism is looked up."""
    report = run_scenario(_declarations("flat_killing") + "[run]\ncheck-noether sideways NOPE R\n")
    assert report.exit_code == 2
    assert report.load_error == (
        "ScenarioError: unknown check-noether variant 'sideways' (line 35)"
    )


_POLE_METRIC = """
[chart]
even = x
box x = -1 1

[metric g]
x, x = 1/x^2 + 1

[run]
validate-metric g
"""

_TWO_CHARTS = """
[chart]
even = x
box x = 0 1

[target]
even = y
box y = {box}

[morphism PHI]
y = {image}

[run]
"""


@pytest.mark.parametrize(
    "text, exit_code, line",
    [
        # the midpoint x = 0 of the box is a pole of the metric
        (_POLE_METRIC, 3, "1.error = NonInvertible: body has a pole at x = 0"),
        # the corner x = 0 of the source box is a pole of the pullback; both
        # morphism errors name the [morphism PHI] header's line
        (_TWO_CHARTS.format(box="-10 10", image="1/(x+1) + 1/x"), 2,
         "error = NonInvertible: body has a pole at x = 0 (line 10)"),
        (_TWO_CHARTS.format(box="0 1", image="2 x"), 2,
         "error = ScenarioError: body of pullback for 'y' leaves the target box at x = 1"
         " (line 10)"),
    ],
    ids=["pole_at_sample_point", "pole_at_box_corner", "box_violation"],
)
def test_sampled_points_are_named_in_errors(tmp_path, capsys, text, exit_code, line):
    path = tmp_path / "points.scn"
    path.write_text(text)
    assert cli_main(["run", str(path)]) == exit_code
    assert line in capsys.readouterr().out.splitlines()


def test_missing_pullback_names_the_morphism_line():
    lines = (DATA / "flat_killing.scn").read_text().splitlines()
    header = lines.index("[morphism ID]") + 1
    lines.remove("th2 = th2")
    report = run_scenario("\n".join(lines))
    assert report.exit_code == 2
    assert report.load_error == (
        f"ScenarioError: missing pullback expression for 'th2' (line {header})")


def test_scenario_fuzz_never_crashes():
    import random

    rng = random.Random(801)
    lines = [
        "[chart]", "[run]", "[metric g]", "even = x", "odd = th1 th2",
        "flesh = 0", "box x = 0 1", "x,x = 1", "validate-metric g",
        "= = =", "garbage", "[unknown]", "th1,th2 = -1", "x = ]", "", "# c",
    ]
    for _ in range(300):
        text = "\n".join(rng.choice(lines) for _ in range(rng.randint(0, 12)))
        report = run_scenario(text)
        assert report.exit_code in (0, 1, 2, 3)


# Right-hand sides that reach the division paths: zero and nilpotent bodies,
# constant and polynomial divisors, poles at and away from the sample points
# (the box midpoints are 1/2 and 3/2).
_MUTANT_VALUES = [
    "0", "-1", "1/2", "x", "1/x", "x - 1/2", "x^2 - 1/4", "th1*th2",
    "1 + th1*th2", "4 + 3 th1 th2", "1/(x + 2)", "(x + th1*th2)^-1", "th1",
    "1/0", "y", "u", "1/(x - 1/2)", "1/(2 x - 1)", "(x - 1/2)^-2",
    "1/(2 x - 3)", "x/(x - 3/2)", "1/(y - 1/2)", "1/(u - 1/2)",
]
_MUTANT_TOKENS = [
    "x", "y", "th1", "th2", "g", "h", "0", "1", "-1", "=", "+", "(", "odd", "--mode",
]


def _mutate(line, rng):
    """One seeded edit of a scenario line, as the list of lines replacing it."""
    kind = rng.randrange(6)
    words = line.split()
    if kind == 0:
        return []
    if kind == 1:
        return [line, line]
    if kind in (2, 3) and "=" in line:
        return [f"{line.split('=', 1)[0]}= {rng.choice(_MUTANT_VALUES)}"]
    if kind == 4 and words:
        words[rng.randrange(len(words))] = rng.choice(_MUTANT_TOKENS)
        return [" ".join(words)]
    return [line[: rng.randrange(len(line) + 1)]]


def test_mutated_goldens_exit_cleanly():
    """Every line of every golden scenario, edited three times: each run ends
    in an exit code 0-3, no exception but a SupergeoError leaves
    run_scenario, and a division by a body that is zero or has a pole at a
    sample point is reported as NonInvertible with exit code 2 or 3."""
    import random

    from supergeo.errors import SupergeoError

    rng = random.Random(808)
    runs, non_invertible_exits = 0, set()
    for name in sorted(GOLDEN):
        lines = (DATA / f"{name}.scn").read_text().splitlines()
        for k in range(len(lines)):
            for _ in range(3):
                text = "\n".join(lines[:k] + _mutate(lines[k], rng) + lines[k + 1 :])
                runs += 1
                try:
                    report = run_scenario(text, name=f"{name}.scn")
                except SupergeoError:
                    continue
                assert report.exit_code in (0, 1, 2, 3), (name, k, text)
                if "NonInvertible" in report.render():
                    non_invertible_exits.add(report.exit_code)
    assert runs == 3 * 194
    # poles hit both in declarations (exit 2) and in commands (exit 3)
    assert non_invertible_exits == {2, 3}
