"""Scenario runner and CLI: golden reports, exit codes, determinism."""

import itertools
import os
import pathlib
import re
import subprocess
import sys

import pytest

from supergeo.cli import main as cli_main
from supergeo.geometry import BilinearForm
from supergeo.morphisms import HarmonicSetup
from supergeo.scenario import MAX_ANSATZ_COLUMNS, MAX_FLESH, load_scenario, run_scenario

from conftest import unlimited_int_digits

DATA = pathlib.Path(__file__).parent / "data"


def _golden_exit_codes():
    """The exit code of each golden scenario ``tests/data/NAME.scn`` that
    has a report, read from the last line of ``NAME.report.txt``, ``exit =
    N``; test_goldens_through_the_cli_in_a_fresh_interpreter fails a
    scenario without one."""
    codes = {}
    for scn in DATA.glob("*.scn"):
        report = DATA / f"{scn.stem}.report.txt"
        if not report.exists():
            continue
        last = report.read_text().splitlines()[-1]
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


_SQUARE = """[chart]
even = x
box x = 0 1
[target]
even = y
box y = 0 1
[metric h]
x,x = 1
[metric g]
chart = target
y,y = 1
[vectorfield YY]
chart = target
y = y
[vectorfield EULER]
x = x
[morphism SQ]
source_metric = h
target_metric = g
y = x^2
[run]
"""


def test_a_failing_verdict_is_followed_by_its_first_failure():
    """A failing verdict key gets a ``KEY.first = LABEL: RESIDUAL`` line;
    a passing one, and the residual keys, print as they always have."""
    report = run_scenario(_SQUARE + "check-noether target SQ YY\ncheck-killing EULER h --mode ii\n")
    assert [r.details for r in report.results] == [
        [("xi_killing", "false"), ("xi_killing.first", "L[y,y]: (2)"),
         ("div_residual", "(4*x^2)"), ("superharmonic", "false"), ("lemma_ok", "true")],
        [("mode_ii", "fail"), ("mode_ii.first", "pair[x,x]: (2)"), ("agreement", "true")],
    ]
    assert "\n1.xi_killing.first = L[y,y]: (2)\n" in report.render()


def test_a_failing_lemma_names_its_first_pair(monkeypatch):
    """With 1 added to every entry of Phi*(L_xi g), the pullback
    Lie-derivative lemma fails first at (x, x)."""
    pullback_bilinear = HarmonicSetup.pullback_bilinear
    monkeypatch.setattr(HarmonicSetup, "pullback_bilinear", lambda self, B: BilinearForm(
        self.phi.source, [[e + 1 for e in row] for row in pullback_bilinear(self, B).components]))
    [result] = run_scenario(_SQUARE + "check-noether target SQ YY\n").results
    assert result.details[-2:] == [("lemma_ok", "false"), ("lemma_ok.first", "lemma[x,x]: (1)")]


@pytest.mark.parametrize("hashseed", ["0", "12345"])
@pytest.mark.parametrize("name", sorted(scn.stem for scn in DATA.glob("*.scn")))
def test_goldens_through_the_cli_in_a_fresh_interpreter(tmp_path, name, hashseed):
    """``python -m supergeo.cli run NAME.scn --report ...`` under two hash
    seeds writes ``NAME.report.txt`` byte for byte and exits with the code
    on that report's last line; every scenario has a golden report."""
    golden = DATA / f"{name}.report.txt"
    assert golden.exists(), f"{name}.scn has no golden report"
    out = tmp_path / golden.name
    proc = subprocess.run(
        [sys.executable, "-m", "supergeo.cli", "run", str(DATA / f"{name}.scn"), "--report", str(out)],
        env={**os.environ, "PYTHONHASHSEED": hashseed}, capture_output=True, text=True)
    assert proc.returncode == GOLDEN[name], proc.stderr
    assert out.read_bytes() == golden.read_bytes()


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


# runs every golden through the CLI in one interpreter; argv: data folder,
# output folder
_GOLDENS_WITHOUT_SYMPY = """
import pathlib, sys
from supergeo.cli import main
data, out = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
for scn in sorted(data.glob("*.scn")):
    report = out / (scn.stem + ".report.txt")
    main(["run", str(scn), "--report", str(report)])
    assert report.read_bytes() == (data / (scn.stem + ".report.txt")).read_bytes(), scn.stem
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "sympy")
assert not loaded, loaded[:5]
"""


def test_goldens_import_no_sympy(tmp_path):
    """A fresh interpreter that runs every golden through
    ``supergeo.cli.main`` writes each report byte for byte and never
    imports sympy: the run path is native from the import to the report."""
    proc = subprocess.run([sys.executable, "-c", _GOLDENS_WITHOUT_SYMPY, str(DATA), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# puts src on sys.path, runs every golden through the CLI in one
# interpreter started without site and lists the introspection modules and
# sympy it loaded; argv: src folder, data folder, output folder
_GOLDENS_AT_START_UP = """
import pathlib, sys
src, data, out = (pathlib.Path(arg) for arg in sys.argv[1:4])
sys.path.insert(0, str(src))
from supergeo.cli import main
for scn in sorted(data.glob("*.scn")):
    report = out / (scn.stem + ".report.txt")
    main(["run", str(scn), "--report", str(report)])
    assert report.read_bytes() == (data / (scn.stem + ".report.txt")).read_bytes(), scn.stem
unwanted = {"dataclasses", "inspect", "ast", "typing", "sympy"}
loaded = sorted(name for name in sys.modules if name.split(".")[0] in unwanted)
assert not loaded, loaded[:5]
"""


def test_goldens_start_without_introspection(tmp_path):
    """A fresh ``python -S`` interpreter that runs every golden through
    ``supergeo.cli.main`` writes each report byte for byte and never loads
    ``dataclasses``, ``inspect``, ``ast``, ``typing`` or sympy. ``-S`` keeps
    the environment's ``site`` hooks, which may load ``typing``, out of the
    verdict; the script puts ``src`` on ``sys.path`` itself."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", _GOLDENS_AT_START_UP, str(src), str(DATA),
                           str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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


def test_goldens_pull_back_no_zero(monkeypatch):
    """While the 7 goldens run, no zero superfunction is pulled back: the
    zero Christoffel symbols of a flat target, zero metric entries and zero
    field components are the source pool's zero without a substitution."""
    from supergeo.scalars import Superfunction

    original = Superfunction.substitute
    pulled = []

    def recording(f, images, new_pool):
        pulled.append(f.is_zero())
        return original(f, images, new_pool)

    monkeypatch.setattr(Superfunction, "substitute", recording)
    for name in sorted(GOLDEN):
        report = run_scenario((DATA / f"{name}.scn").read_text(), name=f"{name}.scn")
        assert report.render() == (DATA / f"{name}.report.txt").read_text()
    assert pulled and not any(pulled)


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


@pytest.mark.parametrize("seed", ["١", "-1_0", " 7 ", "-5", "18446744073709551616", "1e3", ""])
def test_cli_seed_is_a_u64_in_ascii_digits(tmp_path, capsys, seed):
    """README and docs/scenario-format.md give --seed as <u64>: Arabic-Indic
    digits, underscores, padding, a sign and 2^64 are usage errors, exit 2,
    and no report is written."""
    out = tmp_path / "report.txt"
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", str(DATA / "degenerate.scn"), "--report", str(out), f"--seed={seed}"])
    assert exc.value.code == 2
    assert "argument --seed: must be a u64 in ASCII digits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["0", "7", "18446744073709551615"])
def test_cli_seed_bounds_load(tmp_path, seed):
    out = tmp_path / "report.txt"
    assert cli_main(["run", str(DATA / "degenerate.scn"), "--report", str(out), "--seed", seed]) == 1
    assert f"\nseed: {seed}\n" in out.read_text()


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


def test_cli_report_into_a_directory(tmp_path, capsys):
    code = cli_main(["run", str(DATA / "flat_killing.scn"), "--report", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("supergeo: cannot write report: ")
    assert err.count("\n") == 1


def _golden_named(name):
    """The golden report of flat_killing.scn with ``name`` in its header."""
    golden = (DATA / "flat_killing.report.txt").read_bytes()
    return golden.replace(b"\nscenario: flat_killing.scn\n", b"\nscenario: " + name + b"\n", 1)


@pytest.mark.parametrize("old", [b"", b"x", bytes(range(256)) * 256], ids=["empty", "smaller", "64KiB"])
def test_cli_report_is_rewritten_in_place(tmp_path, old):
    """An old report, smaller or larger, ends up holding exactly the new
    report's bytes, and it is the same file: rewritten, not replaced."""
    out = tmp_path / "report.txt"
    out.write_bytes(old)
    inode = out.stat().st_ino
    assert cli_main(["run", str(DATA / "flat_killing.scn"), "--report", str(out)]) == 0
    assert out.read_bytes() == (DATA / "flat_killing.report.txt").read_bytes()
    assert out.stat().st_ino == inode


def test_cli_report_opens_once_without_truncation(tmp_path, monkeypatch):
    """The report is opened once, write-only, created with mode 0o666 (the
    umask applies) and never with O_TRUNC: a truncating open frees every
    block of the old report only for the write to allocate them again."""
    out = tmp_path / "report.txt"
    out.write_bytes(b"old")
    original, opens = os.open, []

    def recording(path, flags, mode=0o777, **kwargs):
        if os.fspath(path) == str(out):
            opens.append((flags, mode))
        return original(path, flags, mode, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    assert cli_main(["run", str(DATA / "flat_killing.scn"), "--report", str(out)]) == 0
    assert out.read_bytes() == (DATA / "flat_killing.report.txt").read_bytes()
    ((flags, mode),) = opens
    assert flags & os.O_TRUNC == 0
    assert flags & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT
    assert mode == 0o666


@pytest.mark.parametrize("name", ["flat_killing", "degenerate"])
def test_cli_report_to_the_null_device(name, capsys):
    """A report path that is no regular file is written but not cut to
    length, which would raise EINVAL: the run keeps its exit code."""
    assert cli_main(["run", str(DATA / f"{name}.scn"), "--report", os.devnull]) == GOLDEN[name]
    assert capsys.readouterr().err == ""


def test_cli_scenario_name_not_utf8(tmp_path):
    """A file name with a byte that is no UTF-8 is written into the header
    escaped with backslashes, and the report is complete."""
    scenario = tmp_path / os.fsdecode(b"bad\xff.scn")
    scenario.write_bytes((DATA / "flat_killing.scn").read_bytes())
    out = tmp_path / "report.txt"
    assert cli_main(["run", str(scenario), "--report", str(out)]) == 0
    assert out.read_bytes() == _golden_named(rb"bad\xff.scn")


def test_cli_scenario_path_with_a_lone_surrogate(tmp_path, capsys):
    """A scenario path holding a lone surrogate, which the file system
    encoding cannot encode, is a scenario that cannot be read: one stderr
    line, exit 2 and no report."""
    assert cli_main(["run", str(tmp_path / "bad\ud800.scn")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("supergeo: cannot read scenario: ")
    assert err.count("\n") == 1


def test_cli_report_path_with_a_lone_surrogate(tmp_path, capsys):
    """A ``--report`` path holding a lone surrogate is a report that cannot
    be written: one stderr line, exit 2 and no file."""
    report = str(tmp_path / "x\ud800.txt")
    assert cli_main(["run", str(DATA / "flat_killing.scn"), "--report", report]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("supergeo: cannot write report: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_stdout_is_the_report_bytes_whatever_its_encoding(tmp_path):
    """Under ``PYTHONIOENCODING=ascii`` a report that names ``naïve.scn``
    reaches stdout as the same UTF-8 bytes as the ``--report`` file."""
    scenario = tmp_path / "naïve.scn"
    scenario.write_bytes((DATA / "flat_killing.scn").read_bytes())
    out = tmp_path / "report.txt"
    env = {**os.environ, "PYTHONIOENCODING": "ascii"}
    command = [sys.executable, "-m", "supergeo.cli", "run", str(scenario)]
    proc = subprocess.run(command, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert subprocess.run(command + ["--report", str(out)], env=env).returncode == 0
    assert proc.stdout == out.read_bytes() == _golden_named("naïve.scn".encode())


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_cli_closed_stdout_is_a_write_failure(unbuffered):
    """A stdout whose reader has gone is a report that cannot be written:
    one stderr line and exit 2, with no traceback from the write and, on a
    buffered stdout that still holds the report, no ``Exception ignored``
    from the interpreter's flush at exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "supergeo.cli", "run", str(DATA / "flat_killing.scn")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("supergeo: cannot write report: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


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
            "ParseError: flesh count must be a nonnegative integer, not '-3' at line 5"
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
    connection, the frame-free Killing modes and mode (v), which runs on
    the orthogonal frame of pivot 2, are fine."""
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
    assert [r.status for r in results] == ["pass", "pass", "pass", "pass"]
    assert results[0].details == [("nonzero", "0")]
    assert results[1].details == [("mode_i", "pass"), ("agreement", "true")]
    assert results[2].details == [("mode_ii", "pass"), ("agreement", "true")]
    assert results[3].details == [("mode_i", "pass"), ("mode_ii", "pass"), ("mode_v", "pass"),
                                  ("agreement", "true")]


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
    monkeypatch.setattr(lie, "nullspace", lambda rows, ncols: [dict.fromkeys(range(ncols), 1)])
    out = tmp_path / "report.txt"
    code = cli_main(["run", str(DATA / "flat_killing.scn"), "--report", str(out)])
    assert code == 3
    assert "error = CertificateFailure: solver produced a non-Killing field" in (
        out.read_text()
    )


def test_a_frame_that_fails_its_certificate_is_an_error(monkeypatch, tmp_path):
    """A frame that does not meet its pairing is a program fault, not a
    broken supermetric axiom: ``osp-frame`` reports a CertificateFailure
    naming the first residual, with exit 3.  Here Gram-Schmidt's columns
    are doubled but not its pivots, so g(f_0, f_0) - d_0 = 4 - 1."""
    from supergeo import geometry

    gram_schmidt = geometry._gram_schmidt

    def doubled(g):
        columns, pivots = gram_schmidt(g)
        return [[e * 2 for e in col] for col in columns], pivots

    monkeypatch.setattr(geometry, "_gram_schmidt", doubled)
    out = tmp_path / "report.txt"
    scn = tmp_path / "frame.scn"
    scn.write_text(_declarations("flat_killing") + "[run]\nosp-frame g\n")
    assert cli_main(["run", str(scn), "--report", str(out)]) == 3
    lines = out.read_text().splitlines()
    assert "status: error" in lines
    assert "error = CertificateFailure: frame does not meet its pairing: frame[0,0]: (3)" in lines


def test_incomplete_solver_basis_is_an_error(monkeypatch, tmp_path):
    """A nullspace that drops its last vector, but keeps the rank of its
    elimination, leaves fields that are Killing and independent; the
    completeness certificate refuses the basis (exit 3) instead of
    reporting 5|5 for the 6|6 Killing algebra of flat (2|2)."""
    from supergeo import lie
    from supergeo.exactlinalg import nullspace

    def dropping_last(rows, ncols):
        vectors = nullspace(rows, ncols)
        del vectors[-1]
        return vectors

    monkeypatch.setattr(lie, "nullspace", dropping_last)
    out = tmp_path / "report.txt"
    code = cli_main(["run", str(DATA / "flat_killing.scn"), "--report", str(out)])
    assert code == 3
    assert "error = CertificateFailure: Killing basis completeness unproven" in (
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


def test_solve_killing_names_the_metric_violation():
    """The solver checks a metric as validate-metric does: a form with an
    odd term in its even block is a named violation (exit 1), not a basis."""
    text = """
[chart]
even = x
odd = th1 th2
flesh = 0
box x = 0 1

[metric g]
x,x = 1 + th1
th1,th2 = -1

[run]
solve-killing g --degree 1
"""
    report = run_scenario(text)
    (result,) = report.results
    assert (result.status, result.details) == ("fail", [("violation", "evenness")])
    assert report.exit_code == 1


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
    (_edited_flat_killing(_END, _END + "[]\n"), "ParseError: empty section header at line 33"),
    (_edited_flat_killing(_END, _END + "[metric]\nx,x = 1\n"),
     "ParseError: section [metric] takes one name at line 33"),
    (_edited_flat_killing("[chart]\n", "[chart extra]\n"),
     "ParseError: section [chart] takes no name at line 2"),
    (_edited_flat_killing(_END, _END, "solve-killing g --degree\n"),
     "ScenarioError: option --degree needs a value (line 35)"),
], ids=["empty_header", "unnamed_metric", "named_chart", "option_without_value"])
def test_a_malformed_header_or_option_is_a_usage_error(text, error):
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


@pytest.mark.parametrize("bounds", ["0.5 1", "1e-1 1", "1_0 20", "0 +1", "0 1.", "0 \u0661",
                                    "0 1/00"])
def test_a_box_bound_other_than_a_rational_literal_is_a_usage_error(bounds):
    """A box bound is ``[-]p[/q]`` in ASCII digits with ``q`` not zero, as
    the format states: a decimal, an exponent, a digit separator, a plus
    sign or a non-ASCII digit is rejected with the line, though
    ``Fraction`` reads each, and so is a zero denominator."""
    report = run_scenario(_edited_flat_killing("box x = 0 1\n", f"box x = {bounds}\n"))
    assert report.exit_code == 2
    assert report.load_error == f"ParseError: bad rational literal in {bounds!r} at line 6"


@pytest.mark.parametrize("bounds", ["-10 3", "-1/2 1/2", "0 007", "0 10/010"])
def test_rational_box_bounds_load(bounds):
    """Integers, negative ones included, and quotients load as boxes."""
    report = run_scenario(_edited_flat_killing("box x = 0 1\n", f"box x = {bounds}\n"))
    assert report.load_error is None and report.exit_code == 0


_FLESH = """
[chart]
even = x
odd = th1 th2
flesh = {}
box x = 0 1

[metric g]
x,x = 1
th1,th2 = -1

[run]
validate-metric g
"""


@pytest.mark.parametrize("count", ["+2", "0_2", "\u0662", "\uff12"])
def test_a_flesh_count_other_than_ascii_digits_is_a_usage_error(count):
    """A flesh count is ASCII digits, as the format states: a plus sign, a
    digit separator, an Arabic-Indic or a fullwidth digit is rejected with
    the line, though ``int`` reads each."""
    report = run_scenario(_FLESH.format(count))
    assert report.exit_code == 2
    assert report.load_error == (
        f"ParseError: flesh count must be a nonnegative integer, not {count!r} at line 5")


@pytest.mark.parametrize("count", ["0", "2"])
def test_ascii_flesh_counts_load(count):
    assert load_scenario(_FLESH.format(count)).source.pool.n_flesh == int(count)


def test_a_flesh_count_above_the_bound_is_a_usage_error():
    """A chart takes at most ``MAX_FLESH`` flesh generators; one more is a
    ``ParseError`` naming the line, before any name is built."""
    assert load_scenario(_FLESH.format(MAX_FLESH)).source.pool.n_flesh == MAX_FLESH
    report = run_scenario(_FLESH.format(MAX_FLESH + 1))
    assert report.exit_code == 2
    assert report.load_error == (
        f"ParseError: flesh count must be at most {MAX_FLESH} at line 5")


@pytest.mark.parametrize("run, loads", [
    ("--degree 8332", True), ("--degree 8333", False),
    ("--degree 16665 --parity even", True), ("--degree 16666 --parity odd", False),
    ("--degree 100000", False), ("--degree " + "9" * 4300, False),
], ids=["8332", "8333", "16665-even", "16666-odd", "100000", "4300-digits"])
def test_a_solve_above_the_column_bound_is_a_usage_error(run, loads):
    """On the flat (1|2) chart an ansatz has 6 (d + 1) columns per parity at
    degree d, so the bound of ``MAX_ANSATZ_COLUMNS`` = 100,000 admits degree
    8332 for both parities and 16665 for one; a larger solve is a usage
    error naming the line, found at load without building a column."""
    assert MAX_ANSATZ_COLUMNS == 100_000
    text = _FLESH.format(0).replace("validate-metric g", f"solve-killing g {run}")
    if loads:
        assert len(load_scenario(text).commands) == 1
        return
    report = run_scenario(text)
    assert report.exit_code == 2
    assert report.load_error == ("ScenarioError: solve-killing: the ansatz has more than"
                                 " 100000 columns (line 13)")


@pytest.mark.parametrize("degree", ["\u0661", "\uff11"])
def test_a_degree_other_than_ascii_digits_is_a_usage_error(degree):
    """``--degree`` takes ASCII digits, as the format states; a non-ASCII
    digit, which ``str.isdecimal`` accepts, no longer solves at its value."""
    report = run_scenario(_edited_flat_killing(_END, _END, f"solve-killing g --degree {degree}\n"))
    assert report.exit_code == 2
    assert report.load_error == ("ScenarioError: solve-killing --degree must be a nonnegative"
                                 f" integer, not {degree!r} (line 35)")


@pytest.mark.parametrize("degree", [0, 12])
def test_ascii_degrees_load(degree):
    sc = load_scenario(_edited_flat_killing(_END, _END, f"solve-killing g --degree {degree}\n"))
    assert sc.commands[0][3] == {"degree": degree}


@pytest.mark.parametrize("entry, error", [
    ("x,x = 1 + )", "unexpected ')' at line 10, column 11"),
    ("  x, x=1+)", "unexpected ')' at line 10, column 10"),
    ("x,x =\t 1 + ) # comment", "unexpected ')' at line 10, column 12"),
    ("x,x = 1 + w", "unknown identifier 'w' at line 10, column 11"),
    ("x,x = 1 +", "unexpected end of input at line 10, column 10"),
    ("x,x = " + "(" * 3000 + "1" + ")" * 3000,
     "expression is nested too deeply at line 10, column 7"),
    ("x,x = " + "-" * 3000 + "1", "expression is nested too deeply at line 10, column 7"),
], ids=["spaced", "unspaced", "tab_and_comment", "identifier", "end_of_input",
        "nested_parentheses", "nested_minuses"])
def test_an_error_in_a_value_names_its_position_in_the_file(entry, error):
    """The tokenizer's line and column are offset by the value's line and
    its start column in the raw line, comments and leading space included;
    an error at no token, a value nested too deeply, names the value's start."""
    report = run_scenario(_edited_flat_killing("x,x = 1\n", entry + "\n"))
    assert report.load_error == f"ParseError: {error}"


_LONG = "1" + "0" * 4999  # 5,000 digits


@pytest.mark.parametrize("old, new, run, error", [
    ("x,x = 1\n", f"x,x = 1 + {_LONG}\n", "validate-metric g\n",
     "ParseError: integer literal of more than 4300 digits at line 10, column 11"),
    ("x,x = 1\n", f"x,x = 1 + x^{_LONG}\n", "validate-metric g\n",
     "ParseError: integer literal of more than 4300 digits at line 10, column 13"),
    ("box x = 0 1\n", f"box x = 0 {_LONG}\n", "validate-metric g\n",
     "ParseError: integer literal of more than 4300 digits at line 6"),
    ("box x = 0 1\n", f"box x = 0 1/{_LONG}\n", "validate-metric g\n",
     "ParseError: integer literal of more than 4300 digits at line 6"),
    ("flesh = 0\n", f"flesh = {'1' * 4301}\n", "validate-metric g\n",
     "ParseError: integer literal of more than 4300 digits at line 5"),
    (_END, _END, f"solve-killing g --degree {'1' * 4301}\n",
     "ScenarioError: solve-killing --degree: integer literal of more than 4300 digits (line 35)"),
    ("x,x = 1\n", "x,x = 1 + x^2147483648\n", "validate-metric g\n",
     "ParseError: exponent must be below 2^31 at line 10, column 13"),
    ("x,x = 1\n", "x,x = 1 + (1 + x)^-2147483648\n", "validate-metric g\n",
     "ParseError: exponent must be below 2^31 at line 10, column 20"),
    ("x,x = 1\n", "x,x = 1 + (1 + x)^2000\n", "validate-metric g\n",
     "ParseError: power too large: its result may hold more than 2^21 bits"
     " at line 10, column 19"),
    ("x,x = 1\n", "x,x = (1 + x)^1000 * (1 + x)^1000 * (1 + x)^1000 * (1 + x)^1000\n",
     "validate-metric g\n",
     "ParseError: product too large: its result may hold more than 2^21 bits"
     " at line 10, column 20"),
], ids=["expression", "exponent", "box_numerator", "box_denominator", "flesh", "degree",
        "exponent_2_31", "exponent_minus_2_31", "power_past_the_budget",
        "product_past_the_budget"])
def test_an_integer_literal_out_of_bounds_is_a_usage_error(tmp_path, old, new, run, error):
    """An integer literal of more than 4300 digits, the package's bound, an
    exponent of 2^31 or more, the bound of a degree, and a power or a
    product whose result may hold more than 2^21 bits are usage errors
    naming the line, exit 2; no exception of the interpreter's escapes."""
    scenario, out = tmp_path / "long.scn", tmp_path / "long.report.txt"
    scenario.write_text(_edited_flat_killing(old, new, run))
    assert cli_main(["run", str(scenario), "--report", str(out)]) == 2
    assert f"\nerror = {error}\n" in out.read_text()


@pytest.mark.parametrize("old, new, run", [
    ("x,x = 1\n", f"x,x = {'1' * 4300}\n", "validate-metric g\n"),
    ("box x = 0 1\n", f"box x = 0 {'1' * 4300}/{'3' * 4300}\n", "validate-metric g\n"),
    (_END, _END, f"solve-killing g --degree {'0' * 4299}1\n"),
], ids=["expression", "box", "degree"])
def test_an_integer_literal_of_4300_digits_loads(old, new, run):
    report = run_scenario(_edited_flat_killing(old, new, run))
    assert report.load_error is None and report.exit_code == 0


def _limited_run(tmp_path, text):
    """Exit code and report of a scenario run through the CLI in a fresh
    interpreter whose limit on the digits of int(str) is the lowest, 640."""
    scenario, out = tmp_path / "limited.scn", tmp_path / "limited.report.txt"
    scenario.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "supergeo.cli", "run", str(scenario), "--report", str(out)],
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}, capture_output=True, text=True)
    assert proc.stderr == ""
    return proc.returncode, out.read_text()


def test_a_literal_reads_the_same_under_any_interpreter_digit_limit(tmp_path):
    """A 700-digit metric entry loads and prints as it does without the
    environment's limit, and a 5,000-digit one is the package's usage
    error, not the interpreter's."""
    text = _edited_flat_killing("x,x = 1\n", f"x,x = {'7' * 700}\n", "levi-civita g\n")
    assert _limited_run(tmp_path, text) == (0, run_scenario(text, name="limited.scn").render())
    code, report = _limited_run(tmp_path, _edited_flat_killing("x,x = 1\n", f"x,x = {_LONG}\n"))
    assert code == 2
    assert "\nerror = ParseError: integer literal of more than 4300 digits at line 10, column 7\n" \
        in report


def test_a_coefficient_beyond_the_digit_limit_prints():
    """x,x = A^2 x + 1 with A 3,000 ones: the Christoffel symbol
    A^2/(2 A^2 x + 2) has a 6,000-digit coefficient, which prints as Python
    writes it with the interpreter's limit lifted."""
    a = "1" * 3000
    report = run_scenario(_edited_flat_killing("x,x = 1\n", f"x,x = {a}*{a}*x + 1\n",
                                               "levi-civita g\n"))
    assert report.exit_code == 0
    with unlimited_int_digits():
        square = int(a) ** 2
        want = f"Gamma^x_x,x = (({square})/({2 * square}*x + 2))"
    assert want in report.render().splitlines()


def test_a_coordinate_name_no_expression_can_read_is_a_usage_error():
    """A chart name that is no identifier (``th-1``, read by an expression
    as ``th - 1``) is rejected with the chart; it built a chart whose
    generator no metric or field entry could name."""
    text = _edited_flat_killing("odd = th1 th2\n", "odd = th1 th-2\n")
    report = run_scenario(text)
    assert report.exit_code == 2
    assert report.load_error == ("ScenarioError: generator name 'th-2' is not a str of the form"
                                 " [A-Za-z_][A-Za-z_0-9]* (line 2)")


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


_UNIT_SQUARE_METRIC = """
[chart]
even = x y
box x = 0 1
box y = 0 1

[metric g]
x,x = {xx}
y,y = {yy}

[run]
"""

_POLE_MAP = """
[chart]
even = x
box x = 0 1

[target]
even = y
box y = -10 10

[morphism PHI]
y = 1/(3*x - 1)

[run]
tension PHI
"""

_DOUBLE_ROOT = """
[chart]
even = x
box x = 0 1

[target]
even = u
box u = -10 10

[metric h]
x,x = (3*x - 1)^2

[metric g]
chart = target
u,u = (3*u - 1)^2

[morphism ID]
source_metric = h
target_metric = g
u = x

[run]
action ID
"""


@pytest.mark.parametrize("text, exit_code, lines", [
    # det = 3x - 1 changes sign at x = 1/3; at the midpoint alone the
    # signature reads (0, 2, 0)
    (_UNIT_SQUARE_METRIC.format(xx="3*x - 1", yy="1") + "validate-metric g\n", 1,
     ["1.status = fail", "1.violation = nondegeneracy"]),
    # the denominator 3x - 1 is -1 at x = 0 and 2 at x = 1: a pole between
    # them, at neither the midpoint nor a corner
    (_POLE_MAP, 2,
     ["error = NonInvertible: body has a pole between x = 0 and x = 1 (line 10)"]),
    # the sign test of (3x - 1)^2 is undecided: its double root 1/3 is no
    # cut point; a root read off the midpoint alone is 3x - 1, and the
    # action 1/4, where the integral of |3x - 1|/2 is 5/12
    (_DOUBLE_ROOT, 1, ["1.status = fail", "1.violation = nondegeneracy"]),
    # y,y = x^2 vanishes on the edge x = 0 of the closed box
    (_UNIT_SQUARE_METRIC.format(xx="1", yy="x^2")
     + "validate-metric g\nsolve-killing g --degree 1\n", 1,
     ["1.violation = nondegeneracy", "2.command = solve-killing g --degree 1",
      "2.status = fail", "2.violation = nondegeneracy"]),
], ids=["sign_change_inside", "pole_inside", "double_root_inside", "zero_on_an_edge"])
def test_the_whole_closed_box_is_certified(tmp_path, text, exit_code, lines):
    """Inputs that are degenerate somewhere on the closed box, though not at
    its midpoint or at a corner, fail: a metric for nondegeneracy (exit 1),
    a map with a pole in its domain at load (exit 2)."""
    scenario, out = tmp_path / "box.scn", tmp_path / "box.report.txt"
    scenario.write_text(text)
    assert cli_main(["run", str(scenario), "--report", str(out)]) == exit_code
    report = out.read_text().splitlines()
    assert all(line in report for line in lines), report
    assert "status: pass" not in report


# the chart of the nilpotent-pole cases, with a flat (1|2) target
_NILPOTENT_POLES = """\
[chart]
even = x
odd = th1 th2
box x = -1 1

[target]
even = u
odd = e1 e2
box u = -10 10

[metric h]
x,x = {xx}
th1,th2 = -1

[metric g]
chart = target
u,u = 1
e1,e2 = -1

{morphism}[run]
{run}"""


def test_a_pole_of_a_nilpotent_coefficient_fails_the_metric():
    """x,x = 1 + th1 th2 / x has a pole at x = 0 in its nilpotent part only:
    it fails as a pole of the body does (exit 3), where it used to pass
    with signature (0, 1, 2) and print a frame with a 1/x; the message
    names the nilpotent coefficient, since the body 1 has no pole."""
    text = _NILPOTENT_POLES.format(xx="1 + th1*th2/x", morphism="",
                                   run="validate-metric h\nosp-frame h\n")
    report = run_scenario(text)
    assert report.exit_code == 3
    pole = "NonInvertible: a nilpotent coefficient has a pole between x = -1 and x = 1"
    assert [r.details for r in report.results] == [[("error", pole)]] * 2


@pytest.mark.parametrize("images", [
    "u = x + th1*th2/x\ne1 = th1/x\ne2 = th2\n",
    "u = x\ne1 = th1/x\ne2 = th2\n",
], ids=["even_and_odd_images", "odd_image_alone"])
def test_a_pole_of_a_nilpotent_or_odd_image_is_a_load_error(images):
    """A pole at x = 0 in the nilpotent part of an even image, or in an odd
    image, is a pole of the map: a load error (exit 2) naming the
    [morphism PHI] line, where ``tension PHI`` used to print a tension with
    poles in the box.  The odd image e1, whose body is 0, fails first, and
    the message names its nilpotent coefficient."""
    morphism = "[morphism PHI]\nsource_metric = h\ntarget_metric = g\n" + images + "\n"
    text = _NILPOTENT_POLES.format(xx="1", morphism=morphism, run="tension PHI\n")
    report = run_scenario(text)
    line = text.splitlines().index("[morphism PHI]") + 1
    assert report.exit_code == 2
    assert report.load_error == ("NonInvertible: a nilpotent coefficient has a pole"
                                 f" between x = -1 and x = 1 (line {line})")


def test_frame_routes_run_on_a_pivot_that_is_not_a_square():
    """x,x = 1 + x has no rational orthonormal frame: ``osp-frame`` still
    reports NotASquare, but every Killing mode, the tension of the identity
    into a flat (1|2) target and the target Noether theorem run on the
    orthogonal frame of pivot 1 + x, and pass."""
    morphism = ("[morphism ID]\nsource_metric = h\ntarget_metric = g\n"
                "u = x\ne1 = th1\ne2 = th2\n\n"
                "[vectorfield X]\nparity = odd\nth1 = 1\n\n"
                "[vectorfield T]\nchart = target\nu = 1\n\n")
    text = _NILPOTENT_POLES.replace("box x = -1 1", "box x = 0 1").format(
        xx="1 + x", morphism=morphism,
        run="check-killing X h --mode all\ntension ID\ncheck-noether target ID T\nosp-frame h\n")
    killing, tension, noether, frame = run_scenario(text).results
    assert killing.status == "pass"
    assert killing.details == [("mode_i", "pass"), ("mode_ii", "pass"), ("mode_v", "pass"),
                               ("agreement", "true")]
    assert tension.status == "pass"
    assert tension.details == [("superharmonic", "false"),
                               ("tau^u", "((-1)/(2*x^2 + 4*x + 2))")]
    assert noether.status == "pass"
    assert frame.details == [("error", "NotASquare: body -x - 1 admits no exact square root")]


def test_missing_pullback_names_the_morphism_line():
    lines = (DATA / "flat_killing.scn").read_text().splitlines()
    header = lines.index("[morphism ID]") + 1
    lines.remove("th2 = th2")
    report = run_scenario("\n".join(lines))
    assert report.exit_code == 2
    assert report.load_error == (
        f"ScenarioError: missing pullback expression for 'th2' (line {header})")


# A curved (1|2) source and a flat (2|2) target.  S lives on the source chart
# and T on the target chart, with its one component in a slot the source lacks.
_TWO_CHARTS = """\
[chart]
even = x
odd = th1 th2
box x = 1 2

[target]
even = u v
odd = e1 e2
box u = 1 2
box v = 1 2

[metric h]
x,x = x^2
th1,th2 = -1

[metric g]
chart = target
u,u = 1
v,v = 1
e1,e2 = -1

[vectorfield S]
x = 1

[vectorfield T]
chart = target
e2 = e1

[morphism P]
source_metric = h
target_metric = g
u = x
v = x
e1 = th1
e2 = th2

[run]
"""


def _field_on_the_other_chart():
    """Every command of the command table that takes a field, with each of
    its variants and each value of its options, given the field on the other
    chart: a field belongs on the chart of the metric G, and for
    check-noether on the target chart for ``target`` and on the source
    chart otherwise."""
    from supergeo import scenario

    lines = set()
    for name, command in scenario._COMMANDS.items():
        if not {"X", "XI"} & set(command.args):
            continue
        options = [""] + [f" --{opt} {value}" for opt, allowed in command.options.items()
                          if isinstance(allowed, tuple) for value in allowed]
        variants = itertools.product(*(a if isinstance(a, tuple) else (a,) for a in command.args))
        for args, metric in itertools.product(variants, ("h", "g")):
            if "G" in args:
                field = "T" if metric == "h" else "S"
            else:
                field = "S" if "target" in args else "T"
            words = [{"G": metric, "PHI": "P", "X": field, "XI": field}.get(a, a) for a in args]
            lines.update(f"{name} {' '.join(words)}{opt}" for opt in options)
    return sorted(lines)


@pytest.mark.parametrize("line", _field_on_the_other_chart())
def test_a_field_on_the_other_chart_is_a_chart_mismatch(line, tmp_path):
    """The command reports ChartMismatch with exit 3; no Python exception
    leaves ``supergeo run``."""
    scn, out = tmp_path / "two_charts.scn", tmp_path / "report.txt"
    scn.write_text(_TWO_CHARTS + line + "\n")
    assert cli_main(["run", str(scn), "--report", str(out)]) == 3
    assert "\n1.error = ChartMismatch: " in out.read_text()


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
