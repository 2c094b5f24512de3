"""Scenario files: declaration of a chart (plus optional target chart),
named metrics / vector fields / morphisms, and a command list.

The format is line oriented.  ``_SECTIONS`` declares each section kind and
the keys it accepts, and ``_COMMANDS`` each command of ``[run]`` with its
arguments and options; one reader and one command parser check a scenario
against these tables.  ``#`` starts a comment.  The normative grammar ships
in docs/scenario-format.md.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from . import __version__
from .errors import (
    MetricViolation,
    ParseError,
    ScenarioError,
    SupergeoError,
    _Record,
)
from .geometry import BilinearForm, Chart, MetricContext, VectorField
# unused here, but perfbench/tests checks that its tracer wraps this copy
from .geometry import validate_metric  # noqa: F401
from .lie import (KILLING_MODES, KillingChecker, ansatz_size, form_check,
                  lie_derivative_bilinear, solve_killing)
from .morphisms import HarmonicSetup, Morphism
from .integration import action
from .parsing import parse_expression, read_int
from .scalars import render_number

_EXIT_PASS, _EXIT_FAIL, _EXIT_PARSE, _EXIT_MATH = 0, 1, 2, 3
_PARITIES = {"even": 0, "odd": 1}

# the most flesh generators a chart declares
MAX_FLESH = 1000
# the most ansatz columns a solve-killing command builds: (2|10) at degree
# 1 has 36,864 and (2|10) at degree 2 has 73,728, which solves in about 2 s
MAX_ANSATZ_COLUMNS = 100_000


class Scenario(_Record):
    __slots__ = ("source", "target", "metrics", "vectorfields", "morphisms",
                 "morphism_metrics", "commands")

    def __init__(self, source: Chart, target: Chart, metrics: dict | None = None,
                 vectorfields: dict | None = None, morphisms: dict | None = None,
                 morphism_metrics: dict | None = None, commands: list | None = None):
        self.source, self.target = source, target
        self.metrics = {} if metrics is None else metrics
        self.vectorfields = {} if vectorfields is None else vectorfields
        self.morphisms = {} if morphisms is None else morphisms
        self.morphism_metrics = {} if morphism_metrics is None else morphism_metrics
        # (text, runner method, arguments, options) per [run] line
        self.commands = [] if commands is None else commands


class CommandResult(_Record):
    __slots__ = ("command", "status", "details")

    def __init__(self, command: str, status: str, details: list | None = None):
        self.command = command
        self.status = status  # pass | fail | error
        # ordered (key, value) pairs
        self.details = [] if details is None else details


class Report(_Record):
    __slots__ = ("scenario_name", "seed", "results", "load_error")

    def __init__(self, scenario_name: str, seed: int, results: list,
                 load_error: str | None = None):
        self.scenario_name, self.seed = scenario_name, seed
        self.results, self.load_error = results, load_error

    @property
    def exit_code(self) -> int:
        if self.load_error is not None:
            return _EXIT_PARSE
        if any(r.status == "error" for r in self.results):
            return _EXIT_MATH
        if any(r.status == "fail" for r in self.results):
            return _EXIT_FAIL
        return _EXIT_PASS

    def render(self) -> str:
        lines = [
            f"supergeo {__version__}",
            f"scenario: {self.scenario_name}",
            f"seed: {self.seed}",
            "",
        ]
        if self.load_error is not None:
            lines += ["[error]", self.load_error, "", "[results]",
                      f"error = {self.load_error}", f"exit = {self.exit_code}"]
            return "\n".join(lines) + "\n"
        for n, res in enumerate(self.results, 1):
            lines.append(f"[{n}] {res.command}")
            lines.append(f"status: {res.status}")
            for key, value in res.details:
                lines.append(f"{key} = {value}")
            lines.append("")
        lines.append("[results]")
        for n, res in enumerate(self.results, 1):
            lines.append(f"{n}.command = {res.command}")
            lines.append(f"{n}.status = {res.status}")
            for key, value in res.details:
                lines.append(f"{n}.{key} = {value}")
        lines.append(f"exit = {self.exit_code}")
        return "\n".join(lines) + "\n"


def _split_names(value: str):
    return [t for t in value.replace(",", " ").split() if t]


# -- declarations --------------------------------------------------------------


class _Section(_Record):
    """Whether the header takes a name, the fixed keys, and the coordinate
    keys: ``prefix``, if any, then ``coordinates`` coordinate names."""

    __slots__ = ("named", "keys", "coordinates", "prefix")

    def __init__(self, named: bool, keys: tuple = (), coordinates: int = 0, prefix: str = ""):
        self.named, self.keys = named, keys
        self.coordinates, self.prefix = coordinates, prefix

    def key(self, text):
        """A fixed key, or a coordinate key as the tuple of its names (so
        ``x,x`` and ``x, x`` are one key); None for any other text."""
        if text in self.keys:
            return text
        words = _split_names(text)
        if self.prefix:
            if words[:1] != [self.prefix]:
                return None
            words = words[1:]
        return tuple(words) if len(words) == self.coordinates else None


_CHART_SECTION = _Section(False, ("even", "odd", "flesh"), 1, "box")

# [run] holds commands, one per line, not keys
_SECTIONS = {
    "chart": _CHART_SECTION,
    "target": _CHART_SECTION,
    "metric": _Section(True, ("chart",), 2),
    "vectorfield": _Section(True, ("chart", "parity"), 1),
    "morphism": _Section(True, ("source_metric", "target_metric"), 1),
    "run": _Section(False),
}


class _Block(_Record):
    """A section as read: its header, the header's line number, and its
    entries, key -> (line number, value, the value's column) in file order."""

    __slots__ = ("title", "lineno", "entries")

    def __init__(self, title: str, lineno: int, entries: dict | None = None):
        self.title, self.lineno = title, lineno
        self.entries = {} if entries is None else entries

    def get(self, key, default=None):
        """(line number, value) of a fixed key, or of the header and ``default``."""
        return self.entries.get(key, (self.lineno, default))[:2]

    def components(self, chart: Chart, pool):
        """(coordinate indices in ``chart``, value parsed over ``pool``) per
        coordinate key."""
        index = {n: i for i, n in enumerate(chart.coordinate_names())}
        out = []
        for key, (lineno, value, column) in self.entries.items():
            if isinstance(key, tuple):
                for name in key:
                    if name not in index:
                        raise ParseError(f"unknown coordinate {name!r} in {self.title}", lineno)
                out.append((tuple(index[n] for n in key),
                            parse_expression(value, pool, lineno, column)))
        return out

    def chart(self, charts) -> Chart:
        lineno, value = self.get("chart", "source")
        return charts[_value(tuple(charts), value, "chart", lineno)]


def _read(text: str):
    """The sections of a scenario by (kind, name) in file order, and the
    (line number, text) of each command; unknown or repeated sections and
    keys are parse errors."""
    blocks, commands = {}, []
    kind = block = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            header = line[1:-1].split()
            if not header:
                raise ParseError("empty section header", lineno)
            kind, *names = header
            section = _SECTIONS.get(kind)
            if section is None:
                raise ParseError(f"unknown section [{kind}]", lineno)
            if len(names) != section.named:
                takes = "one name" if section.named else "no name"
                raise ParseError(f"section [{kind}] takes {takes}", lineno)
            block = _Block(f"[{' '.join(header)}]", lineno)
            name = names[0] if names else None
            if (kind, name) in blocks:
                raise ParseError(f"section {block.title} given twice", lineno)
            blocks[kind, name] = block
        elif block is None:
            raise ParseError("content before the first section", lineno)
        elif kind == "run":
            commands.append((lineno, line))
        else:
            if "=" not in line:
                raise ParseError("expected 'key = value'", lineno)
            text, value = (part.strip() for part in line.split("=", 1))
            key = section.key(text)
            if key is None:
                raise ParseError(f"unknown {kind} key {text!r}", lineno)
            if key in block.entries:
                raise ParseError(f"key {text!r} given twice in {block.title}", lineno)
            column = len(raw) - len(raw[raw.index("=") + 1:].lstrip()) + 1
            block.entries[key] = (lineno, value, column)
    return blocks, commands


def load_scenario(text: str) -> Scenario:
    """Parse the scenario text; raises ParseError / ScenarioError."""
    blocks, commands = _read(text)
    if ("chart", None) not in blocks:
        raise ScenarioError("scenario has no [chart] section")
    source = _build_chart(blocks["chart", None])
    target = _build_chart(blocks["target", None]) if ("target", None) in blocks else source
    charts = {"source": source, "target": target}
    sc = Scenario(source, target)
    for (kind, name), block in blocks.items():
        if kind == "metric":
            sc.metrics[name] = _build_metric(block.chart(charts), block)
        elif kind == "vectorfield":
            sc.vectorfields[name] = _build_vectorfield(block.chart(charts), block)
        elif kind == "morphism":
            images = {target.coordinate(i): f for (i,), f in block.components(target, source.pool)}
            try:
                sc.morphisms[name] = Morphism(source, target, images)
            except SupergeoError as exc:  # a missing pullback, a pole or a box violation
                raise type(exc)(f"{exc} (line {block.lineno})") from None
            sc.morphism_metrics[name] = (
                block.get("source_metric")[1], block.get("target_metric")[1]
            )
    sc.commands = [_parse_command(sc, lineno, line) for lineno, line in commands]
    return sc


# a box bound as docs/scenario-format.md writes it: [-]p[/q] in ASCII
# digits, q not zero; a flesh count or an int option is ASCII digits alone
_BOUND = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")
_DIGITS = re.compile(r"[0-9]+")


def _bound(text, lineno) -> Fraction:
    """The value of a box bound that ``_BOUND`` matches."""
    p, _, q = text.lstrip("-").partition("/")
    value = Fraction(read_int(p, lineno), read_int(q or "1", lineno))
    return -value if text.startswith("-") else value


def _build_chart(block: _Block) -> Chart:
    lineno, flesh = block.get("flesh", "0")
    if not _DIGITS.fullmatch(flesh):
        raise ParseError(f"flesh count must be a nonnegative integer, not {flesh!r}", lineno)
    flesh = read_int(flesh, lineno)
    if flesh > MAX_FLESH:
        raise ParseError(f"flesh count must be at most {MAX_FLESH}", lineno)
    box = {}
    for key, (lineno, value, _) in block.entries.items():
        if isinstance(key, tuple):
            parts = value.split()
            if len(parts) != 2:
                raise ParseError("box interval needs two rationals", lineno)
            if not all(map(_BOUND.fullmatch, parts)):
                raise ParseError(f"bad rational literal in {value!r}", lineno)
            box[key[0]] = tuple(_bound(part, lineno) for part in parts)
    even, odd = (_split_names(block.get(k, "")[1]) for k in ("even", "odd"))
    try:
        return Chart(even, odd, box, tuple(f"lam{i+1}" for i in range(flesh)))
    except ValueError as exc:
        raise ScenarioError(f"{exc} (line {block.lineno})") from None


def _build_metric(chart: Chart, block: _Block) -> BilinearForm:
    """The given entries; the missing partner of a given entry by graded
    symmetry, and zero elsewhere."""
    given = dict(block.components(chart, chart.pool))

    def entry(i, j):
        if (i, j) not in given and (j, i) in given:
            return given[j, i] * (-1 if chart.parity(i) * chart.parity(j) else 1)
        return given.get((i, j), chart.pool.zero())

    dim = range(chart.dim)
    return BilinearForm(chart, [[entry(i, j) for j in dim] for i in dim], 0)


def _build_vectorfield(chart: Chart, block: _Block) -> VectorField:
    comps = [chart.pool.zero()] * chart.dim
    for (i,), f in block.components(chart, chart.pool):
        comps[i] = f
    lineno, parity = block.get("parity")
    if parity is not None:
        parity = _value(tuple(_PARITIES), parity, "parity", lineno)
        return VectorField(chart, comps, _PARITIES[parity])
    for p in (0, 1):
        if all(c.has_parity((p + chart.parity(i)) % 2) for i, c in enumerate(comps)):
            return VectorField(chart, comps, p)
    raise ScenarioError(f"vector field parity is not homogeneous (line {block.lineno})")


# -- commands ------------------------------------------------------------------


class _Command(_Record):
    """The runner method, the positional arguments (a placeholder of
    ``_NAMES``, or the allowed values of a variant), the options (name ->
    allowed values, or ``int`` for a nonnegative integer), the required
    options and a check of the command's size at load.  The method and the
    check get the arguments, then the options given; the check also gets
    the line's ``(line N)``."""

    __slots__ = ("handler", "args", "options", "required", "check")

    def __init__(self, handler, args: tuple, options: dict | None = None, required: tuple = (),
                 check=None):
        self.handler, self.args = handler, args
        self.options = {} if options is None else options
        self.required, self.check = required, check


# What a placeholder argument names: the Scenario table and the noun for errors.
_NAMES = {
    "G": ("metrics", "metric"),
    "X": ("vectorfields", "vector field"),
    "XI": ("vectorfields", "vector field"),
    "PHI": ("morphisms", "morphism"),
}


def _usage(name: str) -> str:
    """The usage line of a command, as docs/scenario-format.md lists it."""
    command = _COMMANDS[name]
    words = [name] + ["|".join(a) if isinstance(a, tuple) else a for a in command.args]
    for opt, allowed in command.options.items():
        text = f"--{opt} " + (opt.upper() if allowed is int else "|".join(allowed))
        words.append(text if opt in command.required else f"[{text}]")
    return " ".join(words)


def _value(allowed, text: str, what: str, lineno: int, sc: Scenario = None):
    """A value as a table allows it: one of a tuple of values, a nonnegative
    integer, or the declared object a placeholder names (for a morphism, its
    name once both of its metrics are known)."""
    where = f"(line {lineno})"
    if isinstance(allowed, tuple):
        if text not in allowed:
            raise ScenarioError(f"unknown {what} {text!r} {where}")
        return text
    if allowed is int:
        if not _DIGITS.fullmatch(text):
            raise ScenarioError(f"{what} must be a nonnegative integer, not {text!r} {where}")
        try:
            return read_int(text)
        except ParseError as exc:
            raise ScenarioError(f"{what}: {exc} {where}") from None
    table, noun = _NAMES[allowed]
    if text not in getattr(sc, table):
        raise ScenarioError(f"unknown {noun} {text!r} {where}")
    if allowed != "PHI":
        return getattr(sc, table)[text]
    if None in sc.morphism_metrics[text]:
        raise ScenarioError(f"morphism {text!r} needs source_metric and target_metric {where}")
    for metric in sc.morphism_metrics[text]:
        _value("G", metric, "", lineno, sc)
    return text


def _parse_command(sc: Scenario, lineno: int, line: str):
    name, *words = line.split()
    command = _COMMANDS.get(name)
    where = f"(line {lineno})"
    if command is None:
        raise ScenarioError(f"unknown command {name!r} {where}")
    usage = f"usage: {_usage(name)} {where}"
    args, options = [], {}
    tokens = iter(words)
    for word in tokens:
        opt = word[2:]
        if not word.startswith("--"):
            args.append(word)
        elif opt not in command.options:
            raise ScenarioError(f"unknown option {word}; {usage}")
        elif opt in options:
            raise ScenarioError(f"option {word} given twice {where}")
        else:
            options[opt] = next(tokens, None)
            if options[opt] is None:
                raise ScenarioError(f"option {word} needs a value {where}")
    if len(args) != len(command.args) or not options.keys() >= set(command.required):
        raise ScenarioError(usage)
    args = [_value(allowed, arg, f"{name} variant", lineno, sc)
            for arg, allowed in zip(args, command.args)]
    options = {opt: _value(command.options[opt], value, f"{name} --{opt}", lineno)
               for opt, value in options.items()}
    if command.check is not None:
        command.check(where, *args, **options)
    return line, command.handler, args, options


def _verdict(key, check, good="true", bad="false"):
    """The details of a check's verdict: ``key = good``, or ``key = bad``
    and ``key.first = label: residual`` of its first failure."""
    if check.passed:
        return [(key, good)]
    return [(key, bad), (f"{key}.first", check.first)]


def _residual(key, check):
    """The detail of a check of one residual: the residual, or 0."""
    return key, check.failures[0][1].render() if check.failures else "0"


def _nonzero_components(entries):
    """The (key, rendered value) details of the nonzero superfunctions among
    ordered (key, superfunction) pairs."""
    return [(key, f.render()) for key, f in entries if not f.is_zero()]


def _check_ansatz(where, g, degree, parity=None):
    """A solve-killing command builds at most :data:`MAX_ANSATZ_COLUMNS`
    columns.  The count caps the degree at the bound, so that a degree of
    4300 digits costs no big binomial: with an even variable C(n + d, n) >
    d, so a degree above the bound exceeds it too (unless no column is
    left), and without one the degree does not count."""
    if ansatz_size(g.chart, min(degree, MAX_ANSATZ_COLUMNS), _PARITIES.get(parity)) \
            > MAX_ANSATZ_COLUMNS:
        raise ScenarioError(f"solve-killing: the ansatz has more than {MAX_ANSATZ_COLUMNS}"
                            f" columns {where}")


class _Runner:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self._setups = {}

    def setup(self, name) -> HarmonicSetup:
        """The harmonic-map setup of a morphism, built on first use."""
        if name not in self._setups:
            h, g = (self.sc.metrics[m] for m in self.sc.morphism_metrics[name])
            self._setups[name] = HarmonicSetup(self.sc.morphisms[name], h, g)
        return self._setups[name]

    def run(self, text, handler, args, options) -> CommandResult:
        try:
            status, details = handler(self, *args, **options)
        except MetricViolation as exc:
            status, details = "fail", [("violation", str(exc.violation))]
        except SupergeoError as exc:
            status, details = "error", [("error", f"{type(exc).__name__}: {exc}")]
        return CommandResult(text, status, details)

    def _cmd_validate_metric(self, g):
        sig = MetricContext.of(g).signature
        return "pass", [("signature", str(sig.as_tuple()))]

    def _cmd_osp_frame(self, g):
        ctx = MetricContext.of(g)
        details = [("signature", str(ctx.signature.as_tuple()))]
        for j, f in enumerate(ctx.frame.normalised(g).fields):
            details.append((f"e_{j+1}", f.render()))
        return "pass", details

    def _cmd_levi_civita(self, g):
        ctx = MetricContext.of(g)
        names = ctx.g.chart.coordinate_names()
        gamma = ctx.connection.gamma
        details = _nonzero_components(
            (f"Gamma^{names[k]}_{names[i]},{names[j]}", gamma[i][j][k])
            for i, j, k in itertools.product(range(len(names)), repeat=3)
        )
        return "pass", [("nonzero", str(len(details)))] + details

    def _cmd_lie_derivative(self, X, g):
        check = form_check(lie_derivative_bilinear(X, g))
        zero = ("zero", "true" if check.passed else "false")
        return "pass", [zero] + _nonzero_components(check.failures)

    def _cmd_check_killing(self, X, g, mode="all"):
        report = KillingChecker(g).check(X, mode)
        details = [line for m, check in report.modes.items()
                   for line in _verdict(f"mode_{m}", check, "pass", "fail")]
        details.append(("agreement", "true" if report.agreement else "false"))
        return ("pass" if report.passed else "fail"), details

    def _cmd_solve_killing(self, g, degree, parity=None):
        basis = solve_killing(g, degree, _PARITIES.get(parity))
        even, odd = basis.dims
        return "pass", [("even_dim", str(even)), ("odd_dim", str(odd))] + [
            (name, X.render()) for name, X in basis.named_fields]

    def _cmd_tension(self, phi):
        setup = self.setup(phi)
        tau = setup.tension()
        names = setup.phi.target.coordinate_names()
        harmonic = ("superharmonic", "true" if tau.is_zero() else "false")
        return "pass", [harmonic] + _nonzero_components(
            (f"tau^{a}", c) for a, c in zip(names, tau.components)
        )

    def _cmd_check_noether(self, which, phi, xi):
        setup = self.setup(phi)
        if which == "stress":
            rep = setup.stress_energy_report(xi)
            keys = ("lemma_residual", "current_identity_residual", "conserved_div")
            details = [("energy", rep.energy.render())] + list(map(_residual, keys, rep.checks()))
            return ("pass" if rep.passed else "fail"), details
        if which == "target":
            rep, key = setup.check_noether_target(xi), "xi_killing"
        else:
            rep, key = setup.check_noether_domain(xi), "phi_killing"
        details = _verdict(key, rep.precondition) + [
            _residual("div_residual", rep.divergence),
            ("superharmonic", "true" if rep.tension_is_zero else "false"),
        ]
        if rep.current is not None:
            details.append(_residual("current_div", rep.current))
        if rep.lemma is not None:
            details += _verdict("lemma_ok", rep.lemma)
        return ("pass" if rep.passed else "fail"), details

    def _cmd_action(self, phi):
        value = action(self.setup(phi))
        return "pass", [("value", render_number(value))]


_COMMANDS = {
    "validate-metric": _Command(_Runner._cmd_validate_metric, ("G",)),
    "osp-frame": _Command(_Runner._cmd_osp_frame, ("G",)),
    "levi-civita": _Command(_Runner._cmd_levi_civita, ("G",)),
    "lie-derivative": _Command(_Runner._cmd_lie_derivative, ("X", "G")),
    "check-killing": _Command(_Runner._cmd_check_killing, ("X", "G"),
                              {"mode": (*KILLING_MODES, "all")}),
    "solve-killing": _Command(_Runner._cmd_solve_killing, ("G",),
                              {"degree": int, "parity": tuple(_PARITIES)},
                              required=("degree",), check=_check_ansatz),
    "tension": _Command(_Runner._cmd_tension, ("PHI",)),
    "check-noether": _Command(_Runner._cmd_check_noether,
                              (("target", "domain", "stress"), "PHI", "XI")),
    "action": _Command(_Runner._cmd_action, ("PHI",)),
}


def run_scenario(text: str, name: str = "<scenario>", seed: int = 0) -> Report:
    """Load and execute a scenario; never raises, everything lands in the report.

    Declaration-time failures of any kind (bad expressions, parity clashes,
    box violations, unknown names) are parse-level: exit code 2.
    """
    try:
        scenario = load_scenario(text)
        runner = _Runner(scenario)
        results = [runner.run(*call) for call in scenario.commands]
        return Report(name, seed, results)
    except SupergeoError as exc:
        return Report(name, seed, [], load_error=f"{type(exc).__name__}: {exc}")
