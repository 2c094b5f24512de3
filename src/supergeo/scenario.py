"""Scenario files: declaration of a chart (plus optional target chart),
named metrics / vector fields / morphisms, and a command list.

The format is line oriented.  Sections are ``[chart]``, ``[target]``,
``[metric NAME]``, ``[vectorfield NAME]``, ``[morphism NAME]`` and ``[run]``;
every other line inside a section is ``key = expression`` (or a bare command
inside ``[run]``).  ``#`` starts a comment.  The normative grammar ships in
docs/scenario-format.md.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .errors import (
    MetricViolation,
    ParseError,
    ScenarioError,
    SupergeoError,
)
from .geometry import BilinearForm, Chart, MetricContext, VectorField, validate_metric
from .lie import KillingChecker, lie_derivative_bilinear, solve_killing
from .morphisms import HarmonicSetup, Morphism
from .integration import action
from .parsing import parse_expression

_EXIT_PASS, _EXIT_FAIL, _EXIT_PARSE, _EXIT_MATH = 0, 1, 2, 3


@dataclass
class Scenario:
    source: Chart
    target: Chart
    metrics: dict
    vectorfields: dict
    morphisms: dict
    morphism_metrics: dict
    commands: list


@dataclass
class CommandResult:
    command: str
    status: str  # pass | fail | error
    details: list = field(default_factory=list)  # ordered (key, value) pairs


@dataclass
class Report:
    scenario_name: str
    seed: int
    results: list
    load_error: str | None = None

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


def _parse_fraction(text: str, lineno: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational literal {text!r}", lineno) from None


def _split_names(value: str):
    return [t for t in value.replace(",", " ").split() if t]


class _ChartSpec:
    def __init__(self):
        self.even = []
        self.odd = []
        self.flesh = 0
        self.box = {}

    def build(self) -> Chart:
        flesh = tuple(f"lam{i+1}" for i in range(self.flesh))
        return Chart(self.even, self.odd, self.box, flesh)


def load_scenario(text: str) -> Scenario:
    """Parse the scenario text; raises ParseError / ScenarioError."""
    source_spec = _ChartSpec()
    target_spec = None
    sections = []  # (kind, name, [(lineno, key, value)] or [(lineno, command)])
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            header = line[1:-1].strip().split()
            if not header:
                raise ParseError("empty section header", lineno)
            kind = header[0]
            name = header[1] if len(header) > 1 else None
            if kind in ("chart", "target", "run") and name is not None:
                raise ParseError(f"section [{kind}] takes no name", lineno)
            if kind in ("metric", "vectorfield", "morphism") and name is None:
                raise ParseError(f"section [{kind}] needs a name", lineno)
            if kind not in ("chart", "target", "run", "metric", "vectorfield", "morphism"):
                raise ParseError(f"unknown section [{kind}]", lineno)
            current = (kind, name, [])
            sections.append(current)
            continue
        if current is None:
            raise ParseError("content before the first section", lineno)
        if current[0] == "run":
            current[2].append((lineno, line))
        else:
            if "=" not in line:
                raise ParseError("expected 'key = value'", lineno)
            key, value = line.split("=", 1)
            current[2].append((lineno, key.strip(), value.strip()))

    def fill_chart(spec, entries):
        for lineno, key, value in entries:
            if key == "even":
                spec.even = _split_names(value)
            elif key == "odd":
                spec.odd = _split_names(value)
            elif key == "flesh":
                try:
                    spec.flesh = int(value)
                except ValueError:
                    raise ParseError("flesh count must be an integer", lineno) from None
                if spec.flesh < 0:
                    raise ParseError("flesh count must be nonnegative", lineno)
            elif key.startswith("box "):
                coord = key[4:].strip()
                parts = value.split()
                if len(parts) != 2:
                    raise ParseError("box interval needs two rationals", lineno)
                spec.box[coord] = (
                    _parse_fraction(parts[0], lineno),
                    _parse_fraction(parts[1], lineno),
                )
            else:
                raise ParseError(f"unknown chart key {key!r}", lineno)

    chart_seen = False
    for kind, name, entries in sections:
        if kind == "chart":
            chart_seen = True
            fill_chart(source_spec, entries)
        elif kind == "target":
            target_spec = target_spec or _ChartSpec()
            fill_chart(target_spec, entries)
    if not chart_seen:
        raise ScenarioError("scenario has no [chart] section")
    try:
        source = source_spec.build()
        target = target_spec.build() if target_spec is not None else source
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    charts = {"source": source, "target": target}
    metrics, vectorfields = {}, {}
    morphisms, morphism_metrics = {}, {}
    commands = []

    for kind, name, entries in sections:
        if kind == "metric":
            chart_key = "source"
            comps = {}
            for lineno, key, value in entries:
                if key == "chart":
                    if value not in charts:
                        raise ParseError("chart must be 'source' or 'target'", lineno)
                    chart_key = value
                    continue
                pair = _split_names(key)
                if len(pair) != 2:
                    raise ParseError("metric keys look like 'i, j'", lineno)
                comps[(pair[0], pair[1])] = (lineno, value)
            chart = charts[chart_key]
            metrics[name] = _build_metric(chart, comps)
        elif kind == "vectorfield":
            chart_key = "source"
            parity = None
            comp_entries = {}
            for lineno, key, value in entries:
                if key == "chart":
                    if value not in charts:
                        raise ParseError("chart must be 'source' or 'target'", lineno)
                    chart_key = value
                elif key == "parity":
                    if value not in ("even", "odd"):
                        raise ParseError("parity must be 'even' or 'odd'", lineno)
                    parity = 0 if value == "even" else 1
                else:
                    comp_entries[key] = (lineno, value)
            chart = charts[chart_key]
            vectorfields[name] = _build_vectorfield(chart, comp_entries, parity)
        elif kind == "morphism":
            met = {"source_metric": None, "target_metric": None}
            images = {}
            for lineno, key, value in entries:
                if key in met:
                    met[key] = value
                else:
                    images[key] = (lineno, value)
            morphisms[name] = _build_morphism(source, target, images)
            morphism_metrics[name] = (met["source_metric"], met["target_metric"])
        elif kind == "run":
            commands.extend(entries)

    return Scenario(
        source, target, metrics, vectorfields, morphisms, morphism_metrics, commands
    )


def _build_metric(chart: Chart, comps) -> BilinearForm:
    names = chart.coordinate_names()
    index = {n: i for i, n in enumerate(names)}
    dim = chart.dim
    grid = [[None] * dim for _ in range(dim)]
    for (a, b), (lineno, value) in comps.items():
        if a not in index or b not in index:
            raise ParseError(f"unknown coordinate in metric key '{a}, {b}'", lineno)
        grid[index[a]][index[b]] = parse_expression(value, chart.pool)
    for i in range(dim):
        for j in range(dim):
            if grid[i][j] is None and grid[j][i] is not None:
                sign = -1 if chart.parity(i) * chart.parity(j) else 1
                grid[i][j] = grid[j][i] * sign
    zero = chart.pool.zero()
    grid = [[e if e is not None else zero for e in row] for row in grid]
    return BilinearForm(chart, grid, 0)


def _build_vectorfield(chart: Chart, comp_entries, parity) -> VectorField:
    names = chart.coordinate_names()
    comps = []
    for i, n in enumerate(names):
        if n in comp_entries:
            lineno, value = comp_entries.pop(n)
            comps.append(parse_expression(value, chart.pool))
        else:
            comps.append(chart.pool.zero())
    if comp_entries:
        bad = next(iter(comp_entries))
        raise ParseError(f"unknown coordinate {bad!r} in vector field",
                         comp_entries[bad][0])
    if parity is None:
        for p in (0, 1):
            if all(
                c.has_parity((p + chart.parity(i)) % 2) for i, c in enumerate(comps)
            ):
                parity = p
                break
        else:
            raise ScenarioError("vector field parity is not homogeneous")
    return VectorField(chart, comps, parity)


def _build_morphism(source: Chart, target: Chart, images) -> Morphism:
    table = {}
    for key, (lineno, value) in images.items():
        table[key] = parse_expression(value, source.pool)
    return Morphism(source, target, table)


# -- command execution ---------------------------------------------------------


def _nonzero_components(entries):
    """The (key, rendered value) details of the nonzero superfunctions among
    ordered (key, superfunction) pairs."""
    return [(key, f.render()) for key, f in entries if not f.is_zero()]


class _Runner:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self._setups = {}

    def metric(self, name, lineno):
        try:
            return self.sc.metrics[name]
        except KeyError:
            raise ScenarioError(f"unknown metric {name!r} (line {lineno})") from None

    def vectorfield(self, name, lineno):
        try:
            return self.sc.vectorfields[name]
        except KeyError:
            raise ScenarioError(f"unknown vector field {name!r} (line {lineno})") from None

    def setup(self, name, lineno) -> HarmonicSetup:
        if name not in self._setups:
            try:
                phi = self.sc.morphisms[name]
            except KeyError:
                raise ScenarioError(f"unknown morphism {name!r} (line {lineno})") from None
            h_name, g_name = self.sc.morphism_metrics[name]
            if h_name is None or g_name is None:
                raise ScenarioError(
                    f"morphism {name!r} needs source_metric and target_metric"
                )
            self._setups[name] = HarmonicSetup(
                phi, self.metric(h_name, lineno), self.metric(g_name, lineno)
            )
        return self._setups[name]

    def run_command(self, lineno, line) -> CommandResult:
        parts = line.split()
        cmd = parts[0]
        args = parts[1:]
        handler = {
            "validate-metric": self._cmd_validate_metric,
            "osp-frame": self._cmd_osp_frame,
            "levi-civita": self._cmd_levi_civita,
            "lie-derivative": self._cmd_lie_derivative,
            "check-killing": self._cmd_check_killing,
            "solve-killing": self._cmd_solve_killing,
            "tension": self._cmd_tension,
            "check-noether": self._cmd_check_noether,
            "action": self._cmd_action,
        }.get(cmd)
        if handler is None:
            raise ScenarioError(f"unknown command {cmd!r} (line {lineno})")
        try:
            status, details = handler(args, lineno)
        except MetricViolation as exc:
            status, details = "fail", [("violation", str(exc.violation))]
        except (ParseError, ScenarioError):
            raise
        except SupergeoError as exc:
            status, details = "error", [("error", f"{type(exc).__name__}: {exc}")]
        return CommandResult(line, status, details)

    @staticmethod
    def _options(args):
        pos, opts = [], {}
        it = iter(args)
        for a in it:
            if a.startswith("--"):
                if a[2:] in opts:
                    raise ScenarioError(f"option {a} given twice")
                try:
                    opts[a[2:]] = next(it)
                except StopIteration:
                    raise ScenarioError(f"option {a} needs a value") from None
            else:
                pos.append(a)
        return pos, opts

    def _cmd_validate_metric(self, args, lineno):
        (name,) = self._require(args, 1, "validate-metric G", lineno)
        g = self.metric(name, lineno)
        sig = validate_metric(g)
        MetricContext.of(g, sig)
        return "pass", [("signature", str(sig.as_tuple()))]

    def _cmd_osp_frame(self, args, lineno):
        (name,) = self._require(args, 1, "osp-frame G", lineno)
        ctx = MetricContext.of(self.metric(name, lineno))
        details = [("signature", str(ctx.signature.as_tuple()))]
        for j, f in enumerate(ctx.frame.fields):
            details.append((f"e_{j+1}", f.render()))
        return "pass", details

    def _cmd_levi_civita(self, args, lineno):
        (name,) = self._require(args, 1, "levi-civita G", lineno)
        ctx = MetricContext.of(self.metric(name, lineno))
        names = ctx.g.chart.coordinate_names()
        gamma = ctx.connection.gamma
        details = _nonzero_components(
            (f"Gamma^{names[k]}_{names[i]},{names[j]}", gamma[i][j][k])
            for i, j, k in itertools.product(range(len(names)), repeat=3)
        )
        return "pass", [("nonzero", str(len(details)))] + details

    def _cmd_lie_derivative(self, args, lineno):
        xname, gname = self._require(args, 2, "lie-derivative X G", lineno)
        X = self.vectorfield(xname, lineno)
        g = self.metric(gname, lineno)
        table = lie_derivative_bilinear(X, g)
        names = g.chart.coordinate_names()
        zero = ("zero", "true" if table.is_zero() else "false")
        return "pass", [zero] + _nonzero_components(
            (f"L[{a},{b}]", entry)
            for a, row in zip(names, table.components)
            for b, entry in zip(names, row)
        )

    def _cmd_check_killing(self, args, lineno):
        pos, opts = self._options(args)
        if len(pos) != 2:
            raise ScenarioError(f"usage: check-killing X G [--mode m] (line {lineno})")
        mode = opts.pop("mode", "all")
        if mode not in ("i", "ii", "v", "all"):
            raise ScenarioError(f"unknown killing mode {mode!r} (line {lineno})")
        if opts:
            raise ScenarioError(f"unknown options {sorted(opts)} (line {lineno})")
        X = self.vectorfield(pos[0], lineno)
        report = KillingChecker(self.metric(pos[1], lineno)).check(X, mode)
        details = []
        for m in ("i", "ii", "v"):
            if m in report.modes:
                details.append((f"mode_{m}", "pass" if report.modes[m].passed else "fail"))
        details.append(("agreement", "true" if report.agreement else "false"))
        status = "pass" if report.passed else "fail"
        return status, details

    def _cmd_solve_killing(self, args, lineno):
        pos, opts = self._options(args)
        if len(pos) != 1 or "degree" not in opts:
            raise ScenarioError(
                f"usage: solve-killing G --degree d [--parity p] (line {lineno})"
            )
        try:
            degree = int(opts.pop("degree"))
        except ValueError:
            raise ScenarioError(f"--degree must be an integer (line {lineno})") from None
        if degree < 0:
            raise ScenarioError(f"--degree must be nonnegative (line {lineno})")
        parity = opts.pop("parity", None)
        if opts:
            raise ScenarioError(f"unknown options {sorted(opts)} (line {lineno})")
        if parity is not None:
            if parity not in ("even", "odd"):
                raise ScenarioError(f"--parity must be even or odd (line {lineno})")
            parity = {"even": 0, "odd": 1}[parity]
        basis = solve_killing(self.metric(pos[0], lineno), degree, parity)
        details = [
            ("even_dim", str(len(basis.even_fields))),
            ("odd_dim", str(len(basis.odd_fields))),
        ]
        for k, f in enumerate(basis.even_fields):
            details.append((f"even_{k+1}", f.render()))
        for k, f in enumerate(basis.odd_fields):
            details.append((f"odd_{k+1}", f.render()))
        return "pass", details

    def _cmd_tension(self, args, lineno):
        (name,) = self._require(args, 1, "tension PHI", lineno)
        setup = self.setup(name, lineno)
        tau = setup.tension()
        names = setup.phi.target.coordinate_names()
        harmonic = ("superharmonic", "true" if tau.is_zero() else "false")
        return "pass", [harmonic] + _nonzero_components(
            (f"tau^{a}", c) for a, c in zip(names, tau.components)
        )

    def _cmd_check_noether(self, args, lineno):
        which, phi_name, xi_name = self._require(
            args, 3, "check-noether target|domain|stress PHI XI", lineno
        )
        if which not in ("target", "domain", "stress"):
            raise ScenarioError(f"unknown check-noether variant {which!r} (line {lineno})")
        setup = self.setup(phi_name, lineno)
        xi = self.vectorfield(xi_name, lineno)
        if which == "stress":
            rep = setup.stress_energy_report(xi)
            details = [
                ("energy", rep.energy.render()),
                ("lemma_residual", rep.lemma_residual.render()),
                ("current_identity_residual", rep.current_identity_residual.render()),
            ]
            if rep.conserved_divergence is not None:
                details.append(("conserved_div", rep.conserved_divergence.render()))
            return ("pass" if rep.passed else "fail"), details
        if which == "target":
            rep, key = setup.check_noether_target(xi), "xi_killing"
        else:
            rep, key = setup.check_noether_domain(xi), "phi_killing"
        details = [
            (key, "true" if rep.precondition_ok else "false"),
            ("div_residual", rep.divergence_residual.render()),
            ("superharmonic", "true" if rep.tension_is_zero else "false"),
        ]
        if rep.current_divergence is not None:
            details.append(("current_div", rep.current_divergence.render()))
        if rep.lemma_residuals is not None:
            lemma_ok = all(r.is_zero() for r in rep.lemma_residuals)
            details.append(("lemma_ok", "true" if lemma_ok else "false"))
        return ("pass" if rep.passed else "fail"), details

    def _cmd_action(self, args, lineno):
        (name,) = self._require(args, 1, "action PHI", lineno)
        value = action(self.setup(name, lineno))
        return "pass", [("value", str(value))]

    def _require(self, args, count, usage, lineno):
        """The ``count`` positional arguments of a command that takes no options."""
        pos, opts = self._options(args)
        if len(pos) != count or opts:
            raise ScenarioError(f"usage: {usage} (line {lineno})")
        return pos


def run_scenario(text: str, name: str = "<scenario>", seed: int = 0) -> Report:
    """Load and execute a scenario; never raises, everything lands in the report.

    Declaration-time failures of any kind (bad expressions, parity clashes,
    box violations, unknown names) are parse-level: exit code 2.
    """
    try:
        scenario = load_scenario(text)
        runner = _Runner(scenario)
        results = [
            runner.run_command(lineno, line) for lineno, line in scenario.commands
        ]
        return Report(name, seed, results)
    except SupergeoError as exc:
        return Report(name, seed, [], load_error=f"{type(exc).__name__}: {exc}")
