"""Spans around the public entry points of each supergeo layer.

The tracer wraps entry points from outside the program: it replaces the
function (or method) object wherever a ``supergeo`` module or class holds it,
records one span per call and restores every original object on
:meth:`Tracer.uninstall`.  Untraced runs never construct a tracer, so they
run the program exactly as shipped.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of its parent span (-1 at the top of a job) and the job id.  Spans are
kept in compact arrays and written out once, when the run ends.  Self time
(the span's duration minus the time its direct children cover) and call
counts are accumulated as spans close, so the per-layer figures do not
depend on how many spans are kept.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (span name, module, attribute path).  One span name may cover several
# attributes (``__add__`` and its alias ``__radd__``).
ENTRY_POINTS = [
    ("scalars.scalar", "supergeo.scalars", "GeneratorPool.scalar"),
    ("scalars.mul", "supergeo.scalars", "Superfunction.__mul__"),
    ("scalars.add", "supergeo.scalars", "Superfunction.__add__"),
    ("scalars.add", "supergeo.scalars", "Superfunction.__radd__"),
    ("scalars.invert", "supergeo.scalars", "Superfunction.invert"),
    ("scalars.sqrt", "supergeo.scalars", "Superfunction.sqrt"),
    ("scalars.partial", "supergeo.scalars", "Superfunction.partial"),
    ("scalars.substitute", "supergeo.scalars", "Superfunction.substitute"),
    ("scalars.render", "supergeo.scalars", "Superfunction.render"),
    ("supermatrix.mul", "supergeo.supermatrix", "SuperMatrix.__mul__"),
    ("supermatrix.supertrace", "supergeo.supermatrix", "SuperMatrix.supertrace"),
    ("supermatrix.berezinian", "supergeo.supermatrix", "SuperMatrix.berezinian"),
    ("supermatrix.inverse", "supergeo.supermatrix", "SuperMatrix.inverse"),
    ("supermatrix.gram_schmidt_osp", "supergeo.supermatrix", "gram_schmidt_osp"),
    ("exactlinalg.nullspace", "supergeo.exactlinalg", "nullspace"),
    ("exactlinalg.rank", "supergeo.exactlinalg", "rank"),
    ("geometry.validate_metric", "supergeo.geometry", "validate_metric"),
    ("geometry.levi_civita", "supergeo.geometry", "levi_civita"),
    ("geometry.osp_frame_build", "supergeo.geometry", "OSpFrame.build"),
    ("geometry.bilinear_evaluate", "supergeo.geometry", "BilinearForm.evaluate"),
    ("geometry.bracket", "supergeo.geometry", "VectorField.bracket"),
    ("geometry.vectorfield_apply", "supergeo.geometry", "VectorField.apply"),
    ("lie.lie_derivative_bilinear", "supergeo.lie", "lie_derivative_bilinear"),
    ("lie.killing_checker_init", "supergeo.lie", "KillingChecker.__init__"),
    ("lie.check", "supergeo.lie", "KillingChecker.check"),
    ("lie.solve_killing", "supergeo.lie", "solve_killing"),
    ("morphisms.harmonic_setup_init", "supergeo.morphisms", "HarmonicSetup.__init__"),
    ("morphisms.pullback", "supergeo.morphisms", "Morphism.pullback"),
    ("morphisms.tension", "supergeo.morphisms", "HarmonicSetup.tension"),
    ("morphisms.stress_energy_report", "supergeo.morphisms",
     "HarmonicSetup.stress_energy_report"),
    ("morphisms.check_noether_target", "supergeo.morphisms",
     "HarmonicSetup.check_noether_target"),
    ("morphisms.check_noether_domain", "supergeo.morphisms",
     "HarmonicSetup.check_noether_domain"),
    ("integration.volume_density", "supergeo.integration", "volume_density"),
    ("integration.action", "supergeo.integration", "action"),
    ("parsing.parse_expression", "supergeo.parsing", "parse_expression"),
    ("scenario.load_scenario", "supergeo.scenario", "load_scenario"),
    ("scenario.run_scenario", "supergeo.scenario", "run_scenario"),
    ("scenario.report_render", "supergeo.scenario", "Report.render"),
]

SPAN_NAMES = sorted({name for name, _, _ in ENTRY_POINTS})
LAYERS = sorted({name.split(".")[0] for name in SPAN_NAMES})

# Spans beyond this many are still counted and timed but not stored, so a
# long traced run cannot exhaust memory (each stored span takes 28 bytes).
MAX_STORED_SPANS = 2_000_000


def _superfunction_shape(tracer, result):
    terms = getattr(result, "terms", None)
    if terms:
        tracer.peak_terms = max(tracer.peak_terms, len(terms))
        tracer.peak_degree = max(tracer.peak_degree, max(len(m) for m in terms))


def _eliminated_cells(tracer, args):
    rows = args[0]
    if rows:
        ncols = args[1] if len(args) > 1 else len(rows[0])
        tracer.cells += len(rows) * ncols


def _metric_key(tracer, args):
    g = args[0]
    key = (
        g.chart.coordinate_names(),
        tuple(
            tuple(sorted((m, str(e)) for m, e in entry.terms.items()))
            for row in g.components
            for entry in row
        ),
    )
    tracer.distinct_metrics.add(key)


# Observers read a result or the arguments after the span has closed; they
# supply the counts that are not call counts.  Their time is kept out of
# every span's self time (see ``Tracer.observer_s``).
_RESULT_OBSERVERS = {
    "scalars.scalar": _superfunction_shape,
    "scalars.mul": _superfunction_shape,
    "scalars.add": _superfunction_shape,
    "scalars.invert": _superfunction_shape,
    "scalars.sqrt": _superfunction_shape,
    "scalars.partial": _superfunction_shape,
    "scalars.substitute": _superfunction_shape,
}
_ARG_OBSERVERS = {
    "exactlinalg.nullspace": _eliminated_cells,
    "exactlinalg.rank": _eliminated_cells,
    "geometry.validate_metric": _metric_key,
}


class Tracer:
    """Records spans for the entry points in :data:`ENTRY_POINTS`."""

    def __init__(self):
        self.name_ids = {name: k for k, name in enumerate(SPAN_NAMES)}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.dropped = 0
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.peak_terms = 0
        self.peak_degree = 0
        self.cells = 0
        self.distinct_metrics = set()
        self.observer_s = 0.0  # time spent in the observers
        self.job_top_s = {}  # job id -> time covered by its top-level spans
        self.job = -1
        self.paused = False
        self._stack = []  # [stored index or -1, start, child time]
        self._patched = []  # (owner, attribute, original object)

    # -- installing and removing wrappers ------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "supergeo" or n.startswith("supergeo.")]
        for name, module_name, path in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._set(owner, attr, original, wrapped)
            if not owner_path:
                # ``from .geometry import validate_metric`` copies the
                # function into other modules; patch every copy.
                for mod in modules:
                    for other_attr, value in list(vars(mod).items()):
                        if value is original and (mod, other_attr) != (owner, attr):
                            self._set(mod, other_attr, original, wrapped)

    def _set(self, owner, attr, original, wrapped):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        name_id = self.name_ids[name]
        observe_result = _RESULT_OBSERVERS.get(name)
        observe_args = _ARG_OBSERVERS.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if len(tracer.span_start) < MAX_STORED_SPANS:
                idx = len(tracer.span_start)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(stack[-1][0] if stack else -1)
                tracer.span_job.append(tracer.job)
                tracer.span_end.append(0.0)
                tracer.span_start.append(0.0)
            else:
                idx = -1
                tracer.dropped += 1
            frame = [idx, 0.0, 0.0]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if idx >= 0:
                    tracer.span_start[idx] = start
                    tracer.span_end[idx] = end
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    tracer.job_top_s[tracer.job] = (
                        tracer.job_top_s.get(tracer.job, 0.0) + duration)
            if observe_result is not None or observe_args is not None:
                observed = clock()
                if observe_result is not None:
                    observe_result(tracer, result)
                if observe_args is not None:
                    observe_args(tracer, args)
                spent = clock() - observed
                tracer.observer_s += spent
                if stack:
                    # as if a child span: not the caller's self time
                    stack[-1][2] += spent
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ---------------------------------------------------------------

    def stored(self):
        return len(self.span_start)

    def job_span_time(self, job):
        """Wall time covered by the top-level spans of one job."""
        return self.job_top_s.get(job, 0.0)

    def layer_self_s(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_s.items():
            out[name.split(".")[0]] += value
        return out

    def write(self, path):
        """Write the stored spans as tab-separated text, one span a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\n")
            for i in range(self.stored()):
                fh.write(
                    f"{i}\t{SPAN_NAMES[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_job[i]}\n"
                )
