"""The public records of the package: signatures, volume densities, Killing,
Noether and stress-energy reports, scenarios and their reports.

Each is a plain class over ``errors._Record``.  The repr, the equality and
the missing hash pinned here are the ones these records had as dataclasses:
``Name(field=value, ...)`` in field order, equal only to a record of the same
class with equal fields, and unhashable.  A field whose default is an empty
dict or list gets a fresh one per record.
"""

import pytest

from supergeo import Chart
from supergeo.geometry import Signature, flat_metric, validate_metric
from supergeo.integration import VolumeDensity, volume_density
from supergeo.lie import KillingBasis, KillingChecker, KillingReport, ModeResult, solve_killing
from supergeo.morphisms import NoetherReport, StressEnergyReport
from supergeo.scenario import CommandResult, Report, Scenario, load_scenario, run_scenario


def _line():
    return Chart(["x"], [], box={"x": (0, 1)})


def _records():
    """(record, its repr, a record of its class with one field changed)."""
    line = _line()
    g = flat_metric(line)
    one, zero = line.pool.one(), line.pool.zero()
    plane = Chart(["x", "y"], ["th1", "th2"], box={"x": (0, 1), "y": (0, 1)})
    return {
        "Signature": (validate_metric(flat_metric(plane)), "Signature(t=0, s=2, two_m=2)",
                      Signature(1, 1, 2)),
        "VolumeDensity": (volume_density(g),
                          "VolumeDensity(chart=Chart(1|0), scale=Superfunction((1)))",
                          VolumeDensity(line, -one)),
        "ModeResult": (ModeResult(True, []), "ModeResult(passed=True, residuals=[])",
                       ModeResult(False, [])),
        "KillingReport": (
            KillingChecker(g).check(line.coordinate_field(0), "all"),
            "KillingReport(modes={'i': ModeResult(passed=True, residuals=[]), "
            "'ii': ModeResult(passed=True, residuals=[]), "
            "'v': ModeResult(passed=True, residuals=[])}, field_parity=0)",
            KillingReport({"i": ModeResult(True, [])}, 0)),
        "KillingBasis": (
            solve_killing(g, 1),
            "KillingBasis(metric=BilinearForm(1|0: [(1)]), degree=1, "
            "fields=[VectorField((1)*d_x)], parities=[0])",
            KillingBasis(g, 2, [line.coordinate_field(0)], [0])),
        "NoetherReport": (
            NoetherReport(True, [], zero, True, None),
            "NoetherReport(precondition_ok=True, precondition_residuals=[], "
            "divergence_residual=Superfunction(0), tension_is_zero=True, "
            "current_divergence=None, lemma_residuals=None)",
            NoetherReport(True, [], zero, True, None, [])),
        "StressEnergyReport": (
            StressEnergyReport(one, zero, zero, None),
            "StressEnergyReport(energy=Superfunction((1)), lemma_residual=Superfunction(0), "
            "current_identity_residual=Superfunction(0), conserved_divergence=None)",
            StressEnergyReport(one, zero, zero, zero)),
        "Scenario": (
            load_scenario("[chart]\neven = x\nbox x = 0 1\n"),
            "Scenario(source=Chart(1|0), target=Chart(1|0), metrics={}, vectorfields={}, "
            "morphisms={}, morphism_metrics={}, commands=[])",
            Scenario(line, line, {"g": g})),
        "CommandResult": (
            CommandResult("tension PHI", "pass", [("a", "1")]),
            "CommandResult(command='tension PHI', status='pass', details=[('a', '1')])",
            CommandResult("tension PHI", "fail", [("a", "1")])),
        "Report": (
            run_scenario("[chart]\neven x\n", name="bad.scn"),
            "Report(scenario_name='bad.scn', seed=0, results=[], "
            "load_error=\"ParseError: expected 'key = value' at line 2\")",
            Report("bad.scn", 1, [], "ParseError: expected 'key = value' at line 2")),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_every_field_in_order(name):
    record, text, _ = RECORDS[name]
    assert repr(record) == text
    assert type(record).__name__ == name


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_to_its_own_class_with_equal_fields_only(name):
    record, _, changed = RECORDS[name]
    twin = _records()[name][0]
    assert twin is not record
    assert record == twin and not record != twin
    assert record != changed and not record == changed
    fields = tuple(getattr(record, field) for field in type(record).__slots__)
    assert record != fields and fields != record
    assert record != () and record != object()
    assert not record == fields


def test_records_of_two_classes_with_equal_fields_differ():
    mode, report = ModeResult(True, []), KillingReport(True, [])
    assert mode != report and report != mode and not mode == report


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(RECORDS[name][0])


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_take_no_other_attribute(name):
    with pytest.raises(AttributeError):
        RECORDS[name][0].note = 1


def test_defaults_are_fresh_per_record():
    line = _line()
    a, b = Scenario(line, line), Scenario(line, line)
    for field in ("metrics", "vectorfields", "morphisms", "morphism_metrics", "commands"):
        assert getattr(a, field) == getattr(b, field)
        assert getattr(a, field) is not getattr(b, field)
    a.metrics["g"] = flat_metric(line)
    a.commands.append("validate-metric g")
    assert b.metrics == {} and b.commands == []
    c, d = CommandResult("x", "pass"), CommandResult("x", "pass")
    c.details.append(("k", "v"))
    assert d.details == [] and c.details is not d.details
    assert Report("a.scn", 0, []).load_error is None
    assert NoetherReport(True, [], line.pool.zero(), True, None).lemma_residuals is None
