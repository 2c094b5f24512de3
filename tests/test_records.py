"""The public records of the package: signatures, volume densities, checks,
Killing, Noether and stress-energy reports, scenarios and their reports.

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
from supergeo.errors import Check
from supergeo.lie import KillingBasis, KillingChecker, KillingReport, solve_killing
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
        "Check": (Check([("L[x,x]", one)]), "Check(failures=[('L[x,x]', Superfunction((1)))])",
                  Check([("L[x,x]", -one)])),
        "KillingReport": (
            KillingChecker(g).check(line.coordinate_field(0), "all"),
            "KillingReport(modes={'i': Check(failures=[]), 'ii': Check(failures=[]), "
            "'v': Check(failures=[])})",
            KillingReport({"i": Check([])})),
        "KillingBasis": (
            solve_killing(g, 1),
            "KillingBasis(metric=BilinearForm(1|0: [(1)]), degree=1, "
            "fields=[VectorField((1)*d_x)])",
            KillingBasis(g, 2, [line.coordinate_field(0)])),
        "NoetherReport": (
            NoetherReport(Check([]), Check([]), True),
            "NoetherReport(precondition=Check(failures=[]), divergence=Check(failures=[]), "
            "tension_is_zero=True, current=None, lemma=None)",
            NoetherReport(Check([]), Check([]), True, None, Check([]))),
        "StressEnergyReport": (
            StressEnergyReport(one, Check([]), Check([])),
            "StressEnergyReport(energy=Superfunction((1)), lemma=Check(failures=[]), "
            "current=Check(failures=[]), conserved=None)",
            StressEnergyReport(one, Check([]), Check([]), Check([]))),
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
    check, report = Check([]), KillingReport([])
    assert check != report and report != check and not check == report


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
    noether = NoetherReport(Check([]), Check([]), True)
    assert noether.current is None and noether.lemma is None
    assert StressEnergyReport(line.pool.one(), Check([]), Check([])).conserved is None


def test_a_check_passes_without_failures_and_a_report_when_all_its_checks_pass():
    """``Check.passed`` is the one verdict read off residuals; a report
    passes when every check it made passes, and a check not made (None)
    does not count."""
    one = _line().pool.one()
    bad = Check([("L[x,x]", one)])
    assert Check([]).passed and not bad.passed
    assert Check([]).first is None and bad.first == "L[x,x]: (1)"
    assert NoetherReport(Check([]), Check([]), False).passed
    assert not NoetherReport(Check([]), Check([]), True, None, bad).passed
    assert not NoetherReport(bad, Check([]), True).passed
    assert not StressEnergyReport(one, Check([]), Check([]), bad).passed
    assert KillingReport({"i": Check([]), "v": Check([])}).passed
    report = KillingReport({"i": bad, "v": bad})
    assert not report.passed and report.agreement
    assert not KillingReport({"i": Check([]), "v": bad}).agreement


def test_a_check_labels_its_nonzero_cells_by_name():
    """``Check.cells`` labels a nonzero residual at indices i, j, ... as
    ``kind[names[i],names[j],...]`` and drops a zero one; ``Check.grid`` is
    its case of a row-major grid."""
    pool = _line().pool
    one, zero = pool.one(), pool.zero()
    assert Check.cells("torsion", [((0, 1, 0), zero), ((1, 0, 1), -one)], "xy").failures == [
        ("torsion[y,x,y]", -one)]
    assert Check.grid("frame", [[zero, one], [one, zero]], range(2)) == Check(
        [("frame[0,1]", one), ("frame[1,0]", one)])
