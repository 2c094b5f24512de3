"""Tests of the benchmark itself: seeded inputs, failure counting, the
tracer's install/uninstall and its span coverage.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import supergeo  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = sorted(WORKLOADS)


def first_jobs(name, seed, n):
    workload = WORKLOADS[name](seed, ROOT)
    workload.setup()
    return workload, [job for job, _ in itertools.islice(workload.jobs(), n)]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_seed_fixes_the_inputs(name):
    n = 12
    _, a = first_jobs(name, 7, n)
    _, b = first_jobs(name, 7, n)
    _, c = first_jobs(name, 8, n)
    assert [j.key() for j in a] == [j.key() for j in b]
    assert [j.key() for j in a] != [j.key() for j in c]
    # timed inputs never repeat each other or a warm-up input
    workload, jobs = first_jobs(name, 7, 40)
    warm = workload.warmup_jobs()
    keys = [j.key() for j in jobs + warm]
    assert len(set(keys)) == len(keys)
    # warm-up inputs are the same for every seed
    other, _ = first_jobs(name, 8, 0)
    assert [j.key() for j in other.warmup_jobs()] == [j.key() for j in warm]


def test_corrupted_berezinian_counts_as_failed(monkeypatch):
    workload, jobs = first_jobs("superalgebra", 3, 3)
    ber = next(j for j in jobs if j.kind == "berezinian")
    assert run.execute(workload, ber, 0).ok
    original = supergeo.SuperMatrix.berezinian
    monkeypatch.setattr(supergeo.SuperMatrix, "berezinian",
                        lambda self: original(self) + self.pool.one())
    rec = run.execute(workload, ber, 1)
    assert not rec.ok
    s = run.summary([rec, run.execute(workload, jobs[0], 2)])
    assert s["failed"] == 1 and s["fail_ratio"] == 0.5


def test_corrupted_report_and_exceptions_count_as_failed(monkeypatch):
    from supergeo import scenario

    workload, jobs = first_jobs("scenarios", 3, 8)
    original = scenario.Report.render
    monkeypatch.setattr(scenario.Report, "render",
                        lambda self: original(self).replace("exit = ", "exit = 1"))
    assert not any(run.execute(workload, j, k).ok for k, j in enumerate(jobs))

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(scenario.Report, "render", boom)
    rec = run.execute(workload, jobs[0], 0)
    assert not rec.ok and rec.digest == "raised"


def _module_and_class_attributes():
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "supergeo" and not mod_name.startswith("supergeo."):
            continue
        for attr, value in vars(mod).items():
            out[mod_name, attr] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    out[mod_name, attr, cattr] = cvalue
    return out


def test_tracer_restores_every_entry_point():
    workload, jobs = first_jobs("scenarios", 5, 9)
    before = _module_and_class_attributes()
    tracer = tracing.Tracer()
    with tracer:
        changed = {k for k, v in _module_and_class_attributes().items()
                   if before.get(k) is not v}
        for k, job in enumerate(jobs):
            assert run.execute(workload, job, k, tracer).ok
    after = _module_and_class_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # every entry point was wrapped, including copies made by imports
    assert len(changed) >= len(tracing.ENTRY_POINTS)
    assert ("supergeo.scenario", "validate_metric") in changed
    assert ("supergeo.cli", "run_scenario") in changed
    assert tracer.calls["scenario.run_scenario"] == len(jobs)
    assert tracer.calls["geometry.validate_metric"] > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_spans_cover_most_of_each_job(name):
    workload, jobs = first_jobs(name, 11, 6)
    tracer = tracing.Tracer()
    with tracer:
        records = [run.execute(workload, job, k, tracer) for k, job in enumerate(jobs)]
    assert all(r.ok for r in records)
    for r in records:
        top = tracer.job_span_time(r.index)
        assert top <= r.seconds
        # a job of a few milliseconds is mostly file and argument handling
        if r.seconds > 0.05:
            assert top >= 0.8 * r.seconds, (r.kind, top, r.seconds)
    covered = sum(tracer.job_span_time(r.index) for r in records)
    print(name, "span coverage", covered / sum(r.seconds for r in records))
    assert covered >= 0.9 * sum(r.seconds for r in records)
    # the layers' self times add up to the time the top-level spans cover,
    # less the observers' time, which no span's self time holds
    self_s = sum(tracer.layer_self_s().values())
    assert self_s <= covered * (1 + 1e-9)
    assert self_s + tracer.observer_s >= covered * (1 - 1e-9)
    assert tracer.observer_s < 0.1 * covered


def test_superalgebra_bodies_are_invertible():
    import sympy as sp

    workload, jobs = first_jobs("superalgebra", 4, 33)
    mats = [m for j in jobs if j.kind in ("berezinian", "inverse") for m in j.data]
    assert len(mats) == 21
    for data in mats:
        M = workload.matrix(data, 2, 2, 0)
        body = sp.Matrix(4, 4, lambda i, j: M.entries[i][j].body())
        assert sp.cancel(body.det()) != 0


def test_superalgebra_touches_no_geometry_layers():
    workload, jobs = first_jobs("superalgebra", 2, 11)
    tracer = tracing.Tracer()
    with tracer:
        for k, job in enumerate(jobs):
            assert run.execute(workload, job, k, tracer).ok
    for name, calls in tracer.calls.items():
        if name.split(".")[0] in ("geometry", "lie", "morphisms", "parsing", "scenario",
                                  "integration", "exactlinalg"):
            assert calls == 0, name
    assert tracer.calls["supermatrix.berezinian"] > 0


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == {"superalgebra", "scenarios"}
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"jobs_per_s", "job_p50_s", "job_tail_s", "setup_s", "peak_rss_mb"}
    workload, jobs = first_jobs("superalgebra", 1, 1)
    tracer = tracing.Tracer()
    with tracer:
        records = [run.execute(workload, jobs[0], 0, tracer)]
    printed = run.layer_metrics(tracer, records)
    printed["trace.overhead_ratio"] = run.metric(1.0, "ratio")  # added by the parent
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: m["unit"] for name, m in printed.items()}


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(k) for k in range(100)])
    assert (value, beyond) == (89.0, 10)
    assert pct == 90.0
