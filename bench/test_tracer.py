"""Self-tests of the benchmark's tracer, speed probe and answer checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

cf = worker.import_clusterfold()


def _wrapped_names() -> list[str]:
    """Every binding in the loaded clusterfold modules and classes that is a span wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "clusterfold" or name.startswith("clusterfold."):
            for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
                for attr, value in vars(owner).items():
                    if hasattr(value, "__bench_span__"):
                        found.append(f"{name}:{getattr(owner, '__name__', '')}.{attr}")
    return found


def _small_tasks() -> list[workloads.Task]:
    pair = cf.catalog.folding_pair("A3toB2").pair
    return [
        workloads.Task("word", lambda: {"ok": cf.folding.verify_commutation(pair, (0, 1, 0)).ok}),
        workloads._cli_task(cf, "fold --pair D4toG2"),
        workloads._cli_task(cf, "verify denominators --pair D4toG2"),
        workloads.Task("chain", lambda: {"holds": cf.explorer.verify_monotonicity_chain(pair).holds}),
    ]


def _answers(tasks) -> dict:
    return {task.answer: {} for task in tasks}


@pytest.fixture
def traced():
    trace = tracer.Tracer()
    trace.install(cf)
    try:
        tasks = _small_tasks()
        result = worker.run_tasks(tasks, _answers(tasks), trace)
    finally:
        trace.uninstall()
    return trace, result


def test_self_times_sum_to_each_task_span(traced):
    trace, result = traced
    assert result["failed"] == 0, result["failures"]
    roots = {task: total for (task, _, name), (_, total, _) in trace.spans.items()
             if name == tracer.Tracer.ROOT}
    assert set(roots) == {"word", "fold --pair D4toG2", "verify denominators --pair D4toG2", "chain"}
    for task, total in roots.items():
        own = sum(v for (t, _, _), (_, _, v) in trace.spans.items() if t == task)
        assert math.isclose(own, total, rel_tol=1e-9, abs_tol=1e-9), task
        assert all(v >= -1e-9 for (t, _, _), (_, _, v) in trace.spans.items() if t == task)


def test_spans_reach_every_binding(traced):
    trace, _ = traced
    bound = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in trace.bindings}
    assert {("clusterfold.laurent", "divide_exact"), ("clusterfold.seeds", "divide_exact")} <= bound
    assert {("clusterfold.folding", "check_stability"), ("clusterfold.cli", "check_stability")} <= bound
    metrics = trace.layer_metrics()
    assert metrics["folding.verify_commutation.calls"] == 1
    assert metrics["cli.main.calls"] == 2
    assert metrics["laurent.divide_exact.calls"] > 0
    assert metrics["seeds.enumerate.seeds"] == 50  # D4 has 50 clusters
    assert trace.enumerations["verify denominators --pair D4toG2"] == [50]


def test_uninstall_restores_every_original_binding(traced):
    trace, _ = traced
    assert trace.bindings
    for owner, attr, original in trace.bindings:
        assert vars(owner)[attr] is original
    assert _wrapped_names() == []


def test_untraced_run_installs_no_wrappers():
    seen = []

    def probe():
        seen.append(_wrapped_names())
        return {"wrapped": len(seen[-1])}

    tasks = _small_tasks() + [workloads.Task("probe", probe)]
    answers = _answers(tasks)
    answers["probe"] = {"theory": {"wrapped": 0}}
    result = worker.run_tasks(tasks, answers)
    assert result["failed"] == 0, result["failures"]
    assert seen == [[]]


def test_failing_and_raising_tasks_are_counted_not_fatal():
    def boom():
        raise cf.EntryOverflowError("too big")

    tasks = [workloads.Task("wrong", lambda: {"ok": False}), workloads.Task("raises", boom)]
    answers = {"wrong": {"theory": {"ok": True}}, "raises": {}}
    result = worker.run_tasks(tasks, answers)
    assert result["failed"] == 2
    assert "EntryOverflowError" in result["failures"][1]


def test_check_rules():
    answer = {"theory": {"report": {"status": "verified"}, "enumerations": [50]},
              "seed": {"exit": 0, "ambient_min": 10}}
    assert workloads.check({"report": {"status": "verified", "x": "1"}, "exit": 0, "ambient": 12}, answer) == []
    assert workloads.check({"report": {"status": "verified"}, "exit": 0, "ambient": 12,
                            "enumerations": [51]}, answer) == ["enumerations: expected [50], got [51]"]
    assert len(workloads.check({"report": {}, "exit": 1, "ambient": 9}, answer)) == 3


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_task_past_its_deadline_fails(monkeypatch):
    monkeypatch.setattr(worker, "TASK_DEADLINE_S", 0.05)

    def spin():
        while True:
            pass

    result = worker.run_tasks([workloads.Task("spin", spin)], {"spin": {}})
    assert result["failed"] == 1
    assert "TaskDeadline" in result["failures"][0]


def test_probe_samples_during_a_task_and_its_time_is_taken_out():
    def spin():
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
        return {}

    speed = probe.Probe()
    speed.start()
    try:
        began = time.perf_counter()
        result = worker.run_tasks([workloads.Task("spin", spin)], {"spin": {}}, probe=speed)
        elapsed = time.perf_counter() - began
    finally:
        speed.stop()
    assert len(speed.samples) >= 5
    assert result["task_speed"][0] == pytest.approx(sum(1 / d for d in speed.samples) / len(speed.samples))
    assert 0 < result["task_s"][0] <= elapsed - sum(speed.samples)


def test_reference_times_scale_by_the_probes_taken_meanwhile():
    nominal = probe.NOMINAL_S
    passes = [{"task_s": [1.0, 2.0], "task_speed": [1 / (2 * nominal), None],
               "setup_s": 0.3, "setup_speed": None, "probe_s": [nominal, 3 * nominal]}]
    tasks, setups = run.reference_times(passes)
    assert tasks[0][0] == pytest.approx(0.5)  # the probes ran at half speed meanwhile
    assert tasks[0][1] == pytest.approx(2.0 * 2 / 3)  # no probe inside: the pass's mean of 1/probe
    assert setups[0] == pytest.approx(0.3 * 2 / 3)
