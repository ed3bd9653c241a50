"""Tests for the benchmark's own code: span arithmetic, patch restoration,
repeatable counters and agreement with BENCHMARK.json.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibration
import gaussfilt
import run
import tracer
import workloads
from tracer import Span, self_times


def tiny(name, tmp_path, replicates=1, steps=3):
    raw = workloads.config(name, 5, str(tmp_path / "grid"))
    raw.update(replicates=replicates, steps=steps)
    raw.pop("window", None)
    return raw


def plain_grid(raw, tmp_path):
    """An untraced grid timed by the calibration clock, as --trace 0 runs it."""
    with tracer.TrajectoryLog() as log, calibration.StepClock() as clock:
        log.install()
        clock.install()
        return run.Grid(gaussfilt, raw, tmp_path / "grid", log, clock=clock)


def traced_grid(raw, tmp_path):
    with tracer.Tracer() as trace:
        trace.install()
        grid = run.Grid(gaussfilt, raw, tmp_path / "grid", trace, traced=True)
    return trace, grid


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, -1, -1),
        Span("a", 1.0, 3.0, 0, -1),
        Span("b", 2.0, 5.0, 0, -1),  # overlaps a: [1, 5] is covered once
        Span("c", 7.0, 8.0, 0, -1),
        Span("a.child", 1.5, 2.0, 1, -1),  # a grandchild of root
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 3.0, 1.0, 0.5])


def test_self_time_clips_children_to_the_parent_interval():
    spans = [Span("p", 0.0, 4.0, -1, -1), Span("c", 3.0, 6.0, 0, -1)]
    assert self_times(spans) == pytest.approx([3.0, 3.0])


def test_traced_run_restores_every_replaced_function(tmp_path):
    snapshot = tracer.namespace_snapshot()
    original = gaussfilt.filters.time_update_points
    trace, _ = traced_grid(tiny("bistable-sampling", tmp_path), tmp_path)
    assert tracer.restored(snapshot)
    assert gaussfilt.filters.time_update_points is original is gaussfilt.updates.time_update_points
    assert gaussfilt.updates.cholesky_factor is gaussfilt.gaussian.cholesky_factor
    assert gaussfilt.harness.run_filter.__qualname__ == "run_filter"
    names = {s.name for s in trace.spans}
    # both bindings were wrapped while the trace ran
    assert {"updates.time_update_points", "gaussian.cholesky_factor", "models.propagate"} <= names


def test_tracing_does_not_change_results(tmp_path):
    raw = tiny("tracking-cubature", tmp_path, steps=5)
    plain = plain_grid(raw, tmp_path)
    _, traced = traced_grid(raw, tmp_path)
    assert traced.check(plain) == []


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counters_repeat_exactly(name, tmp_path):
    labels = run.all_labels(gaussfilt, str(tmp_path / "grid"))
    raw = tiny(name, tmp_path, steps=2)
    layers = [run.per_layer(*traced_grid(raw, tmp_path), labels) for _ in range(2)]
    counts = [{k: v for k, (v, unit) in layer.items() if unit == "count"} for layer in layers]
    assert counts[0] == counts[1]
    assert counts[0]["filters.run_filter.calls"] == len(raw["filters"])


def test_aborts_are_counted_with_their_messages(tmp_path):
    # CGSF5 on the bistable-sampling prior aborts at the seed; the check must
    # see every abort in RunResult.failures and the ratio must count it.
    raw = tiny("bistable-sampling", tmp_path, replicates=4, steps=4)
    grid = plain_grid(raw, tmp_path)
    assert grid.check(None) == []
    aborted = grid.result.failures
    assert aborted and all(msg for _, _, msg in aborted)
    metrics = run.end_to_end([grid], [(1.0, 1.0)])
    assert metrics["completed_ratio"]["value"] == pytest.approx(1 - len(aborted) / 16)


def test_benchmark_json_matches_emitted_metrics(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    raw = tiny("bistable-variational", tmp_path, steps=1)
    traced = [traced_grid(raw, tmp_path) for _ in range(2)]
    problems = []
    untraced = plain_grid(raw, tmp_path)
    layer = run.trace_metrics(gaussfilt, [untraced], traced, tmp_path / "grid", problems)
    assert problems == []
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in layer.items()}
    e2e = run.end_to_end([untraced], [(1.0, 1.0)])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}


def test_layer_map_covers_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    mapped = [name for group in layer_map["groups"] for name in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    e2e = {m["name"] for m in spec["end_to_end"]}
    for group in layer_map["groups"]:
        for key in ("moves", "unmoved"):
            for pair in group.get(key, []):
                assert pair["metric"] in e2e and pair["workload"] in workloads.NAMES
