"""Tests of the benchmark's own helpers, plus a reduced-size smoke run."""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench import metrics, spans
from perfbench.suite import (
    WORKLOADS,
    _Pregenerated,
    check_conservation,
    check_dispatch,
    check_prefix_ledgers,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------- #
# self-time arithmetic
# ---------------------------------------------------------------------- #
def test_self_times_nested_and_siblings():
    recorded = [
        ("other", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),      # two children: 1 s and 0.5 s
        ("b", 2.0, 3.0, 1),
        ("b", 3.5, 4.0, 1),
        ("c", 6.0, 9.0, 0),      # one grandchild through a child
        ("d", 6.5, 8.5, 4),
        ("e", 7.0, 7.25, 5),
    ]
    assert spans.self_times(recorded) == pytest.approx(
        [3.0, 2.5, 1.0, 0.5, 1.0, 1.75, 0.25])
    assert sum(spans.self_times(recorded)) == pytest.approx(10.0)


def test_layer_totals_buckets_and_reentrant_calls():
    recorded = [
        ("other", 0.0, 10.0, -1),
        ("serving.driver", 0.0, 9.0, 0),
        ("serving.driver", 1.0, 8.0, 1),   # serve -> drive: one call
        ("serving.offer", 2.0, 3.0, 2),
        ("serving.advance", 3.0, 5.0, 2),
        ("serving.advance", 5.0, 6.0, 2),
    ]
    self_s, calls = spans.layer_totals(recorded)
    assert self_s == pytest.approx(
        {"other": 1.0, "serving.driver": 5.0, "serving": 4.0})
    assert calls == {"other": 1, "serving.driver": 1, "serving.offer": 1,
                     "serving.advance": 2}


def _leaf(x):
    return x + 1


def _outer(x):
    return _leaf(x) * 2


def test_recorder_partition_matches_root_wall():
    recorder = spans.SpanRecorder()
    leaf = recorder.wrap("leaf", _leaf)
    outer = recorder.wrap("outer", lambda x: leaf(x) * 2)
    assert recorder.run(lambda: [outer(i) for i in range(50)]) == \
        [_outer(i) for i in range(50)]
    recorded = recorder.spans()
    assert len(recorded) == 101
    self_s, calls = spans.layer_totals(recorded)
    root = recorded[0][2] - recorded[0][1]
    assert sum(self_s.values()) == pytest.approx(root, rel=1e-9)
    assert calls == {"other": 1, "outer": 50, "leaf": 50}
    for name, start, end, parent in recorded[1:]:
        assert recorded[parent][1] <= start <= end <= recorded[parent][2]


def test_wrap_iter_records_each_pull():
    recorder = spans.SpanRecorder()
    pulls = recorder.wrap_iter("workloads", lambda n: iter(range(n)))
    assert recorder.run(lambda: list(pulls(4))) == [0, 1, 2, 3]
    _, calls = spans.layer_totals(recorder.spans())
    assert calls["workloads"] == 5   # four items and the final stop


def test_install_patches_by_value_imports_and_restores():
    import repro.cluster.group as group
    import repro.serving.events as events
    from repro.cluster.router import Router

    drive, assign = events.drive, Router.assign
    recorder = spans.SpanRecorder()
    undo = spans.install(recorder)
    try:
        assert group.drive is events.drive is not drive
        assert Router.assign is not assign
        assert events.drive.__wrapped__ is drive
    finally:
        spans.uninstall(undo)
    assert group.drive is events.drive is drive
    assert Router.assign is assign


# ---------------------------------------------------------------------- #
# metric registry and ratio bases
# ---------------------------------------------------------------------- #
def _stats(**overrides):
    stats = dict.fromkeys((
        "requests", "completed", "epoch_hits", "epoch_misses",
        "schedule_hits", "schedule_lookups", "prefix_hits", "prefix_misses",
        "preemptions", "chunks", "queue_wait_s", "retries", "imbalance",
        "availability"), 0)
    stats.update(overrides)
    return stats


def test_every_ratio_uses_its_base():
    stats = _stats(requests=40, completed=30, epoch_hits=9, epoch_misses=3,
                   schedule_hits=2, schedule_lookups=8, prefix_hits=1,
                   prefix_misses=4, chunks=45, queue_wait_s=6.0)
    values = metrics.layer_metrics(
        {}, {"serving.offer": 40, "serving.advance": 60}, stats,
        import_s=1.0, build_s=0.1, gc_s=0.0, gc_collections=0,
        traced_s=3.0, untraced_s=2.0)
    assert set(values) == set(metrics.PER_LAYER) - set(metrics.REPORTED)
    expected = {"serving.events_per_req": (100, 40),
                "serving.epoch_cache.hit_ratio": (9, 12),
                "serving.prefix.hit_ratio": (1, 5),
                "core.schedule_cache.hit_ratio": (2, 8),
                "bench.trace_overhead_frac": (1.0, 2.0)}
    assert set(expected) == set(metrics.RATIO_BASES)
    for name, (numerator, base) in expected.items():
        assert values[metrics.RATIO_BASES[name]] == base
        assert values[name] == pytest.approx(numerator / base)
    assert values["serving.chunks_per_req"] == pytest.approx(45 / 30)
    assert values["serving.queue_wait_mean_s"] == pytest.approx(6.0 / 30)


def test_empty_bases_give_zero_ratios():
    values = metrics.layer_metrics(
        {}, {}, _stats(), import_s=1.0, build_s=0.1, gc_s=0.0,
        gc_collections=0, traced_s=0.0, untraced_s=0.0)
    for name in metrics.RATIO_BASES:
        assert values[name] == 0.0


def test_benchmark_json_matches_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == [
        (name, unit, better)
        for name, (unit, better, _, _) in metrics.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [
        (name, unit, better)
        for name, (unit, better, _, _) in metrics.PER_LAYER.items()]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    targets = set(metrics.END_TO_END) | set(metrics.REPORTED)
    for name, (_, _, moves, workloads) in metrics.PER_LAYER.items():
        assert set(moves) <= targets, name
        assert set(workloads) <= set(WORKLOADS), name


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #
class _Trace:
    def __init__(self, dispatched, shed=0, retries=0, failed=0,
                 prefix=None):
        self.metadata = {"routing": {"dispatch_counts": dispatched}}
        if prefix is not None:
            self.metadata["prefix_cache"] = prefix
        self.num_shed, self.num_retries, self.num_failed = \
            shed, retries, failed


def test_checks_flag_broken_accounting():
    errors: list[str] = []
    check_conservation(errors, 10, 7, 1, 2)
    check_dispatch(errors, _Trace([5, 5]), 10)
    check_dispatch(errors, _Trace([4, 4], shed=3, retries=1), 10)
    check_dispatch(errors, _Trace([4, 3], shed=3, retries=1, failed=1), 10)
    check_prefix_ledgers(errors, [_Trace([], prefix={
        "retained": 5, "consumed": 2, "evicted": 2, "resident": 1})])
    assert errors == []
    check_conservation(errors, 10, 7, 1, 1)
    check_dispatch(errors, _Trace([5, 4]), 10)
    check_prefix_ledgers(errors, [_Trace([], prefix={
        "retained": 5, "consumed": 2, "evicted": 2, "resident": 0})])
    assert len(errors) == 3


def test_pregenerated_sweep_matches_internal_generation():
    from repro.experiments.serving import serving_rate_sweep
    from repro.workloads.arrivals import generate_requests

    kwargs = dict(rates=(0.5, 2.0), num_requests=12, input_len=None,
                  output_len=None, seed=3)
    own = serving_rate_sweep(**kwargs)
    handed = serving_rate_sweep(**kwargs, workload=_Pregenerated({
        rate: generate_requests(12, rate, pattern="poisson", seed=3,
                                input_len=None, output_len=None)
        for rate in kwargs["rates"]}))
    assert handed.rows == own.rows


# ---------------------------------------------------------------------- #
# reduced-size smoke runs
# ---------------------------------------------------------------------- #
def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, text=True, capture_output=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload_prints_every_metric(trace):
    done = _run("--workload", "all", "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--scale", "0.02")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    results = json.loads(lines[-1])
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(results) == sorted(WORKLOADS)
    reports = "\n".join(lines[:-1]).split("perfbench workload=")[1:]
    for name, report in zip(results, reports):
        assert report.startswith(f"{name} seed=7 trace={trace}")
        result = results[name]
        assert result["correct"] and result["failed"] == 0, done.stdout
        assert result["attempted"] == (3 if trace else 1)
        assert {metric: value["unit"] for metric, value in
                result["metrics"].items()} == {
            metric: spec[0] for metric, spec in table.items()}
        if not trace:
            assert all(value["value"] > 0
                       for value in result["metrics"].values())
        printed = {parts[0]: parts[2:3] for parts in
                   map(str.split, report.splitlines()[1:])}
        for metric, (unit, _, _, workloads) in {
                **metrics.END_TO_END, **metrics.REPORTED}.items():
            if name in workloads:
                assert printed.get(metric) == [unit], (name, metric)
        if trace:
            for metric, (unit, _, _, _) in metrics.PER_LAYER.items():
                assert printed.get(metric) == [unit], (name, metric)


def test_refuses_to_run_without_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "stream-poisson", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
