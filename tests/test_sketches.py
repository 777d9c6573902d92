"""Tests for repro.serving.sketches and the one-fold ServingTrace."""

import dataclasses
import math

import numpy as np
import pytest

from repro._common import ConfigurationError
from repro.serving.sketches import ALPHA, EXACT_BELOW, LogBucketSketch
from repro.serving.trace import RequestRecord, ServingTrace
from tests.oracles import within_sketch_bound


def record(request_id, arrival, admission, first, completion,
           input_len=64, output_len=32, slo_class="interactive"):
    return RequestRecord(request_id=request_id, arrival_time=arrival,
                         admission_time=admission, first_token_time=first,
                         completion_time=completion, input_len=input_len,
                         output_len=output_len, slo_class=slo_class)


def sketch_of(values) -> LogBucketSketch:
    sketch = LogBucketSketch()
    for value in values:
        sketch.add(float(value))
    return sketch


SAMPLERS = {
    "normal": (0, lambda rng, n: rng.normal(10.0, 2.0, n)),
    "exponential": (1, lambda rng, n: rng.exponential(3.0, n)),
    "lognormal": (2, lambda rng, n: rng.lognormal(0.0, 1.0, n)),
}


def stream(name, n=5000):
    seed, sampler = SAMPLERS[name]
    return sampler(np.random.default_rng(seed), n)


class TestLogBucketSketch:
    def test_empty_sketch_raises(self):
        with pytest.raises(ConfigurationError):
            LogBucketSketch().quantile(50)

    @pytest.mark.parametrize("q", [50, 90, 99])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_below_five_values_matches_numpy_exactly(self, q, n):
        # Below EXACT_BELOW values the sketch keeps them, so it reproduces
        # np.percentile's linear interpolation bit for bit.
        assert EXACT_BELOW == 5
        values = list(np.random.default_rng(41).exponential(2.0, n))
        sketch = sketch_of(values)
        assert sketch.count == n
        assert sketch.quantile(q) == float(np.percentile(values, q))

    @pytest.mark.parametrize("n", [3, 5, 50])
    def test_all_equal_values_collapse_to_that_value(self, n):
        # One bucket, clamped to the exact minimum and maximum.
        sketch = sketch_of([7.25] * n)
        for q in (0, 50, 99, 100):
            assert sketch.quantile(q) == 7.25

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, -1e-300,
                                     float("inf")])
    def test_invalid_values_are_rejected(self, bad):
        sketch = sketch_of([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        before = sketch_of([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(ConfigurationError):
            sketch.add(bad)
        assert sketch == before

    def test_rejects_out_of_range_ranks(self):
        sketch = sketch_of([1.0, 2.0])
        for q in (-1, 100.5):
            with pytest.raises(ConfigurationError):
                sketch.quantile(q)

    @pytest.mark.parametrize("q", [1, 50, 90, 99])
    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_tracks_lower_order_statistic_within_alpha(self, q, name):
        values = stream(name)
        estimate = sketch_of(values).quantile(q)
        assert within_sketch_bound(estimate, values, q)
        assert values.min() <= estimate <= values.max()

    def test_monotone_input_is_tracked_within_alpha(self):
        sketch = sketch_of(range(1, 1001))
        assert sketch.quantile(50) == pytest.approx(500.0, rel=ALPHA)
        assert sketch.quantile(0) == 1.0
        assert sketch.quantile(100) == 1000.0

    def test_zeros_count_toward_every_rank(self):
        # The TPOT of a one-token output is 0: zeros get a bucket of
        # their own instead of a logarithm.
        values = [0.0] * 10 + list(np.linspace(0.5, 5.0, 10))
        sketch = sketch_of(values)
        assert sketch.zeros == 10
        assert sketch.quantile(25) == 0.0
        assert within_sketch_bound(sketch.quantile(90), values, 90)
        assert sketch_of([0.0] * 6).quantile(99) == 0.0

    @pytest.mark.parametrize("split", [0, 2, 3, 7, 2500, 5000])
    def test_merge_is_one_sketch_fed_both_streams(self, split):
        values = list(stream("lognormal")) + [0.0] * 3
        values = values[:split] + [0.0] + values[split:]
        left, right = values[:split], values[split:]
        merged = sketch_of(left)
        merged.merge(sketch_of(right))
        assert merged == sketch_of(values)
        # Order does not matter either, and small merges stay exact.
        other = sketch_of(right)
        other.merge(sketch_of(left))
        assert other == merged
        small = sketch_of([3.0])
        small.merge(sketch_of([1.0, 2.0]))
        assert small == sketch_of([1.0, 2.0, 3.0])
        assert small.quantile(50) == 2.0


class TestStreamingMode:
    def serve_records(self):
        return [record(i, float(i), float(i), float(i) + 0.5,
                       float(i) + 2.0, output_len=16 + i,
                       slo_class="interactive" if i % 3 else "batch")
                for i in range(50)]

    def queued_records(self):
        # Ten requests each queued 0.1 s: the naive running sum of their
        # delays (0.9999999999999999) differs from a compensated one (1.0),
        # which is how ``sum()`` adds floats from Python 3.12 on.
        return [record(i, 0.0, 0.1, 0.3 + 0.01 * i, 1.0 + 0.1 * i)
                for i in range(10)]

    def full_and_streaming(self, records=None, **kwargs):
        full = ServingTrace(system="sys", model="m", **kwargs)
        stream = ServingTrace(system="sys", model="m",
                              record_mode="streaming", **kwargs)
        for rec in records or self.serve_records():
            full.observe(rec)
            stream.observe(rec)
        return full, stream

    def test_exact_aggregates_match_retained_trace(self):
        delays = [r.queueing_delay for r in self.queued_records()]
        naive = 0.0
        for delay in delays:
            naive += delay
        assert naive != math.fsum(delays)
        for records in (self.serve_records(), self.queued_records()):
            full, stream = self.full_and_streaming(records)
            assert stream.num_requests == full.num_requests
            assert stream.generated_tokens == full.generated_tokens
            assert stream.duration == full.duration
            assert stream.throughput == full.throughput
            assert stream.mean_queueing_delay == full.mean_queueing_delay
            assert stream.goodput() == full.goodput()
            assert stream.per_class_summary() == full.per_class_summary()
        assert full.mean_queueing_delay == naive / len(delays)

    def test_summary_has_identical_keys(self):
        full, stream = self.full_and_streaming()
        assert set(stream.summary()) == set(full.summary())

    def test_percentiles_are_close_on_modest_traces(self):
        full, stream = self.full_and_streaming()
        for key, metric, q in (("p50_ttft_s", "ttft", 50),
                               ("p99_latency_s", "e2e_latency", 99),
                               ("p50_tpot_s", "tpot", 50)):
            values = [getattr(r, metric) for r in full.records]
            assert within_sketch_bound(stream.summary()[key], values, q)
        assert full.summary()["p99_latency_s"] == float(np.percentile(
            [r.e2e_latency for r in full.records], 99))

    def test_any_percentile_rank_is_answerable(self):
        _, stream = self.full_and_streaming()
        ranks = stream.ttft_percentiles(qs=(75, 12.5))
        assert set(ranks) == {75.0, 12.5}

    def test_goodput_counts_only_compliant_tokens(self):
        records = [
            # Compliant: ttft 0.5 <= 1.0, tpot 1.5 / 31 ~ 0.048 <= 0.1.
            record(0, 0.0, 0.0, 0.5, 2.0, output_len=32),
            # TTFT violation: first token 5 s after arrival.
            record(1, 0.0, 0.0, 5.0, 10.0, output_len=32),
        ]
        for trace in self.full_and_streaming(records, ttft_slo_s=1.0,
                                             tpot_slo_s=0.1):
            assert trace.goodput(ttft_slo_s=1.0, tpot_slo_s=0.1) == \
                pytest.approx(32 / 10.0)
        assert ServingTrace("s", "m", ttft_slo_s=1.0).goodput(1.0) == 0.0

    def test_goodput_slos_fixed_at_construction(self):
        full, stream = self.full_and_streaming(ttft_slo_s=1.0,
                                               tpot_slo_s=0.5)
        assert stream.goodput(ttft_slo_s=1.0, tpot_slo_s=0.5) >= 0.0
        assert stream.goodput() == stream.throughput
        with pytest.raises(ConfigurationError):
            stream.goodput(ttft_slo_s=2.0, tpot_slo_s=0.5)
        # The retained records answer any other SLOs.
        assert full.goodput(ttft_slo_s=2.0, tpot_slo_s=0.5) == \
            full.throughput

    def test_goodput_without_slos_configured_raises(self):
        _, stream = self.full_and_streaming()
        with pytest.raises(ConfigurationError):
            stream.goodput(ttft_slo_s=1.0, tpot_slo_s=0.5)

    def test_record_queries_need_full_mode(self):
        full, stream = self.full_and_streaming()
        assert stream.records is None
        for query in ("completed_records", "preemption_waits"):
            with pytest.raises(ConfigurationError, match="record_mode"):
                getattr(stream, query)
            assert getattr(full, query) is not None
        slos = {"interactive": (1.0, 0.1)}
        assert full.per_class_summary(slos)["interactive"][
            "goodput_tokens_per_s"] > 0.0
        with pytest.raises(ConfigurationError, match="record_mode"):
            stream.per_class_summary(slos)

    @pytest.mark.parametrize("record_mode", ["full", "streaming"])
    def test_merge_equals_one_trace_of_every_record(self, record_mode):
        records = self.serve_records()
        parts = [ServingTrace("sys", "m", record_mode=record_mode)
                 for _ in range(3)]
        whole = ServingTrace("sys", "m", record_mode=record_mode)
        for index, rec in enumerate(records):
            parts[index % 3].observe(rec)
            whole.observe(rec)
        merged = ServingTrace.merge(parts, {"kv_budget_tokens": 7})
        summary = merged.summary()
        assert summary["num_replicas"] == 3
        assert "num_replicas" not in whole.summary()
        # An unmerged trace is one replica and has no imbalance column.
        assert whole.num_replicas == 1
        assert not hasattr(whole, "tokens_imbalance")
        for key, value in whole.summary().items():
            assert summary[key] == pytest.approx(value, rel=1e-12), key
        assert merged.ttft_percentiles(qs=(75,)) == \
            whole.ttft_percentiles(qs=(75,))
        assert merged.metadata["kv_budget_tokens"] == 7
        assert [r["num_requests"] for r in merged.metadata["replicas"]] == \
            [17, 17, 16]
        if record_mode == "full":
            assert merged.records == sorted(
                records, key=lambda r: r.completion_time)

    def test_absorbed_records_order_by_completion_then_id(self):
        trace = ServingTrace("sys", "m")
        trace.observe(record(5, 0.0, 0.0, 1.0, 2.0))
        trace.observe(record(1, 0.0, 0.0, 1.0, 2.0))
        terminal = trace.empty()
        terminal.observe(dataclasses.replace(record(3, 0.0, 0.0, 0.0, 0.0),
                                             status="failed"))
        trace.absorb(terminal)
        assert [r.request_id for r in trace.records] == [3, 1, 5]
        assert (trace.num_requests, trace.num_failed) == (3, 1)

    def test_empty_streaming_trace_is_safe(self):
        stream = ServingTrace(system="sys", model="m",
                              record_mode="streaming")
        assert stream.num_requests == 0
        assert stream.duration == 0.0
        assert stream.throughput == 0.0
        assert stream.mean_queueing_delay == 0.0
        assert stream.goodput() == 0.0
        assert stream.ttft_percentiles() == {}
        summary = stream.summary()
        assert summary["num_requests"] == 0
        assert summary["p99_ttft_s"] == 0.0

