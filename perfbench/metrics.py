"""Every metric the benchmark reports: unit, direction, kind, and target.

``END_TO_END`` are the metrics a user of the simulator sees, measured with
tracing off; they are the only ones gated by a bound (see
``BENCHMARK.json``), and every workload reports all of them.  ``REPORTED``
are the remaining end-to-end metrics: they apply to some workloads only,
and the simulated ones move with the seed far more than any bound allows
(a replica crash landing early or late changes the tail), so they are
printed with the report, recorded per traced run, and pinned by
``sim_digest`` rather than gated.

``kind`` says which clock a metric reads: ``host`` is what the simulator
costs its users, ``sim`` what the modelled deployment would deliver.
Simulated values are a pure function of the seed.

``PER_LAYER`` maps each metric of the traced run to the end-to-end
metrics it should move and the workloads where it should show.
"""

from __future__ import annotations

ALL = ("stream-poisson", "sweep-sharegpt", "sessions-faults", "swa-accuracy")
SERVING = ALL[:3]

#: name -> (unit, better, kind, workloads)
END_TO_END = {
    "setup_s": ("s", "lower", "host", ALL),
    "host_us_per_req": ("us", "lower", "host", ALL),
    "peak_rss_mb": ("MB", "lower", "host", ALL),
}

REPORTED = {
    "eval_tok_per_s": ("tok/s", "higher", "host", ("swa-accuracy",)),
    "sim_ttft_p50_s": ("sim_s", "lower", "sim", SERVING),
    "sim_ttft_p99_s": ("sim_s", "lower", "sim", SERVING),
    "sim_tpot_p99_s": ("sim_s", "lower", "sim", SERVING),
    "sim_goodput_tok_s": ("tok/sim_s", "higher", "sim", SERVING),
    "sim_max_rate_rps": ("req/sim_s", "higher", "sim", ("sweep-sharegpt",)),
    "sim_unserved_frac": ("frac", "lower", "sim", ("sessions-faults",)),
    "swa_ppl_ratio": ("ratio", "lower", "sim", ("swa-accuracy",)),
}

_HOST = ("host_us_per_req",)
_EVAL = ("eval_tok_per_s", "host_us_per_req")
_TAIL = ("sim_ttft_p99_s",)
_UNSERVED = ("sim_unserved_frac",)
_FAULTS = ("sessions-faults",)
_STREAM = ("stream-poisson",)
_SWEEP = ("sweep-sharegpt",)
_SWA = ("swa-accuracy",)

#: name -> (unit, better, end-to-end metrics it moves, workloads where it
#: shows).  ``self_s`` is host self time: span time minus child spans.
PER_LAYER = {
    "setup.import_s": ("s", "lower", ("setup_s",), ALL),
    "setup.build_s": ("s", "lower", ("setup_s",), ALL),
    "workloads.self_s": ("s", "lower", _HOST, _STREAM),
    "cluster.route.calls": ("count", "lower", _HOST, _FAULTS),
    "cluster.route.self_s": ("s", "lower", _HOST, _FAULTS),
    "cluster.imbalance": ("ratio", "lower", _TAIL, _FAULTS),
    "serving.requests": ("count", "higher", _HOST, SERVING),
    "serving.offer.calls": ("count", "lower", _HOST, _STREAM),
    "serving.advance.calls": ("count", "lower", _HOST, _STREAM),
    "serving.events_per_req": ("ratio", "lower", _HOST, _STREAM),
    "serving.self_s": ("s", "lower", _HOST, _STREAM),
    "serving.driver.self_s": ("s", "lower", _HOST, _STREAM + _FAULTS),
    "serving.sink.calls": ("count", "lower", _HOST + ("peak_rss_mb",),
                           _STREAM),
    "serving.sink.self_s": ("s", "lower", _HOST + ("peak_rss_mb",),
                            _STREAM),
    "serving.epoch_cache.lookups": ("count", "lower", _HOST,
                                    _STREAM + _SWEEP),
    "serving.epoch_cache.hit_ratio": ("ratio", "higher", _HOST,
                                      _STREAM + _SWEEP),
    "serving.prefix.lookups": ("count", "higher", _TAIL, _FAULTS),
    "serving.prefix.hit_ratio": ("ratio", "higher", _TAIL, _FAULTS),
    "serving.preemptions": ("count", "lower", _TAIL, _FAULTS),
    "serving.chunks_per_req": ("ratio", "lower", _TAIL, _FAULTS),
    "serving.queue_wait_mean_s": ("sim_s", "lower", _TAIL, _FAULTS),
    "systems.epoch_timings.calls": ("count", "lower", _HOST, _SWEEP),
    "systems.epoch_timings.self_s": ("s", "lower", _HOST, _SWEEP),
    "systems.prefill_timing.calls": ("count", "lower", _HOST, _STREAM),
    "systems.prefill_timing.self_s": ("s", "lower", _HOST, _STREAM),
    "systems.kv_budget.calls": ("count", "lower", _HOST, SERVING),
    "systems.kv_budget.self_s": ("s", "lower", _HOST, SERVING),
    "core.prepare.calls": ("count", "lower", _HOST, _SWEEP),
    "core.prepare.self_s": ("s", "lower", _HOST, _SWEEP),
    "core.solve.calls": ("count", "lower", _HOST, _SWEEP),
    "core.solve.self_s": ("s", "lower", _HOST, _SWEEP),
    "core.schedule_cache.nearest.self_s": ("s", "lower", _HOST, _SWEEP),
    "core.plan_epoch.self_s": ("s", "lower", _HOST, _SWEEP),
    "core.schedule_cache.lookups": ("count", "lower", _HOST, _SWEEP),
    "core.schedule_cache.hit_ratio": ("ratio", "higher", _HOST, _SWEEP),
    "faults.calls": ("count", "lower", _HOST, _FAULTS),
    "faults.self_s": ("s", "lower", _HOST, _FAULTS),
    "faults.retries": ("count", "lower", _UNSERVED, _FAULTS),
    "faults.availability": ("ratio", "higher", _UNSERVED, _FAULTS),
    "obs.calls": ("count", "lower", _HOST, _FAULTS),
    "obs.self_s": ("s", "lower", _HOST, _FAULTS),
    "experiments.self_s": ("s", "lower", _HOST, _SWEEP),
    "model.self_s": ("s", "lower", _EVAL, _SWA),
    "attention.self_s": ("s", "lower", _EVAL, _SWA),
    "kvcache.self_s": ("s", "lower", _EVAL, _SWA),
    "evaluation.self_s": ("s", "lower", _EVAL, _SWA),
    "runtime.gc_s": ("s", "lower", _HOST, _STREAM),
    "runtime.gc_collections": ("count", "lower", _HOST, _STREAM),
    "other.self_s": ("s", "lower", _HOST, ALL),
    "bench.traced_wall_s": ("s", "lower", (), ALL),
    "bench.untraced_wall_s": ("s", "lower", (), ALL),
    "bench.trace_overhead_frac": ("ratio", "lower", (), ALL),
}
# The reported end-to-end metrics ride along in every traced run, so each
# one is recorded per commit even though no bound gates it.
PER_LAYER.update({name: (unit, better, (name,), workloads) for name, (
    unit, better, _, workloads) in REPORTED.items()})

#: Ratios and the per-layer metric that is their base.
RATIO_BASES = {
    "serving.events_per_req": "serving.requests",
    "serving.epoch_cache.hit_ratio": "serving.epoch_cache.lookups",
    "serving.prefix.hit_ratio": "serving.prefix.lookups",
    "core.schedule_cache.hit_ratio": "core.schedule_cache.lookups",
    "bench.trace_overhead_frac": "bench.untraced_wall_s",
}


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, 0 when the base is empty."""
    return numerator / base if base else 0.0


def serve_stats(traces) -> dict:
    """Simulated and cache counters summed over the serves of one run."""
    stats = dict.fromkeys((
        "requests", "completed", "epoch_hits", "epoch_misses",
        "schedule_hits", "schedule_lookups", "prefix_hits", "prefix_misses",
        "preemptions", "chunks", "queue_wait_s", "retries"), 0)
    imbalance, availability = [], []
    for trace in traces:
        metadata = trace.metadata
        completed = trace.num_requests - trace.num_failed - trace.num_shed
        stats["requests"] += trace.num_requests
        stats["completed"] += completed
        epochs = metadata.get("epoch_cache", {})
        stats["epoch_hits"] += epochs.get("hits", 0)
        stats["epoch_misses"] += epochs.get("misses", 0)
        scheduler = metadata.get("scheduler", {})
        stats["schedule_hits"] += (scheduler.get("exact_hits", 0)
                                   + scheduler.get("canonical_hits", 0))
        stats["schedule_lookups"] += sum(
            scheduler.get(key, 0) for key in (
                "exact_hits", "canonical_hits", "warm_solves",
                "full_solves"))
        for leaf in getattr(trace, "replica_traces", None) or [trace]:
            prefix = leaf.metadata.get("prefix_cache", {})
            stats["prefix_hits"] += prefix.get("hits", 0)
            stats["prefix_misses"] += prefix.get("misses", 0)
        stats["preemptions"] += trace.num_preemptions
        stats["chunks"] += trace.prefill_chunks_per_request * completed
        stats["queue_wait_s"] += trace.mean_queueing_delay * completed
        stats["retries"] += trace.num_retries
        if hasattr(trace, "tokens_imbalance"):
            imbalance.append(trace.tokens_imbalance)
        if "resilience" in metadata:
            availability.append(metadata["resilience"]["availability"])
    stats["imbalance"] = max(imbalance, default=0.0)
    stats["availability"] = min(availability, default=0.0)
    return stats


def layer_metrics(self_s: dict, calls: dict, stats: dict, *, import_s: float,
                  build_s: float, gc_s: float, gc_collections: int,
                  traced_s: float, untraced_s: float) -> dict:
    """Every ``PER_LAYER`` metric except the reported end-to-end ones."""
    epoch_lookups = stats["epoch_hits"] + stats["epoch_misses"]
    prefix_lookups = stats["prefix_hits"] + stats["prefix_misses"]
    values = {
        "setup.import_s": import_s,
        "setup.build_s": build_s,
        "cluster.imbalance": stats["imbalance"],
        "serving.requests": stats["requests"],
        "serving.events_per_req": ratio(
            calls.get("serving.offer", 0) + calls.get("serving.advance", 0),
            stats["requests"]),
        "serving.epoch_cache.lookups": epoch_lookups,
        "serving.epoch_cache.hit_ratio": ratio(stats["epoch_hits"],
                                               epoch_lookups),
        "serving.prefix.lookups": prefix_lookups,
        "serving.prefix.hit_ratio": ratio(stats["prefix_hits"],
                                          prefix_lookups),
        "serving.preemptions": stats["preemptions"],
        "serving.chunks_per_req": ratio(stats["chunks"], stats["completed"]),
        "serving.queue_wait_mean_s": ratio(stats["queue_wait_s"],
                                           stats["completed"]),
        "core.schedule_cache.lookups": stats["schedule_lookups"],
        "core.schedule_cache.hit_ratio": ratio(stats["schedule_hits"],
                                               stats["schedule_lookups"]),
        "faults.retries": stats["retries"],
        "faults.availability": stats["availability"],
        "runtime.gc_s": gc_s,
        "runtime.gc_collections": gc_collections,
        "bench.traced_wall_s": traced_s,
        "bench.untraced_wall_s": untraced_s,
        "bench.trace_overhead_frac": ratio(traced_s - untraced_s,
                                           untraced_s),
    }
    for name in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if kind == "self_s" and name not in values:
            values[name] = self_s.get(stem, 0.0)
        elif kind == "calls":
            values[name] = calls.get(stem, 0)
    return values
