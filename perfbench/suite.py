"""The benchmark's workloads: how each is built, run, and checked.

Each workload is a :class:`Workload` whose ``build(seed, scale)`` returns a
:class:`Bench`.  The benchmark calls ``make_input()`` outside the timed
region, times ``run(inputs)``, then calls ``outcome(inputs, output)``
(untimed) for the simulated results and the output checks.  Apart from
``stream-poisson``, whose subject is the warm steady state, every
repetition starts from new engines and pays the cold caches a user's
single serve or sweep pays.  ``scale``
shrinks every size for the smoke tests; the benchmark always runs at 1.

Everything simulated is a pure function of the seed, so every ``sim_*``
metric and ``swa_ppl_ratio`` repeats exactly for the same seed, and
``digest`` hashes all simulated summaries so that a change which only
speeds up the simulator can show it left them bit-identical.  Host-side
cache counters (epoch cache, schedule cache) and wall clocks are left
out of the digest: they describe the simulator, not the simulation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

#: Latency SLOs of the serving workloads' goodput and max-rate metrics.
TTFT_SLO_S = 5.0
TPOT_SLO_S = 0.2
#: The interactive class SLOs of ``sessions-faults``.
INTERACTIVE_SLOS = {"interactive": (2.0, 0.1)}
SWEEP_RATES = (0.25, 0.5, 1.0, 2.0)
SWA_SPARSITIES = (0.0, 0.5, 0.8)
SWA_DATASETS = ("copa", "wikitext-2")


@dataclass(frozen=True)
class Bench:
    """One built workload (see the module docstring)."""

    make_input: Callable[[], object]
    run: Callable[[object], object]
    outcome: Callable[[object, object], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Modules imported before the set-up clock reads ``import_s``.
    imports: tuple[str, ...]
    build: Callable[[int, float], Bench]


def digest(value) -> str:
    """SHA-256 of ``value`` as canonical JSON (floats keep every digit)."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _outcome(requests: int, sim: dict, summary, errors: list[str],
            counts: dict | None = None, tokens: int = 0) -> dict:
    """The record every workload's ``outcome`` returns.

    ``requests`` is the base of ``host_us_per_req``; ``counts`` holds the
    simulated arrivals and how they terminated; ``tokens`` the evaluated
    tokens of the accuracy workload.
    """
    return {"requests": requests, "counts": counts, "sim": sim,
            "digest": digest(summary), "errors": errors, "tokens": tokens}


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #
def check_conservation(errors: list[str], arrivals: int, completed: int,
                       failed: int, shed: int) -> dict:
    """Every arrival terminates exactly once; returns the counts."""
    if completed + failed + shed != arrivals:
        errors.append(f"completed {completed} + failed {failed} + shed "
                      f"{shed} != arrivals {arrivals}")
    return {"arrivals": arrivals, "completed": completed, "failed": failed,
            "shed": shed}


def check_tokens(errors: list[str], generated: int, expected: int) -> None:
    """Generated tokens equal the completed requests' output lengths."""
    if generated != expected:
        errors.append(f"generated tokens {generated} != sum of completed "
                      f"output_len {expected}")


def check_dispatch(errors: list[str], trace, arrivals: int) -> None:
    """Routing dispatched every arrival that was not shed, plus retries.

    Each retry is one more dispatch.  A request that fails while parked
    (every replica down until the end) was never dispatched, so each
    failed request may account for one missing dispatch.
    """
    dispatched = sum(trace.metadata["routing"]["dispatch_counts"])
    most = arrivals - trace.num_shed + trace.num_retries
    if not most - trace.num_failed <= dispatched <= most:
        errors.append(
            f"dispatch counts sum to {dispatched}, expected arrivals "
            f"{arrivals} - shed {trace.num_shed} + retries "
            f"{trace.num_retries} (less at most {trace.num_failed} failed)")


def check_prefix_ledgers(errors: list[str], traces) -> list[dict]:
    """``retained == consumed + evicted + resident`` on every replica."""
    ledgers = [trace.metadata["prefix_cache"] for trace in traces
               if "prefix_cache" in trace.metadata]
    for index, ledger in enumerate(ledgers):
        if ledger["retained"] != (ledger["consumed"] + ledger["evicted"]
                                  + ledger["resident"]):
            errors.append(f"replica {index} prefix ledger unbalanced: "
                          f"{ledger}")
    return ledgers


def _latency_metrics(summary: dict) -> dict:
    return {"sim_ttft_p50_s": summary["p50_ttft_s"],
            "sim_ttft_p99_s": summary["p99_ttft_s"],
            "sim_tpot_p99_s": summary["p99_tpot_s"]}


def _vllm(node, parallelism):
    from repro.baselines import VLLMSystem
    return VLLMSystem("opt-6.7b", node, parallelism=parallelism)


# ---------------------------------------------------------------------- #
# stream-poisson
# ---------------------------------------------------------------------- #
def build_stream_poisson(seed: int, scale: float) -> Bench:
    from repro.cluster import ReplicaGroup
    from repro.hardware.presets import V100_16GB_NODE
    from repro.workloads.arrivals import RequestStream

    num_requests = max(1, round(10_000 * scale))
    # One group for the whole run: after the first repetition its pricing
    # caches are warm, which is the steady state of a million-request
    # serve, where the cold misses amortize away.
    group = ReplicaGroup.from_layout(_vllm, "2x(none)", V100_16GB_NODE,
                                     policy="round-robin", seed=seed)

    def make_input():
        return RequestStream(num_requests, rate=16.0, pattern="poisson",
                             seed=seed, input_len=128, output_len=64)

    def run(stream):
        return group.serve(stream, record_mode="streaming",
                           ttft_slo_s=TTFT_SLO_S, tpot_slo_s=TPOT_SLO_S)

    def result(stream, trace):
        errors: list[str] = []
        failed, shed = trace.num_failed, trace.num_shed
        counts = check_conservation(
            errors, stream.num_requests,
            trace.num_requests - failed - shed, failed, shed)
        # A streaming trace keeps no records, so the expected token count
        # is only known when every arrival completed.
        if failed or shed:
            errors.append("a fault-free serve failed or shed requests")
        check_tokens(errors, trace.generated_tokens,
                     sum(request.output_len for request in stream))
        check_dispatch(errors, trace, stream.num_requests)
        ledgers = check_prefix_ledgers(errors, trace.replica_traces)
        summary = trace.summary()
        sim = _latency_metrics(summary)
        sim["sim_goodput_tok_s"] = trace.goodput()
        return _outcome(stream.num_requests, sim,
                       [summary, trace.metadata["routing"],
                        trace.metadata["replicas"], ledgers],
                       errors, counts)

    return Bench(make_input, run, result)


# ---------------------------------------------------------------------- #
# sweep-sharegpt
# ---------------------------------------------------------------------- #
class _Pregenerated:
    """A ``serving_rate_sweep`` workload replaying request lists built
    before the timed region (the sweep's documented ``workload=`` hook:
    ``with_rate(rate).requests()`` yields each rate's trace)."""

    def __init__(self, traces: dict) -> None:
        self._traces = traces
        self._rate = None

    def with_rate(self, rate: float) -> "_Pregenerated":
        view = _Pregenerated(self._traces)
        view._rate = rate
        return view

    def requests(self) -> list:
        return self._traces[self._rate]


def build_sweep_sharegpt(seed: int, scale: float) -> Bench:
    from repro.experiments import serving as sweeps
    from repro.workloads.arrivals import generate_requests

    num_requests = max(1, round(1000 * scale))

    def make_input():
        return _Pregenerated({
            rate: generate_requests(num_requests, rate, pattern="poisson",
                                    seed=seed, input_len=None,
                                    output_len=None)
            for rate in SWEEP_RATES})

    def run(workload):
        # Looked up at call time so the traced run sees its wrapper.
        return sweeps.serving_rate_sweep(
            rates=SWEEP_RATES, num_requests=num_requests, input_len=None,
            output_len=None, seed=seed, ttft_slo_s=TTFT_SLO_S,
            tpot_slo_s=TPOT_SLO_S, workload=workload)

    def result(workload, sweep):
        errors: list[str] = []
        rows = sweep.rows
        if len(rows) != 3 * len(SWEEP_RATES):
            errors.append(f"sweep has {len(rows)} rows, expected "
                          f"{3 * len(SWEEP_RATES)}")
        totals = dict.fromkeys(("arrivals", "completed", "failed", "shed"),
                               0)
        for row in rows:
            requests = workload.with_rate(row["rate_req_per_s"]).requests()
            failed, shed = row["num_failed"], row["num_shed"]
            completed = row["num_requests"] - failed - shed
            for key, value in check_conservation(
                    errors, len(requests), completed, failed, shed).items():
                totals[key] += value
            # Rows carry throughput and duration, not the token count:
            # their product recovers it up to float rounding.
            expected = sum(request.output_len for request in requests)
            generated = row["throughput_tokens_per_s"] * row["duration_s"]
            if failed or shed or abs(generated - expected) > 1e-6 * expected:
                errors.append(f"{row['system']} at {row['rate_req_per_s']}"
                              f" req/s generated {generated} tokens, "
                              f"expected {expected}")
        alisa = {row["rate_req_per_s"]: row for row in rows
                 if row["system"] == "alisa"}
        reference = alisa.get(1.0, {})
        sim = {"sim_ttft_p50_s": reference.get("p50_ttft_s", 0.0),
               "sim_ttft_p99_s": reference.get("p99_ttft_s", 0.0),
               "sim_tpot_p99_s": reference.get("p99_tpot_s", 0.0),
               "sim_goodput_tok_s": reference.get("goodput_tokens_per_s",
                                                  0.0),
               "sim_max_rate_rps": max(
                   (rate for rate, row in alisa.items()
                    if row["p99_ttft_s"] <= TTFT_SLO_S
                    and row["p99_tpot_s"] <= TPOT_SLO_S
                    and row["num_failed"] + row["num_shed"] == 0),
                   default=0.0)}
        simulated = [{key: value for key, value in row.items()
                      if not key.startswith("solver_")} for row in rows]
        return _outcome(totals["arrivals"], sim, simulated, errors, totals)

    return Bench(make_input, run, result)


# ---------------------------------------------------------------------- #
# sessions-faults
# ---------------------------------------------------------------------- #
def build_sessions_faults(seed: int, scale: float) -> Bench:
    from repro.cluster import ReplicaGroup
    from repro.faults import FaultSchedule, LoadShedder, RetryPolicy
    from repro.hardware.presets import V100_16GB_NODE
    from repro.obs import SpanTracer
    from repro.workloads.sessions import sessions

    requests = sessions(max(1, round(2000 * scale)), rate=0.6,
                        interactive_fraction=0.5, seed=seed).requests()
    horizon = max(request.arrival_time for request in requests)
    faults = FaultSchedule.stochastic(2, mtbf_s=horizon / 3,
                                      mttr_s=horizon / 30,
                                      horizon_s=horizon, seed=seed,
                                      mode="crash")
    retry, shedder = RetryPolicy(3, 0.05), LoadShedder()

    def make_input():
        group = ReplicaGroup.from_layout(
            _vllm, "2x(none)", V100_16GB_NODE, policy="session-affinity",
            seed=seed, preemption="retain", prefill_chunk_tokens=256)
        # A span tracer observes exactly one serve.
        return group, SpanTracer()

    def run(inputs):
        group, tracer = inputs
        return group.serve(requests, faults=faults, retry=retry,
                           shedding=shedder, class_slos=INTERACTIVE_SLOS,
                           observers=[tracer])

    def result(inputs, trace):
        errors: list[str] = []
        statuses = {"completed": 0, "failed": 0, "shed": 0}
        for record in trace.records:
            statuses[record.status] += 1
        counts = check_conservation(errors, len(requests), **statuses)
        if sorted(r.request_id for r in trace.records) != sorted(
                r.request_id for r in requests):
            errors.append("terminated request ids differ from arrivals")
        check_tokens(errors, trace.generated_tokens,
                     sum(r.output_len for r in trace.completed_records))
        check_dispatch(errors, trace, len(requests))
        ledgers = check_prefix_ledgers(errors, trace.replica_traces)
        summary = trace.summary()
        per_class = trace.per_class_summary(INTERACTIVE_SLOS)
        sim = _latency_metrics(summary)
        sim["sim_goodput_tok_s"] = per_class.get("interactive", {}).get(
            "goodput_tokens_per_s", 0.0)
        sim["sim_unserved_frac"] = (statuses["failed"] + statuses["shed"]) \
            / len(requests)
        return _outcome(len(requests), sim,
                       [summary, per_class, trace.metadata["routing"],
                        trace.metadata["resilience"],
                        trace.metadata["slo_attribution"], ledgers],
                       errors, counts)

    return Bench(make_input, run, result)


# ---------------------------------------------------------------------- #
# swa-accuracy
# ---------------------------------------------------------------------- #
def build_swa_accuracy(seed: int, scale: float) -> Bench:
    from repro.evaluation import accuracy
    from repro.workloads.recall import ALL_DATASETS

    num_sequences = max(1, round(4 * scale))
    configs = [ALL_DATASETS[name] for name in SWA_DATASETS]

    def make_input():
        return configs

    def run(configs):
        return [accuracy.sweep_sparsity("opt-13b", config,
                                        sparsities=SWA_SPARSITIES,
                                        num_sequences=num_sequences,
                                        seed=seed)
                for config in configs]

    def result(configs, sweeps):
        errors: list[str] = []
        sequences = tokens = 0
        ratio = 0.0
        for config, rows in zip(configs, sweeps):
            cells = {(row.policy, row.kv_sparsity, row.compressed): row
                     for row in rows}
            expected = {("dense", 0.0, False)} | {
                (policy, sparsity, compressed)
                for sparsity in SWA_SPARSITIES if sparsity > 0.0
                for policy, compressed in (("local", False),
                                           ("strided", False),
                                           ("swa", False), ("swa", True))}
            if set(cells) != expected or len(rows) != len(expected):
                errors.append(f"{config.name}: rows {sorted(cells)}, "
                              f"expected {sorted(expected)}")
                continue
            swa, local = cells[("swa", 0.8, False)], cells[("local", 0.8,
                                                            False)]
            if swa.metric_value < local.metric_value:
                errors.append(f"{config.name}: SWA {swa.metric_value} "
                              f"below local {local.metric_value} at 0.8")
            sequences += len(rows) * num_sequences
            tokens += len(rows) * num_sequences * config.sequence_length
            if config.name == "wikitext-2":
                ratio = swa.perplexity / cells[("dense", 0.0,
                                                False)].perplexity
        return _outcome(sequences, {"swa_ppl_ratio": ratio},
                       [[row.as_dict() for row in rows] for rows in sweeps],
                       errors, tokens=tokens)

    return Bench(make_input, run, result)


_SERVING_IMPORTS = ("repro.cluster", "repro.serving",
                    "repro.baselines", "repro.hardware.presets",
                    "repro.workloads.arrivals")

WORKLOADS = {workload.name: workload for workload in (
    Workload("stream-poisson",
             "The million-request headline: fixed shapes hit the epoch "
             "cache, so time goes to the engine's per-epoch loops and the "
             "streaming sketches; no schedule search runs.",
             _SERVING_IMPORTS, build_stream_poisson),
    Workload("sweep-sharegpt",
             "Variable ShareGPT shapes miss the epoch and prefill caches, "
             "so ALISA's cold schedule search and cost pricing dominate.",
             _SERVING_IMPORTS + ("repro.experiments.serving",),
             build_sweep_sharegpt),
    Workload("sessions-faults",
             "Sessions with prefix reuse, preemption, chunked prefill, "
             "replica crashes, retries, shedding and span tracing: the "
             "fault and observability paths.",
             _SERVING_IMPORTS + ("repro.faults", "repro.obs",
                                 "repro.workloads.sessions"),
             build_sessions_faults),
    Workload("swa-accuracy",
             "The algorithm half (Figure 8): SWA and baseline policies run "
             "as NumPy through model, attention, kvcache and evaluation.",
             ("repro.evaluation.accuracy", "repro.workloads.recall"),
             build_swa_accuracy),
)}
