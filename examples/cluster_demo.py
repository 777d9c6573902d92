"""Cluster serving demo: scale-up vs scale-out at equal GPU count.

Spends four V100s three ways on the same arrival traces — one TP-4 node,
two TP-2 replicas, four single-GPU replicas — and shows the trade the
paper's throughput story implies at cluster scale: sharding multiplies the
KV budget of one replica (admitting more concurrent requests per node),
replication multiplies the number of independent decode loops (no
collective-communication tax), and the router decides how well the
replicas share the load.  A second sweep holds the cluster fixed and
compares routing policies on a bursty ShareGPT-style trace, where
join-shortest-queue sustains a higher arrival rate than blind round-robin.

A session section (:func:`session_section`, importable — the snippet in
``docs/workloads.md`` runs it small in CI) serves a multi-turn chat mix
with interactive and batch tiers through the cluster, comparing
session-affinity routing (every turn lands where its prefix KV lives)
against plain JSQ, and reporting per-class goodput plus the prefix-cache
hit rate.

An observability section (:func:`observability_section`) serves a
heavier session mix with ``preemption="retain"`` and a
:class:`~repro.obs.SpanTracer` attached, printing the per-class
SLO-violation blame table (queueing vs prefill vs preemption vs decode)
and exporting a Perfetto-loadable Chrome trace — see
``docs/observability.md``.

A fault-recovery section (:func:`fault_section`) crashes one replica
mid-trace under a :class:`~repro.faults.FaultSchedule` and serves the
same trace three ways — no faults, faults with retry/backoff
re-dispatch, and faults plus degraded-mode load shedding — reporting
availability, retries, and the interactive-tier goodput each way; see
``docs/robustness.md``.

A final section serves a 50,000-request stream through the cluster in
``record_mode="streaming"`` — the bounded-memory event-driven path that
scales to the million-request benchmark row
(`benchmarks/test_bench_serving.py::test_bench_serving_million`).

Run with:  python examples/cluster_demo.py
"""

from __future__ import annotations

import time

from repro.baselines import VLLMSystem
from repro.cluster import ReplicaGroup
from repro.experiments import run_experiment
from repro.experiments.serving import max_sustained_rate
from repro.faults import (
    FaultEvent,
    FaultSchedule,
    LoadShedder,
    RetryPolicy,
)
from repro.hardware.presets import V100_16GB_NODE
from repro.obs import SpanTracer, format_blame_table
from repro.workloads.arrivals import RequestStream
from repro.workloads.sessions import sessions

LAYOUTS = ("tp-4", "2x(tp-2)", "4x(tp-1)")
LAYOUT_COLUMNS = ("p99_ttft_s", "mean_queueing_delay_s",
                  "throughput_tokens_per_s", "kv_budget_tokens")
ROUTING = ("round-robin", "jsq", "least-loaded")
ROUTING_COLUMNS = ("mean_queueing_delay_s", "p99_ttft_s",
                   "tokens_imbalance")

#: Per-class (TTFT, TPOT) SLOs for the session section: chat turns must
#: start fast; batch jobs only need to finish eventually.
SESSION_SLOS = {"interactive": (2.0, 0.1), "batch": (20.0, 1.0)}

#: Tighter SLOs for the observability section — attribution explains
#: *violations*, so this section holds batch work to bounds the loaded
#: cluster actually misses (the session section's 20s batch TTFT is met
#: even under preemption).
ATTRIBUTION_SLOS = {"interactive": (2.0, 0.1), "batch": (5.0, 0.03)}


def session_section(num_sessions: int = 32, rate: float = 6.0,
                    num_replicas: int = 2, seed: int = 0,
                    quiet: bool = False) -> dict:
    """Serve a ShareGPT-shaped session mix through a replica cluster.

    Builds a ``num_replicas``-way single-GPU vLLM cluster, lowers a
    multi-turn session workload (half interactive chat, half batch jobs)
    to a request trace, and serves it twice — once with session-affinity
    routing, once with plain JSQ — printing per-class goodput and the
    prefix-cache hit rate each way.  Returns the session-affinity serve's
    summary dict (plus ``prefix_hit_rate_jsq``) so callers — including
    the ``docs/workloads.md`` snippet that runs this function small in
    CI — can assert on it.
    """
    workload = sessions(num_sessions, rate, seed=seed,
                        interactive_fraction=0.5, mean_turns=3.0,
                        max_context=1024, mean_new_input=48, mean_output=64)
    requests = workload.requests()
    group = ReplicaGroup.from_layout(
        lambda node, parallelism: VLLMSystem("opt-6.7b", node,
                                             parallelism=parallelism),
        f"{num_replicas}x(none)", V100_16GB_NODE)

    def serve(policy):
        return group.serve(requests, policy=policy, seed=seed,
                           class_slos=SESSION_SLOS)

    sticky, scattered = serve("session-affinity"), serve("jsq")
    if not quiet:
        print(f"\n# Sessions: {num_sessions} conversations "
              f"({len(requests)} turns) through {num_replicas} vLLM "
              "replicas, interactive vs batch tiers")
        print(f"{'routing':>18s} {'prefix_hit_rate':>16s} "
              f"{'goodput_int':>12s} {'goodput_batch':>14s}")
        for policy, trace in (("session-affinity", sticky),
                              ("jsq", scattered)):
            per_class = trace.per_class_summary(SESSION_SLOS)
            print(f"{policy:>18s} {trace.prefix_hit_rate:>16.3f} "
                  f"{per_class['interactive']['goodput_tokens_per_s']:>12.1f}"
                  f" {per_class['batch']['goodput_tokens_per_s']:>14.1f}")
        print("(Session-affinity pins every turn to the replica holding "
              "its prefix KV, so follow-up turns pay suffix-only prefill; "
              "JSQ scatters turns and the prefix cache misses whenever a "
              "conversation hops replicas.)")
    summary = sticky.summary()
    summary["per_class"] = sticky.per_class_summary(SESSION_SLOS)
    summary["prefix_hit_rate_jsq"] = scattered.prefix_hit_rate
    return summary


def observability_section(num_sessions: int = 32, rate: float = 12.0,
                          num_replicas: int = 2, seed: int = 0,
                          quiet: bool = False) -> dict:
    """Attribute session-mix SLO violations with a :class:`SpanTracer`.

    Serves a heavier session mix (long contexts, so the KV budget is
    actually contended) with priority preemption on
    (``preemption="retain"``: interactive arrivals evict running batch
    work at epoch boundaries, KV swapped out and back) and a span tracer
    attached, then prints the per-class blame table the tracer leaves in
    ``trace.metadata["slo_attribution"]`` — each violating request's
    latency split into queueing, prefill, preemption, and decode time —
    and exports the Chrome trace for https://ui.perfetto.dev.  Returns
    the blame table so callers can assert on it.
    """
    workload = sessions(num_sessions, rate, seed=seed,
                        interactive_fraction=0.5, mean_turns=3.0,
                        max_context=2048, mean_new_input=256,
                        mean_output=256)
    group = ReplicaGroup.from_layout(
        lambda node, parallelism: VLLMSystem("opt-6.7b", node,
                                             parallelism=parallelism),
        f"{num_replicas}x(none)", V100_16GB_NODE, preemption="retain")
    tracer = SpanTracer()
    trace = group.serve(workload.requests(), policy="session-affinity",
                        seed=seed, class_slos=ATTRIBUTION_SLOS,
                        observers=[tracer])
    table = trace.metadata["slo_attribution"]
    if not quiet:
        print(f"\n# Observability: heavy session mix, preemption=retain, "
              f"SpanTracer attached ({num_replicas} replicas)")
        print(format_blame_table(table))
        print("(Queueing dominates the batch tier — long contexts wait "
              "out the KV budget, and the preemption column is the time "
              "batch work spent swapped out for interactive arrivals; "
              "the interactive tier mostly blames decode.  Simulated "
              f"{trace.duration:.1f}s of serving in "
              f"{trace.metadata['wall_clock_s']:.2f}s of wall clock.)")
        exported = tracer.export("cluster_demo_trace.json")
        print(f"Chrome trace written to {exported} — load it in "
              "https://ui.perfetto.dev (one process per replica, one "
              "track per SLO class).")
    return table


def fault_section(num_sessions: int = 32, rate: float = 12.0,
                  num_replicas: int = 2, seed: int = 0,
                  quiet: bool = False) -> dict:
    """Crash one replica mid-trace and compare recovery strategies.

    Serves the observability section's heavy session mix three ways
    through a ``num_replicas``-way vLLM cluster with JSQ routing: without
    faults, with a mid-trace crash plus retry/backoff re-dispatch, and
    with degraded-mode load shedding on top (batch arrivals dropped while
    a replica is down).  Prints completion accounting, availability, and
    the interactive-tier goodput each way; returns the per-strategy rows
    so callers can assert on them.
    """
    workload = sessions(num_sessions, rate, seed=seed,
                        interactive_fraction=0.5, mean_turns=3.0,
                        max_context=2048, mean_new_input=256,
                        mean_output=256)
    requests = workload.requests()
    group = ReplicaGroup.from_layout(
        lambda node, parallelism: VLLMSystem("opt-6.7b", node,
                                             parallelism=parallelism),
        f"{num_replicas}x(none)", V100_16GB_NODE, preemption="retain")
    faults = FaultSchedule([FaultEvent(num_replicas - 1, 1.0, 3.0,
                                       mode="crash")])
    retry = RetryPolicy(max_retries=3, backoff_s=0.05)
    strategies = (
        ("no faults", {}),
        ("crash + retry", {"faults": faults, "retry": retry}),
        ("crash + shedding", {"faults": faults, "retry": retry,
                              "shedding": LoadShedder()}),
    )
    rows = {}
    for name, kwargs in strategies:
        trace = group.serve(requests, policy="jsq", seed=seed,
                            class_slos=SESSION_SLOS, **kwargs)
        per_class = trace.per_class_summary(SESSION_SLOS)
        resilience = trace.metadata.get("resilience") or {}
        rows[name] = {
            "completed": len(trace.completed_records),
            "failed": trace.num_failed,
            "shed": trace.num_shed,
            "retries": trace.num_retries,
            "availability": resilience.get("availability", 1.0),
            "goodput_interactive": per_class.get("interactive", {}).get(
                "goodput_tokens_per_s", 0.0),
        }
    if not quiet:
        print(f"\n# Fault recovery: replica {num_replicas - 1} crashes at "
              "t=1.0s and rejoins cold at t=3.0s (session mix, JSQ, "
              "preemption=retain)")
        print(f"{'strategy':>18s} {'completed':>10s} {'failed':>7s} "
              f"{'shed':>5s} {'retries':>8s} {'avail':>7s} "
              f"{'goodput_int':>12s}")
        for name, row in rows.items():
            print(f"{name:>18s} {row['completed']:>10d} "
                  f"{row['failed']:>7d} {row['shed']:>5d} "
                  f"{row['retries']:>8d} {row['availability']:>7.3f} "
                  f"{row['goodput_interactive']:>12.1f}")
        print("(The crash loses the replica's resident KV: interrupted "
              "requests back off and re-dispatch to the survivor, which "
              "re-prefills them from scratch.  Shedding drops batch "
              "arrivals while the cluster is degraded, keeping the "
              "interactive tier's goodput closer to the fault-free "
              "serve — see docs/robustness.md.)")
    return rows


def main() -> None:
    result = run_experiment("serving_rate_sweep", model="opt-6.7b",
                            rates=(16.0, 64.0), num_requests=32,
                            input_len=256, output_len=256,
                            cluster=LAYOUTS, routing="jsq")
    print("# Equal-GPU clusters: ALISA on 4 V100s, Poisson arrivals, "
          "32 requests (s=256, n=256), JSQ routing")
    header = f"{'rate':>6s} {'cluster':>9s} " + " ".join(
        f"{col:>24s}" for col in LAYOUT_COLUMNS)
    print(header)
    for row in result.filter(system="alisa"):
        cells = " ".join(f"{row[col]:>24.3f}" for col in LAYOUT_COLUMNS)
        print(f"{row['rate_req_per_s']:>6.1f} {row['cluster']:>9s} {cells}")
    print("(TP-4 concentrates the whole node budget on one engine and pays "
          "all-reduces; 4x(none) runs four cheap independent engines but "
          "each admits against a quarter of the memory.)")

    # ------------------------------------------------------------------ #
    # routing policies on a bursty heavy-tailed trace
    # ------------------------------------------------------------------ #
    bursty = run_experiment("serving_rate_sweep", model="opt-6.7b",
                            rates=(16.0, 32.0), num_requests=40,
                            pattern="bursty", input_len=None,
                            output_len=None, seed=0,
                            cluster=("2x(tp-1)",), routing=ROUTING)
    print("\n# Routing policies: 2 single-GPU ALISA replicas, bursty "
          "ShareGPT-style trace, 40 requests")
    header = f"{'rate':>6s} {'routing':>13s} " + " ".join(
        f"{col:>24s}" for col in ROUTING_COLUMNS)
    print(header)
    for row in bursty.filter(system="alisa"):
        cells = " ".join(f"{row[col]:>24.3f}" for col in ROUTING_COLUMNS)
        print(f"{row['rate_req_per_s']:>6.1f} {row['routing']:>13s} {cells}")
    for policy in ("round-robin", "jsq"):
        rate = max_sustained_rate(bursty, system="alisa",
                                  cluster="2x(tp-1)", routing=policy,
                                  max_queueing_delay_s=0.13)
        print(f"max sustained rate ({policy}): {rate:.1f} req/s "
              "(mean queueing delay <= 0.13s)")
    print("(Round-robin splits requests evenly by count, so heavy-tailed "
          "conversations pile onto one replica during bursts; JSQ watches "
          "outstanding KV tokens — the admission currency — and drains "
          "both replicas.)")

    # ------------------------------------------------------------------ #
    # multi-turn sessions: prefix reuse and SLO tiers across replicas
    # ------------------------------------------------------------------ #
    session_section()

    # ------------------------------------------------------------------ #
    # observability: SLO-violation attribution under preemption
    # ------------------------------------------------------------------ #
    observability_section()

    # ------------------------------------------------------------------ #
    # fault recovery: outage, retry re-dispatch, degraded-mode shedding
    # ------------------------------------------------------------------ #
    fault_section()

    # ------------------------------------------------------------------ #
    # streaming record mode: large traces in bounded memory
    # ------------------------------------------------------------------ #
    n_stream = 50_000
    group = ReplicaGroup.from_layout(
        lambda node, parallelism: VLLMSystem("opt-6.7b", node,
                                             parallelism=parallelism),
        "2x(none)", V100_16GB_NODE, policy="round-robin")
    stream = RequestStream(n_stream, rate=16.0, pattern="poisson", seed=0,
                           input_len=128, output_len=64)
    start = time.perf_counter()
    trace = group.serve(stream, record_mode="streaming")
    elapsed = time.perf_counter() - start
    summary = trace.summary()
    print(f"\n# Streaming mode: {n_stream:,} requests through 2 vLLM "
          "replicas, no per-request records retained")
    print(f"served {summary['num_requests']:,} requests in {elapsed:.1f}s "
          f"({1e6 * elapsed / n_stream:.0f} us/request)")
    print(f"throughput {summary['throughput_tokens_per_s']:.0f} tok/s, "
          f"mean queueing delay {summary['mean_queueing_delay_s']:.3f}s, "
          f"p99 TTFT (sketch estimate, 1% relative error) "
          f"{summary['p99_ttft_s']:.3f}s")
    print(f"dispatch counts: {trace.metadata['routing']['dispatch_counts']}")
    print("(The same event-driven path scales to one million requests "
          "under a flat memory ceiling — see "
          "benchmarks/test_bench_serving.py::test_bench_serving_million.)")


if __name__ == "__main__":
    main()
