"""Invariants of :class:`EngineRun`'s incremental running-batch bookkeeping.

The event path never re-sums its batch: reservations move by per-event
deltas, each wrapper's ``generated`` lags the run's decode tick until it is
read, and the epoch shape comes off two lazy-deletion heaps.  These tests
check, after every ``offer``/``advance``/``close``/``fail``/``recover`` of
every run, that the incremental state equals the list scan the clock loop
does — across FCFS, both preemption modes, chunked prefill, sessions with
prefix reuse, and crash/drain faults, on one engine and on a 2-replica
group — and that checking it does not change the serve.
"""

import pytest

from repro.baselines import FlexGenSystem
from repro.cluster import ReplicaGroup
from repro.faults import FaultEvent, FaultSchedule
from repro.hardware.presets import V100_16GB_NODE
from repro.serving import ContinuousBatchingEngine
from repro.serving.engine import _HEAP_SLACK, EngineRun
from repro.workloads.arrivals import Request, generate_requests
from repro.workloads.sessions import sessions

MODEL = "opt-6.7b"
HOOKED = ("offer", "advance", "close", "fail", "recover")


def check_run(run: EngineRun) -> None:
    """The run's incremental state equals a scan of its running batch."""
    engine = run.engine
    running = list(run._running.values())
    assert run._reserved == (sum(w.request.max_seq_len for w in running)
                             + run._prefix.node_total)
    assert run._shard_reserved == (
        sum(engine.shard_footprint(w.request) for w in running)
        + run._prefix.shard_total)
    if not running:
        return
    # Syncing is idempotent bookkeeping; after it every wrapper's
    # generated is exact and the list scan is the clock loop's formula.
    for wrapper in running:
        run._sync(wrapper)
    scan = (min(w.remaining for w in running),
            max(w.context_length for w in running))
    assert scan[0] > 0  # finishers never outlive their completion epoch
    assert run._epoch_shape() == scan
    limit = 2 * len(running) + _HEAP_SLACK
    assert len(run._finish_heap) <= limit
    assert len(run._context_heap) <= limit


def install_checks(monkeypatch) -> dict:
    """Check every run after each driver-facing call; count the checks."""
    counter = {"checks": 0}

    def hook(name):
        original = getattr(EngineRun, name)

        def wrapped(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            check_run(self)
            counter["checks"] += 1
            return result
        return wrapped

    for name in HOOKED:
        monkeypatch.setattr(EngineRun, name, hook(name))
    return counter


def plain():
    return generate_requests(16, 4.0, pattern="bursty", seed=3, max_len=512)


def mixed_classes():
    reqs = [Request(request_id=i, arrival_time=0.4 * i, input_len=256,
                    output_len=64, slo_class="batch") for i in range(8)]
    reqs += [Request(request_id=100 + j, arrival_time=0.9 + 0.5 * j,
                     input_len=64, output_len=32, slo_class="interactive")
             for j in range(6)]
    return sorted(reqs, key=lambda r: (r.arrival_time, r.request_id))


def chat():
    return sessions(12, 2.0, seed=3, interactive_fraction=0.5,
                    mean_turns=3.0, max_context=1024, mean_new_input=48,
                    mean_output=64).requests()


def outage(mode):
    return FaultSchedule([FaultEvent(0, 2.0, 4.0, mode=mode)])


#: name -> (requests, engine kwargs, serve kwargs, exercised(trace)).
SCENARIOS = {
    "fcfs": (plain, {}, {}, lambda meta: meta["num_epochs"] > 0),
    "retain": (mixed_classes, {"max_batch_size": 4, "preemption": "retain"},
               {}, lambda meta: meta["preemption"]["count"] > 0),
    "recompute": (mixed_classes,
                  {"max_batch_size": 4, "preemption": "recompute"}, {},
                  lambda meta: meta["preemption"]["count"] > 0),
    "chunked": (mixed_classes,
                {"max_batch_size": 4, "preemption": "recompute",
                 "prefill_chunk_tokens": 64}, {},
                lambda meta: (meta["prefill_chunking"]["num_chunks"] > 0
                              and meta["preemption"]["count"] > 0)),
    "sessions": (chat, {"max_batch_size": 4, "preemption": "retain"}, {},
                 lambda meta: meta["prefix_cache"]["hits"] > 0),
    "crash": (plain, {}, {"faults": outage("crash")},
              lambda meta: meta["faults"]["num_failures"] > 0),
    "drain": (plain, {}, {"faults": outage("drain")},
              lambda meta: meta["faults"]["drained_bytes"] > 0),
}


def engine(**kwargs):
    return ContinuousBatchingEngine(FlexGenSystem(MODEL, V100_16GB_NODE),
                                    **kwargs)


def group(**kwargs):
    """Two replicas, each with half the engine's batch cap (if any), so the
    same requests still contend for batch slots and preempt."""
    if "max_batch_size" in kwargs:
        kwargs["max_batch_size"] //= 2

    def build(node, parallelism):
        return FlexGenSystem(MODEL, node, parallelism=parallelism)
    return ReplicaGroup.from_layout(build, "2x(none)", V100_16GB_NODE,
                                    policy="session-affinity", seed=3,
                                    **kwargs)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("build", [engine, group], ids=["engine", "group"])
def test_bookkeeping_matches_list_scan(build, scenario, monkeypatch):
    make_requests, engine_kwargs, serve_kwargs, exercised = \
        SCENARIOS[scenario]
    reference = build(**engine_kwargs).serve(make_requests(),
                                             **serve_kwargs)
    counter = install_checks(monkeypatch)
    trace = build(**engine_kwargs).serve(make_requests(), **serve_kwargs)
    assert counter["checks"] > 0
    replicas = trace.replica_traces or [trace]
    assert any(exercised(replica.metadata) for replica in replicas)
    # Checking syncs wrappers and prunes heaps; neither may move the serve.
    assert trace.records == reference.records
