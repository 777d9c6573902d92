"""Bit-identity of the vectorized epoch pricing fast path.

The fast path (``InferenceSimulator.epoch_timings`` +
``ContinuousBatchingEngine._price_epoch``) must be a pure re-expression of
the per-step loop: same plans, same prices, same traces, bit for bit.
These tests pin that across systems, KV dtypes, shard shapes, and random
workloads (hypothesis), and pin the serving/offline traces against the
per-step oracle in ``tests/oracles``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    AccelerateSystem,
    DeepSpeedZeroSystem,
    FlexGenSystem,
    GPUOnlySystem,
    VLLMSystem,
)
from repro.cluster import ClusterLayout, ReplicaGroup
from repro.core.engine import AlisaSystem
from repro.core.scheduler import DynamicScheduler, SchedulerConfig
from repro.core.swa import SWAConfig
from repro.hardware.presets import NVLINK, V100_16GB_NODE, multi_gpu
from repro.serving import ContinuousBatchingEngine
from repro.systems.cost import ParallelismSpec
from repro.systems.memory import MemoryHierarchy
from repro.systems.simulator import EpochTimings
from repro.workloads.arrivals import generate_requests
from repro.workloads.descriptors import Workload
from tests.oracles import SteppedEngine, run_stepwise
from tests.oracles.step_plans import plan_decode_step, step_timing

MODEL = "opt-6.7b"

SYSTEM_BUILDERS = {
    "gpu-only": lambda hw, **kw: GPUOnlySystem(MODEL, hw, **kw),
    "accelerate": lambda hw, **kw: AccelerateSystem(MODEL, hw, **kw),
    "deepspeed-zero": lambda hw, **kw: DeepSpeedZeroSystem(MODEL, hw, **kw),
    "flexgen": lambda hw, **kw: FlexGenSystem(MODEL, hw, **kw),
    "vllm": lambda hw, **kw: VLLMSystem(MODEL, hw, **kw),
    "alisa": lambda hw, **kw: AlisaSystem(MODEL, hw, kv_sparsity=0.8, **kw),
    "alisa-static": lambda hw, **kw: AlisaSystem(
        MODEL, hw, kv_sparsity=0.8, use_dynamic_scheduling=False, **kw),
}

SHARD_SHAPES = {
    "none": (1, None),
    "tp-2": (2, ParallelismSpec("tp", 2)),
    "pp-2": (2, ParallelismSpec("pp", 2)),
}


def build_system(system: str, shard: str = "none", **kwargs):
    gpu_count, parallelism = SHARD_SHAPES[shard]
    hardware = multi_gpu(V100_16GB_NODE, gpu_count)
    if parallelism is not None:
        kwargs["parallelism"] = parallelism
    return SYSTEM_BUILDERS[system](hardware, **kwargs)


def stepped_group(factory, **kwargs):
    """The per-step oracle twin of ``ReplicaGroup.from_layout(factory,
    "2x(none)", V100_16GB_NODE, **kwargs)``: same nodes, stepped engines."""
    layout = ClusterLayout.parse("2x(none)")
    spec = layout.cluster_spec(V100_16GB_NODE, NVLINK)
    return ReplicaGroup(
        [SteppedEngine(factory(spec.node, layout.parallelism))
         for _ in range(spec.num_replicas)],
        cluster=spec, **kwargs)


def stepwise_reference(system, workload):
    """Price the epoch with the per-step loop (the legacy hot path)."""
    system.prepare(workload)
    system.plan_prefill(workload)
    memory = MemoryHierarchy.from_hardware(system.hardware)
    timings = [
        step_timing(system, plan_decode_step(system, step, workload), step,
                    workload, memory)
        for step in range(workload.output_len)
    ]
    return timings, memory.link


#: StepTiming field -> EpochTimings array holding it.
STEP_FIELDS = {"compute_time": "compute_times",
               "transfer_time": "transfer_times",
               "recompute_time": "recompute_times",
               "overhead_time": "overhead_times",
               "gpu_kv_bytes": "gpu_kv_bytes",
               "cpu_kv_bytes": "cpu_kv_bytes",
               "bytes_offloaded": "bytes_offloaded",
               "bytes_reloaded": "bytes_reloaded",
               "sequence_length": "sequence_lengths"}


def assert_matches_step_loop(epoch, reference, link, label) -> None:
    """``epoch`` equals the step loop's timings field for field."""
    assert epoch.num_steps == len(reference), label
    assert epoch.phases == tuple(t.phase for t in reference), label
    for field, array in STEP_FIELDS.items():
        expected = np.array([getattr(t, field) for t in reference])
        assert np.array_equal(getattr(epoch, array), expected), (label,
                                                                 field)
    totals = np.array([t.total_time for t in reference])
    assert np.array_equal(epoch.total_times, totals), label
    # The per-step PCIe traffic matches what the loop recorded.
    assert float(np.sum(epoch.h2d_bytes)) == pytest.approx(
        link.bytes_host_to_device)
    assert float(np.sum(epoch.d2h_bytes)) == pytest.approx(
        link.bytes_device_to_host)


def priced_epoch(simulator, workload):
    simulator.prepare(workload)
    simulator.plan_prefill(workload)
    return simulator.epoch_timings(workload)


class TestEpochTimingsMatchStepLoop:
    """``epoch_timings`` is element-wise identical to the step loop."""

    @settings(max_examples=12, deadline=None)
    @given(
        system=st.sampled_from(sorted(SYSTEM_BUILDERS)),
        shard=st.sampled_from(sorted(SHARD_SHAPES)),
        kv_dtype=st.sampled_from(["fp16", "int8"]),
        batch_size=st.integers(min_value=1, max_value=8),
        input_len=st.integers(min_value=1, max_value=192),
        output_len=st.integers(min_value=1, max_value=96),
    )
    def test_property_random_workloads(self, system, shard, kv_dtype,
                                       batch_size, input_len, output_len):
        workload = Workload(batch_size, input_len, output_len, "prop")
        simulator = build_system(system, shard, kv_dtype=kv_dtype)
        reference, link = stepwise_reference(simulator, workload)
        simulator = build_system(system, shard, kv_dtype=kv_dtype)
        epoch = priced_epoch(simulator, workload)
        assert_matches_step_loop(epoch, reference, link, system)

    #: Epoch shapes priced on one simulator, longest first.  Step tables
    #: grow to powers of two, so in the short-first order every shape from
    #: (4, 60, 10) on straddles a growth boundary of the shared split
    #: (64 -> 65, 128 -> 129, 256 -> 257) or of its batch's compute row.
    GROWN_SHAPES = [(4, 200, 120), (2, 1, 300), (2, 120, 9), (4, 60, 10),
                    (4, 30, 20), (1, 3, 5)]

    @pytest.mark.parametrize("order", ["long-first", "short-first"])
    @pytest.mark.parametrize("shard", sorted(SHARD_SHAPES))
    @pytest.mark.parametrize("system", sorted(SYSTEM_BUILDERS))
    def test_grown_step_table_prices_like_a_fresh_one(self, system, shard,
                                                      order):
        # The property test above builds a new simulator per example, so
        # its step table never grows.  Here one simulator prices every
        # shape, in either order, and each epoch must equal both a fresh
        # simulator's and the per-step oracle's exactly.
        shapes = self.GROWN_SHAPES
        if order == "short-first":
            shapes = shapes[::-1]
        simulator = build_system(system, shard)
        for shape in shapes:
            workload = Workload(*shape, "grown")
            epoch = priced_epoch(simulator, workload)
            # ALISA's schedule depends on solver history; a twin sharing
            # the schedule cache solves each shape the same way and
            # differs only in its (fresh) step table.
            twin = {"schedule_cache": simulator.schedule_cache} if isinstance(
                simulator, AlisaSystem) else {}
            fresh = priced_epoch(build_system(system, shard, **twin),
                                 workload)
            for field in EpochTimings.__dataclass_fields__:
                assert np.array_equal(getattr(epoch, field),
                                      getattr(fresh, field)), (shape, field)
            reference, link = stepwise_reference(simulator, workload)
            assert_matches_step_loop(epoch, reference, link, shape)

    def test_scheduler_plan_epoch_matches_plan_step(self):
        # Direct pin of the vectorized Algorithm 2 (all three phases).
        config = SchedulerConfig(offload_ratio=0.5, recompute_ratio=0.4,
                                 phase2_step=20, phase3_step=60)
        swa = SWAConfig.from_sparsity(0.8)
        reference = DynamicScheduler(config, swa, gpu_budget_tokens=200,
                                     prompt_len=128)
        reference.plan_prefill()
        plans = [reference.plan_step(j) for j in range(150)]

        vectorized = DynamicScheduler(config, swa, gpu_budget_tokens=200,
                                      prompt_len=128)
        vectorized.plan_prefill()
        epoch = vectorized.plan_epoch(150)
        assert epoch.phases == tuple(p.phase for p in plans)
        for field, values in (
                ("tokens_gpu", epoch.tokens_gpu),
                ("tokens_cpu", epoch.tokens_cpu),
                ("tokens_deleted", epoch.tokens_deleted),
                ("load_tokens", epoch.load_tokens),
                ("offload_tokens", epoch.offload_tokens),
                ("recompute_tokens", epoch.recompute_tokens),
                ("kept_local", epoch.kept_local),
                ("kept_global", epoch.kept_global),
        ):
            expected = np.array([getattr(p, field) for p in plans])
            assert np.array_equal(values, expected), field

    def test_split_budget_batch_matches_scalar(self):
        swa = SWAConfig.from_sparsity(0.8)
        seq = np.arange(1, 2000)
        local, global_ = swa.split_budget_batch(seq)
        for j in (0, 1, 5, 123, 998, 1998):
            assert (local[j], global_[j]) == swa.split_budget(int(seq[j]))


class TestServingFastPathGoldenPins:
    """serve()/run() with the fast path are bit-identical to the oracle."""

    REQUESTS = dict(rate=16.0, input_len=256, output_len=128, seed=5)

    @pytest.mark.parametrize("system,shard", [
        ("alisa", "none"), ("flexgen", "none"), ("vllm", "none"),
        ("alisa", "tp-2"), ("alisa", "pp-2"),
    ])
    def test_serve_traces_bit_identical(self, system, shard):
        requests = generate_requests(12, **self.REQUESTS)
        fast = ContinuousBatchingEngine(
            build_system(system, shard)).serve(requests)
        exact = SteppedEngine(
            build_system(system, shard)).serve_clock_loop(requests)
        assert fast.records == exact.records
        assert fast.summary() == exact.summary()
        for key in ("kv_budget_tokens", "peak_reserved_tokens", "num_epochs",
                    "num_decode_steps", "pcie_bytes", "comm_time_s",
                    "comm_time_share", "shards"):
            assert fast.metadata[key] == exact.metadata[key], key

    def test_serve_fast_path_is_default_and_memoizes(self):
        requests = generate_requests(12, **self.REQUESTS)
        engine = ContinuousBatchingEngine(build_system("alisa"))
        first = engine.serve(requests)
        assert first.metadata["epoch_cache"]["misses"] >= 1
        # Identical trace again: every epoch shape is already priced.
        second = engine.serve(requests)
        assert second.metadata["epoch_cache"]["misses"] == 0
        assert (second.metadata["epoch_cache"]["hits"]
                == second.metadata["num_epochs"])
        assert second.records == first.records
        # The per-step oracle never consults the memo: zero counters.
        stepped = SteppedEngine(build_system("alisa")).serve(requests)
        assert stepped.metadata["epoch_cache"] == {"hits": 0, "misses": 0}
        assert stepped.records == first.records

    @pytest.mark.parametrize("system", ["alisa", "alisa-static", "flexgen",
                                        "accelerate", "vllm"])
    def test_offline_run_bit_identical(self, system):
        workload = Workload(16, 256, 200, "offline")
        fast = build_system(system).run(workload)
        exact = run_stepwise(build_system(system), workload)
        assert fast.prefill_time == exact.prefill_time
        assert fast.steps == exact.steps
        assert fast.summary() == exact.summary()

    def test_cluster_serve_bit_identical_to_stepped(self):
        # The replica-group fast path (per-replica epoch memos, shared
        # prefill plans) must reproduce the stepped cluster trace bit for
        # bit, including with ALISA's history-dependent default schedule
        # policy.
        def build(node, parallelism):
            return AlisaSystem(MODEL, node, kv_sparsity=0.8,
                               parallelism=parallelism)

        requests = generate_requests(16, rate=32.0, pattern="bursty", seed=3)
        fast = ReplicaGroup.from_layout(build, "2x(none)", V100_16GB_NODE,
                                        policy="jsq", seed=3).serve(requests)
        exact = stepped_group(build, policy="jsq", seed=3).serve(requests)
        assert fast.records == exact.records
        assert fast.summary() == exact.summary()

    #: Systems whose serves move real PCIe traffic: a static FlexGen split
    #: and a fixed ALISA schedule that offloads and recomputes.
    PCIE_BUILDERS = {
        "flexgen": lambda hw, **kw: FlexGenSystem(MODEL, hw, cpu_fraction=0.5,
                                                  **kw),
        "alisa": lambda hw, **kw: AlisaSystem(
            MODEL, hw, kv_sparsity=0.8,
            scheduler_config=SchedulerConfig(0.5, 0.2, 4, 40), **kw),
    }

    @pytest.mark.parametrize("system", sorted(PCIE_BUILDERS))
    def test_warm_engine_serve_matches_stepped(self, system):
        # The second serve prices every prefill and epoch from the memos
        # (replayed link bytes, skipped all-zero traffic) and must still
        # reproduce the stepped trace and PCIe ledger bit for bit.
        build = self.PCIE_BUILDERS[system]
        requests = generate_requests(16, 4.0, pattern="bursty", seed=3,
                                     max_len=512)
        engine = ContinuousBatchingEngine(build(V100_16GB_NODE))
        engine.serve(requests)
        warm = engine.serve(requests)
        assert warm.metadata["epoch_cache"]["misses"] == 0
        exact = SteppedEngine(
            build(V100_16GB_NODE)).serve_clock_loop(requests)
        assert exact.metadata["pcie_bytes"] > 0.0
        assert warm.records == exact.records
        assert warm.metadata["pcie_bytes"] == exact.metadata["pcie_bytes"]

    @pytest.mark.parametrize("system", sorted(PCIE_BUILDERS))
    def test_warm_group_serve_matches_stepped(self, system):
        build = self.PCIE_BUILDERS[system]

        def factory(node, parallelism):
            return build(node, parallelism=parallelism)

        requests = generate_requests(16, 4.0, pattern="bursty", seed=3,
                                     max_len=512)
        fast = ReplicaGroup.from_layout(factory, "2x(none)", V100_16GB_NODE,
                                        policy="jsq", seed=3)
        fast.serve(requests)
        warm = fast.serve(requests)
        exact = stepped_group(factory, policy="jsq", seed=3).serve(requests)
        warm_bytes = [t.metadata["pcie_bytes"] for t in warm.replica_traces]
        exact_bytes = [t.metadata["pcie_bytes"]
                       for t in exact.replica_traces]
        assert all(num_bytes > 0.0 for num_bytes in exact_bytes)
        assert warm.records == exact.records
        assert warm_bytes == exact_bytes

    def test_prefill_plan_cache_is_engine_state(self):
        requests = generate_requests(8, **self.REQUESTS)
        engine = ContinuousBatchingEngine(build_system("alisa"))
        engine.serve(requests)
        cached_shapes = set(engine._prefill_plans)
        assert cached_shapes  # plans survived the serve() call
        engine.serve(requests)
        assert set(engine._prefill_plans) == cached_shapes

    def test_replica_group_shares_pricing_caches(self):
        from repro.core.schedule_cache import SchedulePolicy

        def factory(node, parallelism):
            return AlisaSystem(MODEL, node, kv_sparsity=0.8,
                               parallelism=parallelism)

        group = ReplicaGroup.from_layout(factory, "2x(none)",
                                         V100_16GB_NODE, policy="jsq")
        first, second = group.engines
        # Prefill plans are shape-pure for every system: always shared,
        # and their memoized prices with them.
        assert first._prefill_plans is second._prefill_plans
        assert first._prefill_prices is second._prefill_prices
        # ALISA's default warm-started schedules depend on replica-local
        # solver history, so its priced epochs are NOT shared...
        assert not first.simulator.pricing_is_shape_pure()
        assert first._epoch_cache is not second._epoch_cache
        # Schedule caches stay per replica (solver state is not shared).
        assert (first.simulator.schedule_cache
                is not second.simulator.schedule_cache)
        requests = generate_requests(12, **self.REQUESTS)
        trace = group.serve(requests)
        assert trace.num_requests == 12
        assert set(first._prefill_prices) == set(first._prefill_plans)

        # ...but shape-pure pricing (exact schedules, stateless baselines)
        # shares epochs cluster-wide.
        def exact_factory(node, parallelism):
            return AlisaSystem(MODEL, node, kv_sparsity=0.8,
                               parallelism=parallelism,
                               schedule_policy=SchedulePolicy(exact=True))

        exact_group = ReplicaGroup.from_layout(exact_factory, "2x(none)",
                                               V100_16GB_NODE)
        assert exact_group.engines[0].simulator.pricing_is_shape_pure()
        assert (exact_group.engines[0]._epoch_cache
                is exact_group.engines[1]._epoch_cache)
        assert (exact_group.engines[0]._prefill_prices
                is exact_group.engines[1]._prefill_prices)
        flexgen_group = ReplicaGroup.from_layout(
            lambda node, parallelism: FlexGenSystem(
                MODEL, node, parallelism=parallelism),
            "2x(none)", V100_16GB_NODE)
        assert (flexgen_group.engines[0]._epoch_cache
                is flexgen_group.engines[1]._epoch_cache)

        # Mixed pricing signatures must not share anything.
        tp_group = ReplicaGroup(
            [ContinuousBatchingEngine(build_system("alisa")),
             ContinuousBatchingEngine(build_system("alisa", "tp-2"))])
        a, b = tp_group.engines
        assert a._epoch_cache is not b._epoch_cache
        assert a._prefill_plans is not b._prefill_plans
        assert a._prefill_prices is not b._prefill_prices
