"""Shared skeleton for system-level inference simulators.

Every system the paper compares (ALISA, FlexGen, vLLM, HuggingFace
Accelerate, DeepSpeed-ZeRO, plus a GPU-only reference) is expressed as a
*placement policy* over the same substrate: the analytic cost model charges
GPU compute, the memory hierarchy tracks capacity and raises OOM, and the
PCIe link charges every byte moved between CPU and GPU.

A concrete system implements two hooks:

* :meth:`InferenceSimulator.plan_prefill` — where the prompt's KV tensors go;
* :meth:`InferenceSimulator.plan_decode_epoch` — what moves at each step.

The first returns a :class:`SystemStepPlan`, the second an array-wise
:class:`EpochPlan`; the base class prices them into
:class:`~repro.systems.trace.StepTiming` records and an
:class:`~repro.systems.trace.InferenceTrace`.  Per-step GPU compute depends
only on ``(batch, seq_len)`` and the system's attention pattern, so each
simulator prices it once into a :class:`StepTable` that epoch pricing and
ALISA's offline scheduler both slice.  The pricing helpers
(:meth:`InferenceSimulator.prefill_timing`,
:meth:`InferenceSimulator.epoch_timings`) are also driven by the online
serving engine (:mod:`repro.serving.engine`), which manages request
admission and KV residency itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro._common import ConfigurationError, OutOfMemoryError
from repro.hardware.presets import HardwareSpec
from repro.model.config import ModelConfig, get_config
from repro.systems.cost import LLMCostModel, ParallelismSpec
from repro.systems.memory import MemoryHierarchy, PCIeLink
from repro.systems.trace import InferenceTrace, StepTiming
from repro.workloads.descriptors import Workload

WEIGHTS = "weights"
ACTIVATIONS = "activations"
KV_GPU = "kv-cache-gpu"
KV_CPU = "kv-cache-cpu"


@dataclass(frozen=True)
class SystemStepPlan:
    """Placement and movement decisions of a simulated system's prefill."""

    phase: str
    kv_gpu_tokens: float
    kv_cpu_tokens: float
    load_kv_tokens: float = 0.0
    offload_kv_tokens: float = 0.0
    quantize_tokens: float = 0.0
    extra_h2d_bytes: float = 0.0


@dataclass(frozen=True)
class EpochPlan:
    """Vectorized decode-step plans for one fixed-composition epoch.

    One entry per decode step.  The token fields mean what they mean on
    a :class:`SystemStepPlan`; ``recompute_tokens`` are recomputed from
    the activations on the GPU and ``cpu_attention_tokens`` are attended
    CPU-side next to the data.  ``None`` fields mean "all zeros", so
    simple systems do not have to materialize zero arrays (and epoch
    pricing skips the terms they would feed).  The attention pattern is
    not a plan field: it is a function of the sequence length alone,
    declared once by :meth:`InferenceSimulator.decode_attention_split`.
    """

    phases: tuple[str, ...]
    kv_gpu_tokens: np.ndarray
    kv_cpu_tokens: np.ndarray
    load_kv_tokens: np.ndarray | None = None
    offload_kv_tokens: np.ndarray | None = None
    recompute_tokens: np.ndarray | None = None
    quantize_tokens: np.ndarray | None = None
    cpu_attention_tokens: np.ndarray | None = None
    extra_h2d_bytes: np.ndarray | None = None

    @property
    def num_steps(self) -> int:
        return len(self.phases)


@dataclass(frozen=True)
class EpochTimings:
    """Vectorized pricing of every decode step of one epoch.

    Produced by :meth:`InferenceSimulator.epoch_timings`; one array entry
    per step, field for field the :class:`StepTiming` record of that step
    (``gpu_used_bytes``/``cpu_used_bytes`` are filled in by
    :meth:`InferenceSimulator.run` after applying memory).
    ``h2d_bytes``/``d2h_bytes`` are the per-step PCIe link traffic
    (reloads plus any extra host-to-device bytes, and offloads).
    """

    sequence_lengths: np.ndarray
    phases: tuple[str, ...]
    compute_times: np.ndarray
    transfer_times: np.ndarray
    recompute_times: np.ndarray
    overhead_times: np.ndarray
    total_times: np.ndarray
    comm_times: np.ndarray
    gpu_kv_bytes: np.ndarray
    cpu_kv_bytes: np.ndarray
    bytes_offloaded: np.ndarray
    bytes_reloaded: np.ndarray
    h2d_bytes: np.ndarray
    d2h_bytes: np.ndarray

    @property
    def num_steps(self) -> int:
        return len(self.phases)

    @property
    def pcie_bytes(self) -> float:
        """Total PCIe traffic of the full epoch (reporting helper)."""
        return float(np.sum(self.h2d_bytes) + np.sum(self.d2h_bytes))


_EMPTY = np.empty(0)


def _grown(size: int, needed: int) -> int:
    """Next table size covering ``needed``: the smallest power of two
    >= ``needed``, so a table at least doubles whenever it grows."""
    return max(size, 1 << (needed - 1).bit_length())


def _extended(row: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    grown = np.concatenate((row, fresh)) if row.size else fresh
    grown.flags.writeable = False
    return grown


class StepTable:
    """Per-step decode costs that depend only on ``(batch, seq_len)``.

    Holds, per batch size, a row with the GPU compute time of one decode
    step at every sequence length ``1 .. len(row)`` (entry ``q - 1``
    prices ``seq_len == q``), from
    :meth:`~repro.systems.cost.LLMCostModel.decode_step_time_batch`; and,
    shared by every batch size, the attention pattern: the
    ``(num_local, num_global)`` kept tokens the ``split`` hook returns
    for each sequence length (a hook returning ``None`` means dense
    attention).  Both grow by doubling on demand and are read-only, so
    :meth:`compute` and :meth:`split` hand out views.

    Every entry is the same elementwise IEEE formula the cost model
    applies to any array, so a slice is bit-identical to pricing that
    range directly, whatever order earlier requests grew the table in.
    """

    def __init__(self, cost_model: LLMCostModel,
                 split: Callable[[np.ndarray],
                                 tuple[np.ndarray, np.ndarray] | None],
                 ) -> None:
        self._cost_model = cost_model
        self._split = split
        self._local = self._global = _EMPTY
        self._rows: dict[int, np.ndarray] = {}

    def _split_rows(self, needed: int
                    ) -> tuple[np.ndarray, np.ndarray] | None:
        size = self._local.size
        if size < needed:
            grown = self._split(np.arange(size + 1,
                                          _grown(size, needed) + 1))
            if grown is None:
                return None
            self._local = _extended(self._local, grown[0])
            self._global = _extended(self._global, grown[1])
        return self._local, self._global

    def split(self, input_len: int, num_steps: int
              ) -> tuple[np.ndarray, np.ndarray] | None:
        """``(num_local, num_global)`` of decode steps at sequence lengths
        ``input_len + 1 .. input_len + num_steps`` (``None`` if dense)."""
        rows = self._split_rows(input_len + num_steps)
        if rows is None:
            return None
        end = input_len + num_steps
        return rows[0][input_len:end], rows[1][input_len:end]

    def compute(self, batch_size: int, input_len: int,
                num_steps: int) -> np.ndarray:
        """GPU compute time of the decode steps at sequence lengths
        ``input_len + 1 .. input_len + num_steps`` (a read-only view)."""
        end = input_len + num_steps
        row = self._rows.get(batch_size, _EMPTY)
        if row.size < end:
            start = row.size
            size = _grown(start, end)
            seq = np.arange(start + 1, size + 1)
            kept = local = None
            split = self._split_rows(size)
            if split is not None:
                local = split[0][start:size]
                kept = local + split[1][start:size]
            fresh = self._cost_model.decode_step_time_batch(
                batch_size, seq, kept, local)
            row = self._rows[batch_size] = _extended(row, fresh)
        return row[input_len:end]


class InferenceSimulator(ABC):
    """Base class: runs the prefill + decode loop over step plans."""

    #: Display name used in experiment tables.
    name: str = "base"

    #: Whether the system overlaps PCIe transfers with GPU compute (FlexGen,
    #: vLLM, and ALISA pipeline I/O against compute layer by layer; naive
    #: offloading does not).  When enabled, only the *exposed* transfer time
    #: (the part not hidden behind compute) is charged to the step.
    overlap_io: bool = False

    def __init__(self, model: ModelConfig | str, hardware: HardwareSpec,
                 compute_dtype: str = "fp16", kv_dtype: str = "fp16",
                 weights_on_gpu: bool = True,
                 parallelism: ParallelismSpec | None = None) -> None:
        self.config = get_config(model) if isinstance(model, str) else model
        self.hardware = hardware
        if parallelism is None:
            # Multi-GPU nodes default to tensor parallelism across all GPUs;
            # the cost model validates degree == gpu_count either way.
            parallelism = (ParallelismSpec() if hardware.gpu_count == 1
                           else ParallelismSpec(mode="tp",
                                                degree=hardware.gpu_count))
        self.parallelism = parallelism
        self.cost_model = LLMCostModel(self.config, hardware, compute_dtype,
                                       parallelism=parallelism)
        self.kv_dtype = kv_dtype
        self.weights_on_gpu = weights_on_gpu
        self.step_table = StepTable(self.cost_model,
                                    self.decode_attention_split)

    # ------------------------------------------------------------------ #
    # hooks for concrete systems
    # ------------------------------------------------------------------ #
    @abstractmethod
    def plan_prefill(self, workload: Workload) -> SystemStepPlan:
        """Place the prompt's KV tensors after the prefilling stage."""

    def prepare(self, workload: Workload) -> None:
        """Reset any per-run state before a simulation (optional hook).

        The continuous-batching serving engine calls this once per decode
        epoch (whenever batch composition changes), so implementations with
        expensive offline planning should serve repeats incrementally — see
        :meth:`repro.core.engine.AlisaSystem.prepare`, which backs its
        schedule search with a :class:`~repro.core.schedule_cache.ScheduleCache`.
        """

    def schedule_stats(self) -> dict[str, int]:
        """Counters describing how offline planning was served (optional).

        Systems without an offline planning stage return an empty dict; the
        serving engine attaches the per-serve increments to its trace
        metadata for observability.
        """
        return {}

    @abstractmethod
    def plan_decode_epoch(self, workload: Workload) -> EpochPlan:
        """Plan all ``output_len`` decode steps of ``workload`` array-wise.

        Called after :meth:`prepare` and :meth:`plan_prefill`; must not
        consume planner state, so an epoch can be re-planned after a fresh
        ``prepare``.
        """

    def decode_attention_split(self, seq_lens: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray] | None:
        """Kept ``(num_local, num_global)`` tokens of a decode step at each
        sequence length, or ``None`` for dense attention (the default).

        The one declaration of a system's decode attention pattern, as a
        function of the sequence length alone: the :attr:`step_table`
        prices compute from it and planners slice it (ALISA returns its
        SWA split).
        """
        return None

    def pricing_is_shape_pure(self) -> bool:
        """Whether a priced epoch is a pure function of the workload shape.

        True for every stateless placement policy.  Systems whose per-shape
        plan depends on solver *history* (ALISA's warm-started/canonical
        schedule search seeds from previously solved shapes) return False,
        and the cluster layer then keeps their priced-epoch caches per
        replica: sharing one across replicas with independent solver
        caches could silently change which schedule prices a shape.
        """
        return True

    def pricing_signature(self) -> tuple:
        """Hashable identity of this simulator's pricing function.

        Two simulators with equal signatures price identical workload
        shapes identically (given equal solver history — see
        :meth:`pricing_is_shape_pure`), so serving-layer caches (prefill
        plans, priced epochs) may be shared between their engines —
        :class:`~repro.cluster.group.ReplicaGroup` does exactly that for
        replicas built from one factory.  Subclasses with extra pricing
        knobs must extend the tuple (see ``AlisaSystem``).
        """
        hw = self.hardware
        link = hw.interconnect
        return (
            type(self).__qualname__, self.config.name, hw.name,
            hw.gpu.name, hw.gpu.memory_bytes, hw.gpu.fp16_flops,
            hw.gpu.hbm_bandwidth, hw.gpu.compute_efficiency,
            hw.cpu.name, hw.cpu.memory_bytes, hw.cpu.flops,
            hw.cpu.dram_bandwidth, hw.pcie_bandwidth, hw.gpu_count,
            None if link is None else (link.name, link.bandwidth,
                                       link.latency_s),
            self.cost_model.dtype, self.kv_dtype, self.weights_on_gpu,
            self.parallelism.mode, self.parallelism.degree,
            self.parallelism.pp_microbatches, self.overlap_io,
        )

    # ------------------------------------------------------------------ #
    # shared machinery
    # ------------------------------------------------------------------ #
    def kv_token_bytes(self, workload: Workload) -> float:
        """Bytes of one token's KV tensors across layers and batch."""
        return self.cost_model.kv_bytes_per_token(workload.batch_size,
                                                  self.kv_dtype)

    def _apply_memory(self, plan: SystemStepPlan, workload: Workload,
                      memory: MemoryHierarchy) -> None:
        per_token = self.kv_token_bytes(workload)
        memory.gpu.resize(KV_GPU, plan.kv_gpu_tokens * per_token)
        memory.cpu.resize(KV_CPU, plan.kv_cpu_tokens * per_token)

    def prefill_timing(self, plan: SystemStepPlan, workload: Workload,
                       memory: MemoryHierarchy) -> float:
        """Wall-clock time of the prefilling stage under ``plan``.

        Charges GPU compute, PCIe transfers, and — exactly like the decode
        loop — the (de)quantization overhead for any KV tokens the plan
        compresses on their way to CPU memory (Section V-B).
        """
        compute = self.cost_model.prefill_time(workload.batch_size,
                                               workload.input_len)
        per_token = self.kv_token_bytes(workload)
        transfer = (memory.link.host_to_device(plan.load_kv_tokens * per_token
                                               + plan.extra_h2d_bytes)
                    + memory.link.device_to_host(plan.offload_kv_tokens
                                                 * per_token))
        overhead = 0.0
        if plan.quantize_tokens > 0:
            overhead = self.cost_model.quantize_time(
                workload.batch_size, int(round(plan.quantize_tokens)))
        return compute + transfer + overhead

    def epoch_timings(self, workload: Workload,
                      link: PCIeLink | None = None) -> EpochTimings:
        """Price all ``output_len`` decode steps of ``workload`` at once.

        Prices :meth:`plan_decode_epoch`: GPU compute is a slice of the
        :attr:`step_table`, and every other per-step formula is applied
        array-wise, so each entry is bit-identical to pricing that step
        alone with the scalar cost model (pinned against the per-step
        oracle by ``tests/test_epoch_pricing.py``).  Plan fields left
        ``None`` price as zero without calling the cost model.  Pure
        pricing — no memory is allocated and no traffic is recorded;
        ``link`` only supplies the PCIe latency/bandwidth (defaults to the
        node's own link).
        """
        plan = self.plan_decode_epoch(workload)
        num_steps = plan.num_steps
        if link is None:
            link = PCIeLink(self.hardware.node_pcie_bandwidth)
        batch_size = workload.batch_size
        cost_model = self.cost_model
        zeros = np.zeros(num_steps)
        zeros.flags.writeable = False  # shared by every all-zero field

        per_token = self.kv_token_bytes(workload)
        load = (zeros if plan.load_kv_tokens is None
                else plan.load_kv_tokens * per_token)
        offload = (zeros if plan.offload_kv_tokens is None
                   else plan.offload_kv_tokens * per_token)
        h2d_bytes = (load if plan.extra_h2d_bytes is None
                     else load + plan.extra_h2d_bytes)
        if (h2d_bytes < 0).any() or (offload < 0).any():
            raise ConfigurationError("transfer size must be non-negative")

        compute = self.step_table.compute(batch_size, workload.input_len,
                                          num_steps)
        transfer = (
            np.where(h2d_bytes > 0,
                     link.latency_s + h2d_bytes / link.bandwidth_bytes_per_s,
                     0.0)
            + np.where(offload > 0,
                       link.latency_s + offload / link.bandwidth_bytes_per_s,
                       0.0)
        )
        recompute = zeros
        if plan.recompute_tokens is not None:
            recompute = cost_model.recompute_time_batch(
                batch_size, np.rint(plan.recompute_tokens))
        if self.overlap_io:
            transfer = np.maximum(0.0, transfer - compute - recompute)
        if plan.cpu_attention_tokens is not None:
            transfer = transfer + cost_model.cpu_attention_time_batch(
                batch_size, plan.cpu_attention_tokens, self.kv_dtype)
        overhead = zeros
        if plan.quantize_tokens is not None:
            quantized = plan.quantize_tokens
            overhead = overhead + np.where(
                quantized > 0,
                cost_model.quantize_time_batch(batch_size,
                                               np.rint(quantized)),
                0.0)
        return EpochTimings(
            sequence_lengths=np.arange(workload.input_len + 1,
                                       workload.input_len + num_steps + 1),
            phases=plan.phases,
            compute_times=compute,
            transfer_times=transfer,
            recompute_times=recompute,
            overhead_times=overhead,
            total_times=compute + transfer + recompute + overhead,
            comm_times=np.full(num_steps, self.parallel_comm_time(workload)),
            gpu_kv_bytes=plan.kv_gpu_tokens * per_token,
            cpu_kv_bytes=plan.kv_cpu_tokens * per_token,
            bytes_offloaded=offload,
            bytes_reloaded=load,
            h2d_bytes=h2d_bytes,
            d2h_bytes=offload,
        )

    def run(self, workload: Workload) -> InferenceTrace:
        """Simulate one end-to-end inference run of ``workload``.

        Decode steps are priced in one :meth:`epoch_timings` call; traces
        are bit-identical to planning and pricing each step alone (pinned
        against the per-step oracle in ``tests/test_epoch_pricing.py``).
        """
        memory = MemoryHierarchy.from_hardware(self.hardware)
        trace = InferenceTrace(
            system=self.name, model=self.config.name,
            batch_size=workload.batch_size, input_len=workload.input_len,
            output_len=workload.output_len,
            metadata={"hardware": self.hardware.name, "kv_dtype": self.kv_dtype},
        )
        self.prepare(workload)
        try:
            self._allocate_static(workload, memory)

            prefill_plan = self.plan_prefill(workload)
            trace.prefill_time = self.prefill_timing(prefill_plan, workload,
                                                     memory)
            self._apply_memory(prefill_plan, workload, memory)
            self._run_decode(workload, memory, trace)
        except OutOfMemoryError as exc:
            trace.oom = True
            trace.oom_reason = str(exc)
        return trace

    def _run_decode(self, workload: Workload, memory: MemoryHierarchy,
                    trace: InferenceTrace) -> None:
        """Epoch-priced decode loop of :meth:`run`.

        Pricing is vectorized; only the per-step memory-ledger updates
        (which carry the OOM semantics and the ``*_used_bytes`` snapshots)
        and the trace records remain per step.
        """
        epoch = self.epoch_timings(workload, memory.link)
        for step in range(epoch.num_steps):
            memory.gpu.resize(KV_GPU, float(epoch.gpu_kv_bytes[step]))
            memory.cpu.resize(KV_CPU, float(epoch.cpu_kv_bytes[step]))
            trace.add_step(StepTiming(
                step=step,
                sequence_length=int(epoch.sequence_lengths[step]),
                phase=epoch.phases[step],
                compute_time=float(epoch.compute_times[step]),
                transfer_time=float(epoch.transfer_times[step]),
                recompute_time=float(epoch.recompute_times[step]),
                overhead_time=float(epoch.overhead_times[step]),
                gpu_kv_bytes=float(epoch.gpu_kv_bytes[step]),
                cpu_kv_bytes=float(epoch.cpu_kv_bytes[step]),
                gpu_used_bytes=memory.gpu.used_bytes,
                cpu_used_bytes=memory.cpu.used_bytes,
                bytes_offloaded=float(epoch.bytes_offloaded[step]),
                bytes_reloaded=float(epoch.bytes_reloaded[step]),
            ))

    # ------------------------------------------------------------------ #
    def _allocate_static(self, workload: Workload,
                         memory: MemoryHierarchy) -> None:
        """Allocate weights and activations before any KV tensors."""
        weight_bytes = self.cost_model.weight_bytes()
        if self.weights_on_gpu:
            memory.gpu.allocate(WEIGHTS, weight_bytes)
        else:
            memory.cpu.allocate(WEIGHTS, weight_bytes)
        memory.gpu.allocate(
            ACTIVATIONS,
            self.cost_model.activation_bytes(workload.batch_size,
                                             workload.input_len),
        )

    # ------------------------------------------------------------------ #
    def parallel_comm_time(self, workload: Workload,
                           query_len: int = 1) -> float:
        """Interconnect time of one forward pass under TP/PP (0 on 1 GPU)."""
        return self.cost_model.parallel_comm_time(workload.batch_size,
                                                  query_len)

    def gpu_kv_budget_tokens(self, workload: Workload,
                             reserve_fraction: float = 0.05) -> int:
        """KV tokens that fit in node GPU memory next to weights/activations.

        The byte accounting (aggregate capacity, weights charged once,
        activations per GPU) lives in
        :meth:`~repro.systems.cost.LLMCostModel.kv_budget_bytes`, shared
        with the offline scheduler's capacity constraint.
        """
        capacity = self.cost_model.kv_budget_bytes(
            workload.batch_size, workload.input_len,
            weights_on_gpu=self.weights_on_gpu,
            reserve_fraction=reserve_fraction)
        per_token = self.kv_token_bytes(workload)
        return max(1, int(capacity // per_token)) if capacity > 0 else 1
