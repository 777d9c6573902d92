"""The per-step decode planner and pricing that epoch pricing is pinned to.

The scalar formulas each system's ``plan_decode_epoch`` and the array-wise
epoch pricing re-express, one step at a time.  ALISA's attention split
comes from the scalar ``swa.split_budget``, not from the simulator's
declared split or step table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import (
    AccelerateSystem,
    DeepSpeedZeroSystem,
    FlexGenSystem,
    GPUOnlySystem,
    VLLMSystem,
    vllm_system,
)
from repro.baselines.reference import PHASE_STATIC
from repro.core.engine import AlisaSystem
from repro.core.scheduler import PHASE_GPU, PHASE_GPU_CPU
from repro.systems.memory import MemoryHierarchy
from repro.systems.simulator import InferenceSimulator, SystemStepPlan
from repro.systems.trace import StepTiming
from repro.workloads.descriptors import Workload


@dataclass(frozen=True)
class StepPlan(SystemStepPlan):
    """A prefill plan's fields plus the decode-only ones."""

    kept_kv: int | None = None
    local_window: int = 0
    recompute_tokens: float = 0.0
    cpu_attention_tokens: float = 0.0


def plan_decode_step(simulator: InferenceSimulator, step: int,
                     workload: Workload) -> StepPlan:
    """Plan decoding step ``step`` (0-based) after ``prepare``."""
    seq_len = workload.input_len + step + 1
    if isinstance(simulator, AlisaSystem):
        return _alisa_step(simulator, step, seq_len)
    if isinstance(simulator, FlexGenSystem):
        # Static split: the CPU share is attended CPU-side next to the
        # data, and the new token's CPU share is written back.
        cpu_tokens = simulator.cpu_fraction * seq_len
        return StepPlan(PHASE_STATIC, seq_len - cpu_tokens, cpu_tokens,
                        cpu_attention_tokens=cpu_tokens,
                        offload_kv_tokens=simulator.cpu_fraction)
    if isinstance(simulator, VLLMSystem):
        # One wave of resident sequences; run() scales the trace by waves.
        return StepPlan(vllm_system.PHASE_GPU if simulator._waves == 1
                        else vllm_system.PHASE_WAVES, seq_len, 0.0)
    if isinstance(simulator, AccelerateSystem):
        # The whole cache lives in CPU memory: reload it, write one token.
        return StepPlan(PHASE_STATIC, 0.0, seq_len,
                        load_kv_tokens=float(seq_len - 1),
                        offload_kv_tokens=1.0)
    if isinstance(simulator, DeepSpeedZeroSystem):
        return StepPlan(PHASE_STATIC, seq_len, 0.0,
                        extra_h2d_bytes=simulator.cost_model.weight_bytes())
    if isinstance(simulator, GPUOnlySystem):
        return StepPlan(PHASE_STATIC, seq_len, 0.0)
    raise TypeError(f"no per-step planner for {type(simulator).__name__}")


def _alisa_step(simulator: AlisaSystem, step: int, seq_len: int) -> StepPlan:
    quantized = simulator._quantized
    if simulator.use_dynamic_scheduling:
        plan = simulator._scheduler.plan_step(step)
        return StepPlan(
            plan.phase, plan.tokens_gpu, plan.tokens_cpu,
            kept_kv=plan.kept_tokens, local_window=plan.kept_local,
            load_kv_tokens=plan.load_tokens,
            offload_kv_tokens=plan.offload_tokens,
            recompute_tokens=plan.recompute_tokens,
            quantize_tokens=quantized(plan.load_tokens + plan.offload_tokens))
    # Static ablation: only this step's growth of the CPU share crosses
    # PCIe and pays quantization.
    num_local, num_global = simulator.swa.split_budget(seq_len)
    fraction = simulator._static_cpu_fraction
    cpu_tokens = fraction * seq_len
    newly_offloaded = cpu_tokens - fraction * (seq_len - 1)
    load_tokens = num_global * min(1.0,
                                   cpu_tokens / max(1, seq_len - num_local))
    return StepPlan(
        PHASE_GPU if cpu_tokens == 0 else PHASE_GPU_CPU,
        seq_len - cpu_tokens, cpu_tokens,
        kept_kv=num_local + num_global, local_window=num_local,
        load_kv_tokens=load_tokens, offload_kv_tokens=newly_offloaded,
        quantize_tokens=quantized(load_tokens + newly_offloaded))


def step_timing(simulator: InferenceSimulator, plan: StepPlan, step: int,
                workload: Workload, memory: MemoryHierarchy) -> StepTiming:
    """Price one step's plan and record its PCIe traffic on ``memory.link``
    (no capacity is allocated; ``*_used_bytes`` stay zero)."""
    cost_model = simulator.cost_model
    batch_size = workload.batch_size
    seq_len = workload.input_len + step + 1
    per_token = simulator.kv_token_bytes(workload)
    compute = cost_model.decode_step_time(
        batch_size, kv_len=seq_len, kept_kv=plan.kept_kv,
        local_window=plan.local_window)
    transfer = (memory.link.host_to_device(plan.load_kv_tokens * per_token
                                           + plan.extra_h2d_bytes)
                + memory.link.device_to_host(plan.offload_kv_tokens
                                             * per_token))
    recompute = cost_model.recompute_time(
        batch_size, int(round(plan.recompute_tokens)))
    if simulator.overlap_io:
        transfer = max(0.0, transfer - compute - recompute)
    if plan.cpu_attention_tokens > 0:
        # CPU-side attention sits on the critical path (KV-caching time).
        transfer += cost_model.cpu_attention_time(
            batch_size, plan.cpu_attention_tokens, simulator.kv_dtype)
    overhead = (cost_model.quantize_time(batch_size,
                                         int(round(plan.quantize_tokens)))
                if plan.quantize_tokens > 0 else 0.0)
    return StepTiming(
        step=step, sequence_length=seq_len, phase=plan.phase,
        compute_time=compute, transfer_time=transfer,
        recompute_time=recompute, overhead_time=overhead,
        gpu_kv_bytes=plan.kv_gpu_tokens * per_token,
        cpu_kv_bytes=plan.kv_cpu_tokens * per_token,
        bytes_offloaded=plan.offload_kv_tokens * per_token,
        bytes_reloaded=plan.load_kv_tokens * per_token)
