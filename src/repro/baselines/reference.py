"""Reference baselines: GPU-only, HuggingFace Accelerate, DeepSpeed-ZeRO.

These three systems bracket the design space the paper explores:

* **GPU-only** keeps every KV tensor in GPU memory — fastest while it fits,
  out-of-memory as soon as it does not (the "GPU only" bars of Figure 1).
* **HuggingFace Accelerate** offloads the *whole* KV cache to CPU memory and
  streams it back every step (Section VI-A), trading capacity for heavy PCIe
  traffic (the "100%" bars of Figure 1).
* **DeepSpeed-ZeRO** offloads *weights* instead of KV tensors: every step
  re-streams the weights from CPU memory and keeps the KV cache on the GPU,
  so it both transfers a lot and still runs out of memory at large batch
  sizes (the OOM entries of Figure 9).
"""

from __future__ import annotations

import numpy as np

from repro.systems.simulator import (
    EpochPlan,
    InferenceSimulator,
    SystemStepPlan,
)
from repro.workloads.descriptors import Workload

PHASE_STATIC = "static"


def _decode_seq_lens(workload: Workload) -> np.ndarray:
    """Per-step sequence lengths of a full decode epoch."""
    return workload.input_len + np.arange(workload.output_len) + 1


class GPUOnlySystem(InferenceSimulator):
    """Dense attention with every KV tensor resident in GPU memory."""

    name = "gpu-only"

    def plan_prefill(self, workload: Workload) -> SystemStepPlan:
        return SystemStepPlan(phase=PHASE_STATIC,
                              kv_gpu_tokens=workload.input_len,
                              kv_cpu_tokens=0.0)

    def plan_decode_epoch(self, workload: Workload) -> EpochPlan:
        seq = _decode_seq_lens(workload)
        return EpochPlan(phases=(PHASE_STATIC,) * workload.output_len,
                         kv_gpu_tokens=seq, kv_cpu_tokens=np.zeros(seq.size))


class AccelerateSystem(InferenceSimulator):
    """HuggingFace Accelerate-style full KV offload to CPU memory.

    The entire KV cache lives in CPU memory; every decoding step reloads all
    of it over PCIe for attention and writes the new token's KV back.
    """

    name = "accelerate"

    def plan_prefill(self, workload: Workload) -> SystemStepPlan:
        return SystemStepPlan(phase=PHASE_STATIC, kv_gpu_tokens=0.0,
                              kv_cpu_tokens=workload.input_len,
                              offload_kv_tokens=workload.input_len)

    def plan_decode_epoch(self, workload: Workload) -> EpochPlan:
        seq = _decode_seq_lens(workload)
        return EpochPlan(
            phases=(PHASE_STATIC,) * workload.output_len,
            kv_gpu_tokens=np.zeros(seq.size),
            kv_cpu_tokens=seq,
            load_kv_tokens=(seq - 1).astype(np.float64),
            offload_kv_tokens=np.ones(seq.size),
        )


class DeepSpeedZeroSystem(InferenceSimulator):
    """DeepSpeed-ZeRO-style inference: weights offloaded, KV kept on GPU.

    The weights are streamed from CPU to GPU once per decoding step (layer by
    layer in the real system; the aggregate traffic is the same), and the KV
    cache stays on the GPU, which triggers OOM for large batches exactly as
    the paper reports.
    """

    name = "deepspeed-zero"

    def __init__(self, model, hardware, **kwargs) -> None:
        kwargs.setdefault("weights_on_gpu", False)
        super().__init__(model, hardware, **kwargs)

    def plan_prefill(self, workload: Workload) -> SystemStepPlan:
        return SystemStepPlan(
            phase=PHASE_STATIC, kv_gpu_tokens=workload.input_len,
            kv_cpu_tokens=0.0,
            extra_h2d_bytes=self.cost_model.weight_bytes(),
        )

    def plan_decode_epoch(self, workload: Workload) -> EpochPlan:
        seq = _decode_seq_lens(workload)
        return EpochPlan(
            phases=(PHASE_STATIC,) * workload.output_len,
            kv_gpu_tokens=seq, kv_cpu_tokens=np.zeros(seq.size),
            extra_h2d_bytes=np.full(seq.size, self.cost_model.weight_bytes()),
        )
