"""Online serving layer: continuous batching over the system simulators.

Generalizes the paper's offline Section VI protocol to multi-request
serving: arrival traces (:mod:`repro.workloads.arrivals`) are driven through
any :class:`~repro.systems.simulator.InferenceSimulator` by the
:class:`ContinuousBatchingEngine`, producing per-request TTFT/TPOT/latency
records in a :class:`ServingTrace`.  With ``record_mode="streaming"`` the
trace keeps no records, only exact aggregates and mergeable log-bucket
sketches (:class:`LogBucketSketch`), so its memory stays bounded.  The engine
is event-driven (:mod:`repro.serving.events`): runs advance through an
event heap instead of a global clock loop, so arrival traces can be lazy
:class:`~repro.workloads.arrivals.RequestStream` iterators of any length.
"""

from repro.serving.engine import (
    PREEMPTION_MODES,
    ContinuousBatchingEngine,
    EngineRun,
)
from repro.serving.events import (
    ADMISSION,
    ARRIVAL,
    COMPLETION,
    EPOCH_BOUNDARY,
    PREEMPTION,
    PREFILL_CHUNK,
    REPLICA_FAIL,
    REPLICA_RECOVER,
    ContinuationSource,
    drive,
)
from repro.serving.sketches import LogBucketSketch
from repro.serving.trace import (
    RequestRecord,
    ServingTrace,
    normalize_class_slos,
)
from repro.workloads.arrivals import Request, RequestStream

__all__ = [
    "ADMISSION",
    "ARRIVAL",
    "COMPLETION",
    "EPOCH_BOUNDARY",
    "PREEMPTION",
    "PREEMPTION_MODES",
    "PREFILL_CHUNK",
    "REPLICA_FAIL",
    "REPLICA_RECOVER",
    "ContinuationSource",
    "ContinuousBatchingEngine",
    "EngineRun",
    "LogBucketSketch",
    "Request",
    "RequestRecord",
    "RequestStream",
    "ServingTrace",
    "drive",
    "normalize_class_slos",
]
