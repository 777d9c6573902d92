"""Cluster-level serving trace: per-replica traces merged into one view.

A :class:`ClusterTrace` *is a* :class:`~repro.serving.trace.ServingTrace`
over the union of every replica's request records, so all the percentile,
throughput, and goodput machinery applies unchanged at cluster scope.  The
per-replica :class:`ServingTrace` objects are kept intact (and summarised
in ``metadata["replicas"]``) so imbalance between replicas stays visible
after the merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serving.sketches import DEFAULT_QUANTILES, StreamingTrace
from repro.serving.trace import ServingTrace


@dataclass
class ClusterTrace(ServingTrace):
    """One serving run of a whole replica group."""

    replica_traces: list[ServingTrace] = field(default_factory=list)

    @classmethod
    def merge(cls, traces: list[ServingTrace], system: str,
              model: str, metadata: dict | None = None) -> "ClusterTrace":
        """Merge per-replica traces into one cluster-level trace.

        Records are ordered by completion time with a *stable* sort, so a
        single-replica merge preserves the engine's record order exactly —
        the degenerate cluster is bit-identical to serving directly.
        """
        records = [record for trace in traces for record in trace.records]
        records.sort(key=lambda record: record.completion_time)
        merged = cls(system=system, model=model, records=records,
                     metadata=dict(metadata or {}))
        attach_replicas(merged, traces)
        return merged

    # ------------------------------------------------------------------ #
    @property
    def num_replicas(self) -> int:
        return len(self.replica_traces)

    @property
    def tokens_imbalance(self) -> float:
        """Max/mean ratio of generated tokens across replicas (1.0 = even).

        Round-robin on heavy-tailed lengths drifts well above 1; load-aware
        policies keep it near 1.  Empty replicas count toward the mean, so
        a policy that starves a replica is penalized, not hidden.
        """
        tokens = [trace.generated_tokens for trace in self.replica_traces]
        if not tokens or sum(tokens) == 0:
            return 1.0
        return max(tokens) / (sum(tokens) / len(tokens))

    def summary(self) -> dict:
        """Cluster summary: the serving summary plus replica-level facts."""
        data = super().summary()
        data["num_replicas"] = self.num_replicas
        data["tokens_imbalance"] = self.tokens_imbalance
        return data


def attach_replicas(trace, replica_traces: list) -> None:
    """Attach per-replica traces to a cluster trace (full or streaming).

    Sets ``replica_traces`` and ``metadata["replicas"]``, and defaults
    ``metadata["kv_budget_tokens"]`` to the replicas' summed budgets.
    """
    trace.replica_traces = replica_traces
    trace.metadata["replicas"] = [
        {"replica": index, "num_requests": replica.num_requests,
         "generated_tokens": replica.generated_tokens,
         "duration_s": replica.duration,
         "mean_queueing_delay_s": replica.mean_queueing_delay,
         "kv_budget_tokens": replica.metadata.get("kv_budget_tokens", 0),
         "peak_reserved_tokens": replica.metadata.get(
             "peak_reserved_tokens", 0),
         "comm_time_share": replica.metadata.get("comm_time_share", 0.0)}
        for index, replica in enumerate(replica_traces)
    ]
    trace.metadata.setdefault(
        "kv_budget_tokens",
        sum(replica.metadata.get("kv_budget_tokens", 0)
            for replica in replica_traces))


class StreamingClusterTrace(StreamingTrace):
    """Cluster-level streaming trace (``record_mode="streaming"``).

    The bounded-memory counterpart of :class:`ClusterTrace`: cluster-wide
    metrics are folded into sketches as completions stream out of the
    merged event loop (observation order is the event-processing order, not
    completion-time order — exact aggregates are order-independent, P²
    percentile estimates are deterministic given the event order).  The
    per-replica sinks are lightweight :class:`StreamingTrace` objects with
    percentile sketches disabled — their summaries in
    ``metadata["replicas"]`` need only counts, totals, and delays, exactly
    the fields :meth:`ClusterTrace.merge` reports.
    """

    def __init__(self, system: str, model: str, metadata: dict | None = None,
                 quantiles=DEFAULT_QUANTILES,
                 ttft_slo_s: float | None = None,
                 tpot_slo_s: float | None = None,
                 class_slos: dict | None = None,
                 replica_traces: list[StreamingTrace] | None = None) -> None:
        super().__init__(system, model, metadata=metadata,
                         quantiles=quantiles, ttft_slo_s=ttft_slo_s,
                         tpot_slo_s=tpot_slo_s, class_slos=class_slos)
        self.replica_traces: list[StreamingTrace] = list(replica_traces or [])

    @property
    def num_replicas(self) -> int:
        return len(self.replica_traces)

    @property
    def tokens_imbalance(self) -> float:
        """Max/mean ratio of generated tokens across replicas (1.0 = even);
        same definition as :attr:`ClusterTrace.tokens_imbalance`."""
        tokens = [trace.generated_tokens for trace in self.replica_traces]
        if not tokens or sum(tokens) == 0:
            return 1.0
        return max(tokens) / (sum(tokens) / len(tokens))

    def summary(self) -> dict:
        """Cluster summary with the same keys as ``ClusterTrace.summary()``."""
        data = super().summary()
        data["num_replicas"] = self.num_replicas
        data["tokens_imbalance"] = self.tokens_imbalance
        return data
