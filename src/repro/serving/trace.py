"""Per-request records and aggregate traces for the serving layer.

Follows the idioms of :mod:`repro.systems.trace`: frozen per-event records
collected into a mutable trace whose properties derive the figures-of-merit.
Where :class:`~repro.systems.trace.InferenceTrace` summarises one offline
``(b, s, n)`` run (the paper's Section VI protocol), :class:`ServingTrace`
summarises an online run of many requests, using the standard LLM-serving
latency definitions:

* **TTFT** (time to first token) — arrival to first generated token,
  including queueing and prefill;
* **TPOT** (time per output token) — mean inter-token gap after the first
  token;
* **end-to-end latency** — arrival to final token;
* **goodput** — generated tokens per second from requests that met their
  TTFT/TPOT SLOs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

from repro._common import ConfigurationError
from repro.evaluation.metrics import percentiles, serving_goodput
from repro.workloads.arrivals import SLO_CLASSES

#: Terminal states a request can reach.  Every arrival terminates as
#: exactly one record in exactly one of these states; only ``completed``
#: requests generated tokens, so latency/throughput/goodput metrics are
#: computed over completed records while ``failed`` (retry budget
#: exhausted under replica failures) and ``shed`` (dropped by degraded-mode
#: load shedding) records carry the termination instant for availability
#: accounting.  Fault-free serves only ever produce ``completed`` records.
REQUEST_STATUSES = ("completed", "failed", "shed")


def validate_slo(label: str, value) -> None:
    """Raise unless the SLO ``value`` is ``None`` or a finite number >= 0.

    ``None`` leaves the dimension unconstrained.  A NaN SLO would mark
    every request compliant (every comparison with NaN is false), so it is
    rejected along with infinities, negatives, and non-numbers.
    """
    if value is None:
        return
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not math.isfinite(value) or value < 0):
        raise ConfigurationError(
            f"{label} must be None or a finite number >= 0, got {value!r}"
        )


def normalize_class_slos(class_slos: dict | None) -> dict:
    """Canonicalise a per-class SLO mapping to ``{name: (ttft, tpot)}``.

    Accepts ``{name: (ttft_slo_s, tpot_slo_s)}`` pairs or
    ``{name: {"ttft_slo_s": ..., "tpot_slo_s": ...}}`` dicts (missing or
    ``None`` entries leave that dimension unconstrained); every SLO must
    pass :func:`validate_slo`.  ``None`` maps to ``{}`` — no class is
    SLO-constrained.
    """
    if not class_slos:
        return {}
    normalized: dict[str, tuple[float | None, float | None]] = {}
    for name, slos in class_slos.items():
        if name not in SLO_CLASSES:
            raise ConfigurationError(
                f"unknown slo_class {name!r} in class SLOs; "
                f"known: {list(SLO_CLASSES)}"
            )
        if isinstance(slos, dict):
            unknown = set(slos) - {"ttft_slo_s", "tpot_slo_s"}
            if unknown:
                raise ConfigurationError(
                    f"class {name!r}: unknown SLO keys {sorted(unknown)}; "
                    f"known: ['tpot_slo_s', 'ttft_slo_s']"
                )
            pair = (slos.get("ttft_slo_s"), slos.get("tpot_slo_s"))
        elif isinstance(slos, (tuple, list)) and len(slos) == 2:
            pair = tuple(slos)
        else:
            raise ConfigurationError(
                f"class {name!r}: SLOs must be a (ttft_slo_s, tpot_slo_s) "
                f"pair or a dict, got {slos!r}"
            )
        for label, value in zip(("ttft_slo_s", "tpot_slo_s"), pair):
            validate_slo(f"class {name!r} {label}", value)
        normalized[name] = pair
    return normalized


@dataclass(frozen=True)
class RequestRecord:
    """Lifecycle timestamps of one completed request.

    ``slo_class``/``prefix_len``/``prefix_hit``/``preemptions`` carry the
    session-workload facts through to trace summaries: the request's
    priority tier, how many of its prompt tokens were a shared session
    prefix, whether that prefix was resident at admission (so only the
    suffix KV was charged), and how many times the request was preempted
    by higher-priority arrivals before completing.  ``preempting`` marks a
    request whose own admission evicted running lower-priority work — its
    queueing delay is the *preemption latency* the chunked-prefill budget
    bounds — and ``prefill_chunks`` counts the prefill chunks it
    participated in (0 when chunking was disabled).

    Under fault injection (:mod:`repro.faults`) ``status`` records the
    terminal state (:data:`REQUEST_STATUSES`) and ``retries`` how many
    times the request was re-dispatched after a replica failure; for
    ``failed``/``shed`` records the admission/first-token/completion
    timestamps all equal the termination instant.
    """

    request_id: int
    arrival_time: float
    admission_time: float
    first_token_time: float
    completion_time: float
    input_len: int
    output_len: int
    slo_class: str = SLO_CLASSES[0]
    prefix_len: int = 0
    prefix_hit: bool = False
    preemptions: int = 0
    preempting: bool = False
    prefill_chunks: int = 0
    status: str = "completed"
    retries: int = 0

    def __post_init__(self) -> None:
        if not (self.arrival_time <= self.admission_time
                <= self.first_token_time <= self.completion_time):
            raise ConfigurationError(
                f"request {self.request_id}: timestamps must be ordered "
                f"arrival <= admission <= first token <= completion"
            )
        if self.slo_class not in SLO_CLASSES:
            raise ConfigurationError(
                f"request {self.request_id}: unknown slo_class "
                f"{self.slo_class!r}; known: {list(SLO_CLASSES)}"
            )
        if self.prefix_len < 0 or self.preemptions < 0:
            raise ConfigurationError(
                f"request {self.request_id}: prefix_len and preemptions "
                f"must be non-negative"
            )
        if self.prefill_chunks < 0:
            raise ConfigurationError(
                f"request {self.request_id}: prefill_chunks must be "
                f"non-negative"
            )
        if self.status not in REQUEST_STATUSES:
            raise ConfigurationError(
                f"request {self.request_id}: unknown status "
                f"{self.status!r}; known: {list(REQUEST_STATUSES)}"
            )
        if self.retries < 0:
            raise ConfigurationError(
                f"request {self.request_id}: retries must be non-negative"
            )

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting for admission into the running batch."""
        return self.admission_time - self.arrival_time

    @property
    def ttft(self) -> float:
        """Time to first token (queueing + prefill + first decode step)."""
        return self.first_token_time - self.arrival_time

    @property
    def tpot(self) -> float:
        """Mean time per output token after the first one.

        Single-token outputs have no inter-token gap; their TPOT is 0 by
        convention (they can only violate a TTFT SLO, never a TPOT one).
        """
        if self.output_len <= 1:
            return 0.0
        return ((self.completion_time - self.first_token_time)
                / (self.output_len - 1))

    @property
    def e2e_latency(self) -> float:
        return self.completion_time - self.arrival_time


@dataclass
class ServingTrace:
    """End-to-end record of one simulated serving run."""

    system: str
    model: str
    records: list[RequestRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add_record(self, record: RequestRecord) -> None:
        self.records.append(record)

    def observe(self, record: RequestRecord) -> None:
        """Record-sink entry point shared with
        :class:`~repro.serving.sketches.StreamingTrace` — the serving
        engine writes completions through ``observe`` so either record
        mode can sit behind it."""
        self.records.append(record)

    # ------------------------------------------------------------------ #
    # aggregate metrics
    # ------------------------------------------------------------------ #
    @property
    def num_requests(self) -> int:
        """Every terminated request, whatever its status."""
        return len(self.records)

    @property
    def completed_records(self) -> list[RequestRecord]:
        """Records that actually generated tokens.

        Latency/token metrics are computed over these; ``failed``/``shed``
        records (fault injection only) would otherwise credit tokens that
        were never produced.  Fault-free traces are all-completed, so every
        metric below is unchanged by the filter.
        """
        return [r for r in self.records if r.status == "completed"]

    @property
    def duration(self) -> float:
        """Makespan: serve start (t=0) to the last request's termination."""
        if not self.records:
            return 0.0
        return max(record.completion_time for record in self.records)

    @property
    def generated_tokens(self) -> int:
        return sum(record.output_len for record in self.completed_records)

    @property
    def throughput(self) -> float:
        """Generated tokens per second over the whole run (0 when empty)."""
        if self.duration <= 0:
            return 0.0
        return self.generated_tokens / self.duration

    def ttft_percentiles(self, qs=(50, 90, 99)) -> dict[float, float]:
        records = self.completed_records
        if not records:
            return {}
        return percentiles((r.ttft for r in records), qs)

    def tpot_percentiles(self, qs=(50, 90, 99)) -> dict[float, float]:
        records = self.completed_records
        if not records:
            return {}
        return percentiles((r.tpot for r in records), qs)

    def latency_percentiles(self, qs=(50, 90, 99)) -> dict[float, float]:
        records = self.completed_records
        if not records:
            return {}
        return percentiles((r.e2e_latency for r in records), qs)

    def goodput(self, ttft_slo_s: float | None = None,
                tpot_slo_s: float | None = None) -> float:
        """SLO-conditioned token goodput (tokens per second)."""
        return serving_goodput(self.completed_records, self.duration,
                               ttft_slo_s=ttft_slo_s, tpot_slo_s=tpot_slo_s)

    @property
    def mean_queueing_delay(self) -> float:
        records = self.completed_records
        if not records:
            return 0.0
        return (sum(r.queueing_delay for r in records)
                / len(records))

    # ------------------------------------------------------------------ #
    # resilience accounting (fault injection; all zero without faults)
    # ------------------------------------------------------------------ #
    @property
    def num_failed(self) -> int:
        """Requests that exhausted their retry budget under failures."""
        return sum(1 for r in self.records if r.status == "failed")

    @property
    def num_shed(self) -> int:
        """Requests dropped by degraded-mode load shedding."""
        return sum(1 for r in self.records if r.status == "shed")

    @property
    def num_retries(self) -> int:
        """Total re-dispatches across all terminated requests."""
        return sum(r.retries for r in self.records)

    # ------------------------------------------------------------------ #
    # session / SLO-class columns
    # ------------------------------------------------------------------ #
    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefix-bearing requests whose prefix was resident.

        Only requests that declared a shared prefix (``prefix_len > 0``)
        count; a trace with no session turns reports 0.0.
        """
        bearing = hits = 0
        for record in self.completed_records:
            if record.prefix_len > 0:
                bearing += 1
                hits += record.prefix_hit
        return hits / bearing if bearing else 0.0

    @property
    def num_preemptions(self) -> int:
        """Total preemptions suffered across all completed requests."""
        return sum(record.preemptions for record in self.completed_records)

    @property
    def preemption_waits(self) -> list[float]:
        """Queueing delays of requests whose admission preempted running
        work — the latency a higher-priority arrival paid before it could
        evict its way into the batch."""
        return [record.queueing_delay for record in self.completed_records
                if record.preempting]

    @property
    def p99_preemption_latency(self) -> float:
        """P99 of :attr:`preemption_waits` (0.0 when nothing preempted).

        With chunked prefill enabled this is the column the chunk budget
        bounds: preemption points recur at least once per chunk, so no
        preemptor waits longer than one chunk's priced duration plus a
        decode step.
        """
        waits = self.preemption_waits
        if not waits:
            return 0.0
        return percentiles(waits, (99,))[99.0]

    @property
    def prefill_chunks_per_request(self) -> float:
        """Mean prefill chunks per request (0.0 when chunking is off)."""
        records = self.completed_records
        if not records:
            return 0.0
        return (sum(record.prefill_chunks for record in records)
                / len(records))

    def per_class_summary(self, class_slos: dict | None = None) -> dict:
        """Per-SLO-class breakdown: ``{slo_class: {metric: value}}``.

        One entry per class present in the records.  ``class_slos`` maps
        class names to their goodput SLOs (any shape
        :func:`normalize_class_slos` accepts); classes without an entry
        report unconstrained goodput (equal to their token throughput).
        Goodput divides by the whole trace's duration, so class columns sum
        to the trace totals.
        """
        slos = normalize_class_slos(class_slos)
        grouped: dict[str, list[RequestRecord]] = {}
        for record in self.completed_records:
            grouped.setdefault(record.slo_class, []).append(record)
        duration = self.duration
        out = {}
        for name in sorted(grouped):
            records = grouped[name]
            ttft_slo_s, tpot_slo_s = slos.get(name, (None, None))
            out[name] = {
                "num_requests": len(records),
                "generated_tokens": sum(r.output_len for r in records),
                "goodput_tokens_per_s": serving_goodput(
                    records, duration, ttft_slo_s=ttft_slo_s,
                    tpot_slo_s=tpot_slo_s),
                "mean_ttft_s": sum(r.ttft for r in records) / len(records),
                "mean_queueing_delay_s": (sum(r.queueing_delay
                                              for r in records)
                                          / len(records)),
            }
        return out

    def summary(self) -> dict:
        """Flat summary dictionary used by experiment reports."""
        ttft = self.ttft_percentiles()
        tpot = self.tpot_percentiles()
        latency = self.latency_percentiles()
        return {
            "system": self.system,
            "model": self.model,
            "num_requests": self.num_requests,
            "generated_tokens": self.generated_tokens,
            "duration_s": self.duration,
            "throughput_tokens_per_s": self.throughput,
            "mean_queueing_delay_s": self.mean_queueing_delay,
            "p50_ttft_s": ttft.get(50.0, 0.0),
            "p90_ttft_s": ttft.get(90.0, 0.0),
            "p99_ttft_s": ttft.get(99.0, 0.0),
            "p50_tpot_s": tpot.get(50.0, 0.0),
            "p99_tpot_s": tpot.get(99.0, 0.0),
            "p50_latency_s": latency.get(50.0, 0.0),
            "p99_latency_s": latency.get(99.0, 0.0),
            "prefix_hit_rate": self.prefix_hit_rate,
            "num_preemptions": self.num_preemptions,
            "p99_preemption_latency_s": self.p99_preemption_latency,
            "prefill_chunks_per_request": self.prefill_chunks_per_request,
            "num_failed": self.num_failed,
            "num_shed": self.num_shed,
            "num_retries": self.num_retries,
        }
