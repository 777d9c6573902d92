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
from dataclasses import dataclass
from numbers import Real
from operator import attrgetter

from repro._common import ConfigurationError
from repro.evaluation.metrics import percentiles, serving_goodput
from repro.serving.sketches import LogBucketSketch
from repro.workloads.arrivals import SLO_CLASSES

#: What a serve keeps per request: ``"full"`` retains every record,
#: ``"streaming"`` only the fold (see :class:`ServingTrace`).
RECORD_MODES = ("full", "streaming")

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


class ServingTrace:
    """End-to-end record of one simulated serving run, in either record mode.

    Every terminated request passes through :meth:`observe`, which folds
    it into exact aggregates (counts, token totals, makespan, delay and
    TTFT sums, prefix/preemption/chunk counters, goodput for the SLOs fixed
    at construction, per SLO class too) and into one
    :class:`~repro.serving.sketches.LogBucketSketch` per latency metric.
    Both record modes share that fold, so every exact figure is identical
    between them by construction.

    ``record_mode="full"`` also retains the records, which answer exact
    percentiles, goodput for any other SLOs, and :attr:`preemption_waits`;
    ``"streaming"`` keeps none (``records`` is ``None``), so memory does
    not grow with trace length and percentiles come from the sketches.

    ``failed``/``shed`` records (fault injection only) count toward the
    makespan and the resilience counters but toward no latency or token
    metric: they never generated tokens.  A cluster trace is
    :meth:`merge` of its replicas' traces.
    """

    def __init__(self, system: str, model: str, metadata: dict | None = None,
                 record_mode: str = "full",
                 ttft_slo_s: float | None = None,
                 tpot_slo_s: float | None = None,
                 class_slos: dict | None = None) -> None:
        if record_mode not in RECORD_MODES:
            raise ConfigurationError(
                f"unknown record_mode {record_mode!r}; known: "
                f"{list(RECORD_MODES)}"
            )
        validate_slo("ttft_slo_s", ttft_slo_s)
        validate_slo("tpot_slo_s", tpot_slo_s)
        self.system = system
        self.model = model
        self.metadata = dict(metadata or {})
        self.record_mode = record_mode
        self.slos = (ttft_slo_s, tpot_slo_s)
        self.class_slos = normalize_class_slos(class_slos)
        self.records: list[RequestRecord] | None = \
            [] if record_mode == "full" else None
        #: The replicas' traces when this trace is a :meth:`merge`.
        self.replica_traces: list[ServingTrace] | None = None
        #: Every terminated request, whatever its status.
        self.num_requests = 0
        #: Requests that exhausted their retry budget under failures.
        self.num_failed = 0
        #: Requests dropped by degraded-mode load shedding.
        self.num_shed = 0
        #: Total re-dispatches across all terminated requests.
        self.num_retries = 0
        #: Makespan: serve start (t=0) to the last request's termination.
        self.duration = 0.0
        self.generated_tokens = 0
        #: Total preemptions suffered across all completed requests.
        self.num_preemptions = 0
        self._completed = 0
        self._queueing = 0.0
        self._good_tokens = 0
        self._prefix_bearing = 0
        self._prefix_hits = 0
        self._prefill_chunks = 0
        #: ``{slo_class: [requests, tokens, ttft sum, delay sum, good tokens]}``
        self._classes: dict[str, list] = {}
        self._ttft = LogBucketSketch()
        self._tpot = LogBucketSketch()
        self._latency = LogBucketSketch()
        self._preemption_waits = LogBucketSketch()

    # ------------------------------------------------------------------ #
    # record sink
    # ------------------------------------------------------------------ #
    def observe(self, record: RequestRecord) -> None:
        """Fold one terminated request into the trace."""
        self.num_requests += 1
        self.num_retries += record.retries
        if record.completion_time > self.duration:
            self.duration = record.completion_time
        if self.records is not None:
            self.records.append(record)
        if record.status != "completed":
            if record.status == "failed":
                self.num_failed += 1
            else:
                self.num_shed += 1
            return
        ttft, tpot, delay = record.ttft, record.tpot, record.queueing_delay
        tokens = record.output_len
        self._completed += 1
        self.generated_tokens += tokens
        self._queueing += delay
        if _meets(ttft, tpot, self.slos):
            self._good_tokens += tokens
        self._ttft.add(ttft)
        self._tpot.add(tpot)
        self._latency.add(record.e2e_latency)
        entry = self._classes.get(record.slo_class)
        if entry is None:
            entry = self._classes[record.slo_class] = [0, 0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += tokens
        entry[2] += ttft
        entry[3] += delay
        if _meets(ttft, tpot,
                  self.class_slos.get(record.slo_class, _UNCONSTRAINED)):
            entry[4] += tokens
        if record.prefix_len > 0:
            self._prefix_bearing += 1
            self._prefix_hits += record.prefix_hit
        self.num_preemptions += record.preemptions
        self._prefill_chunks += record.prefill_chunks
        if record.preempting:
            self._preemption_waits.add(delay)

    def empty(self) -> "ServingTrace":
        """A trace with this one's identity, record mode and SLOs, and no
        requests or metadata."""
        return ServingTrace(self.system, self.model, None, self.record_mode,
                            *self.slos, self.class_slos)

    def absorb(self, other: "ServingTrace") -> None:
        """Fold every request of ``other`` into this trace.

        The fault layer hands its failed and shed records over this way.
        Retained records end up ordered by ``(completion_time,
        request_id)``.
        """
        self._fold(other)
        if self.records is not None:
            self.records += other.records
            self.records.sort(key=_completion_then_id)

    @staticmethod
    def merge(traces: list["ServingTrace"],
              metadata: dict | None = None) -> "ServingTrace":
        """One trace of a replica group, over its replicas' traces.

        The replicas share one system, model, record mode and SLOs.
        Retained records are ordered by completion time with a *stable*
        sort, so a one-replica merge keeps the engine's record order.  The
        replica traces stay intact in :attr:`replica_traces` and are
        summarised in ``metadata["replicas"]``.
        """
        merged = traces[0].empty()
        merged.metadata = dict(metadata or {})
        for trace in traces:
            merged._fold(trace)
        if merged.records is not None:
            merged.records = sorted(
                (record for trace in traces for record in trace.records),
                key=_completion)
        merged.replica_traces = traces
        merged.metadata["replicas"] = [
            {"replica": index, "num_requests": replica.num_requests,
             "generated_tokens": replica.generated_tokens,
             "duration_s": replica.duration,
             "mean_queueing_delay_s": replica.mean_queueing_delay,
             "kv_budget_tokens": replica.metadata.get("kv_budget_tokens", 0),
             "peak_reserved_tokens": replica.metadata.get(
                 "peak_reserved_tokens", 0),
             "comm_time_share": replica.metadata.get("comm_time_share", 0.0)}
            for index, replica in enumerate(traces)
        ]
        merged.metadata.setdefault(
            "kv_budget_tokens",
            sum(replica.metadata.get("kv_budget_tokens", 0)
                for replica in traces))
        return merged

    def _fold(self, other: "ServingTrace") -> None:
        """Add ``other``'s aggregates and sketches (not its records)."""
        self.num_requests += other.num_requests
        self.num_failed += other.num_failed
        self.num_shed += other.num_shed
        self.num_retries += other.num_retries
        self.duration = max(self.duration, other.duration)
        self.generated_tokens += other.generated_tokens
        self.num_preemptions += other.num_preemptions
        self._completed += other._completed
        self._queueing += other._queueing
        self._good_tokens += other._good_tokens
        self._prefix_bearing += other._prefix_bearing
        self._prefix_hits += other._prefix_hits
        self._prefill_chunks += other._prefill_chunks
        for name, values in other._classes.items():
            entry = self._classes.setdefault(name, [0, 0, 0.0, 0.0, 0])
            for index, value in enumerate(values):
                entry[index] += value
        self._ttft.merge(other._ttft)
        self._tpot.merge(other._tpot)
        self._latency.merge(other._latency)
        self._preemption_waits.merge(other._preemption_waits)

    def _completed_records(self, what: str) -> list[RequestRecord]:
        if self.records is None:
            raise ConfigurationError(
                f"{what} needs the retained records (record_mode='full')"
            )
        return [r for r in self.records if r.status == "completed"]

    # ------------------------------------------------------------------ #
    # aggregate metrics
    # ------------------------------------------------------------------ #
    @property
    def completed_records(self) -> list[RequestRecord]:
        """Retained records that actually generated tokens."""
        return self._completed_records("completed_records")

    @property
    def throughput(self) -> float:
        """Generated tokens per second over the whole run (0 when empty)."""
        if self.duration <= 0:
            return 0.0
        return self.generated_tokens / self.duration

    def _percentiles(self, sketch: LogBucketSketch, metric: str, qs,
                     preempting: bool = False) -> dict[float, float]:
        """Exact over retained records, else the sketch's estimates."""
        if sketch.count == 0:
            return {}
        if self.records is None:
            return {float(q): sketch.quantile(q) for q in qs}
        return percentiles((getattr(r, metric) for r in self.completed_records
                            if r.preempting or not preempting), qs)

    def ttft_percentiles(self, qs=(50, 90, 99)) -> dict[float, float]:
        return self._percentiles(self._ttft, "ttft", qs)

    def tpot_percentiles(self, qs=(50, 90, 99)) -> dict[float, float]:
        return self._percentiles(self._tpot, "tpot", qs)

    def latency_percentiles(self, qs=(50, 90, 99)) -> dict[float, float]:
        return self._percentiles(self._latency, "e2e_latency", qs)

    def goodput(self, ttft_slo_s: float | None = None,
                tpot_slo_s: float | None = None) -> float:
        """SLO-conditioned token goodput (tokens per second).

        Unconstrained goodput and goodput for the SLOs fixed at
        construction come from the fold; any other SLOs need the retained
        records.
        """
        slos = (ttft_slo_s, tpot_slo_s)
        if slos not in (_UNCONSTRAINED, self.slos):
            return serving_goodput(
                self._completed_records(f"goodput for SLOs {slos!r} other "
                                        f"than {self.slos!r}"),
                self.duration, *slos)
        if self.duration <= 0:
            return 0.0
        good = (self.generated_tokens if slos == _UNCONSTRAINED
                else self._good_tokens)
        return good / self.duration

    @property
    def mean_queueing_delay(self) -> float:
        if not self._completed:
            return 0.0
        return self._queueing / self._completed

    # ------------------------------------------------------------------ #
    # session / SLO-class columns
    # ------------------------------------------------------------------ #
    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefix-bearing requests whose prefix was resident.

        Only requests that declared a shared prefix (``prefix_len > 0``)
        count; a trace with no session turns reports 0.0.
        """
        if not self._prefix_bearing:
            return 0.0
        return self._prefix_hits / self._prefix_bearing

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
        return self._percentiles(self._preemption_waits, "queueing_delay",
                                 (99,), preempting=True).get(99.0, 0.0)

    @property
    def prefill_chunks_per_request(self) -> float:
        """Mean prefill chunks per request (0.0 when chunking is off)."""
        if not self._completed:
            return 0.0
        return self._prefill_chunks / self._completed

    def per_class_summary(self, class_slos: dict | None = None) -> dict:
        """Per-SLO-class breakdown: ``{slo_class: {metric: value}}``.

        One entry per class with completed requests.  ``class_slos`` maps
        class names to their goodput SLOs (any shape
        :func:`normalize_class_slos` accepts); classes without an entry
        report unconstrained goodput (equal to their token throughput).
        Goodput divides by the whole trace's duration, so class columns sum
        to the trace totals.  SLOs other than the construction ones need
        the retained records.
        """
        requested = normalize_class_slos(class_slos)
        grouped: dict[str, list[RequestRecord]] = {}
        if requested and requested != self.class_slos:
            for record in self._completed_records(
                    f"per-class goodput for class SLOs {requested!r} other "
                    f"than {self.class_slos!r}"):
                grouped.setdefault(record.slo_class, []).append(record)
        duration = self.duration
        out = {}
        for name in sorted(self._classes):
            count, tokens, ttft_sum, queueing_sum, good = self._classes[name]
            if name in grouped:
                goodput = serving_goodput(
                    grouped[name], duration,
                    *requested.get(name, _UNCONSTRAINED))
            else:
                goodput = ((good if requested else tokens) / duration
                           if duration > 0 else 0.0)
            out[name] = {
                "num_requests": count,
                "generated_tokens": tokens,
                "goodput_tokens_per_s": goodput,
                "mean_ttft_s": ttft_sum / count,
                "mean_queueing_delay_s": queueing_sum / count,
            }
        return out

    # ------------------------------------------------------------------ #
    # cluster columns (merged traces only)
    # ------------------------------------------------------------------ #
    @property
    def num_replicas(self) -> int:
        """Replicas behind this trace: one unless it is a :meth:`merge`."""
        return 1 if self.replica_traces is None else len(self.replica_traces)

    @property
    def tokens_imbalance(self) -> float:
        """Max/mean ratio of generated tokens across replicas (1.0 = even).

        Round-robin on heavy-tailed lengths drifts well above 1; load-aware
        policies keep it near 1.  Empty replicas count toward the mean, so
        a policy that starves a replica is penalized, not hidden.  Only a
        merged trace has this column (``hasattr`` tells one apart).
        """
        if self.replica_traces is None:
            raise AttributeError(
                "tokens_imbalance is defined only on a merged trace")
        tokens = [trace.generated_tokens for trace in self.replica_traces]
        if not tokens or sum(tokens) == 0:
            return 1.0
        return max(tokens) / (sum(tokens) / len(tokens))

    def summary(self) -> dict:
        """Flat summary dictionary used by experiment reports; a merged
        trace adds ``num_replicas`` and ``tokens_imbalance``."""
        ttft = self.ttft_percentiles()
        tpot = self.tpot_percentiles()
        latency = self.latency_percentiles()
        data = {
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
        if self.replica_traces is not None:
            data["num_replicas"] = self.num_replicas
            data["tokens_imbalance"] = self.tokens_imbalance
        return data


_UNCONSTRAINED = (None, None)
_completion = attrgetter("completion_time")
_completion_then_id = attrgetter("completion_time", "request_id")


def _meets(ttft: float, tpot: float, slos: tuple) -> bool:
    """Whether a request met ``slos = (ttft_slo_s, tpot_slo_s)``."""
    ttft_slo_s, tpot_slo_s = slos
    return ((ttft_slo_s is None or ttft <= ttft_slo_s)
            and (tpot_slo_s is None or tpot <= tpot_slo_s))
