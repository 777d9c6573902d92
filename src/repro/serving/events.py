"""Discrete-event driver for the serving and cluster layers.

The clock-stepped serving loop advanced wall-clock time iteration by
iteration, so simulating an idle second cost as much as a busy one.  The
event-driven core instead jumps between the instants where something can
actually change:

* **arrival** — the next request of the arrival source reaches the
  front-end and is routed to exactly one replica run;
* **epoch-boundary** — a replica's priced decode epoch ends early because
  its queue head became admissible (the batch composition changes);
* **completion** — a replica's priced decode epoch ends because its
  shortest-remaining requests produce their last token.

:func:`drive` merges these into one :mod:`heapq` stream over any number of
replica runs (``ContinuousBatchingEngine.start_run`` builds one run per
replica) and a ``route`` callback that picks the run each arrival joins.
Fault injection (``faults=``) only adds producers to the same heap:
replica fail/recover events and retried arrivals.

Heap invariants
---------------
1. **Arrivals outrun run events at equal timestamps.**  Admission uses
   ``arrival_time <= clock``, so a request arriving exactly at an epoch
   boundary must already be queued when the boundary is processed —
   otherwise the next epoch would be priced against the wrong queue head.
2. **At most one scheduled event per run, and it never changes.**  A run's
   next event is a pure function of its state; new arrivals only append to
   the run's FCFS queue tail, which cannot affect an already-priced epoch
   (the epoch cut depends only on the queue *head*).  The one exception is
   a replica failure, which cancels the run's in-flight event.
3. **A run prices an epoch only when its next queue head is known** — its
   pending queue is non-empty or the source is exhausted (``close``).  The
   epoch cut depends on the next routed request even when that request
   arrives after the epoch's natural end, so a run with an empty queue
   *blocks* (consumes zero work) until the next arrival is routed to it or
   the source closes.  This is the conservative-synchronization condition
   that keeps event-driven traces bit-identical to the clock-stepped loop.
   Runs fed by a closed-loop source cannot wait for a head their own
   completions produce, so they price eagerly (``eager_epochs=True``).
4. **Source arrivals are peeked, never queued in the heap.**  The
   driver peeks the source's next arrival time every iteration and pops
   the arrival only once it precedes the heap top; a plain iterable is
   buffered one request ahead, so a million-request source never
   materializes: memory holds the heap (O(replicas)), each run's backlog,
   and the metric sinks.

Ties between run events at one timestamp break by run index, and the heap
sequence number makes every entry unique — ordering is deterministic, which
is what makes serving traces a pure function of ``(trace seed, routing
policy, router seed)``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Protocol

from repro._common import ConfigurationError
from repro.serving.trace import normalize_class_slos
from repro.workloads.arrivals import Request

#: Event kinds, as they appear in ``drive``'s journal.
ARRIVAL = "arrival"
ADMISSION = "admission"
EPOCH_BOUNDARY = "epoch-boundary"
COMPLETION = "completion"
#: An epoch cut short because a higher-priority arrival will evict running
#: lower-priority requests at the boundary (engines built with
#: ``preemption="retain"`` or ``"recompute"``; never emitted otherwise, so
#: preemption-free journals are unchanged).
PREEMPTION = "preemption"
#: One budget-sized slice of a chunked prefill pass (engines built with
#: ``prefill_chunk_tokens=N``).  Chunks are fixed-duration events — they are
#: never cut by arrivals — and admission/preemption runs between them, which
#: is what bounds the wait of a higher-priority arrival to one chunk's
#: priced time.  Never emitted with chunking disabled, so chunk-free
#: journals are unchanged.
PREFILL_CHUNK = "prefill-chunk"
#: A replica goes down / comes back per a :mod:`repro.faults` schedule
#: (serves with ``faults=``).  Fault events outrank even arrivals at equal
#: timestamps, so routing always sees the current health; never emitted
#: with ``faults=None``, so fault-free journals are unchanged.
REPLICA_FAIL = "replica-fail"
REPLICA_RECOVER = "replica-recover"


class ReplicaRun(Protocol):
    """What :func:`drive` needs from a replica run (see ``EngineRun``)."""

    def offer(self, request: Request) -> tuple[float, str] | None:
        """Queue an arrival; return a newly scheduled ``(time, kind)``."""

    def advance(self) -> tuple[float, str] | None:
        """Process the run's scheduled event; return the next one."""

    def close(self) -> tuple[float, str] | None:
        """No further arrivals will be offered; return a scheduled event."""

    @property
    def finished(self) -> bool:
        """True once the run has drained its queue and running batch."""


class ContinuationSource(Protocol):
    """An arrival source fed by the simulation it drives (closed loop).

    Unlike a plain iterable, a continuation source's future arrivals may
    depend on completions the engine has not produced yet: popping returns
    ``None`` while the source is *waiting* (turns outstanding but none
    ready), and only :attr:`exhausted` says no arrival will ever come
    again.  The serve layer feeds completions back through whatever
    callback the source exposes (see
    ``repro.workloads.sessions.ClosedLoopSessions.on_completion``) —
    :func:`drive` itself only pops.
    """

    def peek_time(self) -> float | None:
        """Arrival time of the earliest ready request (None when none)."""

    def pop_next(self) -> Request | None:
        """Pop the earliest ready request (None when none is ready)."""

    @property
    def exhausted(self) -> bool:
        """True once every request has been popped — none will ever follow."""


class _Lookahead:
    """:class:`ContinuationSource` view of a plain sorted iterable.

    Buffers exactly one request ahead and rejects a source that is not
    sorted by ``(arrival_time, request_id)``.
    """

    __slots__ = ("_arrivals", "_head", "_last_key")

    def __init__(self, source) -> None:
        self._arrivals = iter(source)
        self._head: Request | None = None
        self._last_key: tuple[float, int] | None = None
        self.pop_next()

    def peek_time(self) -> float | None:
        head = self._head
        return None if head is None else head.arrival_time

    def pop_next(self) -> Request | None:
        request, head = self._head, next(self._arrivals, None)
        if head is not None:
            key = (head.arrival_time, head.request_id)
            if self._last_key is not None and key < self._last_key:
                raise ConfigurationError(
                    f"arrival source must be sorted by (arrival_time, "
                    f"request_id); got {key} after {self._last_key}"
                )
            self._last_key = key
        self._head = head
        return request

    @property
    def exhausted(self) -> bool:
        return self._head is None


def check_observers(observers) -> tuple:
    """Canonicalise an ``observers=`` serve argument to a tuple.

    ``None``/empty becomes ``()`` — the zero-overhead path every hook
    site guards on.  Anything else must be a list/tuple of objects
    implementing the :class:`repro.obs.Observer` callbacks (duck-typed:
    the serving core never imports :mod:`repro.obs`); a plainly wrong
    argument fails here rather than deep inside a serve.
    """
    if not observers:
        return ()
    if not isinstance(observers, (list, tuple)):
        raise ConfigurationError(
            "observers must be a list/tuple of Observer-like objects "
            f"(got {type(observers).__name__}; wrap a single observer in "
            "a list)"
        )
    for observer in observers:
        if not callable(getattr(observer, "on_completion", None)):
            raise ConfigurationError(
                f"observer {observer!r} does not implement the Observer "
                "callbacks (subclass repro.obs.Observer)"
            )
    return tuple(observers)


def notify_finish(observers, trace, class_slos: dict | None) -> None:
    """Call every observer's ``finish`` hook with the final trace.

    Runs after the serve's metadata (including ``wall_clock_s``) is
    written, with the normalized per-class SLOs — the point where e.g.
    :class:`repro.obs.SpanTracer` attaches
    ``trace.metadata["slo_attribution"]``.
    """
    if not observers:
        return
    slos = normalize_class_slos(class_slos)
    for observer in observers:
        observer.finish(trace, slos)


def drive(source, runs: list[ReplicaRun],
          route: Callable[[Request], int],
          journal: list | None = None,
          observers: tuple = (),
          faults=None) -> None:
    """Run the merged event loop to completion.

    ``source`` is a :class:`ContinuationSource` or any iterable yielding
    requests in ``(arrival_time, request_id)`` order (wrapped in an
    adapter that buffers one request ahead, so generators and streams
    never materialize).  ``route(request)`` returns the index of the run
    each arrival joins, called exactly once per request in arrival order —
    dispatch-time routing, exactly as a front-end load balancer decides.
    ``journal``, when given, receives ``(time, kind, run_index)`` tuples
    for every processed event (a test/debug surface; see
    ``tests/test_serving_events.py``).  ``observers`` receive the same
    stream through their ``on_event`` hook (see :mod:`repro.obs`),
    *before* the event is applied — discrete-event state is piecewise
    constant, so that is the state at the event instant.

    The source is peeked every iteration and an arrival is popped only
    when it precedes the heap top (arrivals win ties, invariant 1), so
    turns a closed-loop source injects on completions mid-loop are served
    in true time order.  Runs are closed once the source is exhausted —
    not merely momentarily empty — so runs driven by a closed-loop source
    must never block awaiting their next queue head (``EngineRun`` built
    with ``eager_epochs=True``): the loop would deadlock on the circular
    wait between an epoch's cut and the arrival it produces.

    ``faults``, when given, is a bound
    :class:`repro.faults.FaultCoordinator`; it only adds producers to the
    same heap:

    * **fault events** — the coordinator's fail/recover timeline, pushed
      up front at priority ``-2``, so a failure at time ``t`` is processed
      before an arrival at ``t`` (routing sees current health) and before
      any run event at ``t`` (an epoch "ending" at the crash instant never
      lands);
    * **retries** — interrupted requests re-enter at priority ``-1`` after
      their backoff.  The source head carries the heap sequence number it
      got when it became the head, so a retry and a source arrival at one
      instant go in the order they were produced;
    * **stale-event invalidation** — a failure cancels its run's in-flight
      event (the one exception to invariant 2): each run's live event
      sequence number is tracked and popped events that no longer match
      are skipped;
    * **coordinator dispatch** — every arrival routes through
      ``faults.dispatch``, which may shed or park it instead of returning
      a run index.  Retries and parked arrivals may be offered after the
      runs closed and out of ``(arrival_time, request_id)`` order; runs
      built for fault mode accept both (``EngineRun(fault_mode=True)``).
    """
    if not runs:
        raise ConfigurationError("drive needs at least one replica run")
    if not hasattr(source, "pop_next"):
        source = _Lookahead(source)
    elif faults is not None:
        raise ConfigurationError(
            "fault injection does not support closed-loop sources — "
            "lower the session trace to its open-loop request stream"
        )
    peek, pop = source.peek_time, source.pop_next
    # Entries are (time, rank, sequence, kind, payload): rank is -2 for a
    # fault event (payload: replica), -1 for a retry (payload: request)
    # and the run index for a run event, which therefore tie-break by run
    # index; the sequence number keeps entries unique.
    heap: list[tuple] = []
    sequence = 0
    closed = False
    #: Per-run sequence number of the one live scheduled event; a failure
    #: zeroes it, orphaning the heap entry.
    valid = [0] * len(runs)

    def emit(time: float, kind: str, index: int) -> None:
        if journal is not None:
            journal.append((time, kind, index))
        if observers:
            for observer in observers:
                observer.on_event(time, kind, index)

    def push_run_event(index: int, event: tuple[float, str] | None) -> None:
        nonlocal sequence
        if event is None:
            return  # nothing new; a live event stays valid
        sequence += 1
        valid[index] = sequence
        heapq.heappush(heap, (event[0], index, sequence, event[1], None))

    def dispatch(time: float, request: Request, retrying: bool) -> None:
        if faults is None:
            target = route(request)
        else:
            target = faults.dispatch(time, request, retrying)
            if target is None:  # shed or parked
                emit(time, ARRIVAL, -1)
                return
        if not 0 <= target < len(runs):
            raise ConfigurationError(
                f"route() must return a run index in [0, {len(runs)}), "
                f"got {target!r}"
            )
        emit(time, ARRIVAL, target)
        run = runs[target]
        push_run_event(target, run.offer(request) if faults is None
                       else run.offer(request, now=time))

    if faults is not None:
        for time, kind, replica in faults.timeline():
            sequence += 1
            heapq.heappush(heap, (time, -2, sequence, kind, replica))
    sequence += 1
    head = sequence
    while True:
        ready = peek()
        if ready is not None and (not heap or (ready, -1, head) < heap[0]):
            dispatch(ready, pop(), False)
            sequence += 1
            head = sequence
            continue
        if ready is None and not closed and source.exhausted:
            closed = True
            for index, run in enumerate(runs):
                push_run_event(index, run.close())
            continue
        if not heap:
            break
        time, rank, seq, kind, payload = heapq.heappop(heap)
        if rank >= 0:
            if seq == valid[rank]:  # else cancelled by a failure
                # emit() inlined: run events are the hottest path.
                if journal is not None:
                    journal.append((time, kind, rank))
                if observers:
                    for observer in observers:
                        observer.on_event(time, kind, rank)
                push_run_event(rank, runs[rank].advance())
        elif kind == ARRIVAL:
            dispatch(time, payload, True)
        elif kind == REPLICA_FAIL:
            emit(time, kind, payload)
            valid[payload] = 0  # the run's in-flight event died with it
            for retry_time, request in faults.fail(time, payload):
                sequence += 1
                heapq.heappush(heap, (retry_time, -1, sequence, ARRIVAL,
                                      request))
        else:
            emit(time, kind, payload)
            event, released = faults.recover(time, payload)
            push_run_event(payload, event)
            for request, retrying in released:
                dispatch(time, request, retrying)

    if faults is not None:
        faults.finish()
    if not source.exhausted:
        raise ConfigurationError(
            "closed-loop event loop drained with the source still waiting "
            "for completions — a run dropped work without recording it"
        )
    for index, run in enumerate(runs):
        if not run.finished:
            raise ConfigurationError(
                f"event loop drained with run {index} unfinished — a run "
                f"scheduled no event while holding work (driver invariant "
                f"violation)"
            )
