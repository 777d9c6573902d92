"""The per-step, memo-free serving and offline reference (test-only).

The production paths price decode epochs vectorized (one
``epoch_timings`` call per epoch shape), memoize priced epochs and prefill
passes per shape, and serve through the event-driven
:class:`~repro.serving.engine.EngineRun`.  Every one of those is a pure
re-expression of the slower code kept here, and the golden pins in
``tests/test_epoch_pricing.py``, ``tests/test_serving_events.py`` and
``tests/test_sessions.py`` (plus ``test_bench_serving_fast_path``) compare
the two with exact ``==``:

* :class:`SteppedEngine` prices every decode epoch step by step
  (:mod:`.step_plans`) and every prefill pass afresh
  on the serve's own link ledger — no price memos.  Its ordinary
  :meth:`~repro.serving.engine.ContinuousBatchingEngine.serve` runs the
  event-driven core on that pricing, and ``ReplicaGroup([SteppedEngine(...),
  ...])`` builds a stepped cluster.
* :meth:`SteppedEngine.serve_clock_loop` is the list-based, clock-stepped
  serving loop the event core replaced: FCFS admission, batched prefill,
  one decode epoch per iteration, batch shape read by a list scan.
* :func:`run_stepwise` is the offline
  :meth:`~repro.systems.simulator.InferenceSimulator.run` with its
  vectorized decode swapped for the per-step loop.

To stay independent of what it pins, this module never touches the event
driver (``EngineRun``, ``drive``, ``serve_replicas``), price memos
(``_epoch_cache``, ``_prefill_prices``) or epoch pricing, as
``tests/test_oracles.py`` checks.  Prefill *plans* come from the engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from types import MethodType

from repro._common import ConfigurationError
from repro.serving.engine import (
    ContinuousBatchingEngine,
    _PrefixCache,
    _RunningRequest,
)
from repro.serving.trace import ServingTrace
from repro.systems.memory import MemoryHierarchy
from repro.systems.simulator import InferenceSimulator
from repro.systems.trace import InferenceTrace
from repro.workloads.arrivals import Request
from repro.workloads.descriptors import Workload

from .step_plans import plan_decode_step, step_timing


class SteppedEngine(ContinuousBatchingEngine):
    """A serving engine that prices step by step, with no price memos."""

    def _price_prefill(self, batch_size: int, input_len: int,
                       output_len: int, name: str,
                       memory: MemoryHierarchy) -> tuple[float, float]:
        """Price one prefill pass directly on the serve's own link."""
        key = (batch_size, input_len, output_len)
        workload = Workload(batch_size=batch_size, input_len=input_len,
                            output_len=output_len, name=name)
        plan = self._prefill_plans.get(key)
        if plan is None:
            self.simulator.prepare(workload)
            plan = self.simulator.plan_prefill(workload)
            self._prefill_plans[key] = plan
        comm = self.simulator.parallel_comm_time(workload,
                                                 query_len=input_len)
        return self.simulator.prefill_timing(plan, workload, memory), comm

    def _price_epoch(self, batch_size: int, context_len: int,
                     num_steps: int, cut_arrival: float | None,
                     clock: float, memory: MemoryHierarchy,
                     ) -> tuple[float, int, float, float]:
        """Price one decode epoch with the per-step loop.

        Same contract as the production method: run until the
        ``num_steps``-th step or the first step whose end reaches
        ``cut_arrival``; returns ``(end_clock, steps, first_step_clock,
        comm_per_step)``.
        """
        simulator = self.simulator
        workload = Workload(batch_size=batch_size, input_len=context_len,
                            output_len=num_steps, name="serving-decode")
        simulator.prepare(workload)
        simulator.plan_prefill(workload)
        comm_per_step = simulator.parallel_comm_time(workload)
        steps = 0
        first_clock = None
        for step in range(num_steps):
            plan = plan_decode_step(simulator, step, workload)
            timing = step_timing(simulator, plan, step, workload, memory)
            clock += timing.total_time
            steps += 1
            if first_clock is None:
                first_clock = clock
            if steps == num_steps:
                break  # the final step completes requests; epoch over
            if cut_arrival is not None and cut_arrival <= clock:
                break
        return clock, steps, first_clock, comm_per_step

    # ------------------------------------------------------------------ #
    # the list-based clock loop
    # ------------------------------------------------------------------ #
    def serve_clock_loop(self, requests: list[Request]) -> ServingTrace:
        """Serve a non-empty request list with the clock-stepped loop.

        Returns a full-mode trace with the metadata the event core writes
        for the same serve, less its memo counters (``epoch_cache``) and
        wall clock.
        """
        trace = self.make_trace("full")
        solver_before = self.simulator.schedule_stats()
        budget = self.kv_budget_tokens(requests)
        shard_budgets = self.shard_budgets(budget)
        shard_limit = min(shard_budgets)
        for request in requests:
            footprint = self.shard_footprint(request)
            if footprint > shard_limit:
                raise ConfigurationError(
                    f"request {request.request_id} needs {footprint} KV "
                    f"tokens on each of {self.num_shards} shard(s) but the "
                    f"tightest shard budget is {shard_limit} (node budget "
                    f"{budget}); it can never be admitted"
                )

        pending = deque(sorted(requests,
                               key=lambda r: (r.arrival_time, r.request_id)))
        running: list[_RunningRequest] = []
        prefix = _PrefixCache()
        memory = MemoryHierarchy.from_hardware(self.simulator.hardware)
        clock = 0.0
        reserved = 0          # node-level KV tokens across all shards
        shard_reserved = 0    # per-shard tokens (shards fill in lockstep)
        peak_reserved = 0
        peak_shard_reserved = 0
        num_epochs = 0
        num_steps = 0
        comm_time = 0.0

        while pending or running:
            # FCFS admission: the queue head blocks until it fits, so
            # requests always enter the batch in arrival order.
            admitted: list[_RunningRequest] = []
            while (pending and pending[0].arrival_time <= clock
                   and self._fits(pending[0], len(running),
                                  shard_reserved, shard_limit, prefix)):
                request = pending.popleft()
                wrapper, node_delta, shard_delta = self._admit_request(
                    request, prefix, shard_reserved, shard_limit, clock)
                running.append(wrapper)
                reserved += node_delta
                shard_reserved += shard_delta
                admitted.append(wrapper)
            peak_reserved = max(peak_reserved, reserved)
            peak_shard_reserved = max(peak_shard_reserved, shard_reserved)

            if not running:
                clock = max(clock, pending[0].arrival_time)
                continue

            if admitted:
                prefill, prefill_comm = self._prefill_time(admitted, memory)
                clock += prefill
                comm_time += prefill_comm

            num_epochs += 1
            clock, steps, epoch_comm = self._decode_epoch(
                running, pending, shard_reserved, shard_limit, clock, memory,
                trace, prefix)
            num_steps += steps
            comm_time += epoch_comm
            reserved = (sum(r.request.max_seq_len for r in running)
                        + prefix.node_total)
            shard_reserved = (sum(self.shard_footprint(r.request)
                                  for r in running) + prefix.shard_total)

        trace.metadata.update(
            kv_budget_tokens=budget, peak_reserved_tokens=peak_reserved,
            num_epochs=num_epochs, num_decode_steps=num_steps,
            pcie_bytes=memory.link.total_bytes,
            shards=[
                {"shard": index, "budget_tokens": shard_budget,
                 "peak_reserved_tokens": peak_shard_reserved,
                 "peak_occupancy": (peak_shard_reserved / shard_budget
                                    if shard_budget > 0 else 0.0)}
                for index, shard_budget in enumerate(shard_budgets)
            ],
            comm_time_s=comm_time,
            comm_time_share=comm_time / clock if clock > 0 else 0.0,
        )
        if prefix.touched:
            trace.metadata["prefix_cache"] = prefix.stats()
        solver_after = self.simulator.schedule_stats()
        if solver_after:
            trace.metadata["scheduler"] = {
                key: value - solver_before.get(key, 0)
                for key, value in solver_after.items()
            }
        return trace

    def _decode_epoch(self, running: list[_RunningRequest],
                      pending: deque, shard_reserved: int, shard_limit: int,
                      clock: float, memory: MemoryHierarchy,
                      sink, prefix: _PrefixCache) -> tuple[float, int, float]:
        """Decode with fixed batch composition until a completion or an
        admissible arrival ends the epoch.

        The batch shape is a list scan of the (always synced) wrappers —
        the independent reference the event core's tick heaps are pinned
        against.  Returns ``(clock, steps, communication_time)``.
        """
        # The batch composition is fixed for the whole epoch, so the FCFS
        # head's admissibility is too: the epoch can only be cut by the
        # head's arrival, and only if it would fit.
        cut_arrival = None
        if pending and self._fits(pending[0], len(running), shard_reserved,
                                  shard_limit, prefix):
            cut_arrival = pending[0].arrival_time
        clock, steps, first_clock, comm_per_step = self._price_epoch(
            len(running), max(r.context_length for r in running),
            min(r.remaining for r in running), cut_arrival, clock, memory)
        self._finish_epoch(running, sink, steps, first_clock, clock, prefix)
        return clock, steps, steps * comm_per_step

    def _finish_epoch(self, running: list[_RunningRequest], sink,
                      steps: int, first_clock: float, end_clock: float,
                      prefix: _PrefixCache) -> None:
        """Apply an epoch's effects to the batch list.

        All running requests decrement uniformly, so the finishers are
        exactly the requests whose remaining output equalled the steps
        taken, and first tokens land at the epoch's first cumulative clock.
        """
        for request in running:
            request.generated += steps
            if request.first_token_time is None:
                request.first_token_time = first_clock
        finished = [r for r in running if r.remaining <= 0]
        for done in finished:
            self._complete(done, sink, end_clock, prefix)
        if finished:
            # The epoch ends here; serve_clock_loop recomputes the
            # reservation totals from the surviving batch before the next
            # admission.
            running[:] = [r for r in running if r.remaining > 0]


def run_stepwise(simulator: InferenceSimulator,
                 workload: Workload) -> InferenceTrace:
    """``simulator.run(workload)`` with every decode step priced alone.

    The system's own ``run`` still drives the serve (vLLM wraps it in
    waves); only its decode loop is swapped for :func:`_decode_stepwise`,
    on this instance and for this call.
    """
    simulator._run_decode = MethodType(_decode_stepwise, simulator)
    try:
        return simulator.run(workload)
    finally:
        del simulator._run_decode


def _decode_stepwise(simulator: InferenceSimulator, workload: Workload,
                     memory: MemoryHierarchy, trace: InferenceTrace) -> None:
    """The per-step decode loop: plan, price, and ledger one step at a time."""
    for step in range(workload.output_len):
        plan = plan_decode_step(simulator, step, workload)
        timing = step_timing(simulator, plan, step, workload, memory)
        simulator._apply_memory(plan, workload, memory)
        trace.add_step(replace(
            timing,
            gpu_used_bytes=memory.gpu.used_bytes,
            cpu_used_bytes=memory.cpu.used_bytes,
        ))
