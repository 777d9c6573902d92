"""In-memory span recording and the wrappers that time each layer.

The traced run installs wrappers around the public entry points of every
``repro`` layer (the ``TARGETS`` table), runs one workload repetition
inside a root span named ``other``, and reduces the recorded spans to
per-layer counts and self times.  Nothing under ``src/`` knows about it:
methods are patched on their defining class (and on every subclass that
overrides them), and functions are patched in every loaded module that
imported them by value, such as ``drive`` as seen by
``repro.cluster.group``.

A span is ``(name, start, end, parent)``.  Its *self time* is its duration
minus the durations of its direct children.  The run is single-threaded,
so children nest inside their parent and siblings never overlap; the
self times of all spans therefore sum to the root span's duration, and
``other.self_s`` (the root's own self time) is the wall time no layer
covered.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
from array import array
from time import perf_counter

#: (span name, module, attribute path) of every wrapped entry point.  A
#: ``Class.method`` path also wraps the overrides in loaded subclasses;
#: ``Class.on_*`` wraps every method with that prefix.
TARGETS = (
    ("workloads", "repro.workloads.arrivals", "RequestStream.__iter__"),
    ("workloads", "repro.workloads.recall", "generate_recall_dataset"),
    ("cluster.route", "repro.cluster.router", "Router.assign"),
    ("serving.offer", "repro.serving.engine", "EngineRun.offer"),
    ("serving.advance", "repro.serving.engine", "EngineRun.advance"),
    ("serving.close", "repro.serving.engine", "EngineRun.close"),
    ("serving.driver", "repro.serving.events", "drive"),
    ("serving.driver", "repro.cluster.group", "ReplicaGroup.serve"),
    ("serving.driver", "repro.serving.engine",
     "ContinuousBatchingEngine.serve"),
    ("serving.sink", "repro.serving.trace", "ServingTrace.observe"),
    ("serving.sink", "repro.serving.sketches", "StreamingTrace.observe"),
    ("systems.epoch_timings", "repro.systems.simulator",
     "InferenceSimulator.epoch_timings"),
    ("systems.prefill_timing", "repro.systems.simulator",
     "InferenceSimulator.prefill_timing"),
    ("systems.kv_budget", "repro.systems.simulator",
     "InferenceSimulator.gpu_kv_budget_tokens"),
    ("core.prepare", "repro.core.engine", "AlisaSystem.prepare"),
    ("core.solve", "repro.core.optimizer", "SchedulerOptimizer.solve"),
    ("core.solve", "repro.core.optimizer",
     "SchedulerOptimizer.solve_incremental"),
    ("core.schedule_cache.nearest", "repro.core.schedule_cache",
     "ScheduleCache.nearest"),
    ("core.plan_epoch", "repro.core.scheduler", "DynamicScheduler.plan_epoch"),
    ("faults", "repro.faults.coordinator", "FaultCoordinator.dispatch"),
    ("faults", "repro.faults.coordinator", "FaultCoordinator.fail"),
    ("faults", "repro.faults.coordinator", "FaultCoordinator.recover"),
    ("obs", "repro.obs.spans", "SpanTracer.on_*"),
    ("obs", "repro.obs.spans", "SpanTracer.finish"),
    ("experiments", "repro.experiments.serving", "serving_rate_sweep"),
    ("evaluation", "repro.evaluation.accuracy", "sweep_sparsity"),
    ("evaluation", "repro.evaluation.accuracy", "evaluate_policy_on_dataset"),
    ("evaluation", "repro.evaluation.metrics", "perplexity"),
    ("evaluation", "repro.evaluation.metrics", "answer_accuracy"),
    ("model", "repro.model.constructed", "build_recall_model"),
    ("model", "repro.model.generation", "teacher_forced_logits"),
    ("model", "repro.model.transformer", "InferenceSession.prefill"),
    ("model", "repro.model.transformer", "InferenceSession.decode_step"),
    ("model", "repro.model.transformer", "TransformerModel.forward"),
    ("model", "repro.model.transformer", "DecoderLayer.forward"),
    ("model", "repro.model.attention", "MultiHeadAttention.forward"),
    ("model", "repro.model.layers", "FeedForward.__call__"),
    ("attention", "repro.attention.base", "AttentionPolicy.select"),
    ("attention", "repro.attention.base", "AttentionPolicy.observe"),
    ("kvcache", "repro.kvcache.cache", "LayerKVCache.append"),
    ("kvcache", "repro.kvcache.cache", "LayerKVCache.gather"),
)

#: Span names whose self times fold into one bucket; every other span name
#: is its own bucket.
BUCKETS = {"serving.offer": "serving", "serving.advance": "serving",
           "serving.close": "serving"}

#: Name of the root span around the traced repetition.
ROOT = "other"


class SpanRecorder:
    """Keeps every span in parallel arrays until :meth:`dump`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack = [-1]
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_started = 0.0

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as span ``name`` on every call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(index)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_iter(self, name: str, fn):
        """``fn`` returns an iterator; record every item pull as a span."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pull = recorder.wrap(name, iter(fn(*args, **kwargs)).__next__)
            while True:
                try:
                    item = pull()
                except StopIteration:
                    return
                yield item

        return wrapper

    def run(self, fn, *args):
        """Call ``fn(*args)`` inside the root span, counting collector
        pauses through ``gc.callbacks``."""
        gc.callbacks.append(self._on_gc)
        index = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(index)
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_started
            self.gc_collections += 1

    def spans(self) -> list[tuple[str, float, float, int]]:
        """Every span as ``(name, start, end, parent index)``."""
        return [(self.names[n], s, e, p) for n, s, e, p in
                zip(self.name_ids, self.starts, self.ends, self.parents)]

    def dump(self, path) -> None:
        """Write the spans to ``path`` as compressed NumPy arrays."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name_ids=np.array(self.name_ids),
            starts=np.array(self.starts), ends=np.array(self.ends),
            parents=np.array(self.parents))


def self_times(spans) -> list[float]:
    """Self time of each ``(name, start, end, parent)`` span: its duration
    minus the durations of the spans whose parent it is."""
    result = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def layer_totals(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per-bucket self seconds and per-name call counts.

    A call re-entering a span of the same name (an override calling
    ``super()``, a serve calling ``drive``) is one call, not two.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, _, _, parent), own in zip(spans, self_times(spans)):
        bucket = BUCKETS.get(name, name)
        self_s[bucket] = self_s.get(bucket, 0.0) + own
        if parent < 0 or spans[parent][0] != name:
            calls[name] = calls.get(name, 0) + 1
    return self_s, calls


def _owners(module, path: str):
    """``(owner, attribute)`` pairs that hold the target ``path``."""
    head, _, attr = path.rpartition(".")
    if not head:
        return [(module, attr)]
    base = getattr(module, head)
    classes, pending = [], [base]
    while pending:
        klass = pending.pop()
        if klass not in classes:
            classes.append(klass)
            pending.extend(klass.__subclasses__())
    pairs = []
    for klass in classes:
        for name, value in vars(klass).items():
            matches = (name.startswith(attr[:-1]) if attr.endswith("*")
                       else name == attr)
            if matches and inspect.isfunction(value):
                pairs.append((klass, name))
    return pairs


def install(recorder: SpanRecorder, on_serve=None) -> list:
    """Wrap every entry point in :data:`TARGETS`; return the undo list.

    ``on_serve`` receives each trace returned by a serve wrapper.
    """
    undo = []
    wrapped: dict[int, object] = {}
    for name, module_name, path in TARGETS:
        module = importlib.import_module(module_name)
        for owner, attr in _owners(module, path):
            original = vars(owner)[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if id(original) in wrapped:
                continue
            if attr == "__iter__":
                replacement = recorder.wrap_iter(name, original)
            else:
                hook = on_serve if attr == "serve" else None
                replacement = recorder.wrap(name, original, hook)
            wrapped[id(original)] = replacement
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, replacement)
                continue
            # A function: patch every module that imported it by value.
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith(("repro", "perfbench")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        undo.append((loaded, key, original))
                        setattr(loaded, key, replacement)
    return undo


def uninstall(undo: list) -> None:
    """Restore what :func:`install` replaced."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
