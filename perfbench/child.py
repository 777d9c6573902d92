"""One workload in a fresh interpreter; prints one JSON line.

Run by ``perfbench/run.py``, never by hand::

    python -m perfbench.child WORKLOAD SEED MODE SECONDS SCALE SPAWNED [SPANS]

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time counts interpreter start and imports.
``MODE`` is ``setup`` (stop at the first timed call), ``measure`` (repeat
the workload for ``SECONDS``) or ``trace`` (a warm-up, an untraced and a
traced repetition; spans are written to ``SPANS``).
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _repetition(bench, inputs) -> dict:
    """Run once; a raise or a failed check makes the operation failed."""
    started = time.perf_counter()
    elapsed = None
    try:
        output = bench.run(inputs)
        elapsed = time.perf_counter() - started
        result = bench.outcome(inputs, output)
    except Exception:  # noqa: BLE001 - counted as a failed operation
        if elapsed is None:
            elapsed = time.perf_counter() - started
        return {"wall_s": elapsed, "ok": False, "outcome": None,
                "error": traceback.format_exc()}
    return {"wall_s": elapsed, "ok": not result["errors"],
            "outcome": result, "error": None}


def _traced(bench, inputs, setup: dict, spans_path: str):
    """Warm up, time one untraced repetition, then trace one; return the
    three repetitions and the per-layer metrics."""
    from perfbench import metrics, spans

    warm = _repetition(bench, inputs)
    untraced = _repetition(bench, bench.make_input())
    inputs = bench.make_input()
    recorder = spans.SpanRecorder()
    traces: list = []
    undo = spans.install(recorder, on_serve=traces.append)
    try:
        output = recorder.run(bench.run, inputs)
    finally:
        spans.uninstall(undo)
    recorded = recorder.spans()
    traced_s = next(end - start for _, start, end, parent in recorded
                    if parent < 0)
    result = bench.outcome(inputs, output)
    self_s, calls = spans.layer_totals(recorded)
    covered = sum(self_s.values())
    if abs(covered - traced_s) > 1e-9 * (1.0 + traced_s):
        result["errors"].append(f"layer self times sum to {covered} s, "
                                f"traced wall time is {traced_s} s")
    traced = {"wall_s": traced_s, "ok": not result["errors"],
              "outcome": result, "error": None}
    recorder.dump(spans_path)
    layers = metrics.layer_metrics(
        self_s, calls, metrics.serve_stats(traces),
        import_s=setup["import_s"], build_s=setup["build_s"],
        gc_s=recorder.gc_s, gc_collections=recorder.gc_collections,
        traced_s=traced_s, untraced_s=untraced["wall_s"])
    return [warm, untraced, traced], layers


def main(argv: list[str]) -> int:
    name, seed, mode, seconds, scale, spawned = argv[:6]
    seed, seconds = int(seed), float(seconds)
    scale, spawned = float(scale), float(spawned)
    from perfbench.suite import WORKLOADS

    workload = WORKLOADS[name]
    for module in workload.imports:
        importlib.import_module(module)
    imported = time.monotonic()
    bench = workload.build(seed, scale)
    inputs = bench.make_input()
    ready = time.monotonic()
    report = {"import_s": imported - spawned, "build_s": ready - imported,
              "setup_s": ready - spawned, "peak_rss_mb": _peak_rss_mb()}
    if mode == "measure":
        reps = [_repetition(bench, inputs)]
        # Peak memory of set-up plus one repetition: later repetitions
        # would make it depend on how many fit in the run.
        report["peak_rss_mb"] = _peak_rss_mb()
        while time.monotonic() - ready < seconds:
            reps.append(_repetition(bench, bench.make_input()))
        report["reps"] = reps
    elif mode == "trace":
        report["reps"], report["layers"] = _traced(bench, inputs, report,
                                                   argv[6])
        report["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
