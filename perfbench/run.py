"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream-poisson --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload

With ``--trace 0`` the run measures the end-to-end metrics: two processes
that only set up, then one that sets up and repeats the workload for
``--seconds``; each is a fresh interpreter with one BLAS/OpenMP thread.
``setup_s`` is the median of the three set-ups, ``host_us_per_req`` the
median over the repetitions, and ``peak_rss_mb`` is read after the first.
With ``--trace 1`` one process warms up, times an untraced repetition,
then a traced one, and reports the per-layer metrics (spans go to
``.perfbench/`` at the repository root).

The report lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402
from perfbench.suite import WORKLOADS  # noqa: E402

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A run must finish within this many seconds.
RUN_BUDGET_S = 170.0

_PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run at all (no result is printed)."""


def _child(name: str, seed: int, mode: str, seconds: float, scale: float,
           deadline: float, spans_path: str = "") -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(_PINNED_THREADS, "1"))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    spawned = time.monotonic()
    command = [sys.executable, "-m", "perfbench.child", name, str(seed),
               mode, repr(seconds), repr(scale), repr(spawned), spans_path]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: {mode} process timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"{name}: {mode} process exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _verdict(reps: list[dict]) -> tuple[list[str], dict | None]:
    """Errors over all repetitions, and the first outcome there is."""
    errors = []
    outcomes = [rep["outcome"] for rep in reps if rep["outcome"]]
    for index, rep in enumerate(reps):
        if rep["error"]:
            errors.append(f"repetition {index} raised:\n{rep['error']}")
        elif rep["outcome"]["errors"]:
            errors.extend(f"repetition {index}: {error}"
                          for error in rep["outcome"]["errors"])
    if len({outcome["digest"] for outcome in outcomes}) > 1:
        errors.append("simulated results differ between repetitions of "
                      "the same seed")
    return errors, (outcomes[0] if outcomes else None)


def _metric(name: str, value: float, table: dict) -> dict:
    return {"value": value, "unit": table[name][0]}


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> tuple[dict, list[str]]:
    """One run: the JSON result and the report lines."""
    deadline = time.monotonic() + RUN_BUDGET_S
    lines = [f"perfbench workload={name} seed={seed} trace={int(trace)} "
             f"seconds={seconds:g}"]
    if trace:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{name}-seed{seed}.npz"
        run = _child(name, seed, "trace", seconds, scale, deadline,
                     str(spans_path))
        setups = [run["setup_s"]]
    else:
        setups = [_child(name, seed, "setup", seconds, scale,
                         deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        run = _child(name, seed, "measure", seconds, scale, deadline)
        setups.append(run["setup_s"])
    reps = run["reps"]
    errors, first = _verdict(reps)
    sim = dict.fromkeys(metrics.REPORTED, 0.0)
    if first is not None:
        sim.update(first["sim"])
    # The timing of a traced run comes from its untraced repetition.
    timed = reps[1:2] if trace else reps
    requests = first["requests"] if first else 1
    tokens = first["tokens"] if first else 0
    wall_s = statistics.median(rep["wall_s"] for rep in timed)
    if tokens:
        sim["eval_tok_per_s"] = tokens / wall_s
    host = {
        "setup_s": statistics.median(setups),
        "host_us_per_req": wall_s * 1e6 / requests,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    # A traced run prints the reported metrics with the per-layer ones.
    tables = ((metrics.END_TO_END, host),) if trace else (
        (metrics.END_TO_END, host), (metrics.REPORTED, sim))
    for table, values in tables:
        for metric, (unit, _, kind, workloads) in table.items():
            if name in workloads:
                lines.append(f"  {metric:<20} {values[metric]:.6g} {unit} "
                             f"({kind})")
    if first is not None:
        if first["counts"]:
            lines.append("  simulated " + " ".join(
                f"{key}={value}" for key, value in first["counts"].items()))
        lines.append(f"  sim_digest {first['digest']}")
    lines.append(f"  repetitions {len(reps)}, wall s: " + " ".join(
        f"{rep['wall_s']:.3f}" for rep in reps))
    failed = sum(not rep["ok"] for rep in reps)
    lines.append(f"  check {'ok' if not errors else 'FAILED'}, failed "
                 f"operations {failed}/{len(reps)}")
    lines.extend("  " + error for error in errors)
    if trace:
        values = dict(run["layers"])
        values.update(sim)
        for metric, (unit, _, moves, _) in metrics.PER_LAYER.items():
            target = (f" -> {', '.join(moves)}"
                      if moves and moves != (metric,) else "")
            lines.append(f"  {metric:<36} {values[metric]:.6g} {unit}"
                         f"{target}")
        reported = {metric: _metric(metric, values[metric],
                                    metrics.PER_LAYER)
                    for metric in metrics.PER_LAYER}
    else:
        reported = {metric: _metric(metric, host[metric],
                                    metrics.END_TO_END)
                    for metric in metrics.END_TO_END}
    result = {"correct": not errors, "attempted": len(reps),
              "failed": failed, "metrics": reported}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (smoke tests only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name], lines = measure(name, args.seed, args.seconds,
                                           bool(args.trace), args.scale)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
