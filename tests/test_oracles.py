"""The test-only oracles in ``tests/oracles`` stay independent and complete.

The oracle is only worth pinning against if it shares none of the code it
pins: no event core, price memos, or vectorized planning and pricing (and
``src/`` keeps no per-step twin of those).  And
since no serve option is reserved for the production path any more, the
stepped engine serves every scheduling feature through the event core and
agrees with the memoized engine on all of them.
"""

import ast
import dataclasses
import pathlib

import pytest

from repro.baselines import FlexGenSystem
from repro.faults import FaultEvent, FaultSchedule
from repro.hardware.presets import V100_16GB_NODE
from repro.obs import SpanTracer
from repro.serving import ContinuousBatchingEngine
from repro.workloads.arrivals import (
    SLO_CLASSES,
    RequestStream,
    generate_requests,
)
from repro.workloads.sessions import sessions
from tests.oracles import SteppedEngine

ORACLES = pathlib.Path(__file__).resolve().parent / "oracles"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: The event driver, the price memos, and the vectorized decode planning
#: and pricing the oracle is pinned against.
FORBIDDEN = {"EngineRun", "drive", "serve_replicas", "start_run",
             "_epoch_cache", "_prefill_prices", "epoch_timings",
             "plan_decode_epoch", "step_table", "decode_attention_split",
             "decode_step_time_batch"}

#: The per-step reference only the oracle keeps, and the oracle package.
ORACLE_ONLY = {"plan_decode_step", "step_timing", "from_step_plans", "tests"}


def forbidden_uses(source: str, forbidden: set[str] = FORBIDDEN) -> set[str]:
    """Forbidden names ``source`` imports, defines, references, or reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # Each imported name, and the top-level package it comes from.
            paths = [alias.name for alias in node.names]
            packages = [getattr(node, "module", None) or ""] + paths
            names = ({path.rsplit(".", 1)[-1] for path in paths}
                     | {path.split(".", 1)[0] for path in packages})
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = {node.name}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = {node.value}  # getattr(engine, "_epoch_cache")
        else:
            continue
        found |= names & forbidden
    return found


class TestOracleIndependence:
    def test_oracles_never_touch_the_event_core_or_memos(self):
        sources = sorted(ORACLES.glob("*.py"))
        assert sources
        for path in sources:
            assert forbidden_uses(path.read_text()) == set(), path.name

    def test_scanner_catches_each_kind_of_use(self):
        assert forbidden_uses(
            "from repro.serving.events import drive") == {"drive"}
        assert forbidden_uses(
            "from repro.serving.engine import EngineRun") == {"EngineRun"}
        assert forbidden_uses("x = engine._epoch_cache") == {"_epoch_cache"}
        assert forbidden_uses(
            "getattr(engine, '_prefill_prices')") == {"_prefill_prices"}
        assert forbidden_uses("engine.start_run(trace)") == {"start_run"}
        for name in ("epoch_timings", "plan_decode_epoch", "step_table",
                     "decode_attention_split", "decode_step_time_batch"):
            assert forbidden_uses(f"simulator.{name}(workload)") == {name}
        for source, name in (
                ("import tests.oracles", "tests"),
                ("from tests.oracles import run_stepwise", "tests"),
                ("def plan_decode_step(self, step): ...", "plan_decode_step"),
                ("simulator.step_timing(plan)", "step_timing"),
                ("EpochPlan.from_step_plans(plans)", "from_step_plans")):
            assert forbidden_uses(source, ORACLE_ONLY) == {name}

    def test_src_keeps_no_per_step_reference(self):
        # One decode planner per system: the per-step planner and pricing
        # are test-only, and nothing in src/ reaches into tests/.
        sources = sorted(SRC.rglob("*.py"))
        assert sources
        for path in sources:
            assert forbidden_uses(path.read_text(), ORACLE_ONLY) == set(), \
                path.relative_to(SRC)


MODEL = "opt-6.7b"


def requests():
    """A bursty trace whose odd requests are interactive."""
    return [dataclasses.replace(request, slo_class=SLO_CLASSES[index % 2])
            for index, request in enumerate(generate_requests(
                16, 4.0, pattern="bursty", seed=3, max_len=512))]


def chat():
    return sessions(8, 2.0, seed=3, interactive_fraction=0.5,
                    mean_turns=3.0, max_context=1024, mean_new_input=48,
                    mean_output=64)


#: Every serve feature, as ``(engine kwargs, source factory, serve kwargs,
#: witness)``; the witness proves the feature fired in the memoized serve.
FEATURES = {
    "preemption": (dict(max_batch_size=4, preemption="retain"), requests,
                   {}, lambda t: t.metadata["preemption"]["count"] > 0),
    "chunked-prefill": (dict(prefill_chunk_tokens=64), requests, {},
                        lambda t: t.metadata["prefill_chunking"][
                            "num_chunks"] > 16),
    "closed-loop": (dict(max_batch_size=4, preemption="recompute"),
                    lambda: chat().closed_loop(), {},
                    lambda t: t.num_requests > 8),
    "stream": ({}, lambda: RequestStream(12, rate=2.0, input_len=64,
                                         output_len=32, seed=1),
               {"record_mode": "streaming"},
               lambda t: t.metadata["epoch_cache"]["hits"] > 0),
    "faults": ({}, requests, {"faults": FaultSchedule(
        [FaultEvent(0, 2.0, 4.0, mode="crash")])},
        lambda t: t.metadata["resilience"]["num_retries"] > 0),
}


class TestSteppedEngineServesEveryFeature:
    @pytest.mark.parametrize("feature", sorted(FEATURES))
    def test_matches_memoized_engine(self, feature):
        engine_kwargs, source, serve_kwargs, witness = FEATURES[feature]
        traces = []
        for engine_type in (ContinuousBatchingEngine, SteppedEngine):
            engine = engine_type(FlexGenSystem(MODEL, V100_16GB_NODE),
                                 **engine_kwargs)
            tracer = SpanTracer()
            trace = engine.serve(source(), observers=[tracer],
                                 **serve_kwargs)
            traces.append((trace, tracer))
        (fast, fast_tracer), (stepped, stepped_tracer) = traces
        assert witness(fast)
        assert fast.summary() == stepped.summary()
        if hasattr(fast, "records"):
            assert fast.records == stepped.records
        assert fast_tracer.components == stepped_tracer.components
        assert stepped.metadata["epoch_cache"] == {"hits": 0, "misses": 0}
