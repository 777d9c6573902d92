"""Slow, independent reference implementations the fast paths are pinned to.

Nothing under ``src/`` imports this package; tests and benchmarks compare
the production serving and offline paths against it with exact ``==``,
and the streaming percentile sketches against the exact order statistic.
"""

from .quantiles import within_sketch_bound
from .stepped import SteppedEngine, run_stepwise

__all__ = ["SteppedEngine", "run_stepwise", "within_sketch_bound"]
