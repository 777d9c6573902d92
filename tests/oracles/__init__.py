"""Slow, independent reference implementations the fast paths are pinned to.

Nothing under ``src/`` imports this package; tests and benchmarks compare
the production serving, offline and epoch-pricing paths against it with
exact ``==``, the streaming percentile sketches against the exact order
statistic, and the schedule cache's nearest lookup against a linear scan.
"""

from .quantiles import within_sketch_bound
from .schedule import nearest_by_scan
from .stepped import SteppedEngine, run_stepwise

__all__ = ["SteppedEngine", "nearest_by_scan", "run_stepwise",
           "within_sketch_bound"]
