"""Slow, independent reference implementations the fast paths are pinned to.

Nothing under ``src/`` imports this package; tests and benchmarks compare
the production serving and offline paths against it with exact ``==``.
"""

from .stepped import SteppedEngine, run_stepwise

__all__ = ["SteppedEngine", "run_stepwise"]
