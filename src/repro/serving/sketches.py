"""Mergeable relative-error quantile sketch for the serving traces.

A :class:`~repro.serving.trace.ServingTrace` folds every latency metric
into one :class:`LogBucketSketch`, so a ``record_mode="streaming"`` serve
answers percentiles in memory that does not grow with trace length, and a
cluster trace answers them by merging its replicas' sketches.

The sketch is the log-bucket scheme of DDSketch (Masson, Rim & Lee, VLDB
2019, https://arxiv.org/abs/1908.10693): a positive value ``x`` lands in
bucket ``ceil(log_gamma(x))`` with ``gamma = (1 + ALPHA) / (1 - ALPHA)``,
zeros in a bucket of their own, and a bucket reports the point within
relative ``ALPHA`` of everything it holds.  Error contract:

* below :data:`EXACT_BELOW` values the raw values are kept and a quantile
  is exact (:func:`numpy.percentile`'s linear interpolation, like the
  retained trace);
* from then on, the ``q``-th percentile is within relative ``ALPHA`` of
  the exact lower order statistic ``np.percentile(values, q,
  method="lower")``, and never outside the exact minimum and maximum;
* merging is exact: ``a.merge(b)`` leaves ``a`` in the state one sketch
  fed both streams would have, in any order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from repro._common import ConfigurationError

#: Relative accuracy of every sketch estimate (see the module docstring).
ALPHA = 0.01
#: Below this many values a sketch answers exactly.
EXACT_BELOW = 5

_GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)
_INV_LOG_GAMMA = 1.0 / math.log(_GAMMA)
#: A bucket ``(gamma**(i-1), gamma**i]`` reports ``gamma**i * _MIDPOINT``,
#: which is within relative ``ALPHA`` of both ends.
_MIDPOINT = 2.0 / (1.0 + _GAMMA)


@dataclass(slots=True)
class LogBucketSketch:
    """Counts of non-negative values in relative-width log buckets."""

    count: int = 0
    zeros: int = 0
    buckets: dict[int, int] = field(default_factory=dict)
    min: float = math.inf
    max: float = -math.inf
    #: The sorted values while fewer than :data:`EXACT_BELOW` were added.
    exact: list[float] | None = field(default_factory=list)

    def add(self, value: float) -> None:
        if not 0.0 <= value < math.inf:
            # NaN fails the comparison too, so it is refused here instead
            # of silently landing in no bucket.
            raise ConfigurationError(
                f"sketch values must be finite and >= 0, got {value!r}"
            )
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value == 0.0:
            self.zeros += 1
        else:
            index = math.ceil(math.log(value) * _INV_LOG_GAMMA)
            self.buckets[index] = self.buckets.get(index, 0) + 1
        if self.exact is not None:
            if self.count < EXACT_BELOW:
                bisect.insort(self.exact, value)
            else:
                self.exact = None

    def merge(self, other: "LogBucketSketch") -> None:
        """Fold ``other`` into this sketch."""
        self.count += other.count
        self.zeros += other.zeros
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.exact = (sorted(self.exact + other.exact)
                      if self.count < EXACT_BELOW else None)

    def quantile(self, q: float) -> float:
        """Estimate of the ``q``-th percentile, ``0 <= q <= 100``."""
        if self.count == 0:
            raise ConfigurationError(
                "the quantile of an empty sketch is undefined"
            )
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(
                f"percentile ranks must lie in [0, 100], got {q!r}"
            )
        if self.exact is not None:
            return float(np.percentile(self.exact, q))
        # Index of the lower order statistic, computed like NumPy does.
        rank = math.floor(q / 100.0 * (self.count - 1))
        seen = self.zeros
        if rank < seen:
            return 0.0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen > rank:
                estimate = _GAMMA ** index * _MIDPOINT
                return min(max(estimate, self.min), self.max)
        raise AssertionError("bucket counts do not sum to the count")


def __getattr__(name: str):
    # The benchmark's layer timer (perfbench/spans.py) names the sink
    # layer ``repro.serving.sketches.StreamingTrace.observe``; the name
    # resolves to the one trace class, whose ``observe`` it also wraps.
    if name == "StreamingTrace":
        from repro.serving.trace import ServingTrace
        return ServingTrace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
