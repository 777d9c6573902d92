"""The exact order statistic the log-bucket sketches are bounded against."""

import numpy as np

from repro.serving.sketches import ALPHA


def within_sketch_bound(estimate: float, values, q: float) -> bool:
    """Whether ``estimate`` lies within relative ``ALPHA`` of the exact
    lower order statistic ``np.percentile(values, q, method="lower")``
    (up to float rounding at a bucket edge)."""
    exact = float(np.percentile(list(values), q, method="lower"))
    return abs(estimate - exact) <= ALPHA * exact * (1.0 + 1e-12)
