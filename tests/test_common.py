"""Unit tests for repro._common utilities."""

import numpy as np
import pytest

from repro._common import (
    ConfigurationError,
    chunked,
    dtype_bytes,
    log_softmax,
    round_half_up,
    rng,
    softmax,
    unique_preserving_order,
    validate_fraction,
    validate_positive,
)


class TestSoftmax:
    def test_sums_to_one(self):
        out = softmax(np.array([1.0, 2.0, 3.0]))
        assert np.isclose(out.sum(), 1.0)

    def test_monotonic_in_logits(self):
        out = softmax(np.array([1.0, 2.0, 3.0]))
        assert out[0] < out[1] < out[2]

    def test_stable_for_large_logits(self):
        out = softmax(np.array([1e4, 1e4 + 1.0]))
        assert np.all(np.isfinite(out))
        assert np.isclose(out.sum(), 1.0)

    def test_axis_argument(self):
        x = np.arange(6, dtype=float).reshape(2, 3)
        out = softmax(x, axis=0)
        assert np.allclose(out.sum(axis=0), 1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.array([0.5, -1.0, 2.0])
        assert np.allclose(log_softmax(x), np.log(softmax(x)))


class TestDtypeBytes:
    @pytest.mark.parametrize("name,expected", [("fp32", 4), ("fp16", 2),
                                               ("int8", 1), ("int4", 0.5)])
    def test_known_dtypes(self, name, expected):
        assert dtype_bytes(name) == expected

    def test_unknown_dtype_raises(self):
        with pytest.raises(ConfigurationError):
            dtype_bytes("bf17")


class TestRounding:
    @pytest.mark.parametrize("value,expected", [(0.4, 0), (0.5, 1), (1.5, 2),
                                                (2.49, 2), (10.5, 11)])
    def test_round_half_up(self, value, expected):
        assert round_half_up(value) == expected


class TestValidators:
    def test_validate_positive_accepts_positive(self):
        validate_positive(a=1, b=0.5)

    @pytest.mark.parametrize("value", [0, -1, None, float("nan")])
    def test_validate_positive_rejects(self, value):
        with pytest.raises(ConfigurationError):
            validate_positive(x=value)

    def test_validate_fraction_accepts_bounds(self):
        validate_fraction(a=0.0, b=1.0, c=0.5)

    @pytest.mark.parametrize("value", [-0.1, 1.1, None])
    def test_validate_fraction_rejects(self, value):
        with pytest.raises(ConfigurationError):
            validate_fraction(x=value)


class TestCollections:
    def test_unique_preserving_order(self):
        assert unique_preserving_order([3, 1, 3, 2, 1]) == [3, 1, 2]

    def test_chunked_splits_evenly(self):
        assert chunked([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_chunked_last_partial(self):
        assert chunked([1, 2, 3], 2) == [[1, 2], [3]]

    def test_chunked_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            chunked([1], 0)

    def test_rng_is_deterministic(self):
        assert rng(7).integers(0, 100, 5).tolist() == rng(7).integers(0, 100, 5).tolist()
