"""Percentiles and the sample-count rule."""

import pytest

from bench import stats


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_p95_needs_ten_samples_beyond_it():
    assert not stats.percentile_supported(199, 95.0)
    assert stats.percentile_supported(200, 95.0)
    assert stats.percentile_supported(1200, 95.0)
    assert not stats.percentile_supported(1200, 99.9)
    assert stats.supported_percentile([1.0] * 40, 95.0) is None
    assert stats.supported_percentile([1.0] * 199 + [9.0], 95.0) == 1.0

