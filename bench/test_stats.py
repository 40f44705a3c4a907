"""Unit checks for the benchmark's order statistics.

    python3 -m pytest bench/test_stats.py
"""

import pytest

from stats import MIN_BEYOND, min_samples, percentile, spread


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_percentile_needs_min_beyond_samples(q):
    need = min_samples(q)
    for n in range(1, need):
        assert percentile([float(i) for i in range(n)], q) is None
    values = [float(i) for i in range(need)]
    value = percentile(values, q)
    assert value is not None
    assert sum(1 for v in values if v > value) >= MIN_BEYOND


def test_p90_sample_counts():
    assert min_samples(0.9) == 100
    assert percentile(list(range(99)), 0.9) is None
    assert percentile(list(range(100)), 0.9) == 89
    assert percentile(list(range(1, 201)), 0.5) == 100


def test_percentile_rejects_bad_q():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 1.0)


def test_spread_is_interquartile_share_of_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3)
