"""Unit tests for the statistics helpers."""

import pytest

from repro.metrics.quantiles import QuantileDigest
from repro.metrics.stats import LatencySummary, mean, percentile, summarize


class TestMean:
    def test_basic(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_single(self):
        assert mean([7.0]) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_extremes(self):
        xs = [5, 1, 9, 3]
        assert percentile(xs, 0) == 1
        assert percentile(xs, 100) == 9

    def test_single_sample(self):
        assert percentile([4], 95) == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 150)


class TestSummarize:
    def test_fields(self):
        s = summarize([2.0, 4.0, 6.0])
        assert isinstance(s, LatencySummary)
        assert s.count == 3
        assert s.mean == 4.0
        assert s.min == 2.0 and s.max == 6.0
        assert s.p50 == 4.0
        assert s.std == pytest.approx((8 / 3) ** 0.5)

    def test_str_is_compact(self):
        s = summarize([1.0, 2.0])
        assert "mean=" in str(s) and "p95=" in str(s)

    def test_sem_and_ci(self):
        s = summarize([10.0, 20.0, 30.0, 40.0])
        # sample std = sqrt(sum((x-25)^2)/3) = sqrt(500/3); sem = that/2
        expected_sem = (500.0 / 3.0) ** 0.5 / 2.0
        assert s.sem == pytest.approx(expected_sem)
        assert s.ci95_halfwidth == pytest.approx(1.96 * expected_sem)

    def test_singleton_has_zero_sem(self):
        s = summarize([5.0])
        assert s.sem == 0.0 and s.ci95_halfwidth == 0.0


class TestQuantileDigest:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sample_rejected(self, bad):
        d = QuantileDigest()
        d.add(1.0)
        with pytest.raises(ValueError, match="non-finite"):
            d.add(bad)
        assert d.summary() == {"count": 1, "mean": 1.0, "p50": 1.0,
                               "p99": 1.0, "p999": 1.0, "max": 1.0}
