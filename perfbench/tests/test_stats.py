import math

import pytest

from perfbench.stats import (
    latency_summary,
    percentile,
    percentile_label,
    quartile_spread,
    supported_tail,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2  # order of input does not matter


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


@pytest.mark.parametrize(
    "count, tail",
    [(10, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_supported_tail_needs_ten_samples_beyond(count, tail):
    assert supported_tail(count) == tail


def test_latency_summary_reports_sample_count_and_tail():
    summary = latency_summary([float(v) for v in range(1, 201)])
    assert summary["samples"] == 200
    assert summary["p50"] == 100.0
    assert summary["tail"] == "p95"
    assert summary["tail_value"] == 190.0


def test_failures_count_as_missing_every_limit():
    summary = latency_summary([1.0] * 90, failures=10)
    assert summary["samples"] == 100
    assert summary["tail"] == "p90"
    assert summary["tail_value"] == 1.0
    summary = latency_summary([1.0] * 89, failures=11)
    assert math.isinf(summary["tail_value"])


def test_short_run_has_median_but_no_tail():
    summary = latency_summary([5.0, 6.0, 7.0])
    assert summary["p50"] == 6.0
    assert summary["tail"] is None and summary["tail_value"] is None


def test_percentile_label():
    assert percentile_label(90.0) == "p90"
    assert percentile_label(99.9) == "p99.9"


def test_quartile_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles (exclusive): q1 = 2.75, q3 = 8.25, median 5.5
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert quartile_spread([4.0] * 10) == 0.0
