"""Unit tests for bench helpers: model construction, RSS
normalisation, compare, merge."""

import pytest

from repro import bench
from repro.bench import (
    _make_model,
    _normalise_rss_kb,
    compare_bench,
    merge_bench,
)


class TestRssNormalisation:
    def test_linux_reports_kb_unchanged(self):
        assert _normalise_rss_kb(123_456, platform_name="linux") == 123_456

    def test_darwin_reports_bytes_converted(self):
        assert _normalise_rss_kb(123_456 * 1024, platform_name="darwin") \
            == 123_456

    def test_default_platform_is_consistent(self):
        # whatever the host is, the helper must be deterministic on it
        assert _normalise_rss_kb(2048) == _normalise_rss_kb(2048)

    def test_darwin_rounds_down_partial_kb(self):
        assert _normalise_rss_kb(1536, platform_name="darwin") == 1


class TestCompareRows:
    def _payload(self, **metrics):
        base = {
            "forward_s": 1.0,
            "backward_s": 2.0,
            "train_epoch_s": 3.0,
            "tracemalloc_peak_mb": 10.0,
            "peak_rss_delta_kb": 500,
        }
        base.update(metrics)
        return {"suites": {"deep": base}}

    def test_rss_delta_is_compared(self):
        diff = compare_bench(
            self._payload(peak_rss_delta_kb=1000),
            self._payload(peak_rss_delta_kb=500),
        )
        rows = {
            r["metric"]: r for r in diff["rows"] if r["suite"] == "deep"
        }
        assert rows["peak_rss_delta_kb"]["speedup"] == 2.0

    def test_time_speedup_is_old_over_new(self):
        diff = compare_bench(
            self._payload(train_epoch_s=3.0),
            self._payload(train_epoch_s=1.5),
        )
        rows = {
            r["metric"]: r for r in diff["rows"] if r["suite"] == "deep"
        }
        assert rows["train_epoch_s"]["speedup"] == 2.0


class TestMerge:
    def _payload(self, **metrics):
        base = {
            "nodes": 1000,
            "forward_s": 1.0,
            "backward_s": 2.0,
            "train_epoch_s": 4.0,
            "nodes_per_s": 250.0,
            "tracemalloc_peak_mb": 10.0,
            "peak_rss_kb": 5000,
            "peak_rss_delta_kb": 500,
        }
        base.update(metrics)
        return {"suites": {"deep": base}}

    def test_takes_elementwise_minimum(self):
        merged = merge_bench(
            self._payload(forward_s=1.0, train_epoch_s=5.0),
            self._payload(forward_s=0.5, train_epoch_s=8.0),
        )
        deep = merged["suites"]["deep"]
        assert deep["forward_s"] == 0.5
        assert deep["train_epoch_s"] == 5.0

    def test_throughput_follows_merged_epoch(self):
        merged = merge_bench(
            self._payload(train_epoch_s=2.0, nodes_per_s=500.0),
            self._payload(train_epoch_s=4.0, nodes_per_s=250.0),
        )
        assert merged["suites"]["deep"]["nodes_per_s"] == 500.0

    def test_counts_merged_runs(self):
        once = merge_bench(self._payload(), self._payload())
        twice = merge_bench(once, self._payload())
        assert once["merged_runs"] == 2
        assert twice["merged_runs"] == 3

    def test_suites_union_is_kept(self):
        old = self._payload()
        new = {"suites": {"wide": {"nodes": 7, "forward_s": 0.1}}}
        merged = merge_bench(old, new)
        assert set(merged["suites"]) == {"deep", "wide"}


class TestMakeModel:
    def test_variant_picks_propagation_path(self):
        assert _make_model(4, 1, "compiled").compiled
        assert not _make_model(4, 1, "reference").compiled

    def test_constructor_error_is_not_retried(self, monkeypatch):
        calls = []

        def broken(**kwargs):
            calls.append(kwargs)
            raise TypeError("bad model argument")

        monkeypatch.setattr(bench, "DeepGate", broken)
        with pytest.raises(TypeError, match="bad model argument"):
            _make_model(4, 1, "compiled")
        assert len(calls) == 1 and calls[0]["compiled"] is True
