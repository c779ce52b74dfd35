"""Counters, histograms, and the registry snapshot."""

import json
import threading

import pytest

from repro.service.metrics import OP_LATENCY_BOUNDS, Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("requests")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_negative(self):
        c = Counter("requests")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_thread_safety(self):
        c = Counter("requests")
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestHistogram:
    def test_empty_snapshot(self):
        h = Histogram("latency")
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["p99"] == 0.0

    def test_exact_count_sum_min_max(self):
        h = Histogram("latency")
        for value in (0.001, 0.01, 0.1, 1.0):
            h.observe(value)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(1.111)
        assert snap["min"] == pytest.approx(0.001)
        assert snap["max"] == pytest.approx(1.0)

    def test_quantile_is_bucket_upper_bound(self):
        h = Histogram("latency", bounds=(0.1, 1.0, 10.0))
        for _ in range(99):
            h.observe(0.05)
        h.observe(5.0)
        assert h.quantile(0.5) == 0.1
        # The top bucket's bound (10.0) is past every observation: clamped.
        assert h.quantile(1.0) == 5.0

    def test_quantiles_never_exceed_observed_max(self):
        """Three ~10 µs ops in the 20 µs bucket report p99 = max, not 20 µs."""
        h = Histogram("op_seconds", OP_LATENCY_BOUNDS)
        for value in (10.0e-6, 10.2e-6, 10.4e-6):
            h.observe(value)
        snap = h.snapshot()
        assert snap["max"] == 10.4e-6
        assert snap["p50"] == snap["p90"] == snap["p99"] == 10.4e-6

    def test_overflow_bucket_reports_exact_max(self):
        h = Histogram("latency", bounds=(0.1,))
        h.observe(123.456)
        assert h.quantile(0.99) == pytest.approx(123.456)

    def test_quantile_out_of_range(self):
        h = Histogram("latency")
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(2.0, 1.0))

    def test_default_bounds_accepted(self):
        h = Histogram("latency")
        h.observe(0.5)
        assert h.count == 1


class TestMetricsRegistry:
    def test_counter_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.histogram("latency").observe(0.25)
        registry.register_gauge("depth", lambda: 7)
        snap = registry.snapshot()
        text = json.dumps(snap)
        assert "requests" in text
        assert snap["counters"]["requests"] == 3
        assert snap["histograms"]["latency"]["count"] == 1
        assert snap["gauges"]["depth"] == 7

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zebra")
        registry.counter("apple")
        assert list(registry.snapshot()["counters"]) == ["apple", "zebra"]
