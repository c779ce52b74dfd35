"""Counters and histograms for the shedding service.

The service's observability surface is deliberately dependency-free: a
handful of lock-guarded counters and fixed-bucket histograms that export
as one nested plain dict via :meth:`MetricsRegistry.snapshot`, which the
``repro-shed serve``/``submit`` CLI modes print either human-readably or
as JSON.  Histograms use logarithmic latency buckets, so quantile
estimates are deterministic (bucket upper bounds, never sampled) and the
memory footprint is constant regardless of traffic.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "OP_LATENCY_BOUNDS",
    "latency_us_summary",
]

#: Default histogram bucket upper bounds, in seconds: ~100µs to 5 minutes
#: on a log scale, which brackets everything from a cache hit to a full
#: CRR run on a large surrogate.
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Bucket upper bounds for *per-op* churn latencies, in seconds: ~2µs to
#: 100ms on a log scale.  The incremental maintainer runs at tens of
#: microseconds per op, far below the service's request-scale default
#: buckets, so op-latency histograms (CLI ``dynamic``, streaming
#: sessions) need their own resolution.
OP_LATENCY_BOUNDS: Tuple[float, ...] = (
    2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
)


def latency_us_summary(histogram: "Histogram") -> Dict[str, float]:
    """p50/p90/p99/max of a seconds-valued histogram, in microseconds.

    The shared rendering for per-op latency telemetry: the CLI ``dynamic``
    subcommand and the session layer both report this shape, so their
    numbers are directly comparable (same buckets, same conservative
    bucket-upper-bound quantiles).
    """
    snap = histogram.snapshot()
    return {
        "p50": snap["p50"] * 1e6,
        "p90": snap["p90"] * 1e6,
        "p99": snap["p99"] * 1e6,
        "max": snap["max"] * 1e6,
    }


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot add {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    Quantiles are conservative — the upper bound of the bucket holding the
    q-th observation, clamped to the observed maximum — which keeps them
    deterministic and allocation-free, and never outside ``[min, max]``
    (the bound is at least the observation it covers, so at least the
    minimum).  Good enough for the latency telemetry the service reports.
    """

    __slots__ = ("name", "_bounds", "_buckets", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self._bounds = tuple(bounds) if bounds is not None else DEFAULT_BUCKET_BOUNDS
        if any(nxt <= prev for prev, nxt in zip(self._bounds, self._bounds[1:])):
            raise ValueError(f"histogram {name}: bounds must be strictly increasing")
        # One overflow bucket past the last bound.
        self._buckets = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._buckets[bisect_left(self._bounds, value)] += 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        return self._count

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the ``q``-th observation.

        Clamped to the observed maximum (the overflow bucket reports it
        exactly).  Returns 0.0 when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            return self._quantile(q)

    def _quantile(self, q: float) -> float:
        """:meth:`quantile` with the lock already held."""
        if self._count == 0:
            return 0.0
        rank = max(1, int(round(q * self._count)))
        seen = 0
        for index, bucket_count in enumerate(self._buckets):
            seen += bucket_count
            if seen >= rank:
                if index < len(self._bounds):
                    return min(self._bounds[index], self._max)
                return self._max
        return self._max

    def snapshot(self) -> Dict[str, float]:
        """Summary dict: count, sum, mean, min/max, p50/p90/p99 estimates.

        Read under one lock acquisition, so the quantiles describe the
        same observations as the count, min and max beside them.
        """
        with self._lock:
            if self._count == 0:
                return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                        "p50": 0.0, "p90": 0.0, "p99": 0.0}
            return {
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count,
                "min": self._min,
                "max": self._max,
                "p50": self._quantile(0.5),
                "p90": self._quantile(0.9),
                "p99": self._quantile(0.99),
            }


class MetricsRegistry:
    """Named counters, histograms and gauges, exported as one plain dict.

    Gauges are registered as zero-argument callables and sampled at
    snapshot time — used for instantaneous values like queue depth or
    resident cache bytes that are owned by other components.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        """Get or create the histogram ``name``."""
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, bounds)
            return self._histograms[name]

    def register_gauge(self, name: str, sample: Callable[[], float]) -> None:
        """Register a callable sampled at snapshot time."""
        with self._lock:
            self._gauges[name] = sample

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Nested plain dict of every metric — JSON-serialisable as-is."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            gauges = dict(self._gauges)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "histograms": {name: h.snapshot() for name, h in sorted(histograms.items())},
            "gauges": {name: sample() for name, sample in sorted(gauges.items())},
        }
