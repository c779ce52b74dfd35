"""In-memory spans around the benchmark's calls into each layer.

A traced run opens a span around every call the benchmark makes into a
layer's public functions, keeps the spans in memory, and writes them at
the end as Chrome trace-event JSON (``{"traceEvents": [...]}``), which
Perfetto and ``chrome://tracing`` open directly.  Span names are the
per-layer metric names without their unit suffix (``graph.io.read`` feeds
``graph.io.read_s``), and the name's first dotted part is its category.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int, Dict[str, Any]]


class Tracer:
    """Collects spans: name, start, end, thread and attributes."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), **attrs)

    def add(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Record an interval measured elsewhere (``perf_counter`` clock)."""
        with self._lock:
            self.spans.append((name, start, end, threading.get_ident(), attrs))

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for span_name, start, end, _, _ in self.spans if span_name == name)

    def covered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by at least one span."""
        intervals = sorted(
            (max(s, start), min(e, end)) for _, s, e, _, _ in self.spans if e > start and s < end
        )
        covered = 0.0
        cursor = start
        for s, e in intervals:
            if e > cursor:
                covered += e - max(s, cursor)
                cursor = e
        return covered

    def write_chrome(self, path: Path) -> None:
        """Write every span as a complete ("X") Chrome trace event."""
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - self._origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": attrs,
            }
            for name, start, end, tid, attrs in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, default=str),
            encoding="utf-8",
        )


def maybe_span(tracer: Optional[Tracer], name: str, **attrs: Any) -> ContextManager:
    """``tracer.span(...)`` when tracing, else a no-op context."""
    return nullcontext() if tracer is None else tracer.span(name, **attrs)
