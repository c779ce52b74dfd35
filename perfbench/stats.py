"""Percentiles from raw samples, unit accounting, and peak memory.

One percentile rule serves every timing the benchmark prints: nearest
rank over the sorted raw samples, so a reported value is always one that
was observed and can never exceed the maximum.  A tail percentile (above
the median) is reported only when at least :data:`MIN_BEYOND` samples lie
beyond it; otherwise the helper returns ``None`` and the caller prints
"n/a" beside the sample count.
"""

from __future__ import annotations

import math
import resource
import time
from collections import Counter
from typing import Dict, Optional, Sequence, Tuple

#: Samples that must lie strictly beyond a tail percentile to report it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of raw samples.

    The median and lower percentiles need one sample; a percentile above
    the median needs :data:`MIN_BEYOND` samples beyond its rank.  Returns
    ``None`` when the rule is not met or there are no samples.
    """
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if q > 50.0 and n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def describe(samples: Sequence[float], scale: float = 1.0) -> Dict[str, Optional[float]]:
    """Sample count, median, p90, p99 and max of ``samples`` times ``scale``."""
    def scaled(value: Optional[float]) -> Optional[float]:
        return None if value is None else value * scale

    return {
        "n": len(samples),
        "p50": scaled(percentile(samples, 50)),
        "p90": scaled(percentile(samples, 90)),
        "p99": scaled(percentile(samples, 99)),
        "max": scaled(max(samples)) if samples else None,
    }


class Tally:
    """Units attempted and units failed, with the reason for each failure.

    A unit fails when it errors, is rejected, degraded or shed, or fails
    an output check; ``error_rate`` is failed over attempted.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason or "failed"] += 1
        return ok

    def fail(self, reason: str) -> None:
        """Fail a check that spans a whole round of already-counted units.

        The reason is always kept; ``failed`` grows only while it is below
        ``attempted``, so the error rate stays a share of the units.
        """
        self.reasons[reason] += 1
        if self.failed < self.attempted:
            self.failed += 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its reaped children.

    Time the hypervisor steals from the virtual CPUs is not counted, so
    CPU-based figures stay put when a neighbour loads the machine; wall
    clock figures do not.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def vcpu_ticks() -> Tuple[int, int]:
    """Clock ticks all CPUs spent busy and stolen so far, from ``/proc/stat``.

    Steal is time a virtual CPU had work but its host ran something else;
    it stretches wall clock the way no change to the program could.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def peak_rss_mb() -> Dict[str, float]:
    """Peak resident set of this process and of its largest reaped child, MiB.

    ``RUSAGE_CHILDREN`` reports the maximum over children that have been
    waited for, so pools must be shut down before this is read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"parent": own, "largest_child": child, "total": own + child}
