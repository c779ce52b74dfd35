"""Δ-drift monitoring against the Theorem-2 envelope, with hysteresis.

"Demystifying Graph Sparsification Algorithms in Graph Properties
Preservation" (see PAPERS.md) observes that sparsifier quality degrades
*silently* under distribution shift; the incremental maintainer therefore
tracks its live ``Δ`` against the only quality promise the paper's offline
algorithm makes — Theorem 2's total-discrepancy envelope

    ``Δ_max(G) = (1/2 + (1−p)·|E|/|V|) · |V| = |V|/2 + (1−p)·|E|``

evaluated at the *live* ``|V|``/``|E|``.  Crossing ``drift_ratio ×
Δ_max`` schedules a full re-shed (amortized: a rebuild is O(|E|), so a
``cooldown_ops`` floor keeps the per-op cost O(|E|/cooldown)).  Two
anti-thrash guards:

* **hysteresis** — after a rebuild the monitor disarms until Δ has dipped
  below ``hysteresis × drift_ratio × Δ_max``, so a rebuild that lands near
  the threshold cannot immediately re-trigger;
* **cooldown** — at least ``cooldown_ops`` observations must pass between
  rebuilds regardless of Δ.  The cooldown window expiring also re-arms the
  monitor (hysteresis only suppresses rebuilds *within* the window) — a
  rebuild that lands between the hysteresis line and the threshold must
  not starve future rebuilds forever.

The monitor is pure policy: it never touches the graphs.  It consumes the
tracker's O(1) :attr:`~repro.dynamic.DynamicDegreeTracker.approx_delta`
(drift decisions do not need bit-exactness; checkpoints do and use
:meth:`~repro.dynamic.DynamicDegreeTracker.exact_delta`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bounds import bm2_average_delta_bound
from repro.core.base import validate_ratio

__all__ = ["DriftMonitor", "DriftDecision"]


@dataclass(frozen=True)
class DriftDecision:
    """One :meth:`DriftMonitor.observe` verdict (returned for telemetry).

    Attributes:
        delta: the Δ that was observed.
        envelope: Theorem 2's ``Δ_max`` at the observed ``|V|``/``|E|``.
        threshold: ``drift_ratio × envelope`` — the rebuild trigger line.
        rebuild: whether the caller should rebuild now.
        armed: whether the monitor was armed *after* this observation.
    """

    delta: float
    envelope: float
    threshold: float
    rebuild: bool
    armed: bool

    @property
    def drift(self) -> float:
        """``delta / envelope`` (0.0 for a degenerate zero envelope)."""
        return self.delta / self.envelope if self.envelope > 0 else 0.0


class DriftMonitor:
    """Decide *when* incremental maintenance must give way to a rebuild.

    Args:
        p: the edge preservation ratio the maintainer runs at.
        drift_ratio: rebuild trigger as a multiple of the Theorem-2
            envelope.  1.0 (default) rebuilds the moment the live Δ leaves
            the zone a fresh BM2 run is guaranteed to land in.
        hysteresis: re-arm fraction in ``(0, 1]``; after a rebuild the
            monitor stays disarmed until Δ ≤ ``hysteresis × threshold``
            or the cooldown window expires, whichever comes first.
        cooldown_ops: minimum observations between rebuilds (amortization
            floor).  0 allows back-to-back rebuilds — the property tests
            use that to make "Δ never exceeds the threshold after any op"
            a hard invariant (hysteresis is then irrelevant, since the
            zero-length window re-arms immediately).
    """

    def __init__(
        self,
        p: float,
        drift_ratio: float = 1.0,
        hysteresis: float = 0.9,
        cooldown_ops: int = 0,
    ) -> None:
        self._p = validate_ratio(p)
        if drift_ratio <= 0:
            raise ValueError(f"drift_ratio must be positive, got {drift_ratio}")
        if not 0.0 < hysteresis <= 1.0:
            raise ValueError(f"hysteresis must be in (0, 1], got {hysteresis}")
        if cooldown_ops < 0:
            raise ValueError(f"cooldown_ops must be non-negative, got {cooldown_ops}")
        self.drift_ratio = float(drift_ratio)
        self.hysteresis = float(hysteresis)
        self.cooldown_ops = int(cooldown_ops)
        self._armed = True
        self._ops_since_rebuild = cooldown_ops  # first rebuild is never gated
        self._rebuilds = 0

    @property
    def p(self) -> float:
        return self._p

    @property
    def armed(self) -> bool:
        return self._armed

    @property
    def rebuilds(self) -> int:
        """How many rebuilds this monitor has requested."""
        return self._rebuilds

    def envelope(self, num_nodes: int, num_edges: int) -> float:
        """Theorem 2's total-Δ envelope ``|V|/2 + (1−p)·|E|`` (0.0 if empty)."""
        if num_nodes <= 0:
            return 0.0
        return bm2_average_delta_bound(self._p, num_edges, num_nodes) * num_nodes

    def observe(self, delta: float, num_nodes: int, num_edges: int) -> DriftDecision:
        """Record one post-op Δ; say whether the caller should rebuild now.

        The caller performs the rebuild itself (it owns the graphs) and then
        reports it via :meth:`notify_rebuild`.
        """
        self._ops_since_rebuild += 1
        envelope = self.envelope(num_nodes, num_edges)
        threshold = self.drift_ratio * envelope
        if not self._armed and (
            delta <= self.hysteresis * threshold
            or self._ops_since_rebuild >= self.cooldown_ops
        ):
            self._armed = True
        rebuild = (
            self._armed
            and delta > threshold
            and self._ops_since_rebuild >= self.cooldown_ops
        )
        return DriftDecision(
            delta=delta,
            envelope=envelope,
            threshold=threshold,
            rebuild=rebuild,
            armed=self._armed,
        )

    def notify_rebuild(self) -> None:
        """The caller rebuilt: start the cooldown window and disarm.

        The monitor re-arms once Δ dips below the hysteresis line or the
        cooldown window expires, whichever comes first.
        """
        self._rebuilds += 1
        self._ops_since_rebuild = 0
        self._armed = False
