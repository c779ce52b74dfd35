"""Admission control: budgets, a runtime cost model, graceful degradation.

The service promises two things under load (the paper's resource-
constraints premise, lifted to the serving layer):

* it never lets concurrent jobs hold more resident edges than the global
  budget — :class:`BudgetLedger` is a blocking ledger the workers check
  edges in and out of, so over-budget jobs *wait* instead of OOMing the
  pool;
* a request that cannot meet its deadline with the asked-for method is
  *degraded* down the quality ladder (CRR → BM2 → sparsified BM2 →
  random, the ``cheaper`` rungs of :data:`~repro.service.METHODS`)
  rather than rejected — a cheaper, still valid reduction with the
  degradation recorded in the result metadata.

:class:`CostModel` supplies the runtime estimates the deadline check
needs: each method row's coefficient over its work measure (``n·m`` for
betweenness-ranked methods, ``m`` for the linear ones), updated by EWMA
from observed runs so the model calibrates itself to the host.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.errors import AdmissionError, ServiceError
from repro.graph.graph import Graph
from repro.service.request import (
    METHODS,
    ReductionRequest,
    cheapest_method,
    degrade_method,
)

__all__ = ["AdmissionController", "AdmissionDecision", "BudgetLedger", "CostModel"]


class CostModel:
    """Conservative per-method runtime estimates, self-calibrating.

    ``estimate`` is intentionally pessimistic out of the box (admission
    would rather degrade a borderline request than blow a deadline); each
    observed run updates the method's coefficient with an exponential
    moving average, so a long-lived service converges on the host's real
    constants.
    """

    #: Initial seconds-per-work-unit coefficients, from the method table.
    DEFAULT_COEFFICIENTS: Dict[str, float] = {
        key: spec.coefficient for key, spec in METHODS.items()
    }

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ServiceError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._coefficients = dict(self.DEFAULT_COEFFICIENTS)
        self._lock = threading.Lock()

    def work_units(self, method: str, num_nodes: int, num_edges: int) -> float:
        spec = METHODS.get(method.lower())
        if spec is not None and spec.quadratic:
            return float(max(1, num_nodes) * max(1, num_edges))
        return float(max(1, num_edges))

    def estimate(self, method: str, num_nodes: int, num_edges: int) -> float:
        """Estimated wall-clock seconds for one reduction."""
        method = method.lower()
        with self._lock:
            coefficient = self._coefficients.get(
                method, max(self._coefficients.values())
            )
        return coefficient * self.work_units(method, num_nodes, num_edges) + 1e-4

    def observe(
        self, method: str, num_nodes: int, num_edges: int, seconds: float
    ) -> None:
        """Fold one observed runtime into the method's coefficient."""
        method = method.lower()
        units = self.work_units(method, num_nodes, num_edges)
        observed = max(seconds, 1e-6) / units
        with self._lock:
            current = self._coefficients.get(method, observed)
            self._coefficients[method] = (
                (1.0 - self.alpha) * current + self.alpha * observed
            )

    def coefficient(self, method: str) -> float:
        with self._lock:
            return self._coefficients.get(
                method.lower(), max(self._coefficients.values())
            )


class BudgetLedger:
    """Blocking ledger of resident edges across concurrently running jobs.

    Workers :meth:`acquire` their graph's edge count before executing and
    :meth:`release` it after; an acquisition that would exceed the global
    capacity blocks until running jobs drain — that *is* the "queued
    against the budget" behaviour the service promises.  Requests larger
    than the whole capacity are the admission controller's problem (it
    degrades them and clamps the charge), never the ledger's.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ServiceError(f"budget capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._in_use = 0
        self._waits = 0
        self._condition = threading.Condition()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def waits(self) -> int:
        """How many acquisitions had to block for capacity."""
        return self._waits

    def charge_for(self, num_edges: int) -> int:
        """The ledger charge for a graph: its edges, clamped to capacity."""
        return min(int(num_edges), self.capacity)

    def acquire(self, amount: int, timeout: Optional[float] = None) -> None:
        """Block until ``amount`` edges of budget are free, then take them."""
        if amount > self.capacity:
            raise AdmissionError(
                f"cannot acquire {amount} edges from a {self.capacity}-edge budget"
            )
        with self._condition:
            if self._in_use + amount > self.capacity:
                self._waits += 1
            deadline_ok = self._condition.wait_for(
                lambda: self._in_use + amount <= self.capacity, timeout
            )
            if not deadline_ok:
                raise AdmissionError(
                    f"budget acquisition of {amount} edges timed out after {timeout}s"
                )
            self._in_use += amount

    def try_acquire(self, amount: int) -> bool:
        """Take ``amount`` edges of budget iff they are free *right now*.

        Non-blocking :meth:`acquire` for callers that degrade instead of
        waiting — the streaming sessions shed inserts when a resize cannot
        be funded, rather than stalling their drain loop on the condition
        variable.  Returns whether the budget was taken.
        """
        if amount > self.capacity:
            return False
        with self._condition:
            if self._in_use + amount > self.capacity:
                return False
            self._in_use += amount
            return True

    def release(self, amount: int) -> None:
        with self._condition:
            self._in_use -= amount
            if self._in_use < 0:
                self._in_use = 0
            self._condition.notify_all()

    @contextmanager
    def lease(self, amount: int, timeout: Optional[float] = None) -> Iterator[None]:
        """``with`` wrapper pairing :meth:`acquire` and :meth:`release`."""
        self.acquire(amount, timeout=timeout)
        try:
            yield
        finally:
            self.release(amount)


@dataclass
class AdmissionDecision:
    """Outcome of admitting one request.

    ``action`` is ``"admit"`` (run as asked), ``"degrade"`` (run
    ``method`` instead of what was asked, for the listed reasons), or
    ``"reject"``.  ``oversize`` marks jobs whose input exceeds the global
    edge budget; their ledger charge is clamped to capacity so they can
    still run — on the cheapest method — without starving the pool.
    """

    action: str
    method: str
    reasons: List[str] = field(default_factory=list)
    oversize: bool = False
    estimated_seconds: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.action in ("admit", "degrade")

    @property
    def degraded(self) -> bool:
        return self.action == "degrade"


class AdmissionController:
    """Decides admit / degrade / reject for each incoming request.

    Checks, in order: queue backpressure (reject), per-request and global
    resident-edge budgets (degrade to the cheapest method), then the
    deadline against :class:`CostModel` estimates (walk the degradation
    ladder until the estimate fits).  ``safety_factor`` pads estimates so
    borderline requests degrade instead of gambling.
    """

    def __init__(
        self,
        capacity_edges: int,
        cost_model: Optional[CostModel] = None,
        max_queue_depth: Optional[int] = None,
        safety_factor: float = 1.5,
    ) -> None:
        if safety_factor < 1.0:
            raise ServiceError(f"safety_factor must be >= 1, got {safety_factor}")
        self.capacity_edges = capacity_edges
        self.cost_model = cost_model or CostModel()
        self.max_queue_depth = max_queue_depth
        self.safety_factor = safety_factor

    def decide(
        self, request: ReductionRequest, graph: Graph, queue_depth: int = 0
    ) -> AdmissionDecision:
        """Admission decision for ``request`` over its resolved ``graph``."""
        method = request.method.lower()
        reasons: List[str] = []

        if self.max_queue_depth is not None and queue_depth >= self.max_queue_depth:
            return AdmissionDecision(
                action="reject",
                method=method,
                reasons=[
                    f"queue depth {queue_depth} at limit {self.max_queue_depth}"
                ],
            )

        n, m = graph.num_nodes, graph.num_edges
        cap = request.max_resident_edges
        oversize = m > self.capacity_edges
        for over, limit in (
            (cap is not None and m > cap, f"the request's {cap}-edge cap"),
            (oversize, f"the global {self.capacity_edges}-edge budget"),
        ):
            if over and (cheapest := cheapest_method(method)) != method:
                reasons.append(f"{method}->{cheapest}: input {m} edges exceeds {limit}")
                method = cheapest

        estimate = self.cost_model.estimate(method, n, m)
        if request.deadline_seconds is not None:
            while estimate * self.safety_factor > request.deadline_seconds:
                cheaper = degrade_method(method)
                if cheaper is None:
                    reasons.append(
                        f"{method}: estimated {estimate:.3f}s still over the "
                        f"{request.deadline_seconds:.3f}s deadline; best effort"
                    )
                    break
                reasons.append(
                    f"{method}->{cheaper}: estimated {estimate:.3f}s over the "
                    f"{request.deadline_seconds:.3f}s deadline"
                )
                method = cheaper
                estimate = self.cost_model.estimate(method, n, m)

        action = "admit" if method == request.method.lower() else "degrade"
        return AdmissionDecision(
            action=action,
            method=method,
            reasons=reasons,
            oversize=oversize,
            estimated_seconds=estimate,
        )
