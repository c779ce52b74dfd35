"""Incremental Δ-maintenance of a reduced graph under live edge churn.

The offline engines answer "given *this* graph, which edges go?"; real
deployments face a graph that keeps changing after the answer shipped.
:class:`IncrementalShedder` wraps a seed reduction from any
:class:`~repro.core.EdgeShedder` and keeps ``(G, G', Δ)`` consistent under
an insert/delete stream without re-running the O(|E|) offline pass per op:

* **insert** — the edge joins ``G`` (both expectations ``p·deg`` rise)
  and is admitted to ``G'`` iff both endpoints sit below their live
  Phase-1 capacities ``b(u) = [p·deg_G(u)]`` — exactly BM2's admission
  invariant, so an admission never increases ``Δ``.  Rejected edges enter
  a bounded :class:`~repro.streaming.EdgeReservoir` for later promotion.
* **delete** — the edge leaves ``G``; if it was kept it leaves ``G'``
  too, otherwise it is dropped from the reservoir.

:meth:`IncrementalShedder.apply_ops` is the one implementation of both
ops; :meth:`~IncrementalShedder.insert`, :meth:`~IncrementalShedder.delete`
and :meth:`~IncrementalShedder.apply` are one-op calls of it.  Each op is
O(1) amortized for the bookkeeping itself, plus a localized
:class:`~repro.dynamic.repair.LocalRepairer` pass (O(deg) around the two
touched endpoints) that restores the per-node guarantee, back-fills freed
capacity and applies a bounded Δ-improving swap.  A
:class:`~repro.dynamic.DriftMonitor` policy watches the running ``Δ``
against Theorem 2's envelope at the *live* ``|V|``/``|E|``; when drift
crosses the configured ratio the maintainer amortizes a full offline
re-shed (:meth:`IncrementalShedder.rebuild`) and carries on incrementally
from the fresh seed.

The maintainer owns its graphs: mutate ``G`` only through its churn
ops.  Out-of-band mutations are detected via
:attr:`~repro.graph.Graph.version` and rejected with
:class:`~repro.errors.ReductionError` rather than silently corrupting the
tracked state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.core.base import EdgeShedder, validate_ratio
from repro.core.bm2 import BM2Shedder
from repro.dynamic.drift import DriftDecision, DriftMonitor
from repro.dynamic.repair import LocalRepairer, _key
from repro.dynamic.tracker import DynamicDegreeTracker
from repro.errors import EdgeNotFoundError, ReductionError, SelfLoopError
from repro.graph.graph import Graph, Node
from repro.rng import RandomState, ensure_rng
from repro.streaming.shedder import EdgeReservoir

__all__ = ["BatchReport", "IncrementalShedder", "ChurnOp"]

#: One churn operation: ``("insert" | "delete", u, v)``.
ChurnOp = Tuple[str, Node, Node]


@dataclass(frozen=True)
class BatchReport:
    """Outcome of one :meth:`IncrementalShedder.apply_ops` batch.

    Attributes:
        applied: ops that mutated the maintainer (inserts + deletes).
        skipped: ops dropped by ``skip_invalid`` (stale deletes, duplicate
            inserts, self-loops) — always 0 in strict mode.
        rebuilds: drift-triggered full rebuilds performed inside the batch.
        decision: the drift verdict after the batch's *last applied* op
            (``None`` for an empty or fully-skipped batch) — what
            :meth:`IncrementalShedder.apply` returns for a one-op batch.
    """

    applied: int
    skipped: int
    rebuilds: int
    decision: Optional[DriftDecision]


class IncrementalShedder:
    """Maintain ``G' ⊆ G`` and its ``Δ`` under an edge churn stream.

    Args:
        graph: the live original graph.  The maintainer takes ownership —
            apply all further mutations through its churn ops.
        p: edge preservation ratio (the offline engines' ``p``).
        shedder: offline method producing the seed reduction and every
            drift-triggered rebuild (default: ``BM2Shedder()``; BM2's
            per-node ``dis < 1`` guarantee is what repair preserves).
        repair: run the :class:`~repro.dynamic.LocalRepairer` pass after
            every op (default), or skip it (pure admit/evict mode, the
            high-throughput profile).
        drift: :class:`DriftMonitor` watching Δ, or ``None`` for the
            default ``DriftMonitor(p)`` (rebuild at 1.0× the Theorem-2
            envelope, hysteresis 0.9).
        reservoir_size: capacity of the held-back edge reservoir.
        seed: randomness for the reservoir (probing and Algorithm-R
            replacement); seeded runs replay identically.
    """

    def __init__(
        self,
        graph: Graph,
        p: float,
        shedder: Optional[EdgeShedder] = None,
        *,
        repair: bool = True,
        drift: Optional[DriftMonitor] = None,
        reservoir_size: int = 256,
        seed: RandomState = None,
    ) -> None:
        self._p = validate_ratio(p)
        self._graph = graph
        self._shedder = shedder if shedder is not None else BM2Shedder()
        self._monitor = drift if drift is not None else DriftMonitor(self._p)
        if self._monitor.p != self._p:
            raise ReductionError(
                f"drift monitor p={self._monitor.p} does not match maintainer p={self._p}"
            )
        seed_result = self._shedder.reduce(graph, self._p)
        self._reduced = seed_result.reduced
        for node in graph.nodes():  # keep V' = V under node growth
            self._reduced.add_node(node)
        self._tracker = DynamicDegreeTracker(graph, self._p)
        self._tracker.reset_kept(self._reduced)
        self._reservoir = EdgeReservoir(reservoir_size, seed=ensure_rng(seed))
        self._repairer = (
            LocalRepairer(graph, self._reduced, self._tracker, self._reservoir)
            if repair
            else None
        )
        self._restock_reservoir()
        self.stats: Dict[str, int] = {
            "ops": 0,
            "inserts": 0,
            "deletes": 0,
            "admitted": 0,
            "rejected": 0,
            "evicted": 0,
            "demoted": 0,
            "promoted": 0,
            "swapped": 0,
            "rebuilds": 0,
        }
        self._sync_versions()

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The live original graph ``G`` (do not mutate directly)."""
        return self._graph

    @property
    def reduced(self) -> Graph:
        """The live reduced graph ``G'`` (replaced by :meth:`rebuild`)."""
        return self._reduced

    @property
    def p(self) -> float:
        return self._p

    @property
    def delta(self) -> float:
        """Live ``Δ``, bit-identical to ``compute_delta(G, G', p)``."""
        return self._tracker.exact_delta()

    @property
    def tracker(self) -> DynamicDegreeTracker:
        return self._tracker

    @property
    def reservoir(self) -> EdgeReservoir:
        return self._reservoir

    @property
    def monitor(self) -> DriftMonitor:
        return self._monitor

    # ------------------------------------------------------------------
    # Churn operations
    # ------------------------------------------------------------------

    def insert(self, u: Node, v: Node) -> DriftDecision:
        """Insert edge ``(u, v)`` into ``G``; admit to ``G'`` if capacity fits.

        Raises :class:`~repro.errors.SelfLoopError` for ``u == v`` and
        :class:`~repro.errors.ReductionError` if the edge already exists
        (the stream must describe simple-graph mutations).
        """
        return self.apply_ops((("insert", u, v),)).decision

    def delete(self, u: Node, v: Node) -> DriftDecision:
        """Delete edge ``(u, v)`` from ``G`` (and from ``G'`` if kept).

        Raises :class:`~repro.errors.EdgeNotFoundError` if absent.
        """
        return self.apply_ops((("delete", u, v),)).decision

    def apply(self, op: ChurnOp) -> DriftDecision:
        """Apply one ``("insert" | "delete", u, v)`` churn operation."""
        return self.apply_ops((op,)).decision

    def apply_ops(
        self, ops: Iterable[ChurnOp], *, skip_invalid: bool = False
    ) -> BatchReport:
        """Apply a batch of churn ops: the one implementation of an op.

        Each op updates ``G``, ``G'``, the tracker and the reservoir, runs
        the repair pass and consults the drift policy, rebuilding when it
        says so.  Any batch split of a stream ends in the same G, G', Δ,
        stats, reservoir and drift-monitor state, bit for bit.  The per-op
        Python overhead is amortized: the tracker's graph-side arithmetic
        is inlined on native scalars (float64 math is the same IEEE double
        either way), the graphs and arrays are hoisted into locals, stats
        are buffered, the version handshake runs once per batch, and the
        drift monitor's :meth:`~repro.dynamic.DriftMonitor.observe` is
        inlined without allocating a :class:`~repro.dynamic.DriftDecision`
        per op.  The property suite pins this against the per-op
        reference in ``tests/oracles/dynamic.py``, and
        ``tests/dynamic/test_churn_golden.py`` pins its outputs.  On a
        weighted ``G`` inserted edges weigh 1.0 and deletes drop theirs,
        as ``Graph.add_edge``/``remove_edge`` do.

        Args:
            ops: iterable of ``("insert" | "delete", u, v)`` tuples.
            skip_invalid: when ``True``, ops that cannot apply to the
                *current* graph — self-loop inserts, inserts of existing
                edges, deletes of absent edges — are counted and skipped
                instead of raising.  The session drain loop relies on this
                to absorb deletes of edges whose insert was shed under
                backpressure.  Malformed kinds still raise: staleness is a
                stream property, an unknown op kind is a caller bug.

        In strict mode (default) the first invalid op raises
        :class:`~repro.errors.SelfLoopError`,
        :class:`~repro.errors.ReductionError` (duplicate insert, unknown
        kind, out-of-band mutation) or
        :class:`~repro.errors.EdgeNotFoundError`; ops already applied stay
        applied and their stats are flushed, matching a per-op loop that
        died at the same op.
        """
        self._check_versions()
        graph = self._graph
        adj = graph._adj
        order = graph._order
        weights = graph._weights  # None unless G is weighted
        tracker = self._tracker
        index_of = tracker._index_of
        ensure_node = tracker.ensure_node
        deg = tracker._deg
        cur = tracker._current
        dis = tracker._dis
        p = tracker._p
        approx = tracker._approx_delta
        reduced = self._reduced
        reduced_adj = reduced._adj
        repairer = self._repairer
        repair = repairer.repair if repairer is not None else None
        monitor = self._monitor
        drift_ratio = monitor.drift_ratio
        hysteresis = monitor.hysteresis
        cooldown = monitor.cooldown_ops
        one_minus_p = 1.0 - monitor._p
        reservoir_offer = self._reservoir.offer
        reservoir_discard = self._reservoir.discard
        # Graph and monitor counters mirrored into locals for the loop;
        # flushed back before every rebuild (which reads them through the
        # public surface) and in the finally block.  The graph's CSR cache
        # needs no explicit invalidation: it is version-checked on read,
        # and the version counter here advances exactly as Graph's own
        # mutators would.
        m = graph._num_edges
        gversion = graph._version
        next_order = graph._next_order
        ops_since = monitor._ops_since_rebuild
        armed = monitor._armed
        applied = skipped = ops_count = 0
        inserts = deletes = admitted = rejected = evicted = 0
        demoted = promoted = swapped = rebuild_count = 0
        last: Optional[Tuple[float, float, float, bool, bool]] = None
        try:
            for kind, u, v in ops:
                if kind == "insert":
                    if u == v:
                        if skip_invalid:
                            skipped += 1
                            continue
                        raise SelfLoopError(u)
                    adj_u = adj.get(u)
                    if adj_u is not None and v in adj_u:
                        if skip_invalid:
                            skipped += 1
                            continue
                        raise ReductionError(
                            f"edge ({u!r}, {v!r}) already in the graph"
                        )
                    # Ids follow graph insertion order: u first, then v,
                    # before the graph mutation.  ensure_node may grow
                    # (replace) the arrays — re-hoist when it does.
                    tu = index_of.get(u)
                    if tu is None:
                        tu = ensure_node(u)
                        if tracker._deg is not deg:
                            deg, cur, dis = tracker._deg, tracker._current, tracker._dis
                    tv = index_of.get(v)
                    if tv is None:
                        tv = ensure_node(v)
                        if tracker._deg is not deg:
                            deg, cur, dis = tracker._deg, tracker._current, tracker._dis
                    # Graph.add_edge inlined (validity already established);
                    # node creation mirrors add_node(u) then add_node(v).
                    if adj_u is None:
                        adj[u] = adj_u = {}
                        if weights is not None:
                            weights[u] = {}
                        order[u] = next_order
                        next_order += 1
                        gversion += 1
                    adj_v = adj.get(v)
                    if adj_v is None:
                        adj[v] = adj_v = {}
                        if weights is not None:
                            weights[v] = {}
                        order[v] = next_order
                        next_order += 1
                        gversion += 1
                    adj_u[v] = None
                    adj_v[u] = None
                    if weights is not None:
                        weights[u][v] = 1.0
                        weights[v][u] = 1.0
                    m += 1
                    gversion += 1
                    if u not in reduced_adj:
                        reduced.add_node(u)
                    if v not in reduced_adj:
                        reduced.add_node(v)
                    du = deg[tu].item()
                    dv = deg[tv].item()
                    cap_u = int(p * du + 0.5)
                    cap_v = int(p * dv + 0.5)
                    du += 1
                    dv += 1
                    deg[tu] = du
                    deg[tv] = dv
                    # The graph-side _retouch, on native scalars.
                    approx = approx - abs(dis[tu].item()) - abs(dis[tv].item())
                    cu = cur[tu].item()
                    cv = cur[tv].item()
                    dis_u = cu - p * du
                    dis_v = cv - p * dv
                    dis[tu] = dis_u
                    dis[tv] = dis_v
                    approx = approx + abs(dis_u) + abs(dis_v)
                    new_cap_u = int(p * du + 0.5)
                    new_cap_v = int(p * dv + 0.5)
                    if new_cap_u > cu and new_cap_v > cv:
                        reduced.add_edge(u, v)
                        # tracker.kept_edge_added's _retouch.
                        cu += 1
                        cv += 1
                        cur[tu] = cu
                        cur[tv] = cv
                        approx = approx - abs(dis_u) - abs(dis_v)
                        dis_u = cu - p * du
                        dis_v = cv - p * dv
                        dis[tu] = dis_u
                        dis[tv] = dis_v
                        approx = approx + abs(dis_u) + abs(dis_v)
                        admitted += 1
                        hint_u = hint_v = False
                    else:
                        reservoir_offer((tu, tv) if tu < tv else (tv, tu))
                        rejected += 1
                        hint_u = new_cap_u > cap_u
                        hint_v = new_cap_v > cap_v
                    inserts += 1
                elif kind == "delete":
                    adj_u = adj.get(u)
                    if adj_u is None or v not in adj_u:
                        if skip_invalid:
                            skipped += 1
                            continue
                        raise EdgeNotFoundError(u, v)
                    tu = index_of[u]
                    tv = index_of[v]
                    ru = reduced_adj.get(u)
                    was_kept = ru is not None and v in ru
                    # Graph.remove_edge inlined (existence already checked).
                    del adj_u[v]
                    del adj[v][u]
                    if weights is not None:
                        del weights[u][v]
                        del weights[v][u]
                    m -= 1
                    gversion += 1
                    du = deg[tu].item()
                    dv = deg[tv].item()
                    cap_u = int(p * du + 0.5)
                    cap_v = int(p * dv + 0.5)
                    du -= 1
                    dv -= 1
                    deg[tu] = du
                    deg[tv] = dv
                    # The graph-side _retouch.
                    approx = approx - abs(dis[tu].item()) - abs(dis[tv].item())
                    cu = cur[tu].item()
                    cv = cur[tv].item()
                    dis_u = cu - p * du
                    dis_v = cv - p * dv
                    dis[tu] = dis_u
                    dis[tv] = dis_v
                    approx = approx + abs(dis_u) + abs(dis_v)
                    if was_kept:
                        reduced.remove_edge(u, v)
                        # tracker.kept_edge_removed's _retouch.
                        cu -= 1
                        cv -= 1
                        cur[tu] = cu
                        cur[tv] = cv
                        approx = approx - abs(dis_u) - abs(dis_v)
                        dis_u = cu - p * du
                        dis_v = cv - p * dv
                        dis[tu] = dis_u
                        dis[tv] = dis_v
                        approx = approx + abs(dis_u) + abs(dis_v)
                        evicted += 1
                        hint_u = int(p * du + 0.5) == cap_u
                        hint_v = int(p * dv + 0.5) == cap_v
                    else:
                        reservoir_discard((tu, tv) if tu < tv else (tv, tu))
                        hint_u = hint_v = False
                    deletes += 1
                else:
                    raise ReductionError(
                        f"unknown churn op {kind!r} (expected 'insert' or 'delete')"
                    )
                # Repair mutates tracker state through tracker methods:
                # publish the running Δ first, re-read after.
                tracker._approx_delta = approx
                if repair is not None:
                    counts = repair((tu, tv), (hint_u, hint_v))
                    demoted += counts["demoted"]
                    promoted += counts["promoted"]
                    swapped += counts["swapped"]
                    approx = tracker._approx_delta
                ops_count += 1
                # DriftMonitor.observe inlined, minus the DriftDecision
                # record.  An applied op always leaves the graph non-empty,
                # so the zero-node envelope guard is unreachable here.
                ops_since += 1
                n_nodes = len(adj)
                envelope = (0.5 + one_minus_p * m / n_nodes) * n_nodes
                threshold = drift_ratio * envelope
                if not armed and (
                    approx <= hysteresis * threshold or ops_since >= cooldown
                ):
                    armed = True
                do_rebuild = (
                    armed and approx > threshold and ops_since >= cooldown
                )
                last = (approx, envelope, threshold, do_rebuild, armed)
                if do_rebuild:
                    graph._num_edges = m
                    graph._version = gversion
                    graph._next_order = next_order
                    monitor._ops_since_rebuild = ops_since
                    monitor._armed = armed
                    self.rebuild()  # bumps stats["rebuilds"], syncs versions
                    rebuild_count += 1
                    reduced = self._reduced
                    reduced_adj = reduced._adj
                    approx = tracker._approx_delta
                    ops_since = monitor._ops_since_rebuild
                    armed = monitor._armed
                applied += 1
        finally:
            # No approx write-back here: every op's epilogue already
            # published it, and overwriting after a mid-repair exception
            # would clobber the repairer's tracker-side updates.
            graph._num_edges = m
            graph._version = gversion
            graph._next_order = next_order
            monitor._ops_since_rebuild = ops_since
            monitor._armed = armed
            stats = self.stats
            stats["ops"] += ops_count
            stats["inserts"] += inserts
            stats["deletes"] += deletes
            stats["admitted"] += admitted
            stats["rejected"] += rejected
            stats["evicted"] += evicted
            stats["demoted"] += demoted
            stats["promoted"] += promoted
            stats["swapped"] += swapped
            self._sync_versions()
        decision = None
        if last is not None:
            delta, envelope, threshold, do_rebuild, armed = last
            decision = DriftDecision(
                delta=delta,
                envelope=envelope,
                threshold=threshold,
                rebuild=do_rebuild,
                armed=armed,
            )
        return BatchReport(
            applied=applied,
            skipped=skipped,
            rebuilds=rebuild_count,
            decision=decision,
        )

    # ------------------------------------------------------------------
    # Rebuild
    # ------------------------------------------------------------------

    def rebuild(self) -> None:
        """Re-shed ``G`` offline and resume incrementally from the result.

        Replaces :attr:`reduced` with a **new** graph object (callers
        holding the old reference keep a stale snapshot), resynchronises
        the tracker, and restocks the reservoir with the fresh shed set.
        """
        if self._graph.num_edges == 0:
            return  # nothing to shed; current (empty) G' is already exact
        result = self._shedder.reduce(self._graph, self._p)
        self._reduced = result.reduced
        for node in self._graph.nodes():
            self._reduced.add_node(node)
        self._tracker.reset_kept(self._reduced)
        if self._repairer is not None:
            self._repairer.rebind(self._reduced)
        self._restock_reservoir()
        self._monitor.notify_rebuild()
        self.stats["rebuilds"] += 1
        self._sync_versions()

    def _restock_reservoir(self) -> None:
        """Refill the reservoir with the current shed set (G edges not kept)."""
        self._reservoir.clear()
        tracker = self._tracker
        reduced = self._reduced
        for a, b in self._graph.edges():  # deterministic insertion order
            if not reduced.has_edge(a, b):
                self._reservoir.offer(_key(tracker.id_of(a), tracker.id_of(b)))

    # ------------------------------------------------------------------
    # Out-of-band mutation detection
    # ------------------------------------------------------------------

    def _sync_versions(self) -> None:
        self._graph_version = self._graph.version
        self._reduced_version = self._reduced.version

    def _check_versions(self) -> None:
        if (
            self._graph.version != self._graph_version
            or self._reduced.version != self._reduced_version
        ):
            raise ReductionError(
                "graph mutated outside the maintainer; IncrementalShedder owns "
                "its graphs — apply mutations via insert()/delete()"
            )
