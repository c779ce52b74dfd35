"""Content-addressed artifact cache for reduction results.

The same ``(graph, method, p, seed)`` reduction is requested over and
over — across benchmark tables, across evaluation tasks, and across
service requests.  :class:`ArtifactStore` memoises
:class:`~repro.core.base.ReductionResult` objects under a key derived
from the *content* of the input graph (:func:`graph_digest`), so two
structurally identical graphs share one artifact no matter how or where
they were built.  The digest is memoised on the :class:`Graph` object
under the graph version it was computed at (the rule the CSR snapshot
follows), so repeated requests for one graph hash it once, and a
mutated graph is hashed afresh.

Two tiers:

* **memory** — an LRU of live ``ReductionResult`` objects, bounded by an
  optional byte budget (sizes come from the serialised payload, or a
  structural estimate when the artifact is not persistable);
* **disk** — optional: with ``persist_dir`` set, every artifact with
  JSON-representable node labels is also written as a self-contained
  document (reduced graph via the :func:`repro.graph.io.graph_to_payload`
  wire shape plus Δ/timing/stats metadata), and a fresh store pointed at
  the same directory serves those artifacts as *disk hits* — warm
  restarts skip the algorithms entirely.  A document is renamed into
  place only once fully written, so a failed write leaves no file.

Evicting an artifact drops only the in-memory object; the persisted copy
(if any) keeps serving disk hits, and reloading it reconstructs a graph
with identical node/edge iteration order, so downstream computations are
bit-identical (property-tested in
``tests/property/test_service_properties.py``).
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.core.base import ReductionResult
from repro.errors import ServiceError
from repro.graph.graph import Graph
from repro.graph.io import graph_from_payload, graph_to_payload

__all__ = ["ArtifactKey", "ArtifactStore", "graph_digest"]

#: Bump when the persisted document shape or key changes; loaders skip
#: files with a different version rather than guessing.  Version 2 dropped
#: the engine component from keys: version-1 documents may hold artifacts
#: of the scalar reference engines, which must not be served under the
#: engine-free key.
ARTIFACT_FORMAT_VERSION = 2

#: Node label types that survive a JSON round-trip unchanged.
_JSONABLE_LABELS = (int, str)


def _node_token(node: object) -> str:
    """A type-qualified, hash-stable textual token for one node label."""
    return f"{type(node).__name__}:{node!r}"


def graph_digest(graph: Graph) -> str:
    """SHA-256 content hash of a graph's node and edge sets.

    Order-independent: two graphs with the same labelled structure digest
    identically regardless of insertion order.  Labels are distinguished
    by type (``1`` vs ``"1"`` differ), and the hash is stable across
    processes (no reliance on ``hash()``).

    Weighted graphs (:attr:`Graph.is_weighted`) fold each edge's weight
    into its token via ``repr``, so the same topology under two weight
    fields caches separately; the byte stream for unweighted graphs is
    unchanged from before weights existed, preserving old disk caches.

    The digest is memoised on the graph with the :attr:`Graph.version`
    read before hashing, and served only while the version is unchanged,
    so repeat requests for one graph object hash it once and any mutation
    (or a concurrent one mid-scan) forces a fresh hash.
    """
    version = graph._version
    memo = graph._digest
    if memo is not None and memo[0] == version:
        return memo[1]
    weighted = graph.is_weighted
    hasher = sha256(b"repro-graph-v1\0")
    for token in sorted(_node_token(node) for node in graph.nodes()):
        hasher.update(token.encode("utf-8"))
        hasher.update(b"\0")
    hasher.update(b"--edges--\0")
    edge_tokens = []
    for u, v in graph.edges():
        a, b = _node_token(u), _node_token(v)
        token = a + "|" + b if a <= b else b + "|" + a
        if weighted:
            token += "|" + repr(graph.edge_weight(u, v))
        edge_tokens.append(token)
    for token in sorted(edge_tokens):
        hasher.update(token.encode("utf-8"))
        hasher.update(b"\0")
    digest = hasher.hexdigest()
    graph._digest = (version, digest)
    return digest


@dataclass(frozen=True)
class ArtifactKey:
    """What uniquely determines a reduction's output.

    ``variant`` carries any extra discriminator that changes the result
    (e.g. ``"sources=64"`` for sampled-betweenness CRR); it defaults to
    the exact computation.
    """

    graph_digest: str
    method: str
    p: float
    seed: Optional[int]
    variant: str = ""

    @property
    def token(self) -> str:
        """Filesystem-safe content token for this key."""
        text = "|".join(
            (
                self.graph_digest,
                self.method.lower(),
                repr(float(self.p)),
                repr(self.seed),
                self.variant,
            )
        )
        return sha256(text.encode("utf-8")).hexdigest()[:32]


class _Entry:
    """One in-memory cache slot."""

    __slots__ = ("result", "nbytes")

    def __init__(self, result: ReductionResult, nbytes: int) -> None:
        self.result = result
        self.nbytes = nbytes


class ArtifactStore:
    """LRU + byte-budget artifact cache with optional JSON persistence.

    Thread-safe; every public method may be called from service worker
    threads.  ``stats`` is a plain counter dict (puts, memory/disk hits,
    misses, evictions, computes, persist_skipped) — the run-counter
    telemetry the service's cache-hit guarantees are asserted against.
    """

    def __init__(
        self,
        byte_budget: Optional[int] = None,
        persist_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if byte_budget is not None and byte_budget <= 0:
            raise ServiceError(f"byte_budget must be positive, got {byte_budget}")
        self.byte_budget = byte_budget
        self.persist_dir = Path(persist_dir) if persist_dir is not None else None
        self._lock = threading.RLock()
        self._entries: "OrderedDict[ArtifactKey, _Entry]" = OrderedDict()
        self._resident_bytes = 0
        self._disk_index: Dict[ArtifactKey, Path] = {}
        #: Keys currently being written by _persist; prevents two threads
        #: racing put() from double-writing the same artifact file.
        self._persisting: set = set()
        self.stats: Dict[str, int] = {
            "puts": 0,
            "memory_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "evictions": 0,
            "computes": 0,
            "persist_skipped": 0,
            "load_errors": 0,
        }
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
            self._scan_persist_dir()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    def key_for(
        self,
        graph: Graph,
        method: str,
        p: float,
        seed: Optional[int],
        variant: str = "",
    ) -> ArtifactKey:
        """Build the content-addressed key for one reduction request."""
        return ArtifactKey(
            graph_digest=graph_digest(graph),
            method=method.lower(),
            p=float(p),
            seed=seed,
            variant=variant,
        )

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def get(self, key: ArtifactKey, original: Graph) -> Optional[ReductionResult]:
        """Return the cached result for ``key``, or ``None`` on a miss.

        ``original`` is the caller's input graph, used to reconstitute a
        :class:`ReductionResult` when the artifact is loaded from disk
        (in-memory hits return the memoised object as-is).
        """
        result, _ = self.get_with_tier(key, original)
        return result

    def get_with_tier(
        self, key: ArtifactKey, original: Graph
    ) -> Tuple[Optional[ReductionResult], Optional[str]]:
        """Like :meth:`get`, but also report which tier served the hit.

        Returns ``(result, tier)`` where ``tier`` is ``"memory"``,
        ``"disk"``, or ``None`` on a miss — the authoritative answer, not
        an inference from counter deltas (which races under concurrency).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats["memory_hits"] += 1
                return entry.result, "memory"
            path = self._disk_index.get(key)
        if path is not None:
            result = self._load(key, path, original)
            if result is not None:
                with self._lock:
                    self.stats["disk_hits"] += 1
                    self._insert(key, result, nbytes=path.stat().st_size)
                return result, "disk"
        with self._lock:
            self.stats["misses"] += 1
        return None, None

    def put(self, key: ArtifactKey, result: ReductionResult) -> None:
        """Insert ``result`` under ``key``, persisting it when possible."""
        nbytes: Optional[int] = None
        if self.persist_dir is not None:
            with self._lock:
                should_persist = (
                    key not in self._disk_index and key not in self._persisting
                )
                if should_persist:
                    self._persisting.add(key)
            if should_persist:
                try:
                    nbytes = self._persist(key, result)
                finally:
                    with self._lock:
                        self._persisting.discard(key)
        with self._lock:
            self.stats["puts"] += 1
            self._insert(key, result, nbytes=nbytes)

    def count_compute(self) -> None:
        """Record that a caller ran a reduction instead of hitting the cache.

        :meth:`get_or_compute` does this automatically; callers that pair
        :meth:`get`/:meth:`put` around their own execution (the service
        worker) call this so ``stats["computes"]`` stays an accurate
        run counter.
        """
        with self._lock:
            self.stats["computes"] += 1

    def get_or_compute(
        self,
        graph: Graph,
        method: str,
        p: float,
        seed: Optional[int],
        compute: Callable[[], ReductionResult],
        variant: str = "",
    ) -> Tuple[ReductionResult, Optional[str]]:
        """Memoised reduction: returns ``(result, hit)``.

        ``hit`` is ``"memory"``, ``"disk"``, or ``None`` when ``compute``
        actually ran (also counted in ``stats["computes"]``).
        """
        key = self.key_for(graph, method, p, seed, variant=variant)
        cached, hit = self.get_with_tier(key, graph)
        if cached is not None:
            return cached, hit
        with self._lock:
            self.stats["computes"] += 1
        result = compute()
        self.put(key, result)
        return result, None

    # ------------------------------------------------------------------
    # Eviction / deletion
    # ------------------------------------------------------------------

    def evict(self, key: ArtifactKey) -> bool:
        """Drop the in-memory object for ``key`` (persisted copy survives)."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._resident_bytes -= entry.nbytes
            self.stats["evictions"] += 1
            return True

    def evict_all(self) -> int:
        """Drop every in-memory object; returns how many were evicted."""
        with self._lock:
            count = len(self._entries)
            self.stats["evictions"] += count
            self._entries.clear()
            self._resident_bytes = 0
            return count

    def delete(self, key: ArtifactKey) -> bool:
        """Remove ``key`` from memory *and* disk."""
        removed = self.evict(key)
        if removed:
            # evict() counted an eviction; a delete is not an eviction.
            with self._lock:
                self.stats["evictions"] -= 1
        with self._lock:
            path = self._disk_index.pop(key, None)
        if path is not None:
            path.unlink(missing_ok=True)
            removed = True
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Bytes accounted to in-memory artifacts."""
        return self._resident_bytes

    def __len__(self) -> int:
        """Number of distinct artifacts known (memory or disk)."""
        with self._lock:
            return len(self._entries.keys() | self._disk_index.keys())

    def __contains__(self, key: ArtifactKey) -> bool:
        with self._lock:
            return key in self._entries or key in self._disk_index

    def in_memory(self, key: ArtifactKey) -> bool:
        """Whether ``key`` currently has a live in-memory object."""
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _insert(self, key: ArtifactKey, result: ReductionResult, nbytes: Optional[int]) -> None:
        """Insert/refresh the in-memory entry and evict LRU to budget."""
        if nbytes is None:
            nbytes = self._estimate_bytes(result)
        old = self._entries.pop(key, None)
        if old is not None:
            self._resident_bytes -= old.nbytes
        self._entries[key] = _Entry(result, nbytes)
        self._resident_bytes += nbytes
        if self.byte_budget is None:
            return
        while self._resident_bytes > self.byte_budget and len(self._entries) > 1:
            evicted_key, evicted = self._entries.popitem(last=False)
            self._resident_bytes -= evicted.nbytes
            self.stats["evictions"] += 1
        # A single artifact larger than the whole budget stays resident
        # only if it has no persisted copy to fall back to.
        if (
            self._resident_bytes > self.byte_budget
            and key in self._disk_index
            and key in self._entries
        ):
            entry = self._entries.pop(key)
            self._resident_bytes -= entry.nbytes
            self.stats["evictions"] += 1

    @staticmethod
    def _estimate_bytes(result: ReductionResult) -> int:
        """Structural size estimate for artifacts we cannot serialise."""
        reduced = result.reduced
        return 48 * reduced.num_edges + 24 * reduced.num_nodes + 512

    @staticmethod
    def _persistable(graph: Graph) -> bool:
        return all(isinstance(node, _JSONABLE_LABELS) for node in graph.nodes())

    def _persist(self, key: ArtifactKey, result: ReductionResult) -> Optional[int]:
        """Write the artifact document; returns its size or ``None``."""
        if not self._persistable(result.reduced):
            with self._lock:
                self.stats["persist_skipped"] += 1
            return None
        document = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "key": {
                "graph_digest": key.graph_digest,
                "method": key.method,
                "p": key.p,
                "seed": key.seed,
                "variant": key.variant,
            },
            "meta": {
                "method_name": result.method,
                "delta": result.delta,
                "elapsed_seconds": result.elapsed_seconds,
                "stats": _serialisable_stats(result.stats),
            },
            "graph": graph_to_payload(result.reduced),
        }
        path = self.persist_dir / f"{key.token}.json"
        # Written under a per-writer sibling name that the ``*.json`` scan
        # skips, then renamed into place: no reader, in this process or
        # another, ever sees a half-written document.
        partial = path.with_suffix(f".{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            data = json.dumps(document, default=_json_fallback)
            partial.write_text(data, encoding="utf-8")
            os.replace(partial, path)
        except (TypeError, ValueError, OSError):
            # Unserialisable stats or a failed write (disk full,
            # permissions): the in-memory tier still serves this key.
            partial.unlink(missing_ok=True)
            with self._lock:
                self.stats["persist_skipped"] += 1
            return None
        with self._lock:
            self._disk_index[key] = path
        return len(data.encode("utf-8"))

    def _load(
        self, key: ArtifactKey, path: Path, original: Graph
    ) -> Optional[ReductionResult]:
        """Reconstitute a ReductionResult from one artifact document."""
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
            if document.get("format_version") != ARTIFACT_FORMAT_VERSION:
                raise ServiceError(f"{path}: unsupported artifact format")
            meta = document["meta"]
            reduced = graph_from_payload(document["graph"], where=str(path))
            return ReductionResult(
                method=meta["method_name"],
                original=original,
                reduced=reduced,
                p=key.p,
                delta=float(meta["delta"]),
                elapsed_seconds=float(meta["elapsed_seconds"]),
                stats=dict(meta.get("stats") or {}),
            )
        except Exception:
            with self._lock:
                self.stats["load_errors"] += 1
                self._disk_index.pop(key, None)
            return None

    def _scan_persist_dir(self) -> None:
        """Index persisted artifacts so a fresh store serves disk hits."""
        for path in sorted(self.persist_dir.glob("*.json")):
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
                if document.get("format_version") != ARTIFACT_FORMAT_VERSION:
                    continue
                raw = document["key"]
                key = ArtifactKey(
                    graph_digest=raw["graph_digest"],
                    method=raw["method"],
                    p=float(raw["p"]),
                    seed=raw["seed"],
                    variant=raw.get("variant", ""),
                )
                self._disk_index[key] = path
            except Exception:
                self.stats["load_errors"] += 1


def _serialisable_stats(stats: Dict[str, Any]) -> Dict[str, Any]:
    """Best-effort stats for the persisted document.

    Shedders stash arbitrary objects in ``stats`` (UDS keeps a whole
    ``GraphSummary``); dropping the odd unserialisable entry is far
    better than skipping the artifact — the reduced graph and Δ are the
    payload, the stats are garnish.  Dropped keys are recorded so the
    reloaded result is honest about what it lost.
    """
    kept: Dict[str, Any] = {}
    dropped = []
    for name, value in stats.items():
        try:
            json.dumps(value, default=_json_fallback)
        except (TypeError, ValueError):
            dropped.append(name)
        else:
            kept[name] = value
    if dropped:
        kept["stats_dropped_on_persist"] = sorted(dropped)
    return kept


def _json_fallback(value: Any):
    """Serialise numpy scalars/arrays and sets that appear in shedder stats."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return tolist()
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value) if isinstance(value, (set, frozenset)) else list(value)
    raise TypeError(f"not JSON-serialisable: {type(value).__name__}")
