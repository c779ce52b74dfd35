"""Graph serialisation: SNAP-style edge lists and JSON.

The paper's datasets ship as whitespace-separated edge lists with ``#``
comment headers (the SNAP convention); we read and write that format so a
user who *does* have the original files can drop them straight in.  JSON
round-trips preserve isolated nodes, which edge lists cannot express.

Real SNAP files contain a few self-loop lines and often list each edge in
both directions; both are silently collapsed into the simple-graph model,
but :func:`read_edge_list_with_summary` additionally *counts* what was
skipped so callers (``repro-shed stats``) can surface it instead of
dropping the information on the floor.

Edge lists may carry a third column of edge weights (existence
probabilities in the uncertain-graph workload).  ``weight_col`` selects
it; probabilities are clamped into ``[0, 1]`` and the summary counts how
many rows were out of range, so noisy files degrade loudly, not silently.
A ``nan`` token is rejected like any other non-number.

Ingest is array-first.  The reader tokenizes the file in bounded byte
blocks with numpy, so a file of plain integer labels costs no Python per
line or token (see :class:`_EdgeListScan`, which ``iter_edge_list`` in
:mod:`repro.streaming` reads through too).  It numbers nodes in order of
first appearance with one sort, then hands the distinct edges to
:meth:`Graph.from_edge_ids` — the one array-to-``Graph`` constructor —
which keeps the sorted edge arrays and memoises the CSR snapshot; the
adjacency dicts are built only when something first mutates the graph
or reads them.  The graph behaves
exactly as replaying ``add_edge`` line by line would build it, and a
reduction starts from the ready snapshot; the first mutation drops the
snapshot, as for any graph.  :func:`write_edge_list` writes a graph's edge
scan from the same kind of arrays, so reading, reducing and writing a file
builds no adjacency dict at all.

:func:`graph_to_payload` / :func:`graph_from_payload` expose the JSON
wire shape ``{"nodes": [...], "edges": [[u, v], ...]}`` directly, so the
artifact store (:mod:`repro.service`) can embed a graph inside a larger
document without double-encoding.  Weighted graphs add a parallel
``"weights"`` list aligned with ``"edges"``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphError, SelfLoopError
from repro.graph.graph import Graph, Node

__all__ = [
    "EdgeListSummary",
    "graph_from_payload",
    "graph_to_payload",
    "read_edge_list",
    "read_edge_list_with_summary",
    "read_json",
    "write_edge_list",
    "write_json",
]

PathLike = Union[str, Path]

#: Bytes read per block.  A block's arrays (a flag per byte, a few ints per
#: token) are the parse's only transient memory beyond its key arrays, so
#: the block bounds it; fork-pool workers inherit it as their high-water
#: mark.
_BLOCK_BYTES = 1 << 16

#: Lines formatted per chunk by :func:`write_edge_list`, which bounds its
#: per-line Python objects the same way.
_CHUNK_LINES = 4096

#: ``str.split()``'s whitespace among single bytes: the ASCII ones.
_SPACE = np.array([byte < 128 and chr(byte).isspace() for byte in range(256)])

#: Every other character ``str.split()`` splits on.
_WIDE_SPACE = re.compile(r"[^\S\x00-\x7f]")

#: Longest token parsed arithmetically: ``10**18 - 1`` fits an int64.
_DIGITS = 18

#: Keys from here up stand for labels in a scan's label map.
_MAPPED = 1 << 62


@dataclass(frozen=True)
class EdgeListSummary:
    """What :func:`read_edge_list_with_summary` saw while parsing.

    Attributes:
        lines_total: every line in the file, including comments/blanks.
        comment_lines: ``#``/``%`` comment and blank lines.
        edges_added: distinct undirected edges in the resulting graph.
        self_loops_skipped: ``u u`` lines dropped (the model is simple).
        duplicates_skipped: lines repeating an already-seen edge (SNAP
            files frequently list both orientations).
        weights_clamped: weight tokens outside ``[0, 1]`` clamped into
            range (probability mode; 0 unless a weight column was read).
    """

    lines_total: int
    comment_lines: int
    edges_added: int
    self_loops_skipped: int
    duplicates_skipped: int
    weights_clamped: int = 0

    @property
    def skipped(self) -> int:
        """Total data lines that did not produce a new edge."""
        return self.self_loops_skipped + self.duplicates_skipped

    def describe(self) -> str:
        """One human-readable line, e.g. for ``repro-shed stats``."""
        text = (
            f"parsed {self.lines_total} lines ({self.comment_lines} comments): "
            f"{self.edges_added} edges kept, "
            f"{self.self_loops_skipped} self-loops skipped, "
            f"{self.duplicates_skipped} duplicate lines collapsed"
        )
        if self.weights_clamped:
            text += f", {self.weights_clamped} weights clamped into [0, 1]"
        return text


def read_edge_list(path: PathLike, weight_col: Optional[int] = None) -> Graph:
    """Read a SNAP-style edge list (``# comments``, one edge per line).

    Node tokens that look like integers become ``int`` nodes; anything else
    stays a string.  Files that list each edge in both directions (SNAP
    ships several such files) are handled transparently — duplicate edges
    collapse.  Self-loop lines are skipped; SNAP data contains a few and
    the paper's model is a simple graph.  Use
    :func:`read_edge_list_with_summary` to also learn *how many* lines
    were collapsed or skipped.

    ``weight_col`` (0-based; the conventional third column is 2) reads an
    edge weight/probability per line, clamped into ``[0, 1]``, producing a
    weighted graph; a repeated edge keeps its last weight.  A malformed
    line raises :class:`GraphError` naming ``path:line``.

    The graph's CSR snapshot is built during the read and memoised (see
    :meth:`Graph.csr`).
    """
    graph, _ = read_edge_list_with_summary(path, weight_col=weight_col)
    return graph


def read_edge_list_with_summary(
    path: PathLike, weight_col: Optional[int] = None
) -> Tuple[Graph, EdgeListSummary]:
    """Like :func:`read_edge_list`, plus an :class:`EdgeListSummary`."""
    if weight_col is not None and weight_col < 2:
        raise GraphError(
            f"weight_col must be >= 2 (columns 0-1 are the endpoints), got {weight_col}"
        )
    scan = _EdgeListScan(path, weight_col)
    blocks = list(scan)
    pairs = np.concatenate([keys for keys, _ in blocks]) if blocks else np.empty((0, 2), np.int64)
    weights = None
    clamped = 0
    if weight_col is not None and blocks:
        weights = np.concatenate([block_weights for _, block_weights in blocks])
        low, high = weights < 0.0, weights > 1.0
        clamped = int(np.count_nonzero(low | high))
        weights[low] = 0.0
        weights[high] = 1.0
    del blocks
    loops = pairs[:, 0] == pairs[:, 1]
    self_loops = int(np.count_nonzero(loops))
    if self_loops:
        pairs = pairs[~loops]
        weights = None if weights is None else weights[~loops]
    # Ids in add_edge replay order: first appearance, u before v.
    keys = pairs.ravel()
    ids, first_seen, _ = _first_appearance(keys)
    labels = scan.labels(keys[first_seen])
    line_u, line_v = ids[0::2], ids[1::2]
    _, first, last = _first_appearance(
        np.minimum(line_u, line_v) * len(labels) + np.maximum(line_u, line_v)
    )
    if weights is not None:
        # add_edge on an existing edge overwrote its weight: the last wins.
        weights = weights[last] if first.shape[0] else None
    graph = Graph.from_edge_ids(labels, line_u[first], line_v[first], weights)
    summary = EdgeListSummary(
        lines_total=scan.lines,
        comment_lines=scan.comments,
        edges_added=graph.num_edges,
        self_loops_skipped=self_loops,
        duplicates_skipped=line_u.shape[0] - graph.num_edges,
        weights_clamped=clamped,
    )
    return graph, summary


class _EdgeListScan:
    """The byte tokenizer behind :func:`read_edge_list` and ``iter_edge_list``.

    Iterating reads ``path`` in blocks of about :data:`_BLOCK_BYTES`, each
    cut after a line break, and yields per block ``(keys, weights)``: a row
    of endpoint keys per data line, self-loops included, and the lines'
    weight column as ``float64`` (``None`` without ``weight_col``).
    ``lines`` and ``comments`` count the lines read so far.  The first
    malformed line raises :class:`GraphError` naming ``path:line``, once
    the rows before it are yielded.

    The parse is text-mode reading plus ``str.split()`` per line, on byte
    arrays: ``\\r\\n`` and a lone ``\\r`` end a line as universal newlines
    do; a 256-entry table holds ``str.split()``'s ASCII whitespace; any
    other whitespace character is first replaced by as many spaces as it
    has UTF-8 bytes, so byte offsets, and the line an error quotes, stay
    put.  A token of at most :data:`_DIGITS` ASCII digits is parsed
    arithmetically.  Any other token becomes ``int(token)`` where that
    parses, else the token itself.  A label keys as its value if it is an
    int in ``[-2**62, 2**62)``, else as ``2**62`` plus its index in the
    scan's label map, so equal labels get equal keys and :meth:`labels`
    maps keys back.
    """

    def __init__(self, path: PathLike, weight_col: Optional[int] = None) -> None:
        self.path = path
        self.weight_col = weight_col
        self.lines = self.comments = 0
        self._mapped: List[Node] = []
        self._key_of: Dict[Node, int] = {}

    def __iter__(self) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
        need = 2 if self.weight_col is None else self.weight_col + 1
        for raw in _line_blocks(self.path):
            text = raw
            if not raw.isascii():
                text = _WIDE_SPACE.sub(_spaces, raw.decode("utf-8")).encode("utf-8")
            codes = np.frombuffer(text, dtype=np.uint8)
            space = np.ones(codes.shape[0] + 2, dtype=bool)
            space[1:-1] = _SPACE[codes]
            spans = np.flatnonzero(space[1:] != space[:-1])
            starts, ends = spans[0::2], spans[1::2]
            breaks = np.flatnonzero(codes == ord("\n"))
            line_of = np.searchsorted(breaks, starts)
            heads = np.flatnonzero(np.diff(line_of, prepend=-1))  # each line's first token
            counts = np.diff(heads, append=starts.shape[0])
            lead = codes[starts[heads]]
            data = (lead != ord("#")) & (lead != ord("%"))
            heads, counts = heads[data], counts[data]
            first_line = self.lines + 1
            block_lines = breaks.shape[0] + (not raw.endswith(b"\n"))
            self.lines += block_lines
            self.comments += block_lines - heads.shape[0]
            short = np.flatnonzero(counts < need)
            stop = int(short[0]) if short.shape[0] else heads.shape[0]
            weights = problem = None
            if self.weight_col is not None:
                at = heads[:stop] + self.weight_col
                tokens = _decode(text, starts[at], ends[at])
                weights = np.fromiter(map(_weight, tokens), dtype=np.float64, count=len(tokens))
                bad = np.flatnonzero(np.isnan(weights))
                if bad.shape[0]:
                    stop = int(bad[0])
                    weights = weights[:stop]
                    problem = f"bad weight token {tokens[stop]!r}"
            if stop:
                columns = np.repeat(heads[:stop], 2)  # each data line's u and v
                columns[1::2] += 1
                keys = self._keys(text, codes, starts[columns], ends[columns])
                yield keys.reshape(-1, 2), weights
            if stop < heads.shape[0]:
                line = int(line_of[heads[stop]])
                if problem is None:
                    quoted = raw.split(b"\n")[line].decode("utf-8").strip()
                    if counts[stop] < 2:
                        problem = f"expected two node tokens, got {quoted!r}"
                    else:
                        problem = f"no weight column {self.weight_col} in {quoted!r}"
                raise GraphError(f"{self.path}:{first_line + line}: {problem}")

    def _keys(
        self, text: bytes, codes: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> np.ndarray:
        """The key of each token ``text[starts[i]:ends[i]]``."""
        keys = np.zeros(starts.shape[0], dtype=np.int64)
        lengths = ends - starts
        numeric = lengths <= _DIGITS
        width = min(int(lengths.max(initial=0)), _DIGITS)
        for column in range(width):  # right-aligned digit columns
            at = ends - width + column
            digit = codes[np.maximum(at, 0)] - ord("0")  # uint8: other bytes wrap above 9
            digit[at < starts] = 0
            numeric &= digit <= 9
            keys = keys * 10 + np.where(digit <= 9, digit, 0)
        others = np.flatnonzero(~numeric)
        if others.shape[0]:
            keys[others] = list(map(self._key, _decode(text, starts[others], ends[others])))
        return keys

    def _key(self, token: str) -> int:
        label = _parse_label(token)
        if type(label) is int and -_MAPPED <= label < _MAPPED:
            return label
        key = self._key_of.get(label)
        if key is None:
            key = self._key_of[label] = _MAPPED + len(self._mapped)
            self._mapped.append(label)
        return key

    def labels(self, keys: np.ndarray) -> List[Node]:
        """The label each key stands for."""
        labels = keys.tolist()
        for i in np.flatnonzero(keys >= _MAPPED).tolist():
            labels[i] = self._mapped[labels[i] - _MAPPED]
        return labels


def _line_blocks(path: PathLike) -> Iterator[bytes]:
    """``path``'s bytes in blocks of whole lines, line ends folded to ``\\n``.

    A ``\\r`` ending the bytes read so far waits for the next read, which
    shows whether it is half of a ``\\r\\n``.
    """
    pending = bytearray()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_BLOCK_BYTES)
            if not chunk:
                break
            searched = max(len(pending) - 1, 0)  # pending holds no other break
            pending += chunk
            end = len(pending) - (pending[-1] == ord("\r"))
            cut = 1 + max(pending.rfind(b"\n", searched, end), pending.rfind(b"\r", searched, end))
            if cut:
                yield _fold(pending[:cut])
                del pending[:cut]
    if pending:
        yield _fold(pending)


def _fold(data: bytearray) -> bytes:
    return bytes(data).replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def _spaces(match: "re.Match[str]") -> str:
    return " " * len(match.group().encode("utf-8"))


def _decode(text: bytes, starts: np.ndarray, ends: np.ndarray) -> List[str]:
    return [text[start:end].decode("utf-8") for start, end in zip(starts.tolist(), ends.tolist())]


def _parse_label(token: str) -> Node:
    try:
        return int(token)
    except ValueError:
        return token


def _weight(token: str) -> float:
    """``float(token)``, or NaN (refused like a non-number) where that fails.

    A NaN weight would pass every range check unclamped and poison
    expected degrees downstream.
    """
    try:
        return float(token)
    except ValueError:
        return math.nan


def _first_appearance(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the distinct values of ``keys`` in order of first appearance.

    Returns ``(ids, first, last)``: ``keys[i]`` is value ``ids[i]``, and
    value ``j`` first and last occurs at ``first[j]`` and ``last[j]``.
    One unstable sort groups equal keys; each group's least and largest
    index are its first and last occurrence.
    """
    order = np.argsort(keys)
    ordered = keys[order]
    fresh = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    groups = np.flatnonzero(fresh)
    first = np.minimum.reduceat(order, groups) if groups.shape[0] else groups
    last = np.maximum.reduceat(order, groups) if groups.shape[0] else groups
    by_first = np.argsort(first)
    rank = np.empty(by_first.shape[0], dtype=np.int64)
    rank[by_first] = np.arange(by_first.shape[0])
    ids = np.empty(keys.shape[0], dtype=np.int64)
    ids[order] = rank[np.cumsum(fresh) - 1]
    return ids, first[by_first], last[by_first]


def write_edge_list(graph: Graph, path: PathLike, header: str = "") -> None:
    """Write the canonical edge list, optionally with a ``#`` header line.

    Weighted graphs gain a third weight column (``%.17g``, round-trip
    exact), which :func:`read_edge_list` reads back with ``weight_col=2``.
    Each label is formatted once and the :meth:`Graph.edge_arrays` scan
    is written from those tokens.  A label whose token
    :func:`read_edge_list` would not read back as that label (empty,
    holding whitespace, starting a comment, or parsing to another value,
    as the str ``"7"`` parses to the int ``7``), or a header holding a
    line break, raises :class:`GraphError` before ``path`` is opened.
    """
    if "\n" in header or "\r" in header:
        raise GraphError(f"edge-list header {header!r} contains a line break")
    labels, edge_u, edge_v, weights = graph.edge_arrays()
    tokens = np.empty(len(labels), dtype=object)
    tokens[:] = _label_tokens(labels)
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(f"# {header}\n")
        handle.write(f"# nodes: {len(labels)} edges: {edge_u.shape[0]}\n")
        for start in range(0, edge_u.shape[0], _CHUNK_LINES):
            chunk = slice(start, start + _CHUNK_LINES)
            columns = [tokens[edge_u[chunk]].tolist(), tokens[edge_v[chunk]].tolist()]
            if weights is not None:
                columns.append(list(map("{:.17g}".format, weights[chunk].tolist())))
            handle.write("\n".join(map("\t".join, zip(*columns))))
            handle.write("\n")


def _label_tokens(labels: List[Node]) -> List[str]:
    """Each label's edge-list token, refusing one that would not read back.

    A plain ``int`` always reads back as itself, so only other labels
    pay for the check.
    """
    tokens = list(map(format, labels))
    for label, token in zip(labels, tokens):
        if type(label) is not int and (
            token.split() != [token]
            or token[0] in "#%"
            or _parse_label(token) != label
        ):
            raise GraphError(
                f"node label {label!r} cannot be written to an edge list:"
                f" its token {token!r} would not read back as the same node"
            )
    return tokens


def graph_to_payload(graph: Graph) -> dict:
    """The JSON wire shape ``{"nodes": [...], "edges": [[u, v], ...]}``.

    Nodes appear in insertion order and edges in canonical iteration
    order, so :func:`graph_from_payload` reconstructs a graph with the
    *same* deterministic iteration order — loading an artifact yields
    bit-identical downstream computations.  A weighted graph adds a
    ``"weights"`` list aligned with ``"edges"``.
    """
    payload = {
        "nodes": list(graph.nodes()),
        "edges": [[u, v] for u, v in graph.edges()],
    }
    if graph.is_weighted:
        payload["weights"] = [w for _, _, w in graph.edge_weights()]
    return payload


def graph_from_payload(payload: dict, where: str = "payload") -> Graph:
    """Rebuild a graph from :func:`graph_to_payload` output.

    Payloads cross process and file boundaries, so any malformed shape
    raises :class:`GraphError` naming ``where``; a NaN weight is stored
    as given.
    """
    if not isinstance(payload, dict) or "nodes" not in payload or "edges" not in payload:
        raise GraphError(f"{where}: not a repro graph payload")
    nodes, edges, weights = payload["nodes"], payload["edges"], payload.get("weights")
    if not isinstance(nodes, (list, tuple)) or not isinstance(edges, (list, tuple)):
        raise GraphError(f"{where}: nodes and edges must be lists")
    if weights is not None:
        if not isinstance(weights, (list, tuple)) or len(weights) != len(edges):
            raise GraphError(f"{where}: weights list does not match edges")
        weights = [_payload_weight(weight, where) for weight in weights]
    for edge in edges:
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise GraphError(f"{where}: malformed edge entry {edge!r}")
    try:
        graph = Graph(nodes=nodes)
        for position, (u, v) in enumerate(edges):
            graph.add_edge(u, v, weight=None if weights is None else weights[position])
    except TypeError:
        raise GraphError(f"{where}: unhashable node label") from None
    except SelfLoopError as error:
        raise GraphError(f"{where}: {error}") from None
    return graph


def _payload_weight(weight, where: str) -> float:
    try:
        return float(weight)
    except (TypeError, ValueError, OverflowError):
        raise GraphError(f"{where}: non-numeric weight {weight!r}") from None


def write_json(graph: Graph, path: PathLike) -> None:
    """Write ``{"nodes": [...], "edges": [[u, v], ...]}`` — keeps isolates."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(graph_to_payload(graph), handle)


def read_json(path: PathLike) -> Graph:
    """Read a graph written by :func:`write_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return graph_from_payload(payload, where=str(path))
