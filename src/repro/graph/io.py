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

Ingest is array-first.  The reader parses the file in bounded chunks of
lines into endpoint-id arrays, numbering nodes in order of first
appearance, then hands the distinct edges to :meth:`Graph.from_edge_ids`
— the one array-to-``Graph`` constructor — which keeps the sorted edge
arrays and memoises the CSR snapshot; the adjacency dicts are built only
when something first mutates the graph or reads them.  The graph behaves
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
import operator
from dataclasses import dataclass
from itertools import compress, islice
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

#: Lines parsed or written per chunk.  One chunk's lines and token lists
#: are the parse's (and the writer's) only per-line Python objects, so the
#: chunk bounds their transient memory — which fork-pool workers inherit
#: as their high-water mark.
_CHUNK_LINES = 4096


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
    need = 2 if weight_col is None else weight_col + 1
    index_of: Dict[Node, int] = {}
    assign = index_of.setdefault
    id_chunks: List[np.ndarray] = []
    weight_chunks: List[np.ndarray] = []
    lines_total = comment_lines = self_loops = clamped = 0
    with open(path, "r", encoding="utf-8") as handle:
        while True:
            lines = list(islice(handle, _CHUNK_LINES))
            if not lines:
                break
            first_line = lines_total + 1
            lines_total += len(lines)
            # split() strips like strip(), so a row's first token starts
            # with the stripped line's first character.
            rows = [line.split() for line in lines]
            data = [row for row in rows if row and row[0][0] not in "#%"]
            comment_lines += len(rows) - len(data)
            if not data:
                continue
            weights = None
            valid = min(map(len, data)) >= need
            if valid and weight_col is not None:
                weights = _weight_array([row[weight_col] for row in data])
                valid = weights is not None
            if not valid:
                offset, problem = next(_line_problems(lines, weight_col))
                raise GraphError(f"{path}:{first_line + offset}: {problem}")
            if weights is not None:
                low, high = weights < 0.0, weights > 1.0
                clamped += int(np.count_nonzero(low | high))
                weights[low] = 0.0
                weights[high] = 1.0
            us = _node_labels([row[0] for row in data])
            vs = _node_labels([row[1] for row in data])
            loops = list(map(operator.eq, us, vs))
            loop_count = loops.count(True)
            if loop_count:
                self_loops += loop_count
                keep = [not loop for loop in loops]
                us, vs = list(compress(us, keep)), list(compress(vs, keep))
                if weights is not None:
                    weights = weights[np.array(keep)]
            # Ids in add_edge replay order: first appearance, u before v.
            endpoints = [None] * (2 * len(us))
            endpoints[0::2] = us
            endpoints[1::2] = vs
            id_chunks.append(
                np.array([assign(node, len(index_of)) for node in endpoints], dtype=np.int64)
            )
            if weights is not None:
                weight_chunks.append(weights)
    ids = np.concatenate(id_chunks) if id_chunks else np.empty(0, dtype=np.int64)
    line_u, line_v = ids[0::2], ids[1::2]
    first, last = _first_and_last(line_u, line_v, len(index_of))
    weights = None
    if weight_chunks and first.shape[0]:
        # add_edge on an existing edge overwrote its weight: the last wins.
        weights = np.concatenate(weight_chunks)[last]
    graph = Graph.from_edge_ids(list(index_of), line_u[first], line_v[first], weights)
    summary = EdgeListSummary(
        lines_total=lines_total,
        comment_lines=comment_lines,
        edges_added=graph.num_edges,
        self_loops_skipped=self_loops,
        duplicates_skipped=line_u.shape[0] - graph.num_edges,
        weights_clamped=clamped,
    )
    return graph, summary


def _parse_node(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _node_labels(tokens: List[str]) -> List[Node]:
    """``int(token)`` where that parses, else the token itself."""
    try:
        return list(map(int, tokens))
    except ValueError:
        return [_parse_node(token) for token in tokens]


def _weight_array(tokens: List[str]) -> Optional[np.ndarray]:
    """The tokens as ``float64``, or ``None`` if one is not a number.

    NaN counts as not a number: it passes every range check unclamped
    and would poison expected degrees downstream.
    """
    try:
        weights = np.array(list(map(float, tokens)), dtype=np.float64)
    except ValueError:
        return None
    return None if bool(np.isnan(weights).any()) else weights


def _line_problems(lines: List[str], weight_col: Optional[int]) -> Iterator[Tuple[int, str]]:
    """``(offset, message)`` for each malformed line, in file order."""
    for offset, raw_line in enumerate(lines):
        parts = raw_line.split()
        if not parts or parts[0][0] in "#%":
            continue
        if len(parts) < 2:
            yield offset, f"expected two node tokens, got {raw_line.strip()!r}"
        elif weight_col is not None:
            if len(parts) <= weight_col:
                yield offset, f"no weight column {weight_col} in {raw_line.strip()!r}"
            elif _weight_array([parts[weight_col]]) is None:
                yield offset, f"bad weight token {parts[weight_col]!r}"


def _first_and_last(
    line_u: np.ndarray, line_v: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Line indices of each distinct edge's first and last occurrence.

    Both arrays run in first-occurrence order, the order in which
    ``add_edge`` replay would have created the edges.
    """
    keys = np.minimum(line_u, line_v) * n + np.maximum(line_u, line_v)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundary = np.ones(keys.shape[0] + 1, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:-1])
    first = order[boundary[:-1]]
    # Scatter by line index instead of sorting the first occurrences.
    last_of = np.zeros(keys.shape[0], dtype=np.int64)
    last_of[first] = order[boundary[1:]]
    first.sort()
    return first, last_of[first]


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
            or _parse_node(token) != label
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
