"""Output checks: each recomputes a claim from the artifact itself.

The file-to-artifact workloads re-read the written edge list with numpy
and check V' = V, E' ⊆ E, no repeated edge, the method's edge count and
Δ = Σ_v |deg'(v) - p·deg(v)| against what the program reported.  The
serving workloads compare graphs by :func:`edge_fingerprint`.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np


def round_half_up(value: float) -> int:
    """The paper's [x]: nearest integer, halves rounded up."""
    return int(math.floor(value + 0.5))


def edge_fingerprint(graph) -> str:
    """Order-free digest of an integer-labelled graph's edge set."""
    edges = sorted((u, v) if u <= v else (v, u) for u, v in graph.edges())
    return hashlib.sha256(repr(edges).encode("ascii")).hexdigest()[:16]


def _read_artifact(path: Path) -> Tuple[Optional[int], np.ndarray, np.ndarray, str]:
    """Header node count, endpoint arrays and SHA-256 of one edge list."""
    raw = path.read_bytes()
    header_nodes: Optional[int] = None
    tokens: List[str] = []
    for line in raw.decode("utf-8").splitlines():
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) >= 2 and fields[0] == "nodes:":
                header_nodes = int(fields[1])
            continue
        tokens.extend(line.split()[:2])
    ids = np.fromiter(map(int, tokens), dtype=np.int64, count=len(tokens))
    return header_nodes, ids[0::2], ids[1::2], hashlib.sha256(raw).hexdigest()


def check_artifact(
    path: Path,
    input_u: np.ndarray,
    input_v: np.ndarray,
    p: float,
    reported_delta: float,
    expect_edges: Optional[int] = None,
) -> Tuple[List[str], Dict[str, object]]:
    """Check a written reduction against the input edge arrays.

    Returns ``(problems, facts)``: an empty problem list means every check
    held; ``facts`` carries the kept-edge count, recomputed Δ and Δ/|V|,
    and the artifact's SHA-256 for the exact-repeat guards.
    """
    header_nodes, out_u, out_v, digest = _read_artifact(path)
    nodes = np.unique(np.concatenate((input_u, input_v)))
    n = int(nodes[-1]) + 1
    problems: List[str] = []
    if header_nodes != nodes.shape[0]:
        problems.append(f"V' != V: artifact lists {header_nodes} nodes, input {nodes.shape[0]}")
    if out_u.shape[0] and (min(out_u.min(), out_v.min()) < 0 or max(out_u.max(), out_v.max()) >= n):
        problems.append("artifact names a node outside V")
        return problems, {"kept_edges": int(out_u.shape[0]), "sha256": digest}
    in_keys = np.minimum(input_u, input_v) * n + np.maximum(input_u, input_v)
    out_keys = np.minimum(out_u, out_v) * n + np.maximum(out_u, out_v)
    if np.unique(out_keys).shape[0] != out_keys.shape[0]:
        problems.append("artifact repeats an edge")
    if not np.isin(out_keys, in_keys).all():
        problems.append("E' is not a subset of E")
    if expect_edges is not None and out_keys.shape[0] != expect_edges:
        problems.append(f"kept {out_keys.shape[0]} edges, method rule says {expect_edges}")
    degree = np.bincount(input_u, minlength=n) + np.bincount(input_v, minlength=n)
    kept = np.bincount(out_u, minlength=n) + np.bincount(out_v, minlength=n)
    delta = math.fsum(np.abs(kept[nodes] - p * degree[nodes]).tolist())
    if not math.isclose(delta, reported_delta, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"delta from artifact {delta!r} != reported {reported_delta!r}")
    facts = {
        "kept_edges": int(out_keys.shape[0]),
        "delta": delta,
        "avg_delta": delta / nodes.shape[0],
        "sha256": digest,
    }
    return problems, facts
