"""Seeded input generators for the benchmark workloads.

Every input is a pure function of its ``numpy`` generator, so one seed
gives byte-identical edge-list files and churn streams on every run.
The generators use only numpy and the standard library -- never the
package under test -- so a change to ``repro`` cannot silently change
what the benchmark feeds it.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

import numpy as np

ChurnOp = Tuple[str, int, int]

#: Power-law exponent of the hub-skewed degree tail.
GAMMA = 2.5
#: Planted groups of :func:`planted_community_edges`, and the share of
#: edge draws that land inside one group.
COMMUNITIES = 8
INTRA = 0.95
#: Share of churn ops that insert, and of inserts that bring a new node.
INSERT_PROB = 0.6
NEW_NODE_RATIO = 0.1


def _powerlaw_cdf(n: int) -> np.ndarray:
    """Cumulative Chung-Lu weights ``rank^(-1/(GAMMA-1))`` over ``n`` nodes."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (GAMMA - 1.0))
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _dedupe(u: np.ndarray, v: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Drop self-loops and repeated pairs, keeping first occurrences in order."""
    keep = u != v
    u, v = u[keep], v[keep]
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return u[first], v[first]


def _draw_until(draw, n: int, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Call ``draw(k)`` for endpoint pairs until ``m`` distinct edges exist."""
    u = np.empty(0, dtype=np.int64)
    v = np.empty(0, dtype=np.int64)
    while u.shape[0] < m:
        need = m - u.shape[0]
        du, dv = draw(int(need * 1.25) + 64)
        u, v = _dedupe(np.concatenate((u, du)), np.concatenate((v, dv)), n)
    return u[:m], v[:m]


def hub_skewed_edges(n: int, m: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """``m`` distinct edges over ``n`` nodes with a power-law degree tail.

    Endpoints are drawn independently with Chung-Lu weights, then node ids
    are shuffled so hubs sit anywhere in the file's scan order.
    """
    cdf = _powerlaw_cdf(n)

    def draw(k: int):
        return (
            np.searchsorted(cdf, rng.random(k), side="right"),
            np.searchsorted(cdf, rng.random(k), side="right"),
        )

    u, v = _draw_until(draw, n, m)
    perm = rng.permutation(n)
    return perm[u], perm[v]


def planted_community_edges(
    n: int, m: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Hub-skewed edges inside :data:`COMMUNITIES` planted groups.

    A share :data:`INTRA` of the edge draws land inside one group (chosen by
    its weight); the rest join two distinct groups.  Within a group,
    endpoints follow the same Chung-Lu tail as :func:`hub_skewed_edges`.
    """
    size = n // COMMUNITIES
    n = size * COMMUNITIES
    cdf = _powerlaw_cdf(size)

    def draw(k: int):
        inside = rng.random(k) < INTRA
        group_u = rng.integers(0, COMMUNITIES, size=k)
        shift = rng.integers(1, COMMUNITIES, size=k)
        group_v = np.where(inside, group_u, (group_u + shift) % COMMUNITIES)
        local_u = np.searchsorted(cdf, rng.random(k), side="right")
        local_v = np.searchsorted(cdf, rng.random(k), side="right")
        return group_u * size + local_u, group_v * size + local_v

    u, v = _draw_until(draw, n, m)
    perm = rng.permutation(n)
    return perm[u], perm[v]


def erdos_renyi_edges(n: int, m: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """``m`` distinct uniformly random edges over ``n`` nodes."""

    def draw(k: int):
        return rng.integers(0, n, size=k), rng.integers(0, n, size=k)

    return _draw_until(draw, n, m)


def powerlaw_cluster_edges(
    n: int, k: int, triangle_prob: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Holme-Kim growth: preferential attachment plus triangle closure.

    Each new node attaches ``k`` edges; after its first target it closes a
    triangle through the previous target with ``triangle_prob``.  Gives
    heavy-tailed degrees with high clustering (about ``n*k`` edges).
    """
    neighbors: List[set] = [set() for _ in range(n)]
    repeated: List[int] = []
    edges_u: List[int] = []
    edges_v: List[int] = []

    def link(a: int, b: int) -> None:
        neighbors[a].add(b)
        neighbors[b].add(a)
        repeated.extend((a, b))
        edges_u.append(a)
        edges_v.append(b)

    for target in range(1, k + 1):
        link(0, target)
    for node in range(k + 1, n):
        added = 0
        last = -1
        while added < k:
            if last >= 0 and rng.random() < triangle_prob:
                options = sorted(neighbors[last] - neighbors[node] - {node})
                if options:
                    last = options[int(rng.integers(len(options)))]
                    link(node, last)
                    added += 1
                    continue
            target = repeated[int(rng.integers(len(repeated)))]
            if target != node and target not in neighbors[node]:
                link(node, target)
                added += 1
                last = target
    return np.asarray(edges_u, dtype=np.int64), np.asarray(edges_v, dtype=np.int64)


def mixed_churn_ops(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    num_ops: int,
    rng: np.random.Generator,
) -> List[ChurnOp]:
    """A valid insert/delete stream against the graph ``(edge_u, edge_v)``.

    Inserts (probability :data:`INSERT_PROB`) join two random existing
    nodes, or with :data:`NEW_NODE_RATIO` attach a brand-new integer node; deletes
    remove a uniformly random live edge.  A shadow edge set keeps every op
    valid: no duplicate inserts, no deletes of absent edges.
    """
    nodes: List[int] = list(dict.fromkeys(np.stack((edge_u, edge_v), 1).ravel().tolist()))
    next_node = max(nodes) + 1
    live: List[Tuple[int, int]] = [
        (min(a, b), max(a, b)) for a, b in zip(edge_u.tolist(), edge_v.tolist())
    ]
    position = {edge: i for i, edge in enumerate(live)}
    ops: List[ChurnOp] = []
    while len(ops) < num_ops:
        if rng.random() < INSERT_PROB or not live:
            if rng.random() < NEW_NODE_RATIO:
                a, b = next_node, nodes[int(rng.integers(len(nodes)))]
                nodes.append(next_node)
                next_node += 1
            else:
                a = nodes[int(rng.integers(len(nodes)))]
                b = nodes[int(rng.integers(len(nodes)))]
            edge = (min(a, b), max(a, b))
            if a == b or edge in position:
                continue
            position[edge] = len(live)
            live.append(edge)
            ops.append(("insert", a, b))
        else:
            i = int(rng.integers(len(live)))
            edge = live[i]
            last = live.pop()
            if i < len(live):
                live[i] = last
                position[last] = i
            del position[edge]
            ops.append(("delete", edge[0], edge[1]))
    return ops


def write_edge_file(path: Path, edge_u: np.ndarray, edge_v: np.ndarray, header: str) -> None:
    """Write a SNAP-style edge list: one ``# header`` line, then ``u<TAB>v``."""
    body = "\n".join(f"{a}\t{b}" for a, b in zip(edge_u.tolist(), edge_v.tolist()))
    path.write_text(f"# {header}\n{body}\n", encoding="utf-8")
