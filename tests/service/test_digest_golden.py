"""Golden values of :func:`graph_digest` and :attr:`ArtifactKey.token`.

Persisted artifacts are filed under ``ArtifactKey.token``, which hashes
the graph digest, so a digest that drifts silently orphans every disk
cache written before the drift.  The other store tests only compare
digests with each other; this file pins the hex values themselves, for
graphs covering each way a label or weight reaches the byte stream: int,
str and tuple labels, ``1`` beside ``"1"``, isolated nodes, the empty
graph, fractional weights (folded in via ``repr``), a seeded generator
graph and a string-labelled edge-list file.

Each case digests a freshly built graph and then the same object again,
so a memoised digest must equal the recorded one too.  String and tuple
hashes change with ``PYTHONHASHSEED`` while the digest must not (caches
are shared between processes), so CI runs this file under two hash seeds.
"""

import pytest

from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list
from repro.service.store import ArtifactKey, graph_digest


def _weighted():
    g = Graph(edges=[(0, 1), (1, 2)])
    g.add_edge(2, 3, weight=0.1)
    g.add_edge(3, 0, weight=1 / 3)
    g.add_edge(0, 2, weight=0.7)
    return g


def _edge_list_file(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text(
        "# string-labelled edge list\n"
        "alice bob\n"
        "bob carol\n"
        "carol alice\n"
        "dave alice\n"
        "bob alice\n"
        "erin erin\n",
        encoding="utf-8",
    )
    return read_edge_list(path)


_MAKERS = {
    "int-labels": lambda tmp: Graph(edges=[(3, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
    "str-labels": lambda tmp: Graph(
        edges=[("alpha", "beta"), ("beta", "gamma"), ("gamma", "alpha"), ("gamma", "delta")]
    ),
    "tuple-labels": lambda tmp: Graph(
        edges=[(("dyn", 0), ("dyn", 1)), (("dyn", 1), ("dyn", 2)), ((0, 1), ("dyn", 0))]
    ),
    "int-beside-str": lambda tmp: Graph(edges=[(1, "1"), (1, 2), ("1", "2")]),
    "isolated-nodes": lambda tmp: Graph(edges=[(0, 1), (1, 2)], nodes=[7, "lonely", 8]),
    "empty": lambda tmp: Graph(),
    "fractional-weights": lambda tmp: _weighted(),
    "erdos-renyi": lambda tmp: erdos_renyi(60, 0.1, seed=7),
    "edge-list-file": _edge_list_file,
}

GOLDEN = {
    "int-labels": "e87bf35c4b970798813561aeb6d434f0b20b463cb333f68443fc3a68d70b95bd",
    "str-labels": "9f256f49a533b07fc60fe78247cd74722e65c6e01e59113b543b7d1be0237df0",
    "tuple-labels": "e3f3e17bccf80a19f98e98c7d9cee99006a3d248f4a17fdac92b169e8e4230c1",
    "int-beside-str": "cff4c0c79c15408e9a34b91d8a69bec0603002b46de2dd1b6f2327ed0ba7da0a",
    "isolated-nodes": "3b72e9c6ecf015e86597401e97036fcc12fd2be8abed0d890398f2f3fd4234c5",
    "empty": "fe74814c21e41c4b636d054ede6a5e04848339aecf87a8667c32d23c2f1714ee",
    "fractional-weights": "df6d313a2920c2178bd4cd88c696ef6e8f40a1ae29f2b776ca9daae1e5769497",
    "erdos-renyi": "0af35d8d5e2fddd8ac5d46add2ee435bcb62d2e8145e16ee5b22d4fcb08d1bdd",
    "edge-list-file": "93bfffa8e964ec7e57c26923a5c12da59d3aaf672c53925f96aac75499484835",
}

GOLDEN_TOKEN = "813dc1be6e650d4c8100da5937010f7a"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_matches_record(name, tmp_path):
    graph = _MAKERS[name](tmp_path)
    assert graph_digest(graph) == GOLDEN[name]
    assert graph_digest(graph) == GOLDEN[name]


def test_artifact_token_matches_record():
    key = ArtifactKey(GOLDEN["int-labels"], "crr", 0.5, 3, variant="sources=64")
    assert key.token == GOLDEN_TOKEN
