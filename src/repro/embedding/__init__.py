"""Node-embedding substrate: node2vec walks, SGNS training, and k-means.

Everything the link-prediction evaluation task needs, implemented in plain
numpy (no external ML dependencies).  Walk generation and SGNS training
both run array-native: batched walk epochs and mini-batched SGNS.
"""

from repro.embedding.kmeans import KMeansResult, kmeans
from repro.embedding.node2vec import Node2VecModel, node2vec_embed
from repro.embedding.skipgram import build_skipgram_pairs, train_skipgram
from repro.embedding.walks import generate_walk_matrix, generate_walks

__all__ = [
    "generate_walks",
    "generate_walk_matrix",
    "train_skipgram",
    "build_skipgram_pairs",
    "node2vec_embed",
    "Node2VecModel",
    "kmeans",
    "KMeansResult",
]
