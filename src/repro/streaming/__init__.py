"""Streaming / external-memory edge shedding (O(|V|)-memory reductions)."""

from repro.streaming.files import (
    StreamSheddingStats,
    iter_edge_list,
    shed_edge_list_file,
)
from repro.streaming.shedder import (
    ReservoirSample,
    count_stream_degrees,
    reservoir_shed,
    reservoir_slot,
    shed_stream,
)

__all__ = [
    "count_stream_degrees",
    "shed_stream",
    "reservoir_shed",
    "reservoir_slot",
    "ReservoirSample",
    "iter_edge_list",
    "shed_edge_list_file",
    "StreamSheddingStats",
]
