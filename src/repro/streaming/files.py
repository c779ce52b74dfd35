"""File-to-file streaming shedding.

Glues :mod:`repro.streaming.shedder` to SNAP-style edge-list files so a
graph larger than memory can be reduced disk-to-disk: only the degree and
load tables (``O(|V|)``) are ever resident.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

from repro.graph.graph import Edge
from repro.graph.io import _EdgeListScan
from repro.streaming.shedder import shed_stream

__all__ = ["StreamSheddingStats", "iter_edge_list", "shed_edge_list_file"]

PathLike = Union[str, Path]


def iter_edge_list(path: PathLike) -> Iterator[Edge]:
    """Stream edges from a SNAP-style edge list without loading the graph.

    It reads through the same byte tokenizer as
    :func:`repro.graph.io.read_edge_list`, with the same labels and the
    same :class:`~repro.errors.GraphError` naming ``path:line`` for a
    malformed line.  Unlike the reader it yields every data line as it
    stands, duplicates and self-loops included; the streaming shedder's
    :func:`~repro.streaming.shedder.count_stream_degrees` refuses both
    with :class:`~repro.errors.ReductionError`.  Memory stays ``O(|V|)``:
    one block's arrays and the labels that are not small ints.
    """
    scan = _EdgeListScan(path)
    for keys, _ in scan:
        labels = scan.labels(keys.ravel())
        yield from zip(labels[0::2], labels[1::2])


@dataclass(frozen=True)
class StreamSheddingStats:
    """Outcome of a disk-to-disk shedding run."""

    input_edges: int
    kept_edges: int
    p: float

    @property
    def achieved_ratio(self) -> float:
        return self.kept_edges / self.input_edges if self.input_edges else 0.0


def shed_edge_list_file(
    input_path: PathLike, output_path: PathLike, p: float
) -> StreamSheddingStats:
    """Reduce an edge-list file to ``output_path`` with O(|V|) memory."""
    input_edges = sum(1 for _ in iter_edge_list(input_path))
    kept = 0
    with open(output_path, "w", encoding="utf-8") as handle:
        handle.write(f"# streamed reduction p={p} of {input_path}\n")
        for u, v in shed_stream(lambda: iter_edge_list(input_path), p):
            handle.write(f"{u}\t{v}\n")
            kept += 1
    return StreamSheddingStats(input_edges=input_edges, kept_edges=kept, p=p)
