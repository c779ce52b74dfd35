"""Micro-benchmarks for the wider substrate (repeated-timing mode)."""

import pytest

from repro.graph import (
    core_numbers,
    distance_distribution,
    hop_plot,
    label_propagation,
    powerlaw_cluster,
)
from repro.streaming import shed_stream


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(400, 3, 0.4, seed=7)


def test_core_numbers(benchmark, graph):
    cores = benchmark(lambda: core_numbers(graph))
    assert len(cores) == graph.num_nodes


def test_label_propagation(benchmark, graph):
    labels = benchmark(lambda: label_propagation(graph, seed=0))
    assert len(labels) == graph.num_nodes


def test_distance_distribution_sampled(benchmark, graph):
    dist = benchmark(lambda: distance_distribution(graph, num_sources=64, seed=0))
    assert abs(sum(dist.values()) - 1.0) < 1e-9


def test_hop_plot_sampled(benchmark, graph):
    plot = benchmark(lambda: hop_plot(graph, num_sources=64, seed=0))
    assert plot


def test_stream_shedding(benchmark, graph):
    edges = list(graph.edges())
    kept = benchmark(lambda: list(shed_stream(lambda: iter(edges), 0.5)))
    assert kept
