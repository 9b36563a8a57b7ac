"""The Kernighan-Lin port in NEUTRAMS against the networkx body it replaced.

``neutrams_partition`` bisects with a standard-library port of networkx's
``kernighan_lin_bisection``.  The networkx version lives on here as the
oracle, and the port must give the same assignment and leave the
caller's generator in the same state, on generated graphs (isolated
neurons, self-loops, parallel synapses, parts above and below half the
graph, 1-8 clusters) and on every Fig. 5 workload.
"""

from __future__ import annotations

from typing import List

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import neutrams, neutrams_partition
from repro.core.partition import Partition, repair_assignment
from repro.framework.reproduce import BENCH_GRAPHS, bench_architecture, bench_graph
from repro.snn.graph import SpikeGraph
from repro.utils.rng import default_rng
from repro.utils.validation import check_positive


def oracle_neutrams_partition(graph, n_clusters, capacity, seed=None):
    """The replaced body: networkx's KL on ``g.subgraph(part)``."""
    check_positive("n_clusters", n_clusters)
    check_positive("capacity", capacity)
    n = graph.n_neurons
    if n > n_clusters * capacity:
        raise ValueError(f"{n} neurons cannot fit in {n_clusters} x {capacity} slots")
    rng = default_rng(seed)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for s, d in zip(graph.src, graph.dst):
        if int(s) != int(d):
            g.add_edge(int(s), int(d))

    parts: List[set] = [set(range(n))]
    while len(parts) < n_clusters:
        parts.sort(key=len, reverse=True)
        biggest = parts.pop(0)
        if len(biggest) <= 1:
            parts.append(biggest)
            break
        sub = g.subgraph(biggest)
        half_a, half_b = nx.algorithms.community.kernighan_lin_bisection(
            sub, seed=int(rng.integers(0, 2**31 - 1))
        )
        parts.extend([set(half_a), set(half_b)])

    assignment = np.zeros(n, dtype=np.int64)
    for k, part in enumerate(parts):
        for neuron in part:
            assignment[neuron] = k
    assignment = repair_assignment(assignment, n_clusters, capacity, rng=rng)
    return Partition(assignment=assignment, n_clusters=n_clusters, capacity=capacity)


def assert_same_as_oracle(graph, n_clusters, capacity, seed):
    """Same assignment, and the caller's generator left in the same state."""
    ours_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    ours = neutrams_partition(graph, n_clusters, capacity, seed=ours_rng)
    want = oracle_neutrams_partition(graph, n_clusters, capacity, seed=oracle_rng)
    assert ours.assignment.tolist() == want.assignment.tolist()
    assert ours.assignment.dtype == want.assignment.dtype
    assert ours_rng.bit_generator.state == oracle_rng.bit_generator.state


@st.composite
def partition_problems(draw):
    n = draw(st.integers(1, 48))
    n_edges = draw(st.integers(0, 4 * n))
    src = draw(st.lists(st.integers(0, n - 1), min_size=n_edges, max_size=n_edges))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=n_edges, max_size=n_edges))
    # Parallel synapses and self-loops on purpose; neurons no edge names
    # stay isolated.
    if n_edges and draw(st.booleans()):
        src.append(src[0])
        dst.append(dst[0])
    if draw(st.booleans()):
        src.append(n - 1)
        dst.append(n - 1)
    graph = SpikeGraph.from_edges(n, src, dst, [1.0] * len(src))
    n_clusters = draw(st.integers(1, 8))
    capacity = -(-n // n_clusters) + draw(st.integers(0, 3))
    return graph, n_clusters, capacity, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(partition_problems())
def test_generated_graphs_match_networkx(problem):
    assert_same_as_oracle(*problem)


def test_both_subgraph_node_orders_are_exercised(monkeypatch):
    """A part of at least half the graph is walked in id order, a smaller
    one in set order: here both kinds of bisection run, with smaller parts
    whose set order is not their id order, and the result still agrees."""
    seen = []
    bisect = neutrams._bisect

    def spy(adjacency, part, seed):
        shuffled_order = list(set(iter(part))) != sorted(part)
        seen.append((2 * len(part) < len(adjacency), shuffled_order))
        return bisect(adjacency, part, seed)

    monkeypatch.setattr(neutrams, "_bisect", spy)
    rng = np.random.default_rng(3)
    n = 300
    src, dst = rng.integers(0, n, 1500), rng.integers(0, n, 1500)
    graph = SpikeGraph.from_edges(n, src, dst, np.ones(1500))
    for seed in range(4):
        assert_same_as_oracle(graph, 8, 40, seed)
    assert any(not small for small, _ in seen)
    assert (True, True) in seen


@pytest.mark.parametrize("app", sorted(BENCH_GRAPHS))
def test_fig5_workloads_match_networkx(app):
    graph = bench_graph(app)
    arch = bench_architecture(graph)
    assert_same_as_oracle(graph, arch.n_crossbars, arch.neurons_per_crossbar, 7)
