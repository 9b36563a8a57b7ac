"""NEUTRAMS-style mapping (Ji et al., MICRO 2016).

The paper characterizes NEUTRAMS as an ad-hoc technique that "uses a
Network-on-Chip simulator to determine energy consumption ... without
solving the local and global synapse partitioning problem and
incorporating SNN performance".  We model it as a *connectivity-aware but
traffic-unaware* partitioner: a balanced Kernighan-Lin partition of the
unweighted synapse graph.  It minimizes the number of cut synapses — a
reasonable structural heuristic — but is blind to how many spikes each
synapse actually carries, so hot synapses end up global as often as cold
ones.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.partition import Partition, repair_assignment
from repro.snn.graph import SpikeGraph
from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_positive


def neutrams_partition(
    graph: SpikeGraph,
    n_clusters: int,
    capacity: int,
    seed: SeedLike = None,
) -> Partition:
    """Recursive unweighted KL bisection into ``n_clusters`` parts.

    Each recursion level splits the largest remaining part in two with
    :func:`networkx.algorithms.community.kernighan_lin_bisection` on the
    *unweighted* undirected synapse graph, until enough parts exist.  A
    final repair pass enforces crossbar capacity.
    """
    import networkx as nx  # Kernighan-Lin lives there; loaded by this method only

    check_positive("n_clusters", n_clusters)
    check_positive("capacity", capacity)
    n = graph.n_neurons
    if n > n_clusters * capacity:
        raise ValueError(
            f"{n} neurons cannot fit in {n_clusters} x {capacity} slots"
        )
    rng = default_rng(seed)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for s, d in zip(graph.src, graph.dst):
        if int(s) != int(d):
            g.add_edge(int(s), int(d))  # unweighted: traffic ignored

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
