"""Traffic-greedy agglomerative partitioner (ablation baseline).

Synapse pairs are visited in decreasing spike-traffic order; each pair's
endpoints are merged into the same group when capacity allows.  This is a
classic "heavy-edge matching" heuristic: it localizes the hottest synapses
first and gives a strong deterministic reference point between the
traffic-blind baselines and the stochastic optimizers.
"""

from __future__ import annotations

import numpy as np

from repro.core.partition import Partition
from repro.core.traffic_matrix import TrafficMatrix
from repro.snn.graph import SpikeGraph
from repro.utils.validation import check_positive


def greedy_partition(
    graph: SpikeGraph,
    n_clusters: int,
    capacity: int,
) -> Partition:
    """Union-find merge of neuron groups along hottest synapses first."""
    check_positive("n_clusters", n_clusters)
    check_positive("capacity", capacity)
    n = graph.n_neurons
    if n > n_clusters * capacity:
        raise ValueError(
            f"{n} neurons cannot fit in {n_clusters} x {capacity} slots"
        )
    matrix = TrafficMatrix(graph)

    # Plain lists: the union-find touches one scalar at a time, which
    # numpy indexing makes several times slower.
    parent = list(range(n))
    group_size = [1] * n

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    order = np.argsort(-matrix.traffic, kind="stable")
    for src, dst in zip(matrix.src[order].tolist(), matrix.dst[order].tolist()):
        a, b = find(src), find(dst)
        if a == b:
            continue
        if group_size[a] + group_size[b] > capacity:
            continue
        parent[b] = a
        group_size[a] += group_size[b]

    # Bin-pack the resulting groups (largest first) onto crossbars.
    roots: dict = {}
    for i in range(n):
        roots.setdefault(find(i), []).append(i)
    groups = sorted(roots.values(), key=len, reverse=True)
    loads = np.zeros(n_clusters, dtype=np.int64)
    assignment = np.empty(n, dtype=np.int64)
    for group in groups:
        # First-fit-decreasing: put the group on the least-loaded crossbar
        # that can take it whole.
        candidates = np.argsort(loads, kind="stable")
        placed = False
        for k in candidates:
            if loads[k] + len(group) <= capacity:
                assignment[group] = k
                loads[k] += len(group)
                placed = True
                break
        if not placed:
            # Split the group across the emptiest crossbars.
            for neuron in group:
                k = int(np.argmin(loads))
                assignment[neuron] = k
                loads[k] += 1
    return Partition(assignment=assignment, n_clusters=n_clusters, capacity=capacity)
