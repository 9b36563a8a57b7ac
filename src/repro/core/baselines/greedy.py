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
from repro.utils.validation import check_positive


#: Pairs the union-find loop takes between two prunings of the pair list.
_BLOCK = 512


def greedy_partition(
    matrix: TrafficMatrix,
    n_clusters: int,
    capacity: int,
) -> Partition:
    """Union-find merge of neuron groups along hottest synapses first.

    Takes the graph's :class:`~repro.core.traffic_matrix.TrafficMatrix`
    (its deduplicated synapse pairs) rather than the graph, so a caller
    that already holds one builds none again.  The pairs go through the
    scalar union-find a block at a time; after each block the pairs that
    can no longer merge are dropped from the rest, so the Python loop
    mostly sees pairs that still can.
    """
    check_positive("n_clusters", n_clusters)
    check_positive("capacity", capacity)
    n = matrix.n_neurons
    if n > n_clusters * capacity:
        raise ValueError(
            f"{n} neurons cannot fit in {n_clusters} x {capacity} slots"
        )

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
    src, dst = matrix.src[order], matrix.dst[order]
    while src.size:
        for s, d in zip(src[:_BLOCK].tolist(), dst[:_BLOCK].tolist()):
            a, b = find(s), find(d)
            if a == b:
                continue
            if group_size[a] + group_size[b] > capacity:
                continue
            parent[b] = a
            group_size[a] += group_size[b]
        # Both ways to skip a pair are for good: groups only grow, so two
        # that share a root, or no longer fit one crossbar together, will
        # never merge.  Drop those pairs from what is left in one pass.
        src, dst = src[_BLOCK:], dst[_BLOCK:]
        root = np.asarray(parent)
        while True:  # pointer jumping
            above = root[root]
            if np.array_equal(above, root):
                break
            root = above
        src_root, dst_root = root[src], root[dst]
        size = np.asarray(group_size)
        live = (src_root != dst_root) & (
            size[src_root] + size[dst_root] <= capacity
        )
        src, dst = src[live], dst[live]

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
