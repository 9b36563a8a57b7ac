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

The bisection ports networkx 3.x's ``kernighan_lin_bisection`` on
``g.subgraph(part)`` to the standard library, node orders and heap ties
included, so its parts are networkx's (tests/core/test_neutrams_oracle.py).
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.core.partition import Partition, repair_assignment
from repro.snn.graph import SpikeGraph
from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_positive


def _sweep(nbrs: Dict[int, List[int]], side: Dict[int, int]):
    """One KL pass: alternately move the cheapest node off each side,
    yielding ``(total cost, moves, (u, v))``.  Per side, a min-heap of
    ``(cost, tick, node)`` whose stale entries (cost no longer the
    node's) are skipped, as in networkx's ``BinaryHeap``."""
    tick = count()
    heaps: Tuple[list, list] = ([], [])
    costs: Tuple[dict, dict] = ({}, {})

    def push(s, node, cost):
        costs[s][node] = cost
        heappush(heaps[s], (cost, next(tick), node))

    def pop(s):
        while True:
            cost, _, node = heappop(heaps[s])
            if costs[s].get(node) == cost:
                del costs[s][node]
                return node, cost

    def moved(node):
        for nbr in nbrs[node]:
            s = side[nbr]
            if nbr in costs[s]:
                push(s, nbr, costs[s][nbr] + (-2 if s == side[node] else 2))

    for node, adjacent in nbrs.items():
        gain = sum(1 if side[nbr] else -1 for nbr in adjacent)
        push(side[node], node, gain if side[node] else -gain)
    total = i = 0
    while costs[0] and costs[1]:
        u, cost_u = pop(0)
        moved(u)
        v, cost_v = pop(1)
        moved(v)
        total += cost_u + cost_v
        i += 1
        yield total, i, (u, v)


def _bisect(
    adjacency: Sequence[Dict[int, None]], part: Set[int], seed: int
) -> Tuple[Set[int], Set[int]]:
    """Kernighan-Lin bisection of the subgraph induced by ``part``.

    networkx iterates a subgraph's nodes in graph order unless the part
    is under half the graph, then in the order of ``set(iter(part))``;
    neighbours keep the graph's edge insertion order.
    """
    if 2 * len(part) < len(adjacency):
        order = list(set(iter(part)))
    else:
        order = sorted(part)
    nbrs = {u: [v for v in adjacency[u] if v in part] for u in order}
    shuffled = list(order)
    random.Random(seed).shuffle(shuffled)
    first = set(shuffled[: len(shuffled) // 2])
    side = {u: int(u in first) for u in shuffled}
    for _ in range(10):  # networkx's max_iter
        moves = list(_sweep(nbrs, side))
        best, n_moves, _ = min(moves)
        if best >= 0:
            break
        for _, _, (u, v) in moves[:n_moves]:
            side[u], side[v] = 1, 0
    return (
        {u for u, s in side.items() if s == 0},
        {u for u, s in side.items() if s == 1},
    )


def neutrams_partition(
    graph: SpikeGraph,
    n_clusters: int,
    capacity: int,
    seed: SeedLike = None,
) -> Partition:
    """Recursive unweighted KL bisection into ``n_clusters`` parts.

    Each recursion level splits the largest remaining part in two with
    a Kernighan-Lin bisection (networkx's algorithm, ported) on the
    *unweighted* undirected synapse graph, until enough parts exist.  A
    final repair pass enforces crossbar capacity.
    """
    check_positive("n_clusters", n_clusters)
    check_positive("capacity", capacity)
    n = graph.n_neurons
    if n > n_clusters * capacity:
        raise ValueError(f"{n} neurons cannot fit in {n_clusters} x {capacity} slots")
    rng = default_rng(seed)
    # Unweighted (traffic ignored): one entry per neighbour, self-loops
    # skipped, in first-insertion order.
    adjacency: List[Dict[int, None]] = [{} for _ in range(n)]
    for s, d in zip(graph.src.tolist(), graph.dst.tolist()):
        if s != d:
            adjacency[s][d] = adjacency[d][s] = None

    parts: List[set] = [set(range(n))]
    while len(parts) < n_clusters:
        parts.sort(key=len, reverse=True)
        biggest = parts.pop(0)
        if len(biggest) <= 1:
            parts.append(biggest)
            break
        half_a, half_b = _bisect(
            adjacency, biggest, seed=int(rng.integers(0, 2**31 - 1))
        )
        parts.extend([set(half_a), set(half_b)])

    assignment = np.zeros(n, dtype=np.int64)
    for k, part in enumerate(parts):
        for neuron in part:
            assignment[neuron] = k
    assignment = repair_assignment(assignment, n_clusters, capacity, rng=rng)
    return Partition(assignment=assignment, n_clusters=n_clusters, capacity=capacity)
