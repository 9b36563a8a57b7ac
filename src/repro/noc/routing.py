"""Deterministic routing tables, held as the arrays the NoC engines read.

A :class:`RoutingTable` numbers routers densely — ``node_ids``, the
sorted router ids of :func:`~repro.noc.topology.dense_node_ids`, the
numbering schedules' destination masks and the compiled kernel already
share — and holds two read-only ``(n, n)`` int64 tables over it:
``next_hops[i, d]``, the dense index of the neighbour router ``i``
forwards to toward router ``d`` (``-1`` on the diagonal), and
``distances[i, d]``, the routed hop count.  Who reads what:

- :func:`route_links` checks a table against the fabric an engine runs
  (both engines call it at construction: every next hop must be a live
  link) and compares each link's router row of ``next_hops`` with the
  link's far end, which gives the fast backend its per-link destination
  masks in one array operation;
- :meth:`~repro.noc.topology.Topology.crossbar_hop_matrix`
  (placement, the analytic energy estimates of design-space
  exploration) is one gather of ``distances`` at the attach points;
- the scalar queries :meth:`RoutingTable.next_hop` and
  :meth:`~RoutingTable.distance` — asked once per hop by the reference
  engine and by multi-chip bridge accounting (one route walk per
  crossbar pair) — read Python lists made from the tables on first
  use, so they cost a list lookup and return plain ints, never numpy
  scalars.  The per-pair ``distance()``
  loops in ``tests/framework/test_exploration.py`` are the oracles of
  exploration's energy estimates;
- :meth:`RoutingTable.certificate` (the ``noc`` objective) is what the
  table proves about delivery, derived once: each source's route masks
  and whether they form a tree, and whether every route arrives with an
  acyclic channel dependency graph — see :class:`DeliveryCertificate`.

Two algorithms fill the tables:

- :func:`xy_routing` — dimension-ordered XY routing for meshes/tori with
  grid positions (deadlock-free on meshes, the Noxim default), by
  coordinate arithmetic over all pairs at once;
- :func:`shortest_path_routing` — one BFS per destination for arbitrary
  connected graphs (trees, stars, multi-chip boards, degraded fabrics).
  On trees the shortest path is unique, which makes this exactly the
  deterministic up-down tree routing CxQuad uses.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

import numpy as np

from repro.noc.topology import Topology, dense_node_ids


class RoutingTable:
    """Next-hop lookup with hop-distance queries: exactly one next hop
    per (here, dst).

    Attributes
    ----------
    node_ids:
        int64 ``(n,)`` sorted router ids; dense index ``i`` is router
        ``node_ids[i]``.
    next_hops:
        int64 ``(n, n)``: ``next_hops[i, d]`` is the dense index of the
        next hop from ``i`` toward ``d``, ``-1`` when ``i == d``.
    distances:
        int64 ``(n, n)`` routed hop counts, ``0`` on the diagonal.
    """

    def __init__(
        self,
        node_ids: np.ndarray,
        next_hops: np.ndarray,
        distances: np.ndarray,
        name: str,
    ) -> None:
        next_hops.flags.writeable = False
        distances.flags.writeable = False
        self.node_ids = node_ids
        self.next_hops = next_hops
        self.distances = distances
        self.name = name
        self._lists = None
        self._certificate = None

    def certificate(self) -> "DeliveryCertificate":
        """What this table proves about delivery (derived on first use)."""
        if self._certificate is None:
            self._certificate = DeliveryCertificate(self.next_hops)
        return self._certificate

    def _scalar_lookup(self):
        """``(dense index by id, next-hop id rows, distance rows)`` as
        Python containers — what the scalar queries read."""
        if self._lists is None:
            self._lists = (
                {node: i for i, node in enumerate(self.node_ids.tolist())},
                # The diagonal's -1 gathers a meaningless id; next_hop
                # rejects here == dst before reading it.
                self.node_ids[self.next_hops].tolist(),
                self.distances.tolist(),
            )
        return self._lists

    def next_hop(self, here: int, dst: int) -> int:
        """Neighbor to forward to from ``here`` toward ``dst``."""
        if here == dst:
            raise ValueError(f"packet already at destination {dst}")
        index, hops, _ = self._lists or self._scalar_lookup()
        return hops[index[here]][index[dst]]

    def distance(self, src: int, dst: int) -> int:
        """Hop count of the routed path."""
        if src == dst:
            return 0
        index, _, dist = self._lists or self._scalar_lookup()
        return dist[index[src]][index[dst]]


#: Transient bytes :meth:`DeliveryCertificate.closed_form` gathers per
#: block of packets.
_BLOCK_BYTES = 1 << 22


class DeliveryCertificate:
    """What a routing table proves about every schedule it routes.

    Derived from ``next_hops`` alone, in whole-array steps (one walk of
    every route per step, O(n² · n_words) memory):

    ``through``
        uint64 ``(n, n, n_words)``: bit ``d`` of ``through[s, r]`` is
        set when the route from ``s`` to ``d`` enters router ``r``
        (``r != s``; the route's last router is ``d``).  A unicast
        packet from ``s`` to ``d`` crosses ``distances[s, d]`` links, one
        per router its route enters.
    ``tree``
        bool ``(n,)``: the routes from ``s`` form a tree — the route to
        any ``d`` enters each of its routers from where the route to
        that router does.  A multicast packet from ``s`` then enters
        each router of the union of its routes exactly once (the kernel
        forks a packet per output port, never twice onto one link).
    ``deadlock_free``
        Every route arrives (no unroutable pair, no routing loop) and
        the channel dependency graph — channel ``u->v`` waits on channel
        ``v->w`` when some route takes both — is acyclic.  Then, by
        Dally & Seitz ("Deadlock-free message routing in multiprocessor
        interconnection networks", IEEE Trans. Computers, 1987), a cycle
        with packets in flight always forwards or ejects one: a wait
        chain of full channel buffers would have to end somewhere.
        Every link traversal and every ejection happens once, so after
        the last injection the network drains within hops + deliveries
        cycles.

    :meth:`closed_form` turns this into the simulated objective without
    the cycle loop, for the schedules it can prove.
    """

    def __init__(self, next_hops: np.ndarray) -> None:
        n = next_hops.shape[0]
        n_words = max(1, -(-n // 64))
        self.through = np.zeros((n, n, n_words), dtype=np.uint64)
        self.tree = np.zeros(n, dtype=bool)
        self.deadlock_free = False
        src, dst = np.divmod(np.arange(n * n), n)
        off = src != dst
        src, dst = src[off], dst[off]
        # Walk every route once to learn the router each one arrives
        # from; give up on a table that does not deliver.
        last = np.full((n, n), -1, dtype=np.int64)
        here, live = src.copy(), np.arange(src.shape[0])
        for _ in range(n):  # a loop-free route enters at most n - 1 routers
            if not live.size:
                break
            step = next_hops[here[live], dst[live]]
            if (step < 0).any():
                return  # unroutable pair
            arrived = step == dst[live]
            done = live[arrived]
            last[src[done], dst[done]] = here[done]
            here[live] = step
            live = live[~arrived]
        if live.size:
            return  # routing loop
        # Walk again: mark each router a route enters, and whether it
        # enters it from where the route to that router does.
        tree = np.ones(n, dtype=bool)
        through = self.through.reshape(n * n, n_words)
        word = dst >> 6
        bit = np.left_shift(np.uint64(1), (dst & 63).astype(np.uint64))
        here, live = src.copy(), np.arange(src.shape[0])
        while live.size:
            s, d, u = src[live], dst[live], here[live]
            v = next_hops[u, d]
            tree[s[last[s, v] != u]] = False
            np.bitwise_or.at(through, (s * n + v, word[live]), bit[live])
            here[live] = v
            live = live[v != d]
        self.tree = tree
        # Channel u->v waits on v->next_hops[v, d] for every d routed
        # over u->v that v does not eject; channels are numbered u*n+v.
        v = next_hops[src, dst]
        on = v != dst
        u, v, d = src[on], v[on], dst[on]
        waits = np.unique((u * n + v) * (n * n) + v * n + next_hops[v, d])
        self.deadlock_free = _acyclic(waits // (n * n), waits % (n * n), n * n)

    def closed_form(
        self,
        reach: np.ndarray,
        src: np.ndarray,
        spikes: np.ndarray,
        multicast: bool,
        max_extra_cycles: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Link traversals of each row's packets, and whether they are
        proven.

        ``reach`` is uint64 ``(P, N, n_words)``, the destination mask of
        each neuron's packets under row ``p`` (its own router's bit
        clear); ``src`` int64 ``(P, N)``, each neuron's dense source
        router; ``spikes`` int64 ``(N,)``, the packets each neuron
        injects.  Returns int64 ``hops`` and bool ``proven``, both
        ``(P,)``: a proven row's schedule delivers everything before the
        deadline ``last injection + max_extra_cycles`` (the table is
        deadlock-free and hops + deliveries <= ``max_extra_cycles``) and
        its link loads sum to ``hops`` — ``Σ spikes · |{r : reach &
        through[src, r] != 0}|`` multicast (every source involved must
        be tree-routed), ``Σ spikes · Σ_r popcount(reach & through[src,
        r])`` unicast.  Unproven rows' ``hops`` mean nothing.
        """
        p, n_neurons, n_words = reach.shape
        n = self.through.shape[0]
        per_packet = np.bitwise_count(reach).sum(axis=2, dtype=np.int64)
        deliveries = per_packet @ spikes
        rows, neurons = np.nonzero((per_packet > 0) & (spikes > 0))
        sources = src[rows, neurons]
        masks = reach[rows, neurons]
        # A swarm repeats (source, mask) pairs: count each distinct one once.
        pairs = np.empty((rows.shape[0], 1 + n_words), dtype=np.uint64)
        pairs[:, 0] = sources
        pairs[:, 1:] = masks
        rows_as_bytes = np.dtype((np.void, pairs.itemsize * (1 + n_words)))
        _, first, inverse = np.unique(
            pairs.view(rows_as_bytes).ravel(), return_index=True, return_inverse=True
        )
        entered = np.empty(first.shape[0], dtype=np.int64)
        block = max(1, _BLOCK_BYTES // (8 * n * n_words))
        for lo in range(0, first.shape[0], block):
            at = first[lo : lo + block]
            hit = self.through[sources[at]] & masks[at, None]
            if multicast:
                hit = np.bitwise_or.reduce(hit, axis=2)
                entered[lo : lo + block] = np.count_nonzero(hit, axis=1)
            else:
                entered[lo : lo + block] = np.bitwise_count(hit).sum(axis=(1, 2))
        per_row = np.zeros((p, n_neurons), dtype=np.int64)
        per_row[rows, neurons] = entered[inverse]
        hops = per_row @ spikes
        proven = (hops + deliveries <= max_extra_cycles) & self.deadlock_free
        if multicast:
            proven[rows[~self.tree[sources]]] = False
        return hops, proven


def _acyclic(tail: np.ndarray, head: np.ndarray, n_nodes: int) -> bool:
    """Whether the edges ``tail[i] -> head[i]`` over nodes ``0 ..
    n_nodes - 1`` form no cycle: Kahn's algorithm, dropping the edges of
    every node nothing points at, all at once, round by round."""
    while tail.size:
        waiting = np.bincount(head, minlength=n_nodes)[tail] > 0
        if waiting.all():
            return False  # every remaining tail is some edge's head
        tail, head = tail[waiting], head[waiting]
    return True


def _dense_neighbours(topology: Topology, ids: List[int]) -> List[List[int]]:
    """Every router's neighbours as dense indices, ascending."""
    index = {node: i for i, node in enumerate(ids)}
    # Dense indices ascend with router ids: sorting either sorts both.
    return [[index[v] for v in sorted(topology.graph.adj[u])] for u in ids]


def shortest_path_routing(topology: Topology) -> RoutingTable:
    """BFS-based next-hop table for any connected topology.

    Ties between equal-length paths break toward the lowest-numbered
    neighbor, keeping the route deterministic (required for meaningful
    in-order analysis of spike streams): one BFS per destination, over
    neighbours in ascending order, and each router's next hop is the
    router that reached it first.
    """
    node_ids = dense_node_ids(topology)
    ids = node_ids.tolist()
    adj = _dense_neighbours(topology, ids)
    n = len(ids)
    toward: List[List[int]] = []  # toward[d][i]: next hop from i to d
    hops: List[List[int]] = []
    for dst in range(n):
        step = [-1] * n
        dist = [-1] * n
        dist[dst] = 0
        frontier = [dst]
        while frontier:
            reached = []
            for u in frontier:
                d = dist[u] + 1
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = d
                        step[v] = u
                        reached.append(v)
            frontier = reached
        toward.append(step)
        hops.append(dist)
    return RoutingTable(
        node_ids,
        np.array(toward, dtype=np.int64).T.copy(),
        np.array(hops, dtype=np.int64).T.copy(),
        name=f"shortest-path/{topology.kind}",
    )


#: XY's one-hop moves, in the order of its direction codes: east, west,
#: north (+y), south; and what it records for a move that cannot be made.
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_OFF_GRID, _NO_LINK = -1, -2


def xy_routing(topology: Topology) -> RoutingTable:
    """Dimension-ordered XY routing on a mesh with grid positions.

    Packets move along X until the destination column, then along Y.
    A route that steps onto a grid point with no router, or over a link
    the fabric lacks, raises ``ValueError`` naming the first such pair
    (routers ascending, then destinations).
    """
    if not topology.positions:
        raise ValueError("XY routing requires grid positions on the topology")
    node_ids = dense_node_ids(topology)
    ids = node_ids.tolist()
    n = len(ids)
    pos = topology.positions
    adj = topology.graph.adj
    index = {node: i for i, node in enumerate(ids)}
    coord_to_node = {xy: node for node, xy in pos.items()}
    # Every router's one step in each _STEPS direction, as a dense
    # index: _OFF_GRID where no router sits, _NO_LINK where one does but
    # the link is missing.
    steps = []
    for node in ids:
        x, y = pos[node]
        row = []
        for sx, sy in _STEPS:
            nxt = coord_to_node.get((x + sx, y + sy))
            if nxt is None:
                row.append(_OFF_GRID)
            else:
                row.append(index[nxt] if nxt in adj[node] else _NO_LINK)
        steps.append(row)
    xs, ys = np.array([pos[node] for node in ids], dtype=np.int64).reshape(n, 2).T
    dx, dy = xs - xs[:, None], ys - ys[:, None]  # [here, dst]: dst minus here
    # Along X while the columns differ (east / west), then along Y.
    direction = np.where(dx, dx < 0, 2 + (dy < 0))
    next_hops = np.array(steps, dtype=np.int64)[np.arange(n)[:, None], direction]
    next_hops.flat[:: n + 1] = 0  # the diagonal routes nowhere
    if (next_hops < 0).any():
        i, d = (int(k) for k in np.argwhere(next_hops < 0)[0])
        x, y = pos[ids[i]]
        sx, sy = _STEPS[direction[i, d]]
        step = (x + sx, y + sy)
        if next_hops[i, d] == _OFF_GRID:
            raise ValueError(
                f"XY route from {ids[i]} to {ids[d]} leaves the grid at {step}"
            )
        raise ValueError(
            f"XY route from {ids[i]} to {ids[d]} uses missing link "
            f"{ids[i]}->{coord_to_node[step]}"
        )
    next_hops.flat[:: n + 1] = -1
    return RoutingTable(node_ids, next_hops, np.abs(dx) + np.abs(dy), name="xy/mesh")


def route_links(
    routing: RoutingTable, topology: Topology
) -> Tuple[List[List[int]], np.ndarray]:
    """``topology``'s links, and which destinations each one carries.

    Returns ``(neighbours, routed)``: every router's neighbours as dense
    indices, ascending — link ids run through these lists router by
    router, the port order both engines arbitrate in — and bool
    ``(n_links, n)`` ``routed[e, d]``: traffic for router ``d`` leaves
    link ``e``'s router over it.

    Raises ``ValueError`` when the table does not fit the fabric: other
    routers than the fabric's, or a next hop that is not a live
    neighbour (a table built for another fabric, e.g. the healthy one
    before links failed).
    """
    node_ids = dense_node_ids(topology)
    if routing.node_ids is not node_ids and not np.array_equal(
        routing.node_ids, node_ids
    ):
        raise ValueError(
            f"routing table {routing.name!r} was built for other routers "
            "than this fabric's"
        )
    ids = node_ids.tolist()
    n = len(ids)
    neighbours = _dense_neighbours(topology, ids)
    degree = [len(row) for row in neighbours]
    dst = np.fromiter(
        itertools.chain.from_iterable(neighbours), dtype=np.int64, count=sum(degree)
    )
    routed = np.repeat(routing.next_hops, degree, axis=0) == dst[:, None]
    # Each router's traffic for each other router leaves over exactly one
    # of its links — unless its next hop is no neighbour (the diagonal's
    # -1 matches none).
    if np.count_nonzero(routed) != n * (n - 1):
        for i, row in enumerate(routing.next_hops.tolist()):
            for d, nxt in enumerate(row):
                if d != i and nxt not in neighbours[i]:
                    raise ValueError(
                        f"routing table {routing.name!r} does not fit this "
                        f"fabric: its route from {ids[i]} to {ids[d]} takes "
                        f"missing link {ids[i]}->{ids[nxt]}"
                    )
    return neighbours, routed


def routing_for(topology: Topology) -> RoutingTable:
    """Pick the natural routing algorithm for a topology family.

    Degraded fabrics (kind ``*-degraded``, produced by
    :func:`repro.noc.faults.apply_faults`) always get shortest-path
    tables: faults break the grid regularity XY routing relies on,
    while BFS recomputes deterministic detours around whatever routers
    and links are masked out.  Both simulation backends consume the
    resulting table unchanged, so degraded fabrics keep the
    cross-backend bit-identical contract.
    """
    if topology.kind.endswith("-degraded"):
        return shortest_path_routing(topology)
    if topology.kind == "mesh" and topology.positions:
        return xy_routing(topology)
    return shortest_path_routing(topology)
