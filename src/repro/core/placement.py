"""Cluster-to-tile placement.

The PSO objective (Eq. 8) counts spikes crossing crossbar boundaries but
is blind to *where* each crossbar sits on the interconnect: two clusters
exchanging heavy traffic cost more energy when their tiles are four hops
apart than when they are siblings on the tree.  Partition quality and
placement quality are separable, so after any partitioner runs we solve
the small quadratic-assignment problem of arranging clusters on attach
points to minimize hop-weighted traffic.

With C <= a few dozen crossbars, greedy construction plus pairwise-swap
hill climbing finds (near-)optimal arrangements in microseconds.  The
placement is expressed as a cluster relabeling, which preserves both the
partition's feasibility (uniform capacities) and its Eq. 8 fitness
(relabeling cannot change which synapses cross).

Multi-chip fabrics get a *two-level* construction instead of the flat
greedy: chip-to-chip bridges make cross-chip hops several times more
expensive than intra-chip ones, and the flat heaviest-pair heuristic is
blind to that cliff — it happily strands one member of a chatty pair on
the far chip when the near chip still has room.  The hierarchical pass
first packs communicating clusters onto the same chip
(capacity-constrained greedy plus swap refinement at chip granularity),
then arranges each chip's clusters on its own slots, and finally runs
the same global pairwise-swap hill climbing, which can only improve on
the construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.noc.multichip import MultiChipTopology, chip_distance_matrix
from repro.noc.routing import RoutingTable, routing_for
from repro.noc.topology import Topology

#: Hill-climbing passes, at cluster and at chip granularity, before a
#: placement stops even though a pass still improved it.
MAX_PASSES = 20


def placement_cost(
    traffic: np.ndarray,
    perm: np.ndarray,
    distance: np.ndarray,
) -> float:
    """Hop-weighted traffic for a cluster->slot permutation.

    ``traffic[k1, k2]`` is spikes from cluster k1 to k2; ``distance[s1, s2]``
    is routed hops between attach slots; ``perm[k]`` is the slot of
    cluster ``k``.
    """
    return float((traffic * distance[np.ix_(perm, perm)]).sum())


def _distance_matrix(topology: Topology, routing: RoutingTable) -> np.ndarray:
    """Attach-point hop matrix (cached on the topology instance)."""
    return topology.crossbar_hop_matrix(routing)


def evacuation_cost(
    loads: np.ndarray,
    capacity: int,
    perm: np.ndarray,
    distance: np.ndarray,
) -> float:
    """Load-weighted distance to the nearest refuge, per cluster.

    If cluster ``k``'s crossbar dies, its ``loads[k]`` neurons must
    migrate to crossbars with free slots; the cheapest refuge is the
    nearest cluster ``j != k`` with ``loads[j] < capacity``.  Summing
    ``loads[k] * hop_distance(k, nearest refuge)`` measures how
    expensive a single-crossbar failure is under this placement —
    the fault-aware placement term minimized alongside hop-weighted
    traffic.  Zero when no cluster has spare capacity (every placement
    is equally stranded).
    """
    loads = np.asarray(loads, dtype=np.float64)
    c = loads.shape[0]
    spare = np.flatnonzero(loads < capacity)
    if spare.size == 0:
        return 0.0
    d = distance[np.ix_(perm, perm[spare])].astype(np.float64)
    # A cluster cannot take refuge on its own (dead) crossbar.
    d[spare[None, :] == np.arange(c)[:, None]] = np.inf
    nearest = d.min(axis=1)
    nearest[~np.isfinite(nearest)] = 0.0  # only refuge was itself
    return float((loads * nearest).sum())


def place_clusters(
    traffic: np.ndarray,
    topology: Topology,
    routing: Optional[RoutingTable] = None,
    loads: Optional[np.ndarray] = None,
    capacity: Optional[int] = None,
    spare_weight: float = 0.0,
) -> np.ndarray:
    """Arrange clusters on attach points to minimize hop-weighted traffic.

    Returns ``perm`` with ``perm[k]`` = attach-point slot of cluster ``k``.
    Greedy heaviest-pair-first construction, then pairwise-swap hill
    climbing until a full pass yields no improvement (or :data:`MAX_PASSES`).

    With ``spare_weight > 0`` (requires ``loads`` — neurons per cluster
    — and ``capacity``) the hill climb also minimizes
    ``spare_weight * evacuation_cost(...)``, keeping every loaded
    cluster near spare slots so a crossbar failure migrates its neurons
    a short distance.  The default path (``spare_weight == 0``) is
    bit-identical to before.
    """
    c = traffic.shape[0]
    if traffic.shape != (c, c):
        raise ValueError(f"traffic must be square, got {traffic.shape}")
    if topology.n_attach_points < c:
        raise ValueError(
            f"{c} clusters need {c} attach points; topology has "
            f"{topology.n_attach_points}"
        )
    if spare_weight < 0:
        raise ValueError(
            f"spare_weight must be non-negative, got {spare_weight}"
        )
    if spare_weight > 0 and (loads is None or capacity is None):
        raise ValueError("spare_weight needs per-cluster loads and capacity")
    if routing is None:
        routing = routing_for(topology)
    if c == 1:
        return np.zeros(1, dtype=np.int64)

    dist = _distance_matrix(topology, routing)[:c, :c]
    symmetric = traffic + traffic.T

    if isinstance(topology, MultiChipTopology) and topology.n_chips > 1:
        perm = _hierarchical_construction(
            traffic, symmetric, dist, topology, routing
        )
    else:
        perm = np.full(c, -1, dtype=np.int64)
        _greedy_fill(symmetric, dist, list(range(c)), list(range(c)), perm)

    if spare_weight > 0:
        loads = np.asarray(loads, dtype=np.float64)
        if loads.shape != (c,):
            raise ValueError(
                f"loads must have one entry per cluster, got shape "
                f"{loads.shape} for {c} clusters"
            )

        def total_cost(p: np.ndarray) -> float:
            return placement_cost(traffic, p, dist) + (
                spare_weight * evacuation_cost(loads, capacity, p, dist)
            )
    else:

        def total_cost(p: np.ndarray) -> float:
            return placement_cost(traffic, p, dist)

    # Pairwise-swap hill climbing.
    best_cost = total_cost(perm)
    for _ in range(MAX_PASSES):
        improved = False
        for a in range(c):
            for b in range(a + 1, c):
                perm[a], perm[b] = perm[b], perm[a]
                cost = total_cost(perm)
                if cost < best_cost - 1e-12:
                    best_cost = cost
                    improved = True
                else:
                    perm[a], perm[b] = perm[b], perm[a]
        if not improved:
            break
    return perm


def _greedy_fill(
    symmetric: np.ndarray,
    dist: np.ndarray,
    clusters: Sequence[int],
    slots: Sequence[int],
    perm: np.ndarray,
) -> None:
    """Greedy construction over a cluster/slot subset, writing ``perm``.

    Place the heaviest-communicating unplaced cluster next to the
    already-placed cluster it talks to most, on the nearest free slot.
    With ``clusters = slots = range(c)`` this is exactly the flat
    single-chip construction; the hierarchical pass calls it once per
    chip with that chip's clusters and slots.
    """
    sub = np.asarray(list(clusters), dtype=np.int64)
    free_slots = set(slots)
    weights_in = symmetric[np.ix_(sub, sub)].sum(axis=1)
    order = sub[np.argsort(-weights_in, kind="stable")]
    first = int(order[0])
    first_slot = min(free_slots)
    perm[first] = first_slot
    free_slots.discard(first_slot)
    for k in order[1:]:
        k = int(k)
        placed = sub[perm[sub] >= 0]
        weights = symmetric[k, placed]
        anchor = int(placed[np.argmax(weights)]) if weights.size else int(placed[0])
        anchor_slot = int(perm[anchor])
        slot = min(free_slots, key=lambda s: dist[anchor_slot, s])
        perm[k] = slot
        free_slots.discard(slot)


def _chip_capacities(topology: MultiChipTopology, c: int) -> np.ndarray:
    """Usable placement slots (ids < c) per chip."""
    caps = np.zeros(topology.n_chips, dtype=np.int64)
    for slot in range(c):
        caps[topology.chip_of_crossbar[slot]] += 1
    return caps


def _pack_onto_chips(
    symmetric: np.ndarray,
    topology: MultiChipTopology,
    chip_dist: np.ndarray,
) -> np.ndarray:
    """Chip of each cluster: greedy affinity construction — each
    cluster joins the chip it already exchanges the most traffic with,
    capacity permitting — then swap/move refinement minimizing traffic
    weighted by chip-level bridge distance."""
    c = symmetric.shape[0]
    n_chips = topology.n_chips
    caps = _chip_capacities(topology, c)
    chip_of = np.full(c, -1, dtype=np.int64)
    load = np.zeros(n_chips, dtype=np.int64)

    # Greedy affinity construction, heaviest communicators first.
    order = np.argsort(-symmetric.sum(axis=1), kind="stable")
    for k in order:
        k = int(k)
        affinity = np.zeros(n_chips, dtype=np.float64)
        placed = np.nonzero(chip_of >= 0)[0]
        for j in placed:
            affinity[chip_of[j]] += symmetric[k, j]
        open_chips = np.nonzero(load < caps)[0]
        # Highest affinity wins; ties break toward the emptiest chip so
        # zero-affinity clusters spread instead of piling onto chip 0.
        best = max(
            (int(g) for g in open_chips),
            key=lambda g: (affinity[g], caps[g] - load[g], -g),
        )
        chip_of[k] = best
        load[best] += 1

    def cross_cost(assign: np.ndarray) -> float:
        gd = chip_dist[np.ix_(assign, assign)]
        return float((symmetric * gd).sum())

    # Swap / move refinement at chip granularity.
    best_cost = cross_cost(chip_of)
    for _ in range(MAX_PASSES):
        improved = False
        for a in range(c):
            # Move to a chip with spare capacity.
            for g in range(n_chips):
                if g == chip_of[a] or load[g] >= caps[g]:
                    continue
                old = int(chip_of[a])
                chip_of[a] = g
                cost = cross_cost(chip_of)
                if cost < best_cost - 1e-12:
                    load[old] -= 1
                    load[g] += 1
                    best_cost = cost
                    improved = True
                else:
                    chip_of[a] = old
            # Swap with a cluster on another chip.
            for b in range(a + 1, c):
                if chip_of[a] == chip_of[b]:
                    continue
                chip_of[a], chip_of[b] = chip_of[b], chip_of[a]
                cost = cross_cost(chip_of)
                if cost < best_cost - 1e-12:
                    best_cost = cost
                    improved = True
                else:
                    chip_of[a], chip_of[b] = chip_of[b], chip_of[a]
        if not improved:
            break
    return chip_of


def _hierarchical_construction(
    traffic: np.ndarray,
    symmetric: np.ndarray,
    dist: np.ndarray,
    topology: MultiChipTopology,
    routing: RoutingTable,
) -> np.ndarray:
    """Two-level construction: pack onto chips, then fill each chip."""
    c = traffic.shape[0]
    chip_of = _pack_onto_chips(
        symmetric, topology, chip_distance_matrix(topology, routing)
    )
    perm = np.full(c, -1, dtype=np.int64)
    for chip in range(topology.n_chips):
        clusters = [k for k in range(c) if chip_of[k] == chip]
        if not clusters:
            continue
        slots = [
            s for s in range(c) if topology.chip_of_crossbar[s] == chip
        ]
        _greedy_fill(symmetric, dist, clusters, slots, perm)
    return perm


def inter_chip_traffic(
    traffic: np.ndarray,
    perm: np.ndarray,
    topology: MultiChipTopology,
) -> float:
    """Spike traffic that crosses any chip boundary under a placement.

    The closed-form counterpart of the simulator's inter-chip hop
    count: traffic between clusters whose slots sit on different chips.
    Used by tests and benches to show the chip-aware pass beats naive
    placement.
    """
    chips = np.asarray(
        [topology.chip_of_crossbar[int(s)] for s in perm], dtype=np.int64
    )
    crossing = chips[:, None] != chips[None, :]
    return float((np.asarray(traffic) * crossing).sum())


def apply_placement(assignment: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Relabel clusters so cluster k occupies attach slot ``perm[k]``."""
    assignment = np.asarray(assignment, dtype=np.int64)
    return perm[assignment]
