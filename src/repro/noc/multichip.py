"""Multi-chip interconnect: hierarchical topologies with bridge links.

The paper's reference platforms are physically multi-chip systems —
TrueNorth tiles 4096-core chips into boards, HiCANN wafers talk through
off-wafer FPGAs — and chip-to-chip links dominate both latency and
energy there.  This module composes N single-chip fabrics (mesh / tree /
star / torus per chip) into one :class:`MultiChipTopology` joined by
explicit **bridge links**, while presenting the ordinary
:class:`~repro.noc.topology.Topology` interface (global router ids,
``attach_points``, ``positions``, ``kind="multichip"``) so routing,
traffic expansion and both simulation backends work unchanged.

Bridge modeling
---------------
A bridge with ``bridge_latency = L`` is expanded into a chain of ``L``
link segments through ``L - 1`` dedicated *relay routers* (SerDes /
repeater stages).  Crossing the bridge therefore costs exactly ``L``
cycles of link latency in both the reference and the fast backend —
including the compiled C kernel — without either engine learning
anything about chips: relays are plain degree-2 routers that never host
crossbars, so destination masks never target them and the precomputed
next-hop port tables route through them like any other hop.  This is
what keeps the cross-backend bit-identical contract intact on
multi-chip fabrics (``tests/noc/test_multichip_topology.py`` pins it).

Energy accounting splits the same way: relay hops pay the ordinary
router+link energy per hop, and each bridge *crossing* additionally
pays :attr:`~repro.hardware.energy_model.EnergyModel.e_bridge_pj`
(counted on the first segment of the chain in each direction).

Hierarchy bookkeeping
---------------------
Beyond the flat interface the topology records which chip owns every
router and crossbar (relays belong to no chip: chip id ``-1``), the set
of expanded bridge segments, and the directed *entry* segments used to
count crossings.  The chip-aware placement pass
(:func:`repro.core.placement.place_clusters`), the per-chip statistics
breakdown (:func:`chip_breakdown`,
:func:`repro.noc.stats.summarize`) and the bridge energy term all
read these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive

from repro.noc.topology import RouterGraph, Topology

#: Chip id reported for bridge relay routers, which belong to no chip.
RELAY_CHIP = -1


@dataclass
class MultiChipTopology(Topology):
    """A hierarchical topology: per-chip fabrics joined by bridge links.

    Attributes (beyond :class:`~repro.noc.topology.Topology`)
    ----------
    n_chips:
        Number of chips composed into the fabric.
    chip_kind:
        Topology family of each chip ("mesh", "tree", "star", "torus").
    bridge_latency:
        Cycles (= expanded hops) to cross one chip-to-chip bridge.
    chip_of_router:
        Owning chip per router id; bridge relays map to
        :data:`RELAY_CHIP` (``-1``).
    chip_of_crossbar:
        Owning chip per crossbar index (parallel to ``attach_points``).
    bridge_links:
        Every expanded bridge segment, as directed ``(u, v)`` pairs in
        both directions — any link load on one of these is an
        inter-chip hop.
    bridge_entry_links:
        One directed segment per (bridge, direction): the first hop of
        the relay chain.  Loads on these count bridge *crossings*.
    n_bridges:
        Number of chip-to-chip bridges (undirected).
    """

    n_chips: int = 1
    chip_kind: str = "mesh"
    bridge_latency: int = 1
    chip_of_router: Dict[int, int] = field(default_factory=dict)
    chip_of_crossbar: List[int] = field(default_factory=list)
    bridge_links: FrozenSet[Tuple[int, int]] = frozenset()
    bridge_entry_links: FrozenSet[Tuple[int, int]] = frozenset()
    n_bridges: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("n_chips", self.n_chips)
        check_positive("bridge_latency", self.bridge_latency)
        if len(self.chip_of_crossbar) != len(self.attach_points):
            raise ValueError(
                f"chip_of_crossbar covers {len(self.chip_of_crossbar)} "
                f"crossbars, attach_points has {len(self.attach_points)}"
            )
        missing = [n for n in self.graph.nodes if n not in self.chip_of_router]
        if missing:
            raise ValueError(f"routers {missing} have no chip assignment")

    # -- hierarchy queries ---------------------------------------------------

    def chip_of(self, node: int) -> int:
        """Owning chip of a router (:data:`RELAY_CHIP` for relays)."""
        return self.chip_of_router[node]

    def crosses_chips(
        self, src_nodes: np.ndarray, dst_nodes: np.ndarray
    ) -> np.ndarray:
        """Boolean mask over router-id columns: ``chip_of(src) !=
        chip_of(dst)`` per row — how deliveries are classified as
        inter-chip from their endpoint columns."""
        n = len(self.chip_of_router)
        routers = np.fromiter(self.chip_of_router, dtype=np.int64, count=n)
        chips = np.fromiter(
            self.chip_of_router.values(), dtype=np.int64, count=n
        )
        order = np.argsort(routers)
        routers, chips = routers[order], chips[order]
        return (
            chips[np.searchsorted(routers, src_nodes)]
            != chips[np.searchsorted(routers, dst_nodes)]
        )

    # -- load classification -------------------------------------------------

    def inter_chip_hops(self, link_loads: Dict[Tuple[int, int], int]) -> int:
        """Total traversals of bridge segments in a load map."""
        return sum(
            count
            for link, count in link_loads.items()
            if link in self.bridge_links
        )

    def bridge_crossings(self, link_loads: Dict[Tuple[int, int], int]) -> int:
        """Complete chip-to-chip crossings in a load map.

        Each crossing traverses every segment of one relay chain, so
        counting only the chain's entry segment counts each crossing
        exactly once regardless of ``bridge_latency``.
        """
        return sum(
            count
            for link, count in link_loads.items()
            if link in self.bridge_entry_links
        )

    def bridge_crossings_on_route(self, routing, src: int, dst: int) -> int:
        """Bridges crossed by the deterministic routed path ``src→dst``.

        Walks the next-hop chain, counting entry segments.  Used by the
        analytic energy estimators so they price bridge crossings the
        same way the simulator's link loads do.
        """
        count = 0
        here = src
        while here != dst:
            nxt = routing.next_hop(here, dst)
            if (here, nxt) in self.bridge_entry_links:
                count += 1
            here = nxt
        return count

    def per_chip_hops(
        self, link_loads: Dict[Tuple[int, int], int]
    ) -> Dict[int, int]:
        """Intra-chip traversals per chip (bridge hops excluded)."""
        hops = {chip: 0 for chip in range(self.n_chips)}
        for (u, v), count in link_loads.items():
            if (u, v) in self.bridge_links:
                continue
            chip = self.chip_of_router[u]
            if chip == self.chip_of_router[v] and chip != RELAY_CHIP:
                hops[chip] += count
        return hops

    def describe(self) -> str:
        return (
            f"multichip topology: {self.n_chips} x {self.chip_kind} chips, "
            f"{self.n_routers} routers, {self.n_attach_points} crossbars, "
            f"{self.n_bridges} bridges (latency {self.bridge_latency})"
        )


@dataclass(frozen=True)
class ChipBreakdown:
    """Per-chip and inter-chip view of one simulation's statistics."""

    n_chips: int
    per_chip_hops: Dict[int, int]
    inter_chip_hops: int
    bridge_crossings: int
    intra_chip_deliveries: int
    inter_chip_deliveries: int
    intra_chip_latency_sum: int
    inter_chip_latency_sum: int

    @property
    def total_hops(self) -> int:
        return sum(self.per_chip_hops.values()) + self.inter_chip_hops

    @property
    def mean_inter_latency(self) -> float:
        if self.inter_chip_deliveries == 0:
            return 0.0
        return self.inter_chip_latency_sum / self.inter_chip_deliveries


def chip_breakdown(stats, topology: MultiChipTopology) -> ChipBreakdown:
    """Split a :class:`~repro.noc.stats.NocStats` along chip boundaries.

    Hops are classified from ``link_loads`` (bridge segments are
    inter-chip); deliveries from their endpoints' owning chips, as one
    mask over ``stats.delivery_columns()`` — on either backend no
    delivery record is touched.
    """
    columns = stats.delivery_columns()
    latency = stats.latencies()  # same record order as the columns
    inter = topology.crosses_chips(columns.src_node, columns.dst_node)
    inter_n = int(inter.sum())
    inter_lat = int(latency[inter].sum())
    intra_n = int(inter.size) - inter_n
    intra_lat = int(latency.sum()) - inter_lat
    return ChipBreakdown(
        n_chips=topology.n_chips,
        per_chip_hops=topology.per_chip_hops(stats.link_loads),
        inter_chip_hops=topology.inter_chip_hops(stats.link_loads),
        bridge_crossings=topology.bridge_crossings(stats.link_loads),
        intra_chip_deliveries=intra_n,
        inter_chip_deliveries=inter_n,
        intra_chip_latency_sum=intra_lat,
        inter_chip_latency_sum=inter_lat,
    )


# -- construction -------------------------------------------------------------


def _chip_grid(n_chips: int) -> Tuple[int, int]:
    """Near-square arrangement of chips on the board."""
    width = int(math.ceil(math.sqrt(n_chips)))
    height = int(math.ceil(n_chips / width))
    return width, height


def _split_crossbars(n_crossbars: int, n_chips: int) -> List[int]:
    """Crossbars per chip, as even as possible, earlier chips larger."""
    base, extra = divmod(n_crossbars, n_chips)
    return [base + (1 if i < extra else 0) for i in range(n_chips)]


def _gateway(
    nodes: Sequence[int],
    positions: Dict[int, Tuple[int, int]],
    side: str,
) -> int:
    """Deterministic boundary router of one chip facing ``side``.

    Positioned chips use the middle router of the facing edge; chips
    without positions (tree, star) use their highest-numbered router,
    which both builders create last: the tree root / star hub.
    """
    if not positions:
        return max(nodes)
    xs = [positions[n][0] for n in nodes]
    ys = [positions[n][1] for n in nodes]
    if side == "east":
        edge = [n for n in nodes if positions[n][0] == max(xs)]
    elif side == "west":
        edge = [n for n in nodes if positions[n][0] == min(xs)]
    elif side == "south":
        edge = [n for n in nodes if positions[n][1] == max(ys)]
    else:  # north
        edge = [n for n in nodes if positions[n][1] == min(ys)]
    axis = 1 if side in ("east", "west") else 0
    mid = (
        min(positions[n][axis] for n in edge)
        + max(positions[n][axis] for n in edge)
    ) / 2.0
    return min(edge, key=lambda n: (abs(positions[n][axis] - mid), n))


def multichip(
    n_crossbars: int,
    n_chips: int = 2,
    chip_kind: str = "mesh",
    bridge_latency: int = 1,
    **chip_kwargs,
) -> MultiChipTopology:
    """Compose ``n_chips`` single-chip fabrics into one bridged topology.

    Crossbars are split across chips as evenly as possible (earlier
    chips take the remainder); each chip is built with the ordinary
    single-chip builder for ``chip_kind`` and renumbered into a global
    id space.  Chips sit on a near-square grid and every grid-adjacent
    pair is joined by one bridge whose ``bridge_latency`` cycles are
    expanded into a chain of relay routers (see the module docstring).

    ``chip_kwargs`` are forwarded to the per-chip builder (e.g.
    ``arity`` for trees).
    """
    from repro.noc.topology import build_topology

    check_positive("n_crossbars", n_crossbars)
    check_positive("n_chips", n_chips)
    check_positive("bridge_latency", bridge_latency)
    if chip_kind == "multichip":
        raise ValueError("chips cannot themselves be multichip fabrics")
    if n_chips > n_crossbars:
        raise ValueError(
            f"{n_chips} chips need at least one crossbar each; "
            f"only {n_crossbars} crossbars requested"
        )

    counts = _split_crossbars(n_crossbars, n_chips)
    grid_w, _ = _chip_grid(n_chips)

    # Build every chip, renumbered into the global id space.
    graph = RouterGraph()
    positions: Dict[int, Tuple[int, int]] = {}
    attach_points: List[int] = []
    chip_of_router: Dict[int, int] = {}
    chip_of_crossbar: List[int] = []
    chip_nodes: List[List[int]] = []
    chip_positions: List[Dict[int, Tuple[int, int]]] = []
    offset = 0
    spans: List[Tuple[int, int]] = []  # (width, height) per chip, local
    for chip, count in enumerate(counts):
        sub = build_topology(chip_kind, count, **chip_kwargs)
        relabel = {node: node + offset for node in sub.graph.nodes}
        graph.add_nodes_from(relabel.values())
        graph.add_edges_from((relabel[u], relabel[v]) for u, v in sub.graph.edges)
        nodes = sorted(relabel.values())
        chip_nodes.append(nodes)
        for node in nodes:
            chip_of_router[node] = chip
        attach_points.extend(relabel[n] for n in sub.attach_points)
        chip_of_crossbar.extend([chip] * len(sub.attach_points))
        local_pos = {relabel[n]: xy for n, xy in sub.positions.items()}
        chip_positions.append(local_pos)
        if local_pos:
            spans.append(
                (
                    max(x for x, _ in local_pos.values()) + 1,
                    max(y for _, y in local_pos.values()) + 1,
                )
            )
        else:
            spans.append((1, 1))
        offset += sub.n_routers

    # Global positions: chips tile a board grid with a gap wide enough
    # to hold the bridge relay chain (for plotting; multichip routing is
    # shortest-path, never XY, so gaps in the grid are harmless).
    gap = bridge_latency + 1
    cell_w = max(w for w, _ in spans) + gap
    cell_h = max(h for _, h in spans) + gap
    have_positions = all(p for p in chip_positions) and chip_positions
    if have_positions:
        for chip, local_pos in enumerate(chip_positions):
            cx, cy = chip % grid_w, chip // grid_w
            for node, (x, y) in local_pos.items():
                positions[node] = (x + cx * cell_w, y + cy * cell_h)

    # Bridges between grid-adjacent chips, each expanded into a relay
    # chain of bridge_latency segments.
    next_id = offset
    bridge_links: set = set()
    bridge_entries: set = set()
    n_bridges = 0
    for chip in range(n_chips):
        cx, cy = chip % grid_w, chip // grid_w
        for other, sides in (
            (chip + 1, ("east", "west")),
            (chip + grid_w, ("south", "north")),
        ):
            if other >= n_chips:
                continue
            if other == chip + 1 and other % grid_w == 0:
                continue  # row wrap: not grid-adjacent
            a = _gateway(chip_nodes[chip], chip_positions[chip], sides[0])
            b = _gateway(chip_nodes[other], chip_positions[other], sides[1])
            chain = [a]
            for step in range(bridge_latency - 1):
                relay = next_id
                next_id += 1
                graph.add_node(relay)
                chip_of_router[relay] = RELAY_CHIP
                if have_positions:
                    ax, ay = positions[a]
                    bx, by = positions[b]
                    frac = (step + 1) / bridge_latency
                    positions[relay] = (
                        ax + round((bx - ax) * frac),
                        ay + round((by - ay) * frac),
                    )
                chain.append(relay)
            chain.append(b)
            for u, v in zip(chain, chain[1:]):
                graph.add_edge(u, v)
                bridge_links.add((u, v))
                bridge_links.add((v, u))
            bridge_entries.add((chain[0], chain[1]))
            bridge_entries.add((chain[-1], chain[-2]))
            n_bridges += 1

    return MultiChipTopology(
        graph=graph,
        attach_points=attach_points,
        kind="multichip",
        positions=positions,
        n_chips=n_chips,
        chip_kind=chip_kind,
        bridge_latency=bridge_latency,
        chip_of_router=chip_of_router,
        chip_of_crossbar=chip_of_crossbar,
        bridge_links=frozenset(bridge_links),
        bridge_entry_links=frozenset(bridge_entries),
        n_bridges=n_bridges,
    )


def chip_distance_matrix(topology: MultiChipTopology, routing=None):
    """Chip-to-chip distance: minimum routed hops between attach points.

    Used by the chip-packing level of hierarchical placement to price
    moving traffic between any two chips (diagonal chips route over two
    bridges and cost accordingly).
    """
    import numpy as np

    dist = topology.crossbar_hop_matrix(routing)
    chips = topology.chip_of_crossbar
    n = topology.n_chips
    out = np.zeros((n, n), dtype=np.float64)
    for a in range(n):
        rows = [k for k, c in enumerate(chips) if c == a]
        for b in range(n):
            if a == b:
                continue
            cols = [k for k, c in enumerate(chips) if c == b]
            out[a, b] = float(dist[np.ix_(rows, cols)].min())
    return out
