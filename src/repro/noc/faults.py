"""Fault injection for interconnect robustness studies.

Real chips lose routers, links and crossbars to manufacturing defects
and aging, and the paper's reference platforms (TrueNorth boards,
HiCANN wafers) are expected to route around the damage.  This module
describes such damage as a :class:`FaultSet` and applies it to any
:class:`~repro.noc.topology.Topology` — including
:class:`~repro.noc.multichip.MultiChipTopology`, whose chip/bridge
bookkeeping survives degradation minus the failed elements — producing
a fabric both simulation backends run unchanged and bit-identically.

Fault classes
-------------
- **dead links** — an undirected router-to-router link fails; traffic
  detours over the surviving graph.  On a multi-chip fabric a failed
  *bridge segment* takes its whole bridge down (a relay chain with a
  broken stage is useless end to end).
- **dead routers** — a router fails with every incident link.  Routers
  hosting crossbars cannot simply vanish (their crossbar would lose its
  attach point); declare those as faulty crossbars instead.  A dead
  relay router kills its bridge, like a dead bridge segment.
- **degraded bridges** — a chip-to-chip bridge survives but retrains to
  a slower rate: its relay chain grows by ``extra`` stages, so every
  crossing pays ``bridge_latency + extra`` cycles.
- **faulty crossbars** — the compute array fails but its router still
  switches traffic.  The graph is untouched; the runtime layer
  (:class:`~repro.core.runtime.RuntimeRemapper`) migrates the neurons
  off (see :class:`~repro.core.runtime.FaultEvent`).

Degraded topologies keep their routers' original ids and carry a
``*-degraded`` kind, which routes them to deterministic shortest-path
tables (:func:`~repro.noc.routing.routing_for`) — the detours are what
the simulators then price.

The link-only helpers (:func:`degrade_topology`,
:func:`inject_random_faults`) sit on top of the fault model;
``degrade_topology`` preserves the topology subclass.  A random draw
works on one copy of the router graph — cut edges from
:func:`cut_edges`, a low-link search — draws only links whose failure
leaves the fabric connected, and applies its fault set once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

from repro.noc.topology import RouterGraph, Topology
from repro.obs import get_observer
from repro.utils.rng import SeedLike, default_rng


@dataclass(frozen=True)
class FaultSet:
    """A set of hardware faults to apply to a topology.

    Attributes
    ----------
    dead_links:
        Undirected router links that failed; stored as ``(min, max)``
        pairs regardless of the orientation given.
    dead_routers:
        Routers that failed entirely (with all incident links).
    degraded_bridges:
        ``bridge index -> extra crossing cycles`` for bridges that
        survive at reduced rate; indices follow
        :func:`bridge_chains` order.  Multi-chip only.
    faulty_crossbars:
        Crossbar indices whose compute array failed; the topology is
        unchanged, the runtime layer must evacuate their neurons.
    """

    dead_links: FrozenSet[Tuple[int, int]] = frozenset()
    dead_routers: FrozenSet[int] = frozenset()
    degraded_bridges: Mapping[int, int] = field(default_factory=dict)
    faulty_crossbars: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        links = frozenset(
            (min(int(u), int(v)), max(int(u), int(v))) for u, v in self.dead_links
        )
        object.__setattr__(self, "dead_links", links)
        object.__setattr__(
            self, "dead_routers", frozenset(int(r) for r in self.dead_routers)
        )
        degraded = dict(self.degraded_bridges)
        for bridge, extra in degraded.items():
            if extra <= 0:
                raise ValueError(
                    f"bridge {bridge} degradation must add at least one "
                    f"cycle, got {extra}"
                )
        object.__setattr__(self, "degraded_bridges", degraded)
        object.__setattr__(
            self,
            "faulty_crossbars",
            frozenset(int(k) for k in self.faulty_crossbars),
        )

    @property
    def n_faults(self) -> int:
        return (
            len(self.dead_links)
            + len(self.dead_routers)
            + len(self.degraded_bridges)
            + len(self.faulty_crossbars)
        )

    def __bool__(self) -> bool:
        return self.n_faults > 0

    def describe(self) -> str:
        return (
            f"FaultSet: {len(self.dead_links)} dead links, "
            f"{len(self.dead_routers)} dead routers, "
            f"{len(self.degraded_bridges)} degraded bridges, "
            f"{len(self.faulty_crossbars)} faulty crossbars"
        )

    def __or__(self, other: "FaultSet") -> "FaultSet":
        """Union of two fault sets (overlapping transient windows).

        Link, router and crossbar faults are set unions; a bridge
        degraded by both sides retrains to the *slower* of the two
        rates (``max`` of the extra cycles), since hardware cannot run
        faster than its worst impairment.
        """
        if not isinstance(other, FaultSet):
            return NotImplemented
        degraded = dict(self.degraded_bridges)
        for bridge, extra in other.degraded_bridges.items():
            degraded[bridge] = max(degraded.get(bridge, 0), extra)
        return FaultSet(
            dead_links=self.dead_links | other.dead_links,
            dead_routers=self.dead_routers | other.dead_routers,
            degraded_bridges=degraded,
            faulty_crossbars=self.faulty_crossbars | other.faulty_crossbars,
        )


def bridge_chains(topology) -> List[List[int]]:
    """Ordered relay chains of a multi-chip fabric, one per bridge.

    Each chain runs gateway-to-gateway through the bridge's relay
    routers, oriented from its lower-numbered gateway, and chains are
    sorted by their gateway pair — a stable indexing scheme that
    :class:`FaultSet.degraded_bridges` keys into.  A single-chip fabric
    has none.
    """
    from repro.noc.multichip import RELAY_CHIP, MultiChipTopology

    if not isinstance(topology, MultiChipTopology):
        return []
    segments = topology.bridge_links
    chains: Dict[Tuple[int, ...], List[int]] = {}
    for gateway, nxt in sorted(topology.bridge_entry_links):
        chain = [gateway, nxt]
        while topology.chip_of_router[chain[-1]] == RELAY_CHIP:
            prev, here = chain[-2], chain[-1]
            chain.append(
                next(
                    v
                    for v in topology.graph.neighbors(here)
                    if (here, v) in segments and v != prev
                )
            )
        if chain[0] > chain[-1]:
            chain.reverse()
        chains[(chain[0], chain[-1])] = chain
    return [chains[key] for key in sorted(chains)]


def _remove_plain_faults(
    g: RouterGraph,
    faults: FaultSet,
    attach_points: List[int],
    bridge_segments: FrozenSet[Tuple[int, int]],
    relay_routers: FrozenSet[int],
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Apply non-bridge link/router faults to ``g`` in place.

    Returns the dead links and routers that belong to bridges instead
    (whole-bridge semantics, resolved by the caller).
    """
    hosts = set(attach_points)
    bridge_link_hits: List[Tuple[int, int]] = []
    bridge_router_hits: List[int] = []
    for u, v in sorted(faults.dead_links):
        if not g.has_edge(u, v):
            raise ValueError(f"link ({u}, {v}) does not exist")
        if (u, v) in bridge_segments:
            bridge_link_hits.append((u, v))
        else:
            g.remove_edge(u, v)
    for router in sorted(faults.dead_routers):
        if router not in g:
            raise ValueError(f"router {router} does not exist")
        if router in hosts:
            raise ValueError(
                f"router {router} hosts a crossbar and cannot be removed; "
                f"declare the crossbar faulty instead"
            )
        if router in relay_routers:
            bridge_router_hits.append(router)
        else:
            g.remove_node(router)
    return bridge_link_hits, bridge_router_hits


def _degraded_kind(kind: str) -> str:
    return kind if kind.endswith("-degraded") else f"{kind}-degraded"


def _check_connected(g: RouterGraph) -> None:
    if not g.is_connected():
        raise ValueError("fault set disconnects the interconnect")


def _apply_plain(topology: Topology, faults: FaultSet) -> Topology:
    if faults.degraded_bridges:
        raise ValueError(
            "degraded bridges require a multichip topology, got "
            f"kind {topology.kind!r}"
        )
    g = topology.graph.copy()
    _remove_plain_faults(g, faults, topology.attach_points, frozenset(), frozenset())
    _check_connected(g)
    return Topology(
        graph=g,
        attach_points=list(topology.attach_points),
        kind=_degraded_kind(topology.kind),
        positions={n: xy for n, xy in topology.positions.items() if n in g},
    )


def _apply_multichip(topology, faults: FaultSet) -> Topology:
    from repro.noc.multichip import RELAY_CHIP, MultiChipTopology

    chains = bridge_chains(topology)
    relay_routers = frozenset(
        r for r, c in topology.chip_of_router.items() if c == RELAY_CHIP
    )
    for bridge in faults.degraded_bridges:
        if not 0 <= bridge < len(chains):
            raise ValueError(f"bridge index {bridge} out of range [0, {len(chains)})")

    g = topology.graph.copy()
    link_hits, router_hits = _remove_plain_faults(
        g,
        faults,
        topology.attach_points,
        topology.bridge_links,
        relay_routers,
    )

    # Whole-bridge semantics: any hit segment or relay kills its chain.
    dead_bridges = {
        index
        for index, chain in enumerate(chains)
        if _chain_segments(chain) & set(link_hits) or set(chain) & set(router_hits)
    }
    for index in sorted(dead_bridges & set(faults.degraded_bridges)):
        raise ValueError(f"bridge {index} is dead and cannot be degraded")
    for index in dead_bridges:
        _remove_chain(g, chains[index])

    positions = {n: xy for n, xy in topology.positions.items() if n in g}
    chip_of_router = {
        n: c for n, c in topology.chip_of_router.items() if n in g
    }

    # Degraded bridges: retrained chains gain ``extra`` relay stages
    # spliced in before the far gateway; surviving routers keep their
    # original ids, new relays take fresh ones.
    next_id = max(topology.graph.nodes) + 1
    surviving: List[List[int]] = []
    for index, chain in enumerate(chains):
        if index in dead_bridges:
            continue
        extra = faults.degraded_bridges.get(index, 0)
        if extra:
            tail = chain[-1]
            new_relays = list(range(next_id, next_id + extra))
            next_id += extra
            g.remove_edge(chain[-2], tail)
            chain = chain[:-1] + new_relays + [tail]
            for u, v in zip(chain[-extra - 2 :], chain[-extra - 1 :]):
                g.add_edge(u, v)
            for relay in new_relays:
                chip_of_router[relay] = RELAY_CHIP
                if positions:
                    # Stack the new stages on the far gateway's plot
                    # position; exact coordinates only matter for layout.
                    positions[relay] = positions.get(
                        tail, next(iter(positions.values()))
                    )
        surviving.append(chain)

    _check_connected(g)

    bridge_links = set()
    bridge_entries = set()
    for chain in surviving:
        for u, v in zip(chain, chain[1:]):
            bridge_links.add((u, v))
            bridge_links.add((v, u))
        bridge_entries.add((chain[0], chain[1]))
        bridge_entries.add((chain[-1], chain[-2]))

    return MultiChipTopology(
        graph=g,
        attach_points=list(topology.attach_points),
        kind=_degraded_kind(topology.kind),
        positions=positions,
        n_chips=topology.n_chips,
        chip_kind=topology.chip_kind,
        bridge_latency=topology.bridge_latency,
        chip_of_router=chip_of_router,
        chip_of_crossbar=list(topology.chip_of_crossbar),
        bridge_links=frozenset(bridge_links),
        bridge_entry_links=frozenset(bridge_entries),
        n_bridges=len(surviving),
    )


def apply_faults(topology: Topology, faults: FaultSet) -> Topology:
    """Return ``topology`` with ``faults`` applied, same class preserved.

    Dead links and routers are removed from the router graph (validating
    existence and that the surviving graph stays connected, so
    deterministic rerouting exists).  On a
    :class:`~repro.noc.multichip.MultiChipTopology` the chip/bridge
    bookkeeping is carried over minus the failed elements: a failed
    bridge segment or relay removes its entire bridge, and degraded
    bridges grow their relay chains by the requested extra cycles.
    Faulty crossbars never change the graph — their routers keep
    switching traffic — but are validated against the attach-point
    range here so callers can trust the indices downstream.

    Raises ``ValueError`` for nonexistent elements, for dead routers
    that host crossbars (declare the crossbar faulty instead), and for
    fault sets that disconnect the fabric.

    Each call ticks the ``faults.apply_calls`` counter once;
    :func:`inject_random_faults` makes one call per draw, however many
    links it drew (``faults.random_injections`` counts those).
    """
    from repro.noc.multichip import MultiChipTopology

    for k in sorted(faults.faulty_crossbars):
        if not 0 <= k < topology.n_attach_points:
            raise ValueError(
                f"crossbar index {k} out of range "
                f"[0, {topology.n_attach_points})"
            )
    obs = get_observer()
    if obs.enabled:
        obs.inc("faults.apply_calls")
        obs.event(
            "fault.apply",
            dead_links=len(faults.dead_links),
            dead_routers=len(faults.dead_routers),
            faulty_crossbars=len(faults.faulty_crossbars),
        )
    if isinstance(topology, MultiChipTopology):
        return _apply_multichip(topology, faults)
    return _apply_plain(topology, faults)


def degrade_topology(
    topology: Topology,
    failed_links: Iterable[Tuple[int, int]],
) -> Topology:
    """Remove ``failed_links`` from a topology (bidirectional failure).

    A thin wrapper over :func:`apply_faults` with a link-only
    :class:`FaultSet`; the topology's class (including
    :class:`~repro.noc.multichip.MultiChipTopology` with its chip and
    bridge bookkeeping) is preserved.  Raises ``ValueError`` if a link
    does not exist or if removal would disconnect the router graph (no
    rerouting can save such a fabric).
    """
    return apply_faults(
        topology,
        FaultSet(dead_links=frozenset(tuple(link) for link in failed_links)),
    )


def cut_edges(adj) -> Set[Tuple[int, int]]:
    """Bridges of the simple graph ``adj`` (``graph.adj``), both orientations.

    Iterative low-link depth-first search: tree edge ``(p, n)`` is a cut
    edge exactly when no back edge from ``n``'s subtree reaches ``p`` or
    above.  Disconnected graphs and single nodes are fine.
    """
    disc: Dict[int, int] = {}
    low: Dict[int, int] = {}
    cut: Set[Tuple[int, int]] = set()
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, root, iter(adj[root]))]
        while stack:
            node, parent, neighbours = stack[-1]
            for nxt in neighbours:
                if nxt == parent:
                    continue
                if nxt in disc:
                    low[node] = min(low[node], disc[nxt])
                else:
                    disc[nxt] = low[nxt] = len(disc)
                    stack.append((nxt, node, iter(adj[nxt])))
                    break
            else:
                stack.pop()
                if node != root:
                    low[parent] = min(low[parent], low[node])
                    if low[node] > disc[parent]:
                        cut.update(((parent, node), (node, parent)))
    return cut


def _chain_segments(chain: List[int]) -> Set[Tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in zip(chain, chain[1:])}


def _remove_chain(g: RouterGraph, chain: List[int]) -> None:
    """Take a whole bridge out of ``g``: every segment and relay router."""
    g.remove_edges_from(zip(chain, chain[1:]))
    g.remove_nodes_from(chain[1:-1])


def _survivable(g: RouterGraph, chains: List[List[int]]) -> List[Tuple[int, int]]:
    """Survivable links of router graph ``g`` whose bridges are ``chains``."""
    cut = cut_edges(g.adj)
    segments = set().union(*map(_chain_segments, chains))
    survivable = [
        (u, v)
        for u, v in g.edges
        if (u, v) not in cut and (min(u, v), max(u, v)) not in segments
    ]
    for chain in chains:
        without = g.copy()
        _remove_chain(without, chain)
        if without.is_connected():
            chain_segs = _chain_segments(chain)
            survivable.extend(
                (u, v) for u, v in g.edges if (min(u, v), max(u, v)) in chain_segs
            )
    return survivable


def inject_random_faults(
    topology: Topology,
    n_faults: int,
    seed: SeedLike = None,
) -> Tuple[Topology, List[Tuple[int, int]]]:
    """Remove ``n_faults`` random links, keeping the fabric connected.

    Faults are drawn one at a time on one working copy of the router
    graph, recomputing the survivable links after each removal, and the
    drawn set is applied with one :func:`apply_faults` call — the same
    faults and the same topology, in iteration order, as degrading a
    fresh topology per fault.  ``n_faults=0`` returns ``topology``
    itself.  Raises ``ValueError`` when the topology cannot absorb that
    many faults (e.g. trees have no redundant links at all).
    """
    if n_faults < 0:
        raise ValueError(f"n_faults must be non-negative, got {n_faults}")
    rng = default_rng(seed)
    g = topology.graph.copy()
    chains = bridge_chains(topology)
    chosen: List[Tuple[int, int]] = []
    for _ in range(n_faults):
        candidates = _survivable(g, chains)
        if not candidates:
            raise ValueError(
                f"topology {topology.kind!r} cannot survive "
                f"{n_faults} link faults (only {len(chosen)} possible)"
            )
        u, v = candidates[int(rng.integers(0, len(candidates)))]
        chosen.append((u, v))
        g.remove_edge(u, v)
        for chain in chains:
            if (min(u, v), max(u, v)) in _chain_segments(chain):
                _remove_chain(g, chain)  # a dead segment kills its bridge
                chains.remove(chain)
                break
    current = degrade_topology(topology, chosen) if chosen else topology
    obs = get_observer()
    if obs.enabled:
        obs.inc("faults.random_injections", len(chosen))
        obs.event("fault.inject_random", n_faults=len(chosen))
    return current, chosen


@dataclass(frozen=True)
class FaultWindow:
    """One transient fault episode: ``faults`` held over ``[arrive, clear)``.

    ``clear=None`` marks a permanent fault (never heals).  The window is
    half-open so a fault clearing at ``t`` is already gone when the
    fabric is inspected at ``t`` — arrive and clear edges compose
    without double counting.
    """

    faults: FaultSet
    arrive: float = 0.0
    clear: float | None = None

    def __post_init__(self) -> None:
        if self.clear is not None and self.clear <= self.arrive:
            raise ValueError(
                f"fault window must clear after it arrives: "
                f"arrive={self.arrive}, clear={self.clear}"
            )

    def active_at(self, time: float) -> bool:
        return self.arrive <= time and (self.clear is None or time < self.clear)


@dataclass(frozen=True)
class FaultTimeline:
    """A schedule of transient :class:`FaultWindow` episodes.

    The fabric's state at any instant is the *union* of the fault sets
    whose windows cover it (see :meth:`FaultSet.__or__`), so faults may
    overlap, arrive while others persist, and clear independently.  A
    cleared fault re-admits its routers and links: once no window
    covers an instant, :meth:`active_at` is the empty fault set and the
    healthy fabric applies unchanged.
    """

    windows: Tuple[FaultWindow, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(self.windows))

    def active_at(self, time: float) -> FaultSet:
        """Union of every fault set whose window covers ``time``."""
        active = FaultSet()
        for window in self.windows:
            if window.active_at(time):
                active = active | window.faults
        return active

    def edges(self) -> List[float]:
        """Sorted distinct instants where the active fault set changes."""
        times = set()
        for window in self.windows:
            times.add(window.arrive)
            if window.clear is not None:
                times.add(window.clear)
        return sorted(times)

    def crossbars_at(self, time: float) -> FrozenSet[int]:
        """Faulty crossbar indices at ``time`` (for the runtime layer)."""
        return self.active_at(time).faulty_crossbars

    def describe(self) -> str:
        permanent = sum(1 for w in self.windows if w.clear is None)
        return (
            f"FaultTimeline: {len(self.windows)} windows "
            f"({permanent} permanent), {len(self.edges())} edges"
        )
