"""Interconnect topologies with crossbar attach points.

A :class:`Topology` is an undirected router graph plus the ordered list of
*attach points*: the routers where crossbars (tiles) connect.  The paper's
reference platforms differ exactly here — CxQuad uses a NoC-tree whose
leaves host crossbars, TrueNorth/HiCANN use a NoC-mesh with one crossbar
per router.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.utils.validation import check_positive

if TYPE_CHECKING:
    import networkx as nx


class RouterGraph:
    """Undirected router graph: an insertion-ordered dict-of-dicts adjacency.

    Carries the :class:`networkx.Graph` method names the NoC layer calls,
    with networkx's iteration orders, so fabrics (and the fault draws
    that index into ``edges``) are the same as when the graph *was* an
    ``nx.Graph`` - without importing networkx on the run path.
    :meth:`to_networkx` exports for anything else.
    """

    def __init__(
        self, nodes: Iterable[int] = (), edges: Iterable[Tuple[int, int]] = ()
    ) -> None:
        self._adj: Dict[int, Dict[int, None]] = {}
        self.add_nodes_from(nodes)
        self.add_edges_from(edges)

    def add_node(self, n: int) -> None:
        self._adj.setdefault(n, {})

    def add_nodes_from(self, nodes: Iterable[int]) -> None:
        for n in nodes:
            self.add_node(n)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"router {u} cannot link to itself")
        self._adj.setdefault(u, {})[v] = None
        self._adj.setdefault(v, {})[u] = None

    def add_edges_from(self, edges: Iterable[Tuple[int, int]]) -> None:
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise KeyError(f"the edge {u}-{v} is not in the graph")
        del self._adj[u][v]
        del self._adj[v][u]

    def remove_edges_from(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Remove every listed edge that exists; missing ones are ignored."""
        for u, v in edges:
            if self.has_edge(u, v):
                self.remove_edge(u, v)

    def remove_node(self, n: int) -> None:
        """Remove router ``n`` and every link incident to it."""
        if n not in self._adj:
            raise KeyError(f"the node {n} is not in the graph")
        for v in self._adj.pop(n):
            del self._adj[v][n]

    def remove_nodes_from(self, nodes: Iterable[int]) -> None:
        """Remove every listed router that exists; missing ones are ignored."""
        for n in nodes:
            if n in self._adj:
                self.remove_node(n)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def __contains__(self, n: object) -> bool:
        return n in self._adj

    @property
    def nodes(self):
        """Routers in insertion order (a live view)."""
        return self._adj.keys()

    @property
    def adj(self) -> Dict[int, Dict[int, None]]:
        """``adj[n]`` iterates ``n``'s neighbours in link-insertion order."""
        return self._adj

    @property
    def edges(self) -> List[Tuple[int, int]]:
        """Each link once: per router in node order, its not-yet-visited
        neighbours in adjacency order (the order fault draws index into)."""
        seen: set = set()
        out: List[Tuple[int, int]] = []
        for u, nbrs in self._adj.items():
            out.extend((u, v) for v in nbrs if v not in seen)
            seen.add(u)
        return out

    def neighbors(self, n: int) -> Iterator[int]:
        return iter(self._adj[n])

    def degree(self, n: int) -> int:
        return len(self._adj[n])

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def number_of_edges(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def copy(self) -> "RouterGraph":
        """Independent copy; like networkx's, it re-inserts the links in
        ``edges`` order, so ``neighbors`` may iterate differently after."""
        return RouterGraph(self._adj, self.edges)

    def is_connected(self) -> bool:
        if not self._adj:
            raise ValueError("connectivity is undefined for a graph with no routers")
        start = next(iter(self._adj))
        seen = {start}
        todo = [start]
        while todo:
            for v in self._adj[todo.pop()]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        return len(seen) == len(self._adj)

    def to_networkx(self) -> nx.Graph:
        """Export as a :class:`networkx.Graph`, nodes and edges in order
        (networkx comes with the ``test`` extra, not at run time)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._adj)
        g.add_edges_from(self.edges)
        return g


@dataclass
class Topology:
    """Router graph + crossbar attach points.

    Attributes
    ----------
    graph:
        Undirected :class:`RouterGraph` of routers; nodes are ints.  A
        :class:`networkx.Graph` (anything with ``nodes`` and ``edges``)
        is converted on construction.
    attach_points:
        ``attach_points[k]`` is the router hosting crossbar ``k``.
    kind:
        Topology family name ("mesh", "tree", ...), used by routing
        selection and reports.
    positions:
        Optional (x, y) grid coordinates per router; required by XY routing.
    """

    graph: RouterGraph
    attach_points: List[int]
    kind: str
    positions: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.graph, RouterGraph):
            self.graph = RouterGraph(self.graph.nodes, self.graph.edges)
        if not self.graph.number_of_nodes():
            raise ValueError("topology graph must have at least one router")
        missing = [n for n in self.attach_points if n not in self.graph]
        if missing:
            raise ValueError(f"attach points {missing} are not routers in the graph")
        if len(set(self.attach_points)) != len(self.attach_points):
            raise ValueError("attach points must be distinct routers")
        if not self.graph.is_connected():
            raise ValueError("topology graph must be connected")
        # Lazily filled cache (a plain attribute, not a dataclass field):
        # fitness and placement both need the same hop matrices on the
        # same topology instance, repeatedly.  Valid as long as the
        # graph is not mutated after first use — builders that derive
        # one topology from another always construct a fresh instance.
        self._hop_matrices: Dict[str, "object"] = {}

    @property
    def n_routers(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def n_attach_points(self) -> int:
        return len(self.attach_points)

    def crossbar_hop_matrix(self, routing=None):
        """All-pairs routed hop distances between attach points, cached.

        ``matrix[k1, k2]`` is the routed hop count from crossbar ``k1``'s
        router to crossbar ``k2``'s: one gather of the routing table's
        distance table at the attach points.  Placement, multi-chip
        placement and the analytic energy estimates consume this matrix,
        often many times per run on the same topology, so it is computed
        once per (topology instance, routing algorithm) and returned
        read-only.  Pass a routing table to price a non-default algorithm;
        distinct table instances of the same algorithm share one cache
        entry (keyed by ``routing.name``) because they produce identical
        distances.
        """
        if routing is None:
            from repro.noc.routing import routing_for

            routing = routing_for(self)
        cached = self._hop_matrices.get(routing.name)
        if cached is None:
            ids = routing.node_ids
            attach = np.asarray(self.attach_points, dtype=np.int64)
            at = np.minimum(np.searchsorted(ids, attach), ids.shape[0] - 1)
            if not np.array_equal(ids[at], attach):
                raise ValueError(
                    f"routing table {routing.name!r} does not cover every "
                    "attach point of this topology"
                )
            matrix = routing.distances[np.ix_(at, at)].astype(np.float64)
            matrix.flags.writeable = False
            self._hop_matrices[routing.name] = matrix
            cached = matrix
        return cached

    def describe(self) -> str:
        return (
            f"{self.kind} topology: {self.n_routers} routers, "
            f"{self.graph.number_of_edges()} links, "
            f"{self.n_attach_points} crossbar attach points"
        )


def dense_node_ids(topology: Topology) -> np.ndarray:
    """Sorted router ids of ``topology`` (cached, read-only): dense router
    index ``i`` is router ``dense_node_ids(topology)[i]`` in schedule
    masks, routing tables and the compiled kernel alike."""
    cached = getattr(topology, "_dense_node_ids", None)
    if cached is None:
        cached = np.asarray(sorted(topology.graph.nodes), dtype=np.int64)
        cached.flags.writeable = False
        topology._dense_node_ids = cached
    return cached


def mesh(width: int, height: Optional[int] = None) -> Topology:
    """2D mesh with one crossbar attach point per router (TrueNorth-style).

    Routers are numbered row-major; router (x, y) has id ``y * width + x``.
    """
    check_positive("width", width)
    if height is None:
        height = width
    check_positive("height", height)
    g = RouterGraph()
    positions: Dict[int, Tuple[int, int]] = {}
    for y in range(height):
        for x in range(width):
            node = y * width + x
            g.add_node(node)
            positions[node] = (x, y)
            if x > 0:
                g.add_edge(node, node - 1)
            if y > 0:
                g.add_edge(node, node - width)
    return Topology(
        graph=g,
        attach_points=list(range(width * height)),
        kind="mesh",
        positions=positions,
    )


def tree(n_leaves: int, arity: int = 2) -> Topology:
    """Balanced routing tree with crossbars on the leaves (CxQuad-style).

    Internal routers switch traffic only; leaf routers host crossbars.  The
    tree is as balanced as possible for the requested leaf count: leaves are
    grouped ``arity`` at a time under parent routers until one root remains.
    A single leaf degenerates to one router that is both root and leaf.
    """
    check_positive("n_leaves", n_leaves)
    if arity < 2:
        raise ValueError(f"tree arity must be >= 2, got {arity}")
    g = RouterGraph()
    leaves = list(range(n_leaves))
    g.add_nodes_from(leaves)
    next_id = n_leaves
    frontier = leaves[:]
    while len(frontier) > 1:
        parents = []
        for i in range(0, len(frontier), arity):
            group = frontier[i : i + arity]
            if len(group) == 1 and parents:
                # Attach a trailing singleton to the previous parent rather
                # than creating a chain of unary routers.
                g.add_edge(parents[-1], group[0])
                continue
            parent = next_id
            next_id += 1
            g.add_node(parent)
            for child in group:
                g.add_edge(parent, child)
            parents.append(parent)
        frontier = parents
    return Topology(graph=g, attach_points=leaves, kind="tree")


def star(n_crossbars: int) -> Topology:
    """All crossbars attached around a single hub router."""
    check_positive("n_crossbars", n_crossbars)
    g = RouterGraph()
    hub = n_crossbars
    g.add_node(hub)
    for k in range(n_crossbars):
        g.add_edge(hub, k)
    return Topology(graph=g, attach_points=list(range(n_crossbars)), kind="star")


def torus(width: int, height: Optional[int] = None) -> Topology:
    """2D torus (mesh with wraparound links), one crossbar per router."""
    check_positive("width", width)
    if height is None:
        height = width
    check_positive("height", height)
    base = mesh(width, height)
    g = base.graph
    if width > 2:
        for y in range(height):
            g.add_edge(y * width, y * width + width - 1)
    if height > 2:
        for x in range(width):
            g.add_edge(x, (height - 1) * width + x)
    return Topology(
        graph=g,
        attach_points=list(base.attach_points),
        kind="torus",
        positions=dict(base.positions),
    )


def mesh_for(n_crossbars: int) -> Topology:
    """Smallest near-square mesh with at least ``n_crossbars`` routers.

    Attach points are the first ``n_crossbars`` routers in row-major order.
    """
    check_positive("n_crossbars", n_crossbars)
    import math

    width = int(math.ceil(math.sqrt(n_crossbars)))
    height = int(math.ceil(n_crossbars / width))
    topo = mesh(width, height)
    return Topology(
        graph=topo.graph,
        attach_points=list(range(n_crossbars)),
        kind="mesh",
        positions=topo.positions,
    )


def _multichip_for(n_crossbars: int, **kwargs) -> Topology:
    from repro.noc.multichip import multichip

    return multichip(
        n_crossbars,
        n_chips=kwargs.get("n_chips", 2),
        chip_kind=kwargs.get("chip_kind", "mesh"),
        bridge_latency=kwargs.get("bridge_latency", 1),
        arity=kwargs.get("arity", 2),
    )


def build_topology(kind: str, n_crossbars: int, **kwargs) -> Topology:
    """Topology factory keyed by family name.

    Single-chip families are "tree", "mesh", "star" and "torus";
    "multichip" composes several single-chip fabrics with bridge links
    (see :mod:`repro.noc.multichip`) and accepts ``n_chips``,
    ``chip_kind`` and ``bridge_latency`` keywords.  Unknown kinds raise
    a ``ValueError`` naming every known option.
    """
    builders = {
        "tree": lambda: tree(n_crossbars, arity=kwargs.get("arity", 2)),
        "mesh": lambda: mesh_for(n_crossbars),
        "star": lambda: star(n_crossbars),
        "torus": lambda: _torus_for(n_crossbars),
        "multichip": lambda: _multichip_for(n_crossbars, **kwargs),
    }
    if kind not in builders:
        raise ValueError(f"unknown topology kind {kind!r}; options: {sorted(builders)}")
    return builders[kind]()


def _torus_for(n_crossbars: int) -> Topology:
    import math

    width = int(math.ceil(math.sqrt(n_crossbars)))
    height = int(math.ceil(n_crossbars / width))
    topo = torus(width, height)
    return Topology(
        graph=topo.graph,
        attach_points=list(range(n_crossbars)),
        kind="torus",
        positions=dict(topo.positions),
    )
