"""Differential oracle for the array-backed routing tables.

A ``RoutingTable`` holds dense ``(n, n)`` next-hop and distance arrays
over sorted router ids; ``shortest_path_routing`` fills them with one
BFS per destination, ``xy_routing`` with coordinate arithmetic, and the
fast backend turns the next-hop array into its per-link destination
masks with one scatter.  The implementation this replaced kept
``(here, dst)``-keyed dicts, built them pair by pair, and made the masks
by asking ``candidates()`` once per ordered router pair.  It lives on
here as the oracle: on generated fabrics — mesh, torus, tree, star and
multi-chip boards, healthy or after a random survivable fault draw —
every ordered router pair must get the same next hop and distance (or
the construction the same error), the kernel's routing tables must be
equal word for word, and ``crossbar_hop_matrix`` equal entry for entry.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc._ckernel import load_kernel
from repro.noc.fastsim import FastInterconnect
from repro.noc.faults import inject_random_faults
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.routing import routing_for, shortest_path_routing, xy_routing
from repro.noc.topology import Topology, build_topology, mesh_for

# -- the replaced implementation, verbatim -----------------------------------


class OracleRoutingTable:
    def __init__(
        self,
        next_hop: Dict[Tuple[int, int], int],
        distance: Dict[Tuple[int, int], int],
        name: str,
    ) -> None:
        self._next_hop = next_hop
        self._distance = distance
        self.name = name

    def next_hop(self, here: int, dst: int) -> int:
        if here == dst:
            raise ValueError(f"packet already at destination {dst}")
        return self._next_hop[(here, dst)]

    def candidates(self, here: int, dst: int) -> List[int]:
        return [self.next_hop(here, dst)]

    def distance(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        return self._distance[(src, dst)]


def oracle_shortest_path_routing(topology: Topology) -> OracleRoutingTable:
    g = topology.graph
    next_hop: Dict[Tuple[int, int], int] = {}
    distance: Dict[Tuple[int, int], int] = {}
    nodes = sorted(g.nodes)
    for dst in nodes:
        dist = {dst: 0}
        toward: Dict[int, int] = {}
        frontier = [dst]
        while frontier:
            nxt = []
            for u in frontier:
                for v in sorted(g.neighbors(u)):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        toward[v] = u
                        nxt.append(v)
            frontier = nxt
        for node, d in dist.items():
            if node == dst:
                continue
            next_hop[(node, dst)] = toward[node]
            distance[(node, dst)] = d
    return OracleRoutingTable(
        next_hop, distance, name=f"shortest-path/{topology.kind}"
    )


def oracle_xy_routing(topology: Topology) -> OracleRoutingTable:
    if not topology.positions:
        raise ValueError("XY routing requires grid positions on the topology")
    pos = topology.positions
    coord_to_node = {xy: n for n, xy in pos.items()}
    next_hop: Dict[Tuple[int, int], int] = {}
    distance: Dict[Tuple[int, int], int] = {}
    nodes = sorted(topology.graph.nodes)
    for here in nodes:
        hx, hy = pos[here]
        for dst in nodes:
            if here == dst:
                continue
            dx, dy = pos[dst]
            if hx != dx:
                step = (hx + (1 if dx > hx else -1), hy)
            else:
                step = (hx, hy + (1 if dy > hy else -1))
            if step not in coord_to_node:
                raise ValueError(
                    f"XY route from {here} to {dst} leaves the grid at {step}"
                )
            nxt = coord_to_node[step]
            if not topology.graph.has_edge(here, nxt):
                raise ValueError(
                    f"XY route from {here} to {dst} uses missing link "
                    f"{here}->{nxt}"
                )
            next_hop[(here, dst)] = nxt
            distance[(here, dst)] = abs(dx - hx) + abs(dy - hy)
    return OracleRoutingTable(next_hop, distance, name="xy/mesh")


def oracle_routing_for(topology: Topology) -> OracleRoutingTable:
    if topology.kind.endswith("-degraded"):
        return oracle_shortest_path_routing(topology)
    if topology.kind == "mesh" and topology.positions:
        return oracle_xy_routing(topology)
    return oracle_shortest_path_routing(topology)


def _offsets(sizes) -> np.ndarray:
    out = [0]
    for size in sizes:
        out.append(out[-1] + size)
    return np.array(out, dtype=np.int64)


def _pack_mask_words(p_mask, nw) -> np.ndarray:
    n_packets = len(p_mask)
    if nw == 1:
        return np.array(p_mask, dtype=np.uint64).reshape(n_packets, 1)
    words = np.zeros((n_packets, nw), dtype=np.uint64)
    for i, m in enumerate(p_mask):
        w = 0
        while m:
            words[i, w] = m & 0xFFFFFFFFFFFFFFFF
            m >>= 64
            w += 1
    return words


def oracle_kernel_tables(topology, routing):
    """``FastInterconnect._build_tables`` as it was: ``(edges, tables)``."""
    nodes = sorted(topology.graph.nodes)
    idx = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    n_words = 1 if n <= 63 else -(-n // 64)
    nbrs: List[List[int]] = []
    port_base: List[int] = []
    base = 0
    for node in nodes:
        nbrs.append([idx[v] for v in sorted(topology.graph.neighbors(node))])
        port_base.append(base)
        base += 1 + len(nbrs[-1])
    pairs = [(i, nb) for i in range(n) for nb in nbrs[i]]
    edges = [(nodes[i], nodes[nb]) for i, nb in pairs]
    masks: List[Dict[int, int]] = [{nb: 0 for nb in row} for row in nbrs]
    for i, here in enumerate(nodes):
        for d, dst in enumerate(nodes):
            if d == i:
                continue
            options = routing.candidates(here, dst)
            masks[i][idx[options[0]]] |= 1 << d
    in_slot = [{u: s + 1 for s, u in enumerate(row)} for row in nbrs]
    return edges, (
        np.asarray(port_base, dtype=np.int32),
        np.asarray([1 + len(row) for row in nbrs], dtype=np.int32),
        _offsets(len(row) for row in nbrs).astype(np.int32),
        np.asarray([nb for _, nb in pairs], dtype=np.int32),
        _pack_mask_words([masks[i][nb] for i, nb in pairs], n_words),
        np.asarray(
            [port_base[nb] + in_slot[nb][i] for i, nb in pairs], dtype=np.int32
        ),
        np.arange(len(pairs), dtype=np.int32),
    )


def oracle_crossbar_hop_matrix(topology, routing) -> np.ndarray:
    c = topology.n_attach_points
    matrix = np.zeros((c, c), dtype=np.float64)
    nodes = topology.attach_points
    for k1 in range(c):
        for k2 in range(c):
            if k1 != k2:
                matrix[k1, k2] = routing.distance(nodes[k1], nodes[k2])
    return matrix


# -- comparison ----------------------------------------------------------------


def outcome(build):
    """What a table builder returns, or the ``ValueError`` it raises."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def assert_same_routing(got, want, topology):
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert got.name == want.name
    nodes = sorted(topology.graph.nodes)
    for here in nodes:
        for dst in nodes:
            assert got.distance(here, dst) == want.distance(here, dst)
            assert type(got.distance(here, dst)) is int
            if here == dst:
                continue
            hop = got.next_hop(here, dst)
            assert type(hop) is int
            assert hop == want.next_hop(here, dst), (here, dst)


def assert_same_kernel_tables(topology, got_routing, want_routing):
    engine = FastInterconnect(topology, got_routing, NocConfig(backend="fast"))
    edges, want = oracle_kernel_tables(topology, want_routing)
    assert engine._edges == edges
    got = engine._ck_tables
    assert np.array_equal(engine._port_base_arr, want[0])
    assert engine._n_flat_ports == int(want[1].sum())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.shape == w.shape
        assert g.flags.c_contiguous
        assert g.tobytes() == w.tobytes()


# -- generated fabrics -----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def healthy_fabric(
    kind: str, n_crossbars: int, chips: int, chip_kind: str, latency: int
) -> Topology:
    if kind == "multichip":
        return build_topology(
            kind,
            n_crossbars,
            n_chips=min(chips, n_crossbars),
            chip_kind=chip_kind,
            bridge_latency=latency,
        )
    return build_topology(kind, n_crossbars)


@st.composite
def fabrics(draw):
    """A fabric, healthy or after a random survivable link-fault draw."""
    kind = draw(st.sampled_from(["mesh", "torus", "tree", "star", "multichip"]))
    healthy = healthy_fabric(
        kind,
        draw(st.integers(1, 16)),
        draw(st.integers(2, 4)),
        draw(st.sampled_from(["mesh", "torus", "tree", "star"])),
        draw(st.integers(1, 3)),
    )
    faults = draw(st.integers(0, 4))
    if not faults:
        return healthy
    seed = draw(st.integers(0, 2**16))
    try:
        return inject_random_faults(healthy, faults, seed=seed)[0]
    except ValueError:  # cannot survive that many: the healthy fabric
        return healthy


needs_kernel = pytest.mark.skipif(
    load_kernel() is None, reason="compiled kernel unavailable (no C compiler)"
)


@given(fabrics())
@settings(max_examples=150, deadline=None)
def test_tables_match_the_dict_builders(topology):
    assert_same_routing(routing_for(topology), oracle_routing_for(topology), topology)
    assert_same_routing(
        shortest_path_routing(topology),
        oracle_shortest_path_routing(topology),
        topology,
    )
    # XY wherever it is asked for, errors included (off-grid steps on
    # boards, missing links after faults).
    assert_same_routing(
        outcome(lambda: xy_routing(topology)),
        outcome(lambda: oracle_xy_routing(topology)),
        topology,
    )


@needs_kernel
@given(fabrics())
@settings(max_examples=100, deadline=None)
def test_kernel_tables_match_per_pair_masks(topology):
    assert_same_kernel_tables(
        topology, routing_for(topology), oracle_routing_for(topology)
    )


@given(fabrics())
@settings(max_examples=100, deadline=None)
def test_crossbar_hop_matrix_matches_per_pair_loop(topology):
    want = oracle_crossbar_hop_matrix(topology, oracle_routing_for(topology))
    got = topology.crossbar_hop_matrix()
    assert got.dtype == want.dtype and not got.flags.writeable
    assert got.tobytes() == want.tobytes()
    other = shortest_path_routing(topology)
    want = oracle_crossbar_hop_matrix(topology, oracle_shortest_path_routing(topology))
    assert topology.crossbar_hop_matrix(other).tobytes() == want.tobytes()


# -- a table that does not fit its fabric ---------------------------------------


def _degraded_mesh():
    healthy = mesh_for(12)
    degraded, failed = inject_random_faults(healthy, 2, seed=3)
    assert len(failed) == 2 and degraded.n_routers == healthy.n_routers
    return healthy, degraded


@pytest.mark.parametrize("engine", [Interconnect, FastInterconnect])
def test_healthy_table_on_degraded_fabric_rejected(engine):
    """Used to surface as a bare ``KeyError`` (at construction on the
    fast backend, mid-simulation on the reference one)."""
    healthy, degraded = _degraded_mesh()
    message = r"'xy/mesh' does not fit this fabric: its route from \d+ to \d+ takes"
    with pytest.raises(ValueError, match=message + " missing link"):
        engine(degraded, routing_for(healthy), NocConfig(backend="fast"))
    engine(degraded, routing_for(degraded), NocConfig(backend="fast"))


@pytest.mark.parametrize("engine", [Interconnect, FastInterconnect])
def test_table_of_other_routers_rejected(engine):
    with pytest.raises(ValueError, match="built for other routers"):
        engine(mesh_for(12), routing_for(mesh_for(9)), NocConfig(backend="fast"))
