"""Differential oracles for the one-copy random fault draw.

``inject_random_faults`` draws every link on one working copy of the
router graph and applies the drawn set once; the implementation it
replaced degraded a fresh topology per fault and found cut edges with
``nx.bridges``.  That sequential version lives on here as the oracle:
the fault list, and the degraded topology node for node, link for link
and neighbour for neighbour in iteration order (routing tie-breaks
follow adjacency order), must be the same.
"""

import networkx as nx
import numpy as np
import pytest

from repro.noc.faults import (
    bridge_chains,
    cut_edges,
    degrade_topology,
    inject_random_faults,
)
from repro.noc.multichip import MultiChipTopology, multichip
from repro.noc.topology import mesh, mesh_for, torus, tree
from repro.utils.rng import default_rng
from tests.noc.test_faults import survivable_links


def oracle_survivable_links(topology):
    cut = set()
    for u, v in nx.bridges(topology.graph.to_networkx()):
        cut.add((u, v))
        cut.add((v, u))
    if not isinstance(topology, MultiChipTopology):
        return [(u, v) for u, v in topology.graph.edges if (u, v) not in cut]
    survivable = [
        (u, v)
        for u, v in topology.graph.edges
        if (u, v) not in cut and (u, v) not in topology.bridge_links
    ]
    for chain in bridge_chains(topology):
        chain_segs = {(min(a, b), max(a, b)) for a, b in zip(chain, chain[1:])}
        g = topology.graph.to_networkx()
        for u, v in zip(chain, chain[1:]):
            g.remove_edge(u, v)
        g.remove_nodes_from(chain[1:-1])
        if nx.is_connected(g):
            survivable.extend(
                (u, v)
                for u, v in topology.graph.edges
                if (min(u, v), max(u, v)) in chain_segs
            )
    return survivable


def oracle_inject_random_faults(topology, n_faults, seed):
    """One ``degrade_topology`` per fault, as before the one-copy draw."""
    rng = default_rng(seed)
    current = topology
    chosen = []
    for _ in range(n_faults):
        candidates = oracle_survivable_links(current)
        if not candidates:
            raise ValueError(f"only {len(chosen)} possible")
        u, v = candidates[int(rng.integers(0, len(candidates)))]
        current = degrade_topology(current, [(u, v)])
        chosen.append((u, v))
    return current, chosen


def fabric_fingerprint(topology):
    """Everything routing and simulation read, in iteration order."""
    g = topology.graph
    fingerprint = {
        "type": type(topology).__name__,
        "kind": topology.kind,
        "nodes": list(g.nodes),
        "edges": list(g.edges),
        "adjacency": {n: list(g.adj[n]) for n in g.nodes},
        "attach_points": list(topology.attach_points),
        "positions": list(topology.positions.items()),
    }
    if isinstance(topology, MultiChipTopology):
        fingerprint.update(
            chip_of_router=list(topology.chip_of_router.items()),
            chip_of_crossbar=list(topology.chip_of_crossbar),
            bridge_links=list(topology.bridge_links),
            bridge_entry_links=list(topology.bridge_entry_links),
            n_bridges=topology.n_bridges,
            chains=bridge_chains(topology),
            bridge_latency=topology.bridge_latency,
            n_chips=topology.n_chips,
            chip_kind=topology.chip_kind,
        )
    return fingerprint


FABRICS = {
    "mesh3x4": lambda: mesh(3, 4),
    "mesh12": lambda: mesh_for(12),
    "torus3x3": lambda: torus(3, 3),
    "board2": lambda: multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=3),
    "board2x2": lambda: multichip(16, n_chips=4, chip_kind="mesh", bridge_latency=3),
    "board2x2-direct": lambda: multichip(
        8, n_chips=4, chip_kind="mesh", bridge_latency=1
    ),
    "board3": lambda: multichip(9, n_chips=3, chip_kind="torus", bridge_latency=2),
}


class TestInjectRandomFaultsOracle:
    @pytest.mark.parametrize("name", sorted(FABRICS))
    @pytest.mark.parametrize("n_faults", [0, 1, 2, 4, 6])
    def test_same_faults_same_fabric(self, name, n_faults):
        healthy = FABRICS[name]()
        before = fabric_fingerprint(healthy)
        for seed in range(12):
            try:
                want_topology, want_failed = oracle_inject_random_faults(
                    healthy, n_faults, seed
                )
            except ValueError:
                with pytest.raises(ValueError, match="cannot survive"):
                    inject_random_faults(healthy, n_faults, seed=seed)
                continue
            topology, failed = inject_random_faults(healthy, n_faults, seed=seed)
            assert failed == want_failed
            assert fabric_fingerprint(topology) == fabric_fingerprint(want_topology)
        assert fabric_fingerprint(healthy) == before  # input never mutated

    def test_some_draw_removes_relay_routers(self):
        """The 2x2 board cases above do hit the whole-bridge branch."""
        healthy = FABRICS["board2x2"]()
        shrunk = [
            seed
            for seed in range(12)
            if inject_random_faults(healthy, 4, seed=seed)[0].n_routers
            < healthy.n_routers
        ]
        assert shrunk

    def test_zero_faults_returns_the_healthy_object(self):
        healthy = mesh(3, 3)
        topology, failed = inject_random_faults(healthy, 0, seed=1)
        assert topology is healthy and failed == []

    def test_tree_raises_like_the_oracle(self):
        with pytest.raises(ValueError, match="only 0 possible"):
            oracle_inject_random_faults(tree(8), 1, 0)
        with pytest.raises(ValueError, match="only 0 possible"):
            inject_random_faults(tree(8), 1, seed=0)

    def test_one_apply_call_per_draw(self):
        from repro.obs import observe

        with observe() as obs:
            inject_random_faults(mesh(3, 4), 4, seed=3)
        assert obs.metrics.counter_value("faults.apply_calls") == 1
        assert obs.metrics.counter_value("faults.random_injections") == 4

    @pytest.mark.parametrize("name", sorted(FABRICS))
    def test_survivable_links_match(self, name):
        topology = FABRICS[name]()
        assert survivable_links(topology) == oracle_survivable_links(topology)


class TestCutEdges:
    def _check(self, graph):
        want = set()
        for u, v in nx.bridges(graph):
            want.add((u, v))
            want.add((v, u))
        assert cut_edges(graph.adj) == want

    def test_random_graphs_match_networkx(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            n = int(rng.integers(1, 14))
            # Sparse to dense: trees-with-chords, forests, near-cliques.
            p = float(rng.choice([0.08, 0.15, 0.25, 0.5]))
            graph = nx.gnp_random_graph(n, p, seed=int(rng.integers(1 << 30)))
            self._check(graph)

    def test_shapes(self):
        self._check(nx.empty_graph(1))
        self._check(nx.empty_graph(5))  # all isolated
        self._check(nx.path_graph(6))  # every edge a bridge
        self._check(nx.cycle_graph(6))  # none
        self._check(nx.barbell_graph(4, 2))
        self._check(nx.disjoint_union(nx.cycle_graph(4), nx.path_graph(3)))
        self._check(nx.relabel_nodes(nx.star_graph(4), lambda n: 10 - n))

    def test_deep_path_does_not_recurse(self):
        self._check(nx.path_graph(5000))
