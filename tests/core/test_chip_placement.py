"""Chip-aware two-level placement on multi-chip topologies.

Acceptance: on a fig5-style workload (clustered communities whose
cluster ids interleave across chips under naive placement), the
hierarchical pass packs communicating clusters onto the same chip and
strictly reduces inter-chip traffic/hops versus naive placement — both
in closed form and on the cycle-accurate simulator.
"""

from __future__ import annotations

import numpy as np

from repro.core.placement import (
    _pack_onto_chips,
    inter_chip_traffic,
    place_clusters,
)
from repro.core.traffic_matrix import cluster_traffic
from repro.noc.fastsim import FastInterconnect
from repro.noc.interconnect import NocConfig
from repro.noc.multichip import chip_distance_matrix, multichip
from repro.noc.routing import routing_for
from repro.noc.stats import summarize
from repro.noc.traffic import build_injections
from repro.snn.graph import SpikeGraph


def interleaved_communities(n_clusters=8, heavy=50.0, light=1.0):
    """Cluster traffic with two chatty communities, interleaved ids.

    Even clusters talk heavily to even clusters, odd to odd — so naive
    (identity) placement on a two-chip fabric strands half of every
    community on the far chip.
    """
    traffic = np.zeros((n_clusters, n_clusters))
    for i in range(n_clusters):
        for j in range(n_clusters):
            if i == j:
                continue
            traffic[i, j] = heavy if (i - j) % 2 == 0 else light
    return traffic


def pack_onto_chips(traffic, topo):
    """Chip of each cluster, from the hierarchical pass's first step."""
    return _pack_onto_chips(
        traffic + traffic.T, topo, chip_distance_matrix(topo, routing_for(topo))
    )


class TestPackOntoChips:
    def test_respects_chip_capacities(self):
        topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=4)
        chips = pack_onto_chips(interleaved_communities(), topo)
        assert sorted(np.bincount(chips, minlength=2)) == [4, 4]

    def test_packs_communities_together(self):
        topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=4)
        chips = pack_onto_chips(interleaved_communities(), topo)
        evens = {int(chips[k]) for k in range(0, 8, 2)}
        odds = {int(chips[k]) for k in range(1, 8, 2)}
        assert len(evens) == 1
        assert len(odds) == 1
        assert evens != odds

    def test_four_chip_packing_feasible(self):
        topo = multichip(16, n_chips=4, chip_kind="mesh", bridge_latency=2)
        rng = np.random.default_rng(3)
        traffic = rng.random((16, 16))
        chips = pack_onto_chips(traffic, topo)
        assert np.bincount(chips, minlength=4).max() <= 4


class TestHierarchicalPlacement:
    def test_reduces_inter_chip_traffic_vs_naive(self):
        topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=4)
        traffic = interleaved_communities()
        naive = np.arange(8)
        perm = place_clusters(traffic, topo)
        assert sorted(perm.tolist()) == list(range(8))  # a permutation
        assert inter_chip_traffic(traffic, perm, topo) < inter_chip_traffic(
            traffic, naive, topo
        )

    def test_flat_topology_placement_unchanged_by_dispatch(self):
        from repro.noc.topology import build_topology

        topo = build_topology("mesh", 6)
        rng = np.random.default_rng(11)
        traffic = rng.random((6, 6)) * 10
        perm = place_clusters(traffic, topo)
        assert sorted(perm.tolist()) == list(range(6))

    def test_single_cluster_trivial(self):
        topo = multichip(4, n_chips=2, chip_kind="mesh")
        perm = place_clusters(np.zeros((1, 1)), topo)
        assert perm.tolist() == [0]


class TestSimulatedAcceptance:
    """Fig5-style workload: fewer simulated inter-chip hops than naive."""

    def _workload(self):
        # 16 neurons, 2 per cluster; even/odd cluster communities as in
        # interleaved_communities, expressed as a spike graph.
        src, dst, weight = [], [], []
        for ci in range(8):
            for cj in range(8):
                if ci == cj or (ci - cj) % 2 != 0:
                    continue
                src.append(2 * ci)
                dst.append(2 * cj + 1)
                weight.append(40.0)
        # A sprinkle of cross-community chatter so every cluster talks.
        for ci in range(7):
            src.append(2 * ci)
            dst.append(2 * (ci + 1))
            weight.append(1.0)
        spike_times = [np.arange(0.0, 50.0, 5.0) for _ in range(16)]
        graph = SpikeGraph.from_edges(
            16, src, dst, weight, spike_times=spike_times, name="fig5_style"
        )
        assignment = np.arange(16) // 2  # neuron -> cluster, fixed
        return graph, assignment

    def _inter_chip_hops(self, topo, graph, assignment):
        schedule = build_injections(graph, assignment, topo, cycles_per_ms=10.0)
        stats = FastInterconnect(topo, config=NocConfig(backend="fast")).simulate(
            schedule.injections
        )
        assert stats.undelivered_count == 0
        return summarize(stats, topo).inter_chip_hops

    def test_placed_mapping_crosses_bridges_less(self):
        topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=4)
        graph, assignment = self._workload()
        traffic = cluster_traffic(graph, assignment, 8)
        perm = place_clusters(traffic, topo)
        naive_hops = self._inter_chip_hops(topo, graph, assignment)
        placed_hops = self._inter_chip_hops(topo, graph, perm[assignment])
        assert placed_hops < naive_hops


class TestMapSnnMultichip:
    def test_pso_noc_objective_on_multichip(self, tiny_graph):
        """NoC-in-the-loop swarm scoring simulates the bridged fabric."""
        from repro.core.mapper import map_snn
        from repro.core.pso import PSOConfig
        from repro.hardware.presets import custom

        arch = custom(
            4,
            2,
            interconnect="mesh",
            n_chips=2,
            bridge_latency=2,
            name="board",
        )
        result = map_snn(
            tiny_graph,
            arch,
            method="pso",
            objective="noc",
            seed=7,
            pso_config=PSOConfig(n_particles=6, n_iterations=3),
        )
        assert result.partition.n_clusters == 4
        assert result.extras["objective"] == "noc"

    def test_placement_pass_runs_hierarchically(self, tiny_graph):
        from repro.core.mapper import map_snn
        from repro.hardware.presets import custom

        arch = custom(
            4,
            2,
            interconnect="mesh",
            n_chips=2,
            bridge_latency=4,
            name="board",
        )
        result = map_snn(tiny_graph, arch, method="pacman")
        perm = result.extras["placement"]
        assert sorted(perm.tolist()) == list(range(4))
