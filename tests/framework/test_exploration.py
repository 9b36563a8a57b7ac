"""Tests for architecture / swarm exploration sweeps.

The loops the two analytic energy estimators replaced are their
oracles here, with :func:`global_destinations` (the dict form of the
remote-reach masks, which also feeds the schedule oracle in
``tests/noc/test_columnar_schedule.py``).
"""

from typing import Dict, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.traffic_matrix import TrafficMatrix, cluster_traffic
from repro.framework.exploration import (
    estimate_interconnect_energy_pj,
    estimate_synapse_energy_pj,
    explore_architecture,
    explore_swarm_size,
    normalized_energies,
)
from repro.hardware.architecture import Architecture
from repro.hardware.presets import custom
from repro.noc.multichip import MultiChipTopology
from repro.noc.routing import routing_for
from repro.snn.graph import SpikeGraph


def global_destinations(
    graph: SpikeGraph, assignment: np.ndarray
) -> Dict[int, Set[int]]:
    """Remote crossbars each neuron must reach: ``neuron -> {crossbar}``.

    Only neurons with at least one inter-crossbar synapse appear.
    Self-loops and local synapses contribute nothing.  Computed with one
    ``np.unique`` over encoded ``(src, dst_cluster)`` pairs rather than
    a per-synapse Python loop.
    """
    if assignment.shape[0] != graph.n_neurons:
        raise ValueError(
            f"assignment covers {assignment.shape[0]} neurons, graph has "
            f"{graph.n_neurons}"
        )
    src_cluster = assignment[graph.src]
    dst_cluster = assignment[graph.dst]
    remote = src_cluster != dst_cluster
    if not remote.any():
        return {}
    if int(dst_cluster[remote].min()) < 0:
        # Negative ids would corrupt the (neuron, cluster) key encoding
        # below; every downstream consumer rejects them anyway.
        raise ValueError(
            "assignment contains negative cluster id "
            f"{int(dst_cluster[remote].min())}"
        )
    stride = int(dst_cluster[remote].max()) + 1
    keys = np.unique(graph.src[remote] * stride + dst_cluster[remote])
    neurons = keys // stride
    clusters = keys % stride
    bounds = np.flatnonzero(np.diff(neurons)) + 1
    starts = np.concatenate(([0], bounds))
    return {
        int(neurons[s]): set(group.tolist())
        for s, group in zip(starts, np.split(clusters, bounds))
    }


def estimate_interconnect_energy_pj_reference(
    graph: SpikeGraph,
    assignment: np.ndarray,
    architecture: Architecture,
) -> float:
    """The per-neuron loop over :func:`global_destinations` that
    :func:`estimate_interconnect_energy_pj` replaced."""
    topology = architecture.build_topology()
    routing = routing_for(topology)
    bridged = isinstance(topology, MultiChipTopology) and topology.n_chips > 1
    assignment = np.asarray(assignment, dtype=np.int64)
    neuron_spikes = TrafficMatrix(graph).neuron_spikes
    dests = global_destinations(graph, assignment)

    spike_hops = encodes = decodes = crossings = 0.0
    for neuron, clusters in dests.items():
        spikes = float(neuron_spikes[neuron])
        if spikes == 0.0:
            continue
        own_node = topology.attach_points[int(assignment[neuron])]
        encodes += spikes  # one encode per spike event
        for c in clusters:
            dst_node = topology.attach_points[c]
            spike_hops += spikes * routing.distance(own_node, dst_node)
            decodes += spikes
            if bridged:
                crossings += spikes * topology.bridge_crossings_on_route(
                    routing, own_node, dst_node
                )
    return architecture.energy.estimate_global_energy_pj(
        spike_hops, encodes, decodes, bridge_crossings=crossings
    )


def estimate_synapse_energy_pj_reference(
    graph: SpikeGraph,
    assignment: np.ndarray,
    architecture: Architecture,
) -> float:
    """The crossbar-pair loop :func:`estimate_synapse_energy_pj`
    replaced."""
    topology = architecture.build_topology()
    routing = routing_for(topology)
    bridged = isinstance(topology, MultiChipTopology) and topology.n_chips > 1
    matrix = cluster_traffic(graph, assignment, architecture.n_crossbars)
    spike_hops = crossing = bridge_crossings = 0.0
    for k1 in range(architecture.n_crossbars):
        for k2 in range(architecture.n_crossbars):
            spikes = matrix[k1, k2]
            if k1 == k2 or spikes == 0.0:
                continue
            n1 = topology.attach_points[k1]
            n2 = topology.attach_points[k2]
            spike_hops += spikes * routing.distance(n1, n2)
            crossing += spikes
            if bridged:
                bridge_crossings += spikes * topology.bridge_crossings_on_route(
                    routing, n1, n2
                )
    return architecture.energy.estimate_global_energy_pj(
        spike_hops, crossing, crossing, bridge_crossings=bridge_crossings
    )


class TestExploreArchitecture:
    def test_sweep_shapes(self, tiny_graph):
        base = custom(n_crossbars=2, neurons_per_crossbar=4, name="base")
        points = explore_architecture(
            tiny_graph, base, crossbar_sizes=[2, 4, 8], method="pacman",
            seed=0,
        )
        assert [p.neurons_per_crossbar for p in points] == [2, 4, 8]
        assert points[0].n_crossbars == 4
        assert points[-1].n_crossbars == 1

    def test_single_crossbar_all_local(self, tiny_graph):
        base = custom(n_crossbars=1, neurons_per_crossbar=8)
        (point,) = explore_architecture(
            tiny_graph, base, crossbar_sizes=[8], method="pacman"
        )
        assert point.global_energy_uj == 0.0
        assert point.global_spikes == 0.0
        assert point.local_energy_uj > 0.0

    def test_global_energy_decreases_with_size(self, tiny_graph):
        base = custom(n_crossbars=4, neurons_per_crossbar=2)
        points = explore_architecture(
            tiny_graph, base, crossbar_sizes=[2, 8], method="pacman"
        )
        assert points[0].global_energy_uj > points[-1].global_energy_uj

    def test_totals_consistent(self, tiny_graph):
        base = custom(n_crossbars=2, neurons_per_crossbar=4)
        points = explore_architecture(
            tiny_graph, base, crossbar_sizes=[4], method="pacman"
        )
        p = points[0]
        assert p.total_energy_uj == pytest.approx(
            p.local_energy_uj + p.global_energy_uj
        )


class TestEstimateEnergy:
    def test_all_local_zero(self, tiny_graph, two_cluster_arch):
        a = np.zeros(8, dtype=int)
        assert estimate_interconnect_energy_pj(
            tiny_graph, a, two_cluster_arch
        ) == 0.0

    def test_matches_noc_energy_when_uncongested(self, two_cluster_arch):
        """Analytic estimate equals simulated energy for delivered traffic.

        Requires a graph whose per-synapse traffic equals its source
        spike counts (as from_simulation guarantees); multicast is
        irrelevant here (one destination crossbar), so hops are exactly
        spikes x distance.
        """
        from repro.framework.pipeline import run_pipeline
        from repro.snn.graph import SpikeGraph
        spike_times = [np.linspace(0, 90, 10) for _ in range(8)]
        graph = SpikeGraph.from_edges(
            8,
            src=[0, 1, 2, 3, 4, 5, 6, 7],
            dst=[1, 2, 3, 4, 5, 6, 7, 0],
            traffic=[10.0] * 8,  # == spike counts, as in real graphs
            spike_times=spike_times,
            name="ring",
        )
        result = run_pipeline(graph, two_cluster_arch, method="pacman")
        estimate = estimate_interconnect_energy_pj(
            graph, result.mapping.assignment, two_cluster_arch
        )
        assert estimate == pytest.approx(result.report.global_energy_pj)

    def test_scales_with_distance(self, tiny_graph):
        near = custom(n_crossbars=2, neurons_per_crossbar=4,
                      interconnect="star")
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        e_star = estimate_interconnect_energy_pj(tiny_graph, a, near)
        far = custom(n_crossbars=2, neurons_per_crossbar=4,
                     interconnect="tree")
        e_tree = estimate_interconnect_energy_pj(tiny_graph, a, far)
        assert e_star == e_tree  # both are 2 hops for 2 crossbars


@st.composite
def estimate_cases(draw):
    """A graph, an assignment and a platform: tree / mesh / torus, or a
    multi-chip board of one with its own bridge latency; at most 12
    crossbars, or past 64 (reach masks of several words).  Graph and
    assignment come from a drawn seed, so a failure shrinks fast."""
    n = draw(st.integers(1, 40), label="neurons")
    n_edges = draw(st.integers(0, 120), label="synapses")
    c = draw(st.one_of(st.integers(2, 12), st.integers(65, 72)), label="crossbars")
    arch = custom(
        n_crossbars=c,
        neurons_per_crossbar=n,
        interconnect=draw(st.sampled_from(["tree", "mesh", "torus"])),
        n_chips=draw(st.sampled_from([1, 1, 2, 3]), label="chips"),
        bridge_latency=draw(st.integers(1, 4), label="bridge_latency"),
    )
    integer = draw(st.booleans(), label="integer_traffic")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    traffic = (
        rng.integers(0, 1000, n_edges).astype(np.float64)
        if integer
        else rng.uniform(0.0, 1e3, n_edges)
    )
    graph = SpikeGraph.from_edges(
        n, rng.integers(0, n, n_edges), rng.integers(0, n, n_edges), traffic
    )
    return graph, rng.integers(0, c, n), arch, integer


class TestEstimatorOracles:
    @settings(max_examples=100, deadline=None)
    @given(case=estimate_cases())
    def test_estimators_match_the_replaced_loops(self, case):
        """Integer-valued traffic, as simulated spike counts are, sums
        exactly in any order, so it must give ``==``.  The contraction
        sums arbitrary float traffic in another order than the loops,
        which can move the last bits: ``rel=1e-12``."""
        graph, a, arch, integer = case
        for estimate, oracle in (
            (estimate_interconnect_energy_pj, estimate_interconnect_energy_pj_reference),
            (estimate_synapse_energy_pj, estimate_synapse_energy_pj_reference),
        ):
            want = oracle(graph, a, arch)
            got = estimate(graph, a, arch)
            assert got == (want if integer else pytest.approx(want, rel=1e-12))


class TestExploreSwarmSize:
    def test_points_and_normalization(self, tiny_graph, two_cluster_arch):
        points = explore_swarm_size(
            tiny_graph, two_cluster_arch, swarm_sizes=[2, 20],
            n_iterations=10, seed=0,
        )
        assert [p.swarm_size for p in points] == [2, 20]
        norm = normalized_energies(points)
        assert min(norm) == 1.0
        assert all(v >= 1.0 for v in norm)

    def test_larger_swarm_no_worse(self, tiny_graph, two_cluster_arch):
        points = explore_swarm_size(
            tiny_graph, two_cluster_arch, swarm_sizes=[1, 40],
            n_iterations=15, seed=1,
        )
        assert points[1].global_spikes <= points[0].global_spikes


class TestExploreChips:
    def test_chip_sweep_shapes(self, tiny_graph):
        from repro.framework.exploration import explore_chips

        base = custom(n_crossbars=4, neurons_per_crossbar=2,
                      interconnect="mesh", name="board")
        points = explore_chips(
            tiny_graph, base, chip_counts=[1, 2, 4], method="pacman", seed=0,
        )
        assert [p.n_chips for p in points] == [1, 2, 4]
        assert points[0].n_bridges == 0
        assert points[0].inter_chip_hops == 0
        assert points[1].n_bridges == 1
        assert points[2].n_bridges == 4

    def test_more_chips_cost_more_global_energy(self, tiny_graph):
        """Same mapping problem; splitting it over bridges must not be free."""
        from dataclasses import replace

        from repro.framework.exploration import explore_chips
        from repro.hardware.energy_model import EnergyModel

        base = replace(
            custom(n_crossbars=4, neurons_per_crossbar=2,
                   interconnect="mesh", bridge_latency=4),
            energy=EnergyModel(e_bridge_pj=100.0),
        )
        one, four = explore_chips(
            tiny_graph, base, chip_counts=[1, 4], method="pacman", seed=0,
        )
        if four.global_spikes > 0:
            assert four.global_energy_uj >= one.global_energy_uj
            assert four.bridge_crossings > 0


class TestMultiChipEstimates:
    def test_estimate_charges_bridge_crossings(self, tiny_graph):
        """Analytic estimate prices bridges like the simulator does."""
        import numpy as np

        from dataclasses import replace
        from repro.hardware.energy_model import EnergyModel

        flat = custom(n_crossbars=2, neurons_per_crossbar=4,
                      interconnect="mesh", name="flat")
        board = replace(flat, n_chips=2, name="board",
                        energy=EnergyModel(e_bridge_pj=500.0))
        a = np.asarray([0, 0, 0, 0, 1, 1, 1, 1])
        flat_pj = estimate_interconnect_energy_pj(tiny_graph, a, flat)
        board_pj = estimate_interconnect_energy_pj(tiny_graph, a, board)
        # 2 chips of 1 crossbar each: every remote flow crosses exactly
        # one bridge, so the difference is the crossing spikes * 500 pJ
        # (bridge_latency=1 keeps routed distances identical to flat).
        spikes = TrafficMatrix(tiny_graph).neuron_spikes
        crossing = sum(
            float(spikes[n]) * len(cs)
            for n, cs in global_destinations(tiny_graph, a).items()
        )
        assert board_pj == pytest.approx(flat_pj + crossing * 500.0)

    def test_synapse_estimate_charges_bridges(self, tiny_graph):
        import numpy as np

        from dataclasses import replace
        from repro.framework.exploration import estimate_synapse_energy_pj
        from repro.hardware.energy_model import EnergyModel

        flat = custom(n_crossbars=2, neurons_per_crossbar=4,
                      interconnect="mesh", name="flat")
        board = replace(flat, n_chips=2, name="board",
                        energy=EnergyModel(e_bridge_pj=500.0))
        a = np.asarray([0, 0, 0, 0, 1, 1, 1, 1])
        assert estimate_synapse_energy_pj(tiny_graph, a, board) > (
            estimate_synapse_energy_pj(tiny_graph, a, flat)
        )

    def test_explore_architecture_carries_chips_through_scaling(self, tiny_graph):
        """The Fig. 6 sweep keeps the base's multi-chip split per point."""
        base = custom(n_crossbars=4, neurons_per_crossbar=2,
                      interconnect="mesh", n_chips=2, bridge_latency=4)
        flat = custom(n_crossbars=4, neurons_per_crossbar=2,
                      interconnect="mesh")
        split = explore_architecture(
            tiny_graph, base, crossbar_sizes=[2], method="pacman", seed=0
        )[0]
        single = explore_architecture(
            tiny_graph, flat, crossbar_sizes=[2], method="pacman", seed=0
        )[0]
        # Same mapping problem, but the split platform pays bridge
        # latency on cross-chip traffic.
        assert split.max_latency_cycles > single.max_latency_cycles
