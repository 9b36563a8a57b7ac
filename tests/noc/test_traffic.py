"""Tests for spike-graph -> injection-schedule conversion."""

import numpy as np
import pytest

from repro.noc.packet import Injection
from repro.noc.topology import dense_node_ids, star, tree
from repro.noc.traffic import ColumnarSchedule, build_injections
from repro.snn.graph import SpikeGraph
from repro.utils.rng import default_rng
from repro.utils.validation import check_positive
from tests.framework.test_exploration import global_destinations


def synthetic_injections(rates_per_node, topology, duration_cycles, fanout=1,
                         seed=None):
    """Uniform-random synthetic traffic for stress-testing the NoC itself.

    Each attach point injects Bernoulli(rate) packets per cycle toward
    ``fanout`` uniformly chosen other attach points.
    """
    check_positive("duration_cycles", duration_cycles)
    rng = default_rng(seed)
    nodes = list(topology.attach_points)
    if len(rates_per_node) != len(nodes):
        raise ValueError(
            f"need one rate per attach point ({len(nodes)}), got "
            f"{len(rates_per_node)}"
        )
    injections = []
    uid = 0
    for cycle in range(duration_cycles):
        for k, rate in enumerate(rates_per_node):
            if rng.random() >= rate:
                continue
            others = [n for n in nodes if n != nodes[k]]
            if not others:
                continue
            chosen = rng.choice(
                len(others), size=min(fanout, len(others)), replace=False
            )
            injections.append(
                Injection(
                    cycle=cycle,
                    src_node=nodes[k],
                    dst_nodes=tuple(sorted(others[i] for i in chosen)),
                    src_neuron=k,
                    uid=uid,
                )
            )
            uid += 1
    return ColumnarSchedule.from_injections(
        injections, dense_node_ids(topology), n_source_neurons=len(nodes)
    )


def _graph_with_spikes():
    """3 neurons: 0 -> 1, 0 -> 2, 1 -> 2; neuron 0 spikes at 1, 3 ms."""
    spike_times = [np.array([1.0, 3.0]), np.array([2.0]), np.empty(0)]
    return SpikeGraph.from_edges(
        3, [0, 0, 1], [1, 2, 2], [2.0, 2.0, 1.0], spike_times=spike_times
    )


class TestGlobalDestinations:
    def test_all_same_cluster_no_destinations(self):
        g = _graph_with_spikes()
        dests = global_destinations(g, np.array([0, 0, 0]))
        assert dests == {}

    def test_split_clusters(self):
        g = _graph_with_spikes()
        dests = global_destinations(g, np.array([0, 1, 1]))
        assert dests == {0: {1}}

    def test_multi_destination(self):
        g = _graph_with_spikes()
        dests = global_destinations(g, np.array([0, 1, 2]))
        assert dests == {0: {1, 2}, 1: {2}}

    def test_wrong_length_rejected(self):
        g = _graph_with_spikes()
        with pytest.raises(ValueError):
            global_destinations(g, np.array([0, 1]))


class TestBuildInjections:
    def test_one_packet_per_spike(self):
        g = _graph_with_spikes()
        topo = star(3)
        schedule = build_injections(g, np.array([0, 1, 2]), topo,
                                    cycles_per_ms=10.0)
        # Neuron 0: 2 spikes; neuron 1: 1 spike => 3 packets.
        assert schedule.n_packets == 3
        assert schedule.n_source_neurons == 2

    def test_cycle_conversion(self):
        g = _graph_with_spikes()
        topo = star(3)
        schedule = build_injections(g, np.array([0, 1, 1]), topo,
                                    cycles_per_ms=100.0)
        cycles = sorted(i.cycle for i in schedule.injections)
        assert cycles == [100, 300]  # spikes at 1 ms and 3 ms

    def test_destination_nodes_translated(self):
        g = _graph_with_spikes()
        topo = tree(3)
        assignment = np.array([0, 2, 2])
        schedule = build_injections(g, assignment, topo)
        inj = schedule.injections[0]
        assert inj.src_node == topo.attach_points[0]
        assert inj.dst_nodes == (topo.attach_points[2],)

    def test_local_only_graph_empty_schedule(self):
        g = _graph_with_spikes()
        topo = star(3)
        schedule = build_injections(g, np.array([0, 0, 0]), topo)
        assert schedule.n_packets == 0

    def test_sorted_by_cycle(self):
        g = _graph_with_spikes()
        topo = star(3)
        schedule = build_injections(g, np.array([0, 1, 2]), topo)
        cycles = [i.cycle for i in schedule.injections]
        assert cycles == sorted(cycles)

    def test_unique_uids(self):
        g = _graph_with_spikes()
        topo = star(3)
        schedule = build_injections(g, np.array([0, 1, 2]), topo)
        uids = [i.uid for i in schedule.injections]
        assert len(set(uids)) == len(uids)


class TestSyntheticInjections:
    def test_rate_scaling(self):
        topo = star(4)
        schedule = synthetic_injections([1.0, 0.0, 0.0, 0.0], topo,
                                        duration_cycles=100, seed=0)
        assert 95 <= schedule.n_packets <= 100  # rate 1.0 -> every cycle

    def test_fanout(self):
        topo = star(5)
        schedule = synthetic_injections([1.0] + [0.0] * 4, topo,
                                        duration_cycles=10, fanout=3, seed=0)
        for inj in schedule.injections:
            assert len(inj.dst_nodes) == 3

    def test_rate_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            synthetic_injections([0.5], star(4), duration_cycles=10)
