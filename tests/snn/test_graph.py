"""Tests for SpikeGraph construction and queries."""

import numpy as np
import pytest

from repro.snn.generators import ScheduledSource
from repro.snn.graph import SpikeGraph
from repro.snn.network import Network
from repro.snn.neuron import LIFModel
from repro.snn.simulator import Simulation


class TestFromSimulation:
    def test_traffic_is_pre_spike_count(self):
        net = Network("t")
        net.add_source("in", ScheduledSource([[1.0, 2.0, 3.0], [4.0]]))
        net.add_population("out", 1, LIFModel(), layer=1)
        net.connect("in", "out", weights=np.array([[10.0], [10.0]]))
        result = Simulation(net, seed=0).run(10.0)
        graph = SpikeGraph.from_simulation(net, result)
        by_src = {int(s): t for s, t in zip(graph.src, graph.traffic)}
        assert by_src[0] == 3.0  # neuron 0 fired 3 times
        assert by_src[1] == 1.0

    def test_layers_copied(self, small_network):
        result = Simulation(small_network, seed=0).run(50.0)
        graph = SpikeGraph.from_simulation(small_network, result)
        assert (graph.layers == small_network.neuron_layers()).all()

    def test_mismatched_result_rejected(self, small_network):
        result = Simulation(small_network, seed=0).run(50.0)
        result.spike_times.append(np.empty(0))
        with pytest.raises(ValueError):
            SpikeGraph.from_simulation(small_network, result)


class TestFromEdges:
    def test_defaults_filled(self):
        g = SpikeGraph.from_edges(3, [0, 1], [1, 2], [5.0, 7.0])
        assert g.weight.tolist() == [1.0, 1.0]
        assert len(g.spike_times) == 3
        assert g.layers.tolist() == [0, 0, 0]

    def test_validation_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            SpikeGraph.from_edges(2, [0, 5], [1, 1], [1.0, 1.0])

    def test_validation_rejects_negative_traffic(self):
        with pytest.raises(ValueError):
            SpikeGraph.from_edges(2, [0], [1], [-1.0])

    def test_validation_rejects_ragged_arrays(self):
        with pytest.raises(ValueError):
            SpikeGraph.from_edges(2, [0], [1, 1], [1.0])


class TestQueries(object):
    def test_total_traffic(self, tiny_graph):
        # 24 heavy edges x 100 + 1 bridge x 5.
        assert tiny_graph.total_traffic() == 24 * 100 + 5

    def test_neuron_out_traffic(self, chain_graph):
        assert chain_graph.neuron_out_traffic().tolist() == [
            10.0, 10.0, 10.0, 10.0, 10.0, 0.0,
        ]

    def test_spike_counts(self, chain_graph):
        assert (chain_graph.spike_counts() == 10).all()

    def test_to_networkx(self, chain_graph):
        g = chain_graph.to_networkx()
        assert g.number_of_nodes() == 6
        assert g.number_of_edges() == 5
        assert g[0][1]["traffic"] == 10.0

    def test_to_networkx_merges_parallel_edges(self):
        g = SpikeGraph.from_edges(2, [0, 0], [1, 1], [3.0, 4.0])
        nx_g = g.to_networkx()
        assert nx_g[0][1]["traffic"] == 7.0

    def test_undirected_traffic_symmetrizes(self):
        g = SpikeGraph.from_edges(2, [0, 1], [1, 0], [3.0, 4.0])
        und = g.undirected_traffic()
        assert und[0][1]["traffic"] == 7.0

    def test_undirected_skips_self_loops(self):
        g = SpikeGraph.from_edges(2, [0, 0], [0, 1], [3.0, 4.0])
        und = g.undirected_traffic()
        assert not und.has_edge(0, 0)

    def test_describe_mentions_name(self, tiny_graph):
        assert "two_communities" in tiny_graph.describe()
