"""Tests for the clock-driven simulation engine."""

import numpy as np
import pytest

from repro.snn.generators import ScheduledSource
from repro.snn.network import Network
from repro.snn.neuron import LIFModel
from repro.snn.simulator import Simulation


def _relay_network(weight: float = 400.0, delay_ms: float = 1.0) -> Network:
    """One scheduled input spike relayed to a single strong LIF neuron."""
    net = Network("relay")
    net.add_source("in", ScheduledSource([[5.0]]))
    net.add_population("out", 1, LIFModel(), layer=1)
    net.connect("in", "out", weights=np.array([[weight]]), delay_ms=delay_ms)
    return net


class TestSimulationBasics:
    def test_result_dimensions(self, small_network):
        result = Simulation(small_network, seed=0).run(100.0)
        assert result.n_neurons == small_network.n_neurons
        assert result.duration_ms == 100.0

    def test_deterministic_given_seed(self, small_network):
        r1 = Simulation(small_network, seed=5).run(200.0)
        r2 = Simulation(small_network, seed=5).run(200.0)
        for a, b in zip(r1.spike_times, r2.spike_times):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self, small_network):
        r1 = Simulation(small_network, seed=1).run(200.0)
        r2 = Simulation(small_network, seed=2).run(200.0)
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(r1.spike_times, r2.spike_times)
        )

    def test_nonintegral_delay_rejected(self):
        net = Network()
        net.add_population("a", 1, LIFModel())
        net.connect("a", "a", weights=np.array([[1.0]]), delay_ms=1.5)
        with pytest.raises(ValueError, match="whole number"):
            Simulation(net)

    def test_zero_duration_rejected(self, small_network):
        with pytest.raises(ValueError):
            Simulation(small_network, seed=0).run(0.0)


class TestSpikePropagation:
    def test_single_spike_relayed_with_delay(self):
        net = _relay_network(delay_ms=3.0)
        result = Simulation(net, seed=0).run(20.0)
        in_times = result.spike_times[0]
        out_times = result.spike_times[1]
        assert list(in_times) == [5.0]
        assert out_times.size == 1
        # Source fires at t=5; spike arrives after the 3-tick delay line and
        # the neuron integrates on arrival.
        assert out_times[0] == 5.0 + 3.0

    def test_weak_weight_does_not_relay(self):
        net = _relay_network(weight=1.0)
        result = Simulation(net, seed=0).run(20.0)
        assert result.spike_times[1].size == 0

    def test_negative_weight_inhibits(self):
        net = Network("inhib")
        net.add_source("exc", ScheduledSource([[5.0]]))
        net.add_source("inh", ScheduledSource([[5.0]]))
        net.add_population("out", 1, LIFModel(), layer=1)
        net.connect("exc", "out", weights=np.array([[400.0]]))
        net.connect("inh", "out", weights=np.array([[-400.0]]))
        result = Simulation(net, seed=0).run(20.0)
        assert result.spike_times[2].size == 0

    def test_chain_propagation_order(self):
        net = Network("chain")
        net.add_source("in", ScheduledSource([[2.0]]))
        net.add_population("a", 1, LIFModel(), layer=1)
        net.add_population("b", 1, LIFModel(), layer=2)
        net.connect("in", "a", weights=np.array([[400.0]]))
        net.connect("a", "b", weights=np.array([[400.0]]))
        result = Simulation(net, seed=0).run(20.0)
        t_a = result.spike_times[1][0]
        t_b = result.spike_times[2][0]
        assert t_b > t_a > 2.0


class TestSimulationResult:
    def test_spike_counts_and_total(self, small_network):
        result = Simulation(small_network, seed=0).run(500.0)
        counts = result.spike_counts()
        assert counts.sum() == result.total_spikes()
        assert counts.shape == (small_network.n_neurons,)


class TestNoInput:
    def test_no_input_no_firing(self):
        net = Network()
        net.add_population("idle", 1, LIFModel())
        result = Simulation(net, seed=0).run(200.0)
        assert result.spike_times[0].size == 0
