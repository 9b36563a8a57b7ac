"""Tests for synthetic m x n workloads."""

import numpy as np
import pytest

from repro.apps.synthetic import (
    build_synthetic,
    parse_synthetic_name,
    synthetic_feedforward,
)


class TestTopology:
    def test_neuron_count(self):
        net = synthetic_feedforward(3, 50, seed=0)
        assert net.n_neurons == 10 + 3 * 50  # 10 sources + layers

    def test_fully_connected_layers(self):
        net = synthetic_feedforward(2, 20, seed=0)
        # 10 x 20 + 20 x 20 synapses.
        assert net.synapse_count() == 10 * 20 + 20 * 20

    def test_layer_labels(self):
        net = synthetic_feedforward(2, 5, seed=0)
        layers = net.neuron_layers()
        assert (layers[:10] == 0).all()
        assert (layers[10:15] == 1).all()
        assert (layers[15:] == 2).all()

    def test_input_rates_in_paper_range(self):
        net = synthetic_feedforward(1, 5, seed=3)
        rates = net.population("input").source.rates_hz
        assert (rates >= 10.0).all() and (rates <= 100.0).all()


class TestActivity:
    @pytest.mark.parametrize("m,n", [(1, 30), (3, 20)])
    def test_all_layers_fire(self, m, n):
        graph = build_synthetic(m, n, seed=0, duration_ms=400.0)
        counts = graph.spike_counts()
        for layer in range(m + 1):
            layer_counts = counts[graph.layers == layer]
            assert layer_counts.sum() > 0, f"layer {layer} silent"

    def test_traffic_positive(self):
        graph = build_synthetic(1, 20, seed=0, duration_ms=300.0)
        assert graph.total_traffic() > 0

    def test_deterministic(self):
        a = build_synthetic(1, 10, seed=5, duration_ms=100.0)
        b = build_synthetic(1, 10, seed=5, duration_ms=100.0)
        assert np.array_equal(a.traffic, b.traffic)


class TestParseName:
    def test_valid(self):
        assert parse_synthetic_name("synth_3x200") == (3, 200)

    def test_invalid_prefix(self):
        assert parse_synthetic_name("mesh_3x200") is None

    def test_garbled(self):
        assert parse_synthetic_name("synth_axb") is None

    @pytest.mark.parametrize("name", ["synth_3x", "synth_3x200x1", "synth_"])
    def test_wrong_field_count(self, name):
        assert parse_synthetic_name(name) is None
