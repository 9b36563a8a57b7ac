"""Tests for pair-based STDP."""

import numpy as np
import pytest

from repro.snn.generators import ScheduledSource
from repro.snn.network import Network
from repro.snn.neuron import LIFModel
from repro.snn.simulator import Simulation
from repro.snn.stdp import STDPRule


class TestSTDPRuleUnit:
    def test_pre_before_post_potentiates(self):
        rule = STDPRule(a_plus=0.1, a_minus=0.1, w_max=1.0)
        state = rule.allocate_state(1, 1)
        w = np.array([[0.5]])
        # Pre spike at t, post spike at t+5 ms.
        rule.step(state, w, pre_spikes=np.array([0]), post_spikes=np.array([], int), dt=1.0)
        for _ in range(4):
            rule.step(state, w, np.array([], int), np.array([], int), dt=1.0)
        rule.step(state, w, np.array([], int), post_spikes=np.array([0]), dt=1.0)
        assert w[0, 0] > 0.5

    def test_post_before_pre_depresses(self):
        rule = STDPRule(a_plus=0.1, a_minus=0.1, w_max=1.0)
        state = rule.allocate_state(1, 1)
        w = np.array([[0.5]])
        rule.step(state, w, np.array([], int), post_spikes=np.array([0]), dt=1.0)
        for _ in range(4):
            rule.step(state, w, np.array([], int), np.array([], int), dt=1.0)
        rule.step(state, w, pre_spikes=np.array([0]), post_spikes=np.array([], int), dt=1.0)
        assert w[0, 0] < 0.5

    def test_weights_bounded(self):
        rule = STDPRule(a_plus=0.5, a_minus=0.5, w_max=1.0)
        state = rule.allocate_state(2, 2)
        w = np.full((2, 2), 0.9)
        for _ in range(50):
            rule.step(state, w, np.array([0, 1]), np.array([0, 1]), dt=1.0)
        assert (w >= 0).all() and (w <= 1.0).all()

    def test_absent_synapse_never_created(self):
        rule = STDPRule(a_plus=0.5, a_minus=0.5)
        state = rule.allocate_state(2, 2)
        w = np.array([[0.5, 0.0], [0.0, 0.5]])
        for _ in range(20):
            rule.step(state, w, np.array([0, 1]), np.array([0, 1]), dt=1.0)
        assert w[0, 1] == 0.0 and w[1, 0] == 0.0

    def test_closer_pairing_changes_more(self):
        def potentiation(gap_ticks: int) -> float:
            rule = STDPRule(a_plus=0.1, a_minus=0.0, w_max=1.0)
            state = rule.allocate_state(1, 1)
            w = np.array([[0.5]])
            rule.step(state, w, np.array([0]), np.array([], int), dt=1.0)
            for _ in range(gap_ticks - 1):
                rule.step(state, w, np.array([], int), np.array([], int), dt=1.0)
            rule.step(state, w, np.array([], int), np.array([0]), dt=1.0)
            return w[0, 0] - 0.5

        assert potentiation(2) > potentiation(10) > 0

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            STDPRule(w_max=0.0)
        with pytest.raises(ValueError):
            STDPRule(a_plus=-0.1)


class TestSTDPInSimulation:
    def test_plastic_projection_changes_weights(self):
        net = Network()
        net.add_source("in", ScheduledSource([np.arange(0.0, 200.0, 10.0)]))
        net.add_population("out", 1, LIFModel(), layer=1)
        proj = net.connect(
            "in", "out", weights=np.array([[400.0]]), plastic=True
        )
        # w_max above initial weight so potentiation is possible.
        rule = STDPRule(a_plus=0.05, a_minus=0.01, w_max=500.0)
        before = proj.weights.copy()
        Simulation(net, seed=0, stdp=rule).run(200.0)
        assert not np.array_equal(before, proj.weights)

    def test_learning_flag_freezes_weights(self):
        net = Network()
        net.add_source("in", ScheduledSource([np.arange(0.0, 200.0, 10.0)]))
        net.add_population("out", 1, LIFModel(), layer=1)
        proj = net.connect(
            "in", "out", weights=np.array([[400.0]]), plastic=True
        )
        rule = STDPRule(a_plus=0.05, a_minus=0.01, w_max=500.0)
        before = proj.weights.copy()
        Simulation(net, seed=0, stdp=rule).run(200.0, learning=False)
        assert np.array_equal(before, proj.weights)

    def test_non_plastic_projection_untouched(self):
        net = Network()
        net.add_source("in", ScheduledSource([np.arange(0.0, 200.0, 10.0)]))
        net.add_population("out", 1, LIFModel(), layer=1)
        proj = net.connect("in", "out", weights=np.array([[400.0]]))
        rule = STDPRule(a_plus=0.05, a_minus=0.05, w_max=500.0)
        before = proj.weights.copy()
        Simulation(net, seed=0, stdp=rule).run(200.0)
        assert np.array_equal(before, proj.weights)
