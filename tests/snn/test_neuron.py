"""Tests for the LIF and adaptive-threshold LIF neuron models."""

import numpy as np
import pytest

from repro.snn.neuron import V_REST, V_RESET, AdaptiveLIFModel, LIFModel


class TestLIFModel:
    def test_resting_neuron_never_spikes(self):
        model = LIFModel()
        state = model.allocate_state(4)
        for _ in range(200):
            spiked = model.step(state, np.zeros(4), dt=1.0)
            assert not spiked.any()
        assert np.allclose(state.v, V_REST)

    def test_strong_current_spikes(self):
        model = LIFModel()
        state = model.allocate_state(1)
        fired = False
        for _ in range(100):
            fired = fired or model.step(state, np.array([100.0]), dt=1.0).any()
        assert fired

    def test_subthreshold_current_never_spikes(self):
        model = LIFModel()
        # Steady-state v = v_rest + R*I; keep below threshold gap (15 mV).
        state = model.allocate_state(1)
        for _ in range(500):
            spiked = model.step(state, np.array([10.0]), dt=1.0)
            assert not spiked.any()

    def test_reset_after_spike(self):
        model = LIFModel()
        state = model.allocate_state(1)
        for _ in range(100):
            if model.step(state, np.array([200.0]), dt=1.0).any():
                break
        assert state.v[0] == V_RESET

    def test_refractory_blocks_integration(self):
        model = LIFModel(t_ref=5.0)
        state = model.allocate_state(1)
        # Drive to spike.
        while not model.step(state, np.array([500.0]), dt=1.0).any():
            pass
        v_after_spike = state.v[0]
        # During refractoriness the membrane must not move despite input.
        spiked = model.step(state, np.array([500.0]), dt=1.0)
        assert not spiked.any()
        assert state.v[0] == v_after_spike

    def test_refractory_period_length(self):
        model = LIFModel(t_ref=3.0)
        state = model.allocate_state(1)
        while not model.step(state, np.array([500.0]), dt=1.0).any():
            pass
        gaps = 0
        while not model.step(state, np.array([500.0]), dt=1.0).any():
            gaps += 1
        # 3 ms refractory at 1 ms ticks: 3 blocked steps, then integration
        # resumes and the strong current fires within a step or two.
        assert gaps >= 3

    def test_vectorized_independence(self):
        model = LIFModel()
        state = model.allocate_state(2)
        current = np.array([0.0, 120.0])
        fired_any = np.zeros(2, dtype=bool)
        for _ in range(100):
            fired_any |= model.step(state, current, dt=1.0)
        assert not fired_any[0] and fired_any[1]

    def test_invalid_thresholds_raise(self):
        with pytest.raises(ValueError):
            LIFModel(v_thresh=-80.0)

    def test_negative_tau_raises(self):
        with pytest.raises(ValueError):
            LIFModel(tau_m=-1.0)

    def test_negative_refractory_raises(self):
        with pytest.raises(ValueError):
            LIFModel(t_ref=-1.0)


class TestNonFiniteParameters:
    """A NaN or infinite parameter is refused when the model is built,
    naming the parameter, for both models."""

    @pytest.mark.parametrize("model", [LIFModel, AdaptiveLIFModel])
    @pytest.mark.parametrize("name", ["tau_m", "v_thresh", "t_ref"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_shared_parameters(self, model, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            model(**{name: bad})

    @pytest.mark.parametrize("name", ["theta_plus", "tau_theta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_adaptation_parameters(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AdaptiveLIFModel(**{name: bad})
