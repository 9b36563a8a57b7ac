"""Tests for LIF and Izhikevich neuron dynamics."""

import numpy as np
import pytest

from repro.snn.neuron import (
    V_REST,
    V_RESET,
    IZHIKEVICH_PRESETS,
    IzhikevichModel,
    LIFModel,
)


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


class TestIzhikevichModel:
    def test_resting_silence(self):
        model = IzhikevichModel()
        state = model.allocate_state(3)
        for _ in range(300):
            assert not model.step(state, np.zeros(3), dt=1.0).any()

    def test_dc_current_produces_regular_spiking(self):
        model = IzhikevichModel()  # regular spiking
        state = model.allocate_state(1)
        spikes = 0
        for _ in range(500):
            spikes += int(model.step(state, np.array([10.0]), dt=1.0).any())
        assert 2 <= spikes <= 60  # regular spiking, not bursting/silent

    def test_reset_to_c(self):
        model = IzhikevichModel()
        state = model.allocate_state(1)
        for _ in range(500):
            if model.step(state, np.array([15.0]), dt=1.0).any():
                break
        assert state.v[0] == model.c

    def test_recovery_variable_increments_on_spike(self):
        model = IzhikevichModel()
        state = model.allocate_state(1)
        u_before = state.extra["u"][0]
        for _ in range(500):
            if model.step(state, np.array([15.0]), dt=1.0).any():
                break
        assert state.extra["u"][0] > u_before

    def test_fast_spiking_fires_more(self):
        rs, fs = IZHIKEVICH_PRESETS["regular_spiking"], IZHIKEVICH_PRESETS["fast_spiking"]
        counts = {}
        for name, model in (("rs", rs), ("fs", fs)):
            state = model.allocate_state(1)
            n = 0
            for _ in range(400):
                n += int(model.step(state, np.array([10.0]), dt=1.0).any())
            counts[name] = n
        assert counts["fs"] > counts["rs"]

    def test_presets_complete(self):
        assert set(IZHIKEVICH_PRESETS) == {
            "regular_spiking",
            "intrinsically_bursting",
            "chattering",
            "fast_spiking",
            "low_threshold_spiking",
        }

    def test_no_overflow_under_huge_current(self):
        model = IzhikevichModel()
        state = model.allocate_state(1)
        for _ in range(100):
            model.step(state, np.array([1e4]), dt=1.0)
        assert np.isfinite(state.v).all()
