"""Tests for spike sources."""

import numpy as np
import pytest

from repro.snn.generators import (
    PoissonSource,
    RegularSource,
    ScheduledSource,
)


class TestPoissonSource:
    def test_rate_matches_statistics(self):
        rng = np.random.default_rng(0)
        src = PoissonSource(100, 50.0)  # 50 Hz
        total = sum(
            src.sample(step, 1.0, rng).size for step in range(1000)
        )
        # 100 neurons x 50 Hz x 1 s = 5000 expected; allow 5 sigma.
        assert abs(total - 5000) < 5 * np.sqrt(5000)

    def test_zero_rate_silent(self):
        rng = np.random.default_rng(0)
        src = PoissonSource(10, 0.0)
        for step in range(100):
            assert src.sample(step, 1.0, rng).size == 0

    def test_per_neuron_rates(self):
        rng = np.random.default_rng(1)
        src = PoissonSource(2, [0.0, 100.0])
        counts = np.zeros(2)
        for step in range(2000):
            fired = src.sample(step, 1.0, rng)
            for i in fired:
                counts[i] += 1
        assert counts[0] == 0 and counts[1] > 100

    def test_negative_rate_raises(self):
        with pytest.raises(ValueError):
            PoissonSource(3, -1.0)

    def test_size_zero_raises(self):
        with pytest.raises(ValueError):
            PoissonSource(0, 10.0)


class TestRegularSource:
    def test_period_respected(self):
        rng = np.random.default_rng(0)
        src = RegularSource(1, period_ms=10.0)
        fired_steps = [
            step for step in range(100) if src.sample(step, 1.0, rng).size
        ]
        diffs = np.diff(fired_steps)
        assert (diffs == 10).all()

    def test_phase_offsets(self):
        rng = np.random.default_rng(0)
        src = RegularSource(2, period_ms=20.0, phase_ms=[0.0, 5.0])
        first = {0: None, 1: None}
        for step in range(30):
            for i in src.sample(step, 1.0, rng):
                if first[int(i)] is None:
                    first[int(i)] = step
        assert first[1] - first[0] == 5

    def test_negative_phase_raises(self):
        with pytest.raises(ValueError):
            RegularSource(1, period_ms=5.0, phase_ms=-1.0)


class TestScheduledSource:
    def test_exact_schedule(self):
        rng = np.random.default_rng(0)
        src = ScheduledSource([[2.0, 5.0], [0.0]])
        fired = {}
        for step in range(8):
            for i in src.sample(step, 1.0, rng):
                fired.setdefault(int(i), []).append(step)
        assert fired == {0: [2, 5], 1: [0]}

    def test_reset_replays(self):
        rng = np.random.default_rng(0)
        src = ScheduledSource([[1.0]])
        assert src.sample(1, 1.0, rng).size == 1
        src.reset()
        assert src.sample(1, 1.0, rng).size == 1

    def test_multiple_spikes_one_tick_fire_once(self):
        # Two spikes in [0,1) collapse into one tick event (the neuron
        # cannot fire twice in one tick); the cursor must skip both.
        rng = np.random.default_rng(0)
        src = ScheduledSource([[0.2, 0.7, 3.0]])
        assert src.sample(0, 1.0, rng).size == 1
        assert src.sample(1, 1.0, rng).size == 0
        assert src.sample(3, 1.0, rng).size == 1

    def test_negative_time_raises(self):
        with pytest.raises(ValueError):
            ScheduledSource([[-1.0]])

    def test_spike_times_property_copies(self):
        src = ScheduledSource([[1.0, 2.0]])
        times = src.spike_times[0]
        times[0] = 99.0
        assert src.spike_times[0][0] == 1.0

