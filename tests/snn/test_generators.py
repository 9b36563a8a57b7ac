"""Tests for spike sources."""

import numpy as np
import pytest

from repro.snn.generators import PoissonSource, ScheduledSource
from repro.snn.network import Network
from repro.snn.simulator import Simulation


def _source_counts(source, duration_ms, seed=0):
    """Per-neuron spike counts of ``source`` alone over one run."""
    net = Network("source")
    net.add_source("s", source)
    return Simulation(net, seed=seed).run(duration_ms).spike_counts()


def _fired(source, n_steps, dt=1.0):
    """``{neuron: [ticks]}`` of a scheduled source's plan."""
    fired = {}
    for i, step in zip(*source.sample_ticks(n_steps, dt)):
        fired.setdefault(int(i), []).append(int(step))
    return fired


class TestPoissonSource:
    def test_rate_matches_statistics(self):
        total = _source_counts(PoissonSource(100, 50.0), 1000.0).sum()
        # 100 neurons x 50 Hz x 1 s = 5000 expected; allow 5 sigma.
        assert abs(total - 5000) < 5 * np.sqrt(5000)

    def test_zero_rate_silent(self):
        assert _source_counts(PoissonSource(10, 0.0), 100.0).sum() == 0

    def test_per_neuron_rates(self):
        counts = _source_counts(PoissonSource(2, [0.0, 100.0]), 2000.0, seed=1)
        assert counts[0] == 0 and counts[1] > 100

    def test_negative_rate_raises(self):
        with pytest.raises(ValueError):
            PoissonSource(3, -1.0)

    @pytest.mark.parametrize("rates", [[np.nan, 5.0, 10.0], [1.0, np.inf, 10.0]])
    def test_non_finite_rate_raises(self, rates):
        with pytest.raises(ValueError, match="rates_hz must be finite"):
            PoissonSource(3, rates)

    def test_size_zero_raises(self):
        with pytest.raises(ValueError):
            PoissonSource(0, 10.0)


class TestScheduledSource:
    def test_exact_schedule(self):
        src = ScheduledSource([[2.0, 5.0], [0.0]])
        assert _fired(src, 8) == {0: [2, 5], 1: [0]}

    def test_plan_is_pure(self):
        """Planning a run leaves nothing behind: the same plan again,
        and a shorter horizon gives a prefix of it."""
        src = ScheduledSource([[1.0, 4.0], [0.0, 2.5]])
        assert _fired(src, 2) == {0: [1], 1: [0]}
        assert _fired(src, 8) == {0: [1, 4], 1: [0, 2]}
        assert _fired(src, 8) == {0: [1, 4], 1: [0, 2]}

    def test_multiple_spikes_one_tick_fire_once(self):
        # Two spikes in [0,1) collapse into one tick event (the neuron
        # cannot fire twice in one tick).
        src = ScheduledSource([[0.2, 0.7, 3.0]])
        assert _fired(src, 5) == {0: [0, 3]}

    def test_negative_time_raises(self):
        with pytest.raises(ValueError):
            ScheduledSource([[-1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_time_raises(self, bad):
        with pytest.raises(ValueError, match=r"spike_times_ms\[1\] must be finite"):
            ScheduledSource([[1.0], [2.0, bad]])

    def test_spike_times_property_copies(self):
        src = ScheduledSource([[1.0, 2.0]])
        times = src.spike_times[0]
        times[0] = 99.0
        assert src.spike_times[0][0] == 1.0
