"""Columnar SNN engine vs the reference loop: bit-identical spike trains.

The columnar engine (precomputed source spikes, fused LIF stepping,
CSR/dense delivery, one sort/split at the end) must reproduce the
reference per-tick loop exactly — spike times AND learned STDP weights —
across delays, source types, neuron models, sparsity regimes and
learning configurations.

:func:`run_reference` is that loop (``self`` is the ``Simulation`` it
reads ``network``, ``dt``, ``rng`` and ``stdp`` from); it draws source
spikes tick by tick through :func:`per_tick_sampler`, which the engine's
whole-run source plans must reproduce.
``benchmarks/test_frontend_speedup.py`` times the engine against it.
"""

import math
from collections import deque
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.snn import simulator as simulator_module
from repro.snn.generators import PoissonSource, ScheduledSource
from repro.snn.network import Network, Population
from repro.snn.neuron import AdaptiveLIFModel, LIFModel, NeuronState
from repro.snn.simulator import Simulation, SimulationResult
from repro.snn.stdp import STDPRule, STDPState


def per_tick_sampler(source):
    """A fresh ``sample(step, dt, rng)`` for one run of ``source``: the
    indices (within the source population) that spike on tick ``step``."""
    if isinstance(source, PoissonSource):

        def sample(step, dt, rng):
            p = source.rates_hz * (dt / 1000.0)
            return np.nonzero(rng.random(source.size) < p)[0]

        return sample

    spike_times = source.spike_times
    cursors = np.zeros(source.size, dtype=np.int64)

    def sample(step, dt, rng):
        t_end = (step + 1) * dt
        fired = []
        for i, times in enumerate(spike_times):
            c = cursors[i]
            n = c
            while n < times.size and times[n] < t_end:
                n += 1
            if n > c:
                fired.append(i)
                cursors[i] = n
        return np.asarray(fired, dtype=np.int64)

    return sample


def run_reference(self, duration_ms: float, learning: bool) -> SimulationResult:
    n_steps = int(round(duration_ms / self.dt))
    net = self.network

    states: Dict[str, NeuronState] = {}
    samplers = {}
    for pop in net.populations:
        if pop.is_source:
            samplers[pop.name] = per_tick_sampler(pop.source)
        else:
            states[pop.name] = pop.model.allocate_state(pop.size)

    # Per-projection delay lines: deque of spike-index arrays, one slot
    # per tick of delay.  Slot 0 is delivered on the *next* tick.
    delay_lines: Dict[int, deque] = {}
    for pi, proj in enumerate(net.projections):
        ticks = max(1, int(round(proj.delay_ms / self.dt)))
        delay_lines[pi] = deque(
            [np.empty(0, dtype=np.int64) for _ in range(ticks)], maxlen=ticks
        )

    stdp_states: Dict[int, STDPState] = {}
    if self.stdp is not None:
        for pi, proj in enumerate(net.projections):
            if proj.plastic:
                stdp_states[pi] = self.stdp.allocate_state(
                    proj.pre.size, proj.post.size
                )

    recorded: List[List[float]] = [[] for _ in range(net.n_neurons)]
    out_projections: Dict[str, List[int]] = {pop.name: [] for pop in net.populations}
    for pi, proj in enumerate(net.projections):
        out_projections[proj.pre.name].append(pi)

    for step in range(n_steps):
        t_now = step * self.dt

        # 1. Deliver delayed spikes into input currents.
        currents: Dict[str, np.ndarray] = {
            pop.name: np.zeros(pop.size, dtype=np.float64)
            for pop in net.populations
            if not pop.is_source
        }
        arrivals: Dict[int, np.ndarray] = {}
        for pi, proj in enumerate(net.projections):
            arriving = delay_lines[pi][0]
            arrivals[pi] = arriving
            if arriving.size and not proj.post.is_source:
                currents[proj.post.name] += proj.weights[arriving, :].sum(axis=0)

        # 2. Advance dynamics / sample sources; collect this tick's spikes.
        spikes_by_pop: Dict[str, np.ndarray] = {}
        for pop in net.populations:
            if pop.is_source:
                fired = samplers[pop.name](step, self.dt, self.rng)
            else:
                mask = pop.model.step(
                    states[pop.name], currents[pop.name], self.dt
                )
                fired = np.nonzero(mask)[0]
            spikes_by_pop[pop.name] = fired
            base = pop.id_offset
            for local in fired:
                recorded[base + int(local)].append(t_now)

        # 3. STDP on plastic projections (pre arrivals vs post spikes).
        if self.stdp is not None and learning:
            for pi, state in stdp_states.items():
                proj = net.projections[pi]
                self.stdp.step(
                    state,
                    proj.weights,
                    pre_spikes=spikes_by_pop[proj.pre.name],
                    post_spikes=spikes_by_pop[proj.post.name],
                    dt=self.dt,
                )

        # 4. Enqueue emitted spikes on outgoing delay lines.
        for pop in net.populations:
            fired = spikes_by_pop[pop.name]
            for pi in out_projections[pop.name]:
                delay_lines[pi].append(fired)

    spike_arrays = [np.asarray(times, dtype=np.float64) for times in recorded]
    return SimulationResult(
        network_name=net.name,
        duration_ms=n_steps * self.dt,
        dt=self.dt,
        spike_times=spike_arrays,
    )


def assert_engines_identical(net, duration, seed=7, stdp=None,
                             learning=True):
    """Run both engines from identical initial state; compare everything."""
    saved_weights = [proj.weights.copy() for proj in net.projections]
    ref = run_reference(Simulation(net, seed=seed, stdp=stdp),
                         duration, learning)
    ref_weights = [proj.weights.copy() for proj in net.projections]
    for proj, w in zip(net.projections, saved_weights):
        proj.weights[...] = w
    col = Simulation(net, seed=seed, stdp=stdp).run(
        duration, learning=learning)
    assert ref.duration_ms == col.duration_ms
    assert ref.dt == col.dt
    for gid, (a, b) in enumerate(zip(ref.spike_times, col.spike_times)):
        assert np.array_equal(a, b), (
            f"neuron {gid}: reference {a.size} spikes vs columnar {b.size}"
        )
    for proj, w_ref in zip(net.projections, ref_weights):
        assert np.array_equal(proj.weights, w_ref), (
            f"projection {proj.describe()}: weights diverged"
        )
    assert np.array_equal(ref.spike_counts(), col.spike_counts())
    return ref, col


def _lif_recurrent_net(seed=0):
    rng = np.random.default_rng(seed)
    net = Network("lif-recurrent")
    net.add_source("pa", PoissonSource(12, 80.0))
    net.add_source("pb", PoissonSource(8, np.linspace(20.0, 120.0, 8)))
    net.add_population("x", 20, LIFModel())
    net.add_population("y", 10, LIFModel(tau_m=30.0, t_ref=3.0))
    net.add_population("z", 6, LIFModel(t_ref=0.0))
    net.connect("pa", "x", weights=rng.uniform(0, 60, (12, 20)))
    net.connect("pb", "x", weights=rng.uniform(0, 40, (8, 20)), delay_ms=2.0)
    net.connect("x", "y", weights=rng.uniform(0, 80, (20, 10)), delay_ms=3.0)
    net.connect("y", "x", weights=rng.uniform(-40, 0, (10, 20)), delay_ms=1.0)
    net.connect("y", "z", weights=rng.uniform(0, 120, (10, 6)))
    return net


class TestEquivalenceMatrix:
    def test_multi_pop_recurrent_lif(self):
        assert_engines_identical(_lif_recurrent_net(), 200.0)

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_seed_sweep(self, seed):
        assert_engines_identical(_lif_recurrent_net(), 150.0, seed=seed)

    @pytest.mark.parametrize("t_ref", [0.3, 0.7, 1.0, 1.5, 2.5, 3.3])
    def test_fractional_refractory_periods(self, t_ref):
        """The fused stepper leaves its refractory path ``ceil(t_ref)``
        ticks after the last spike; the countdown must be exactly zero
        by then, or a neuron would wake one tick before it does in the
        reference loop (which masks on ``refractory > 0``)."""
        rng = np.random.default_rng(2)
        net = Network("refractory")
        net.add_source("p", PoissonSource(8, 90.0))
        net.add_population("o", 10, LIFModel(t_ref=t_ref))
        net.connect("p", "o", weights=rng.uniform(20, 90, (8, 10)))
        _, col = assert_engines_identical(net, 200.0)
        assert col.total_spikes() > 0

    @given(st.floats(0.0, 500.0))
    @settings(max_examples=200, deadline=None)
    def test_unit_tick_countdown_is_exact(self, t_ref):
        """``max(r - DT, 0)`` from any ``t_ref`` reaches exactly zero
        after ``ceil(t_ref)`` ticks: ``r - 1.0`` is exact for ``r >= 1``."""
        r = np.array([t_ref])
        for _ in range(math.ceil(t_ref)):
            assert r[0] > 0.0
            np.subtract(r, simulator_module.DT, out=r)
            np.maximum(r, 0.0, out=r)
        assert r[0] == 0.0

    @pytest.mark.parametrize("delay", [1.0, 2.0, 5.0])
    def test_delay_sweep(self, delay):
        rng = np.random.default_rng(3)
        net = Network("delays")
        net.add_source("p", PoissonSource(10, 90.0))
        net.add_population("o", 12, LIFModel())
        net.connect("p", "o", weights=rng.uniform(0, 70, (10, 12)),
                    delay_ms=delay)
        net.connect("o", "o", weights=rng.uniform(-20, 20, (12, 12)),
                    delay_ms=delay)
        assert_engines_identical(net, 200.0)

    def test_scheduled_and_periodic_sources(self):
        """Explicit trains beside staggered periodic ones (period 7 ms,
        phases 0-3 ms), both as scheduled sources."""
        net = Network("sched-periodic")
        net.add_source("sch", ScheduledSource(
            [[1.0, 5.5, 5.7, 9.0], [], [2.0, 2.5, 30.0]]
        ))
        net.add_source("reg", ScheduledSource(
            [np.arange(phase, 60.0, 7.0) for phase in (0.0, 1.0, 2.0, 3.0)]
        ))
        net.add_population("o", 6, LIFModel())
        net.connect("sch", "o", weights=np.full((3, 6), 200.0))
        net.connect("reg", "o", weights=np.full((4, 6), 100.0), delay_ms=2.0)
        assert_engines_identical(net, 60.0)

    def test_adaptive_lif_populations_fall_back(self):
        """Two non-fused populations step one after the other, between
        the fused LIF group and the delivery of their spikes."""
        rng = np.random.default_rng(5)
        net = Network("fallback")
        net.add_source("p", PoissonSource(10, 100.0))
        net.add_population("a2", 8, AdaptiveLIFModel(
            v_thresh=-55.0, t_ref=2.0, theta_plus=2.0, tau_theta=200.0
        ))
        net.add_population("al", 8, AdaptiveLIFModel())
        net.add_population("l", 8, LIFModel())
        net.connect("p", "a2", weights=rng.uniform(0, 25, (10, 8)))
        net.connect("p", "al", weights=rng.uniform(0, 80, (10, 8)))
        net.connect("a2", "l", weights=rng.uniform(0, 90, (8, 8)),
                    delay_ms=2.0)
        net.connect("al", "l", weights=rng.uniform(0, 90, (8, 8)))
        _, col = assert_engines_identical(net, 250.0)
        counts = col.spike_counts()
        assert counts[10:18].sum() > 0 and counts[18:26].sum() > 0

    @pytest.mark.parametrize("learning", [True, False])
    def test_stdp_spike_trains_and_weights(self, learning):
        rng = np.random.default_rng(6)
        net = Network("stdp")
        net.add_source("p", PoissonSource(15, 90.0))
        net.add_population("e", 10, LIFModel())
        net.connect("p", "e", weights=rng.uniform(20, 60, (15, 10)),
                    plastic=True)
        net.connect("e", "e", weights=rng.uniform(-10, 10, (10, 10)),
                    delay_ms=2.0)
        assert_engines_identical(
            net, 250.0,
            stdp=STDPRule(a_plus=0.05, a_minus=0.06, w_max=80.0),
            learning=learning,
        )

    def test_sparse_projection_takes_csr_path(self):
        rng = np.random.default_rng(8)
        net = Network("sparse")
        net.add_source("p", PoissonSource(64, 70.0))
        net.add_population("h", 300, LIFModel())
        w_in = rng.uniform(0, 100, (64, 300)) * (rng.random((64, 300)) < 0.1)
        w_rec = rng.uniform(0, 10, (300, 300)) * (rng.random((300, 300)) < 0.05)
        np.fill_diagonal(w_rec, 0.0)
        net.connect("p", "h", weights=w_in)
        net.connect("h", "h", weights=w_rec, delay_ms=2.0)
        assert w_in.size >= simulator_module.CSR_MIN_DENSE_SIZE
        assert_engines_identical(net, 150.0)

    def test_dense_vs_csr_dispatch_toggle(self, monkeypatch):
        """Forcing every projection down either path changes nothing."""
        net = _lif_recurrent_net(seed=9)

        monkeypatch.setattr(simulator_module, "CSR_MIN_DENSE_SIZE", 0)
        monkeypatch.setattr(simulator_module, "CSR_DENSITY_THRESHOLD", 1.0)
        all_csr = Simulation(net, seed=7).run(150.0)

        monkeypatch.setattr(simulator_module, "CSR_MIN_DENSE_SIZE", 10**12)
        all_dense = Simulation(net, seed=7).run(150.0)

        for a, b in zip(all_csr.spike_times, all_dense.spike_times):
            assert np.array_equal(a, b)

    def test_custom_source_is_refused(self):
        """The engine plans a run's source spikes from the two source
        types alone; any other object is refused when the population is
        built, not sampled some other way."""

        class EveryOther:
            size = 3

        net = Network("custom")
        with pytest.raises(TypeError, match="PoissonSource or a ScheduledSource"):
            net.add_source("c", EveryOther())
        with pytest.raises(TypeError, match="EveryOther"):
            Population(name="c", size=3, source=EveryOther())
        assert net.populations == []

    def test_idle_network(self):
        idle = Network("idle")
        idle.add_population("q", 2, LIFModel())
        _, col = assert_engines_identical(idle, 50.0)
        assert col.total_spikes() == 0

    def test_source_only_network(self):
        net = Network("src-only")
        net.add_source("s", ScheduledSource([np.arange(0.0, 100.0, 10.0)]))
        _, col = assert_engines_identical(net, 100.0)
        assert col.spike_times[0].size == 10


class TestColumnarResult:
    def test_counts_cached_and_consistent(self):
        net = _lif_recurrent_net()
        result = Simulation(net, seed=1).run(100.0)
        assert result.counts is not None
        assert np.array_equal(
            result.counts,
            np.asarray([t.size for t in result.spike_times]),
        )

    def test_spike_times_sorted_per_neuron(self):
        net = _lif_recurrent_net()
        result = Simulation(net, seed=1).run(100.0)
        for t in result.spike_times:
            assert np.all(np.diff(t) > 0)


class TestSampleTicks:
    """The planned source spikes match the per-tick oracle exactly."""

    def test_scheduled_source_plan(self):
        times = [[0.4, 1.0, 1.1, 7.7], [], [0.0, 99.0]]
        source = ScheduledSource(times)
        sample = per_tick_sampler(source)
        n_steps, dt = 20, 0.5
        per_tick = [sample(step, dt, None) for step in range(n_steps)]
        ids, ticks = source.sample_ticks(n_steps, dt)
        expect_ids, expect_ticks = [], []
        for step, fired in enumerate(per_tick):
            expect_ids.extend(int(i) for i in fired)
            expect_ticks.extend([step] * len(fired))
        order = np.lexsort((expect_ids, expect_ticks))
        assert np.array_equal(ids, np.asarray(expect_ids)[order])
        assert np.array_equal(ticks, np.asarray(expect_ticks)[order])

    @given(
        st.lists(
            st.lists(st.floats(0.0, 40.0), max_size=12), min_size=1, max_size=5
        ),
        st.integers(0, 45),
        st.sampled_from([0.25, 0.5, 1.0, 3.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_scheduled_source_plan_generated(self, times, n_steps, dt):
        """Generated trains (ties, spikes sharing a tick, spikes past the
        horizon), every tick length: the plan is the oracle's, and
        planning again gives it again."""
        source = ScheduledSource(times)
        sample = per_tick_sampler(source)
        expected = [
            (step, int(i))
            for step in range(n_steps)
            for i in sample(step, dt, None)
        ]
        for _ in range(2):
            ids, ticks = source.sample_ticks(n_steps, dt)
            assert list(zip(ticks.tolist(), ids.tolist())) == expected

    def test_poisson_batched_draw_matches_per_tick_stream(self):
        """One (ticks, total) matrix consumes the PCG stream exactly like
        per-tick, per-source draws in population order."""
        sources = [PoissonSource(7, 80.0), PoissonSource(3, 40.0)]
        samplers = [per_tick_sampler(src) for src in sources]
        n_steps = 50
        rng = np.random.default_rng(123)
        per_tick = [
            [sample(step, 1.0, rng) for sample in samplers]
            for step in range(n_steps)
        ]
        rng2 = np.random.default_rng(123)
        u = rng2.random(size=(n_steps, 10))
        p = np.concatenate([src.rates_hz * (1.0 / 1000.0) for src in sources])
        for step in range(n_steps):
            fired_a = np.nonzero(u[step, :7] < p[:7])[0]
            fired_b = np.nonzero(u[step, 7:] < p[7:])[0]
            assert np.array_equal(fired_a, per_tick[step][0])
            assert np.array_equal(fired_b, per_tick[step][1])


class TestSourcesHoldNoState:
    """A run leaves its sources as it found them: one network run by
    several simulations with one seed gives one set of trains, whatever
    ran before."""

    @staticmethod
    def _net():
        rng = np.random.default_rng(4)
        net = Network("stateless")
        net.add_source("p", PoissonSource(6, 90.0))
        net.add_source("s", ScheduledSource(
            [[0.5, 3.0, 3.2, 40.0], [], np.arange(1.0, 80.0, 4.0)]
        ))
        net.add_population("o", 5, LIFModel())
        net.connect("p", "o", weights=rng.uniform(0, 80, (6, 5)))
        net.connect("s", "o", weights=np.full((3, 5), 60.0), delay_ms=2.0)
        return net

    @staticmethod
    def _assert_same(a, b):
        assert all(np.array_equal(x, y) for x, y in zip(a.spike_times, b.spike_times))

    def test_back_to_back(self):
        net = self._net()
        first = Simulation(net, seed=11).run(80.0)
        second = Simulation(net, seed=11).run(80.0)
        assert first.total_spikes() > 0
        self._assert_same(first, second)

    def test_interleaved(self):
        net = self._net()
        a, b = Simulation(net, seed=11), Simulation(net, seed=11)
        fresh = Simulation(self._net(), seed=11).run(80.0)
        for source in (pop.source for pop in net.populations if pop.is_source):
            if isinstance(source, ScheduledSource):
                source.sample_ticks(30, 1.0)
        Simulation(net, seed=3).run(25.0)
        ra = a.run(80.0)
        Simulation(net, seed=11).run(50.0)
        rb = b.run(80.0)
        self._assert_same(ra, fresh)
        self._assert_same(rb, fresh)
