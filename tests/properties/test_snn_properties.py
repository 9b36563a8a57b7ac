"""Property-based tests on SNN simulator invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.snn.generators import PoissonSource, ScheduledSource
from repro.snn.graph import SpikeGraph
from repro.snn.network import Network
from repro.snn.neuron import LIFModel
from repro.snn.simulator import Simulation


@given(
    st.integers(min_value=1, max_value=20),   # sources
    st.floats(min_value=0.0, max_value=100.0),  # rate
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_source_spikes_bounded_by_ticks(n, rate, seed):
    """A neuron can spike at most once per tick."""
    net = Network()
    net.add_source("in", PoissonSource(n, rate))
    result = Simulation(net, seed=seed).run(100.0)
    for train in result.spike_times:
        assert train.size <= 100
        assert (np.diff(train) >= 1.0 - 1e-9).all() if train.size > 1 else True


@given(
    st.lists(
        st.lists(st.floats(min_value=0.0, max_value=99.0), max_size=10),
        min_size=1, max_size=5,
    )
)
@settings(max_examples=40, deadline=None)
def test_scheduled_source_replays_within_tick_resolution(trains):
    """Scheduled spikes replay at their tick (floor to dt), one per tick."""
    net = Network()
    net.add_source("in", ScheduledSource(trains))
    result = Simulation(net, seed=0).run(100.0)
    for i, original in enumerate(trains):
        expected_ticks = sorted({int(t) for t in original})
        assert [int(t) for t in result.spike_times[i]] == expected_ticks


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_spike_graph_traffic_consistency(n_src, n_out, seed):
    """Graph traffic per synapse == pre-neuron spike count, always."""
    rng = np.random.default_rng(seed)
    net = Network()
    net.add_source("in", PoissonSource(n_src, 50.0))
    net.add_population("out", n_out, LIFModel(), layer=1)
    net.connect("in", "out",
                weights=rng.uniform(0, 80, size=(n_src, n_out)))
    result = Simulation(net, seed=seed).run(200.0)
    graph = SpikeGraph.from_simulation(net, result)
    counts = result.spike_counts()
    for s, t in zip(graph.src, graph.traffic):
        assert t == counts[s]


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_refractory_never_violated(seed):
    """With t_ref = 5 ms, consecutive spikes are >= 5 ms apart."""
    net = Network()
    net.add_source("in", PoissonSource(3, 500.0))
    net.add_population("driven", 3, LIFModel(t_ref=5.0))
    net.connect("in", "driven", weights=np.full((3, 3), 100.0))
    result = Simulation(net, seed=seed).run(300.0)
    driven = result.spike_times[3:]  # the sources hold ids 0-2
    assert all(train.size > 10 for train in driven)
    for train in driven:
        assert (np.diff(train) >= 5.0).all()
