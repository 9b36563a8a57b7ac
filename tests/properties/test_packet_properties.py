"""Property-based tests for the AER packet-counting objective."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.traffic_matrix import TrafficMatrix
from repro.snn.graph import SpikeGraph


@st.composite
def consistent_graphs(draw):
    """Graphs whose per-edge traffic equals the source's spike count,
    as SpikeGraph.from_simulation guarantees."""
    n = draw(st.integers(min_value=2, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    spikes = rng.integers(0, 30, size=n).astype(float)
    n_edges = draw(st.integers(min_value=0, max_value=40))
    src = rng.integers(0, n, size=n_edges)
    dst = rng.integers(0, n, size=n_edges)
    traffic = spikes[src]
    return SpikeGraph.from_edges(n, src, dst, traffic, name="pkt")


@st.composite
def graph_and_assignment(draw):
    graph = draw(consistent_graphs())
    c = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return graph, rng.integers(0, c, size=graph.n_neurons), c


def _brute_force_packets(graph, assignment):
    """Packets = sum over neurons of spikes x remote destination clusters."""
    matrix = TrafficMatrix(graph)
    total = 0.0
    for neuron in range(graph.n_neurons):
        remote = set()
        for s, d in zip(matrix.src, matrix.dst):
            if int(s) == neuron and assignment[d] != assignment[neuron]:
                remote.add(int(assignment[d]))
        total += matrix.neuron_spikes[neuron] * len(remote)
    return total


@given(graph_and_assignment())
@settings(max_examples=50, deadline=None)
def test_packet_traffic_matches_bruteforce(data):
    graph, assignment, _ = data
    matrix = TrafficMatrix(graph)
    assert matrix.packet_traffic(assignment) == _brute_force_packets(
        graph, assignment
    )


@given(graph_and_assignment())
@settings(max_examples=40, deadline=None)
def test_packet_batch_matches_scalar(data):
    graph, assignment, _ = data
    matrix = TrafficMatrix(graph)
    batch = np.stack([assignment, assignment[::-1].copy(),
                      np.zeros_like(assignment)])
    values = matrix.packet_traffic_batch(batch)
    for row, value in zip(batch, values):
        assert value == matrix.packet_traffic(row)


@given(graph_and_assignment())
@settings(max_examples=40, deadline=None)
def test_packets_never_exceed_synapse_spikes(data):
    """Multicast can only merge flows: packets <= per-synapse crossing."""
    graph, assignment, _ = data
    matrix = TrafficMatrix(graph)
    assert (matrix.packet_traffic(assignment)
            <= matrix.global_traffic(assignment) + 1e-9)


@given(graph_and_assignment())
@settings(max_examples=40, deadline=None)
def test_single_cluster_zero_packets(data):
    graph, _, _ = data
    matrix = TrafficMatrix(graph)
    assert matrix.packet_traffic(np.zeros(graph.n_neurons, dtype=int)) == 0.0


@given(graph_and_assignment())
@settings(max_examples=40, deadline=None)
def test_schedule_agrees_with_packet_count(data):
    """The NoC injection schedule contains exactly packet_traffic spikes.

    Ties the optimizer's objective to what the simulator actually sends:
    one injection per spike of each neuron with remote destinations, and
    total (injection, destination) pairs == packet_traffic.
    """
    from repro.noc.topology import star
    from repro.noc.traffic import build_injections

    graph, assignment, c = data
    # Give each neuron exactly spike-count many spike times.
    matrix = TrafficMatrix(graph)
    graph = dataclasses.replace(graph, spike_times=[
        np.arange(int(matrix.neuron_spikes[i]), dtype=float)
        for i in range(graph.n_neurons)
    ])
    topo = star(max(int(assignment.max()) + 1, 2))
    schedule = build_injections(graph, assignment, topo, cycles_per_ms=1.0)
    pairs = sum(len(inj.dst_nodes) for inj in schedule.injections)
    assert pairs == matrix.packet_traffic(assignment)
