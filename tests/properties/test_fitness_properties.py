"""Property-based tests on traffic/fitness consistency (paper Eqs. 6-8)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitness import InterconnectFitness
from repro.core.traffic_matrix import (
    TrafficMatrix,
    cluster_traffic,
    local_global_split,
)
from repro.snn.graph import SpikeGraph


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    n_edges = draw(st.integers(min_value=0, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=n_edges)
    dst = rng.integers(0, n, size=n_edges)
    traffic = rng.integers(0, 50, size=n_edges).astype(float)
    return SpikeGraph.from_edges(n, src, dst, traffic, name="prop")


@st.composite
def graph_and_assignment(draw):
    graph = draw(random_graphs())
    c = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, c, size=graph.n_neurons)
    return graph, assignment, c


@given(graph_and_assignment())
@settings(max_examples=60, deadline=None)
def test_fitness_equals_bruteforce(data):
    """Eq. 8 == brute-force per-synapse crossing sum."""
    graph, assignment, _ = data
    fit = InterconnectFitness(graph)
    brute = sum(
        t
        for s, d, t in zip(graph.src, graph.dst, graph.traffic)
        if assignment[s] != assignment[d]
    )
    assert fit.evaluate(assignment) == brute


@given(graph_and_assignment())
@settings(max_examples=60, deadline=None)
def test_cluster_matrix_sums_to_fitness(data):
    """Eq. 7 off-diagonal sum == Eq. 8."""
    graph, assignment, c = data
    matrix = cluster_traffic(graph, assignment, c)
    fit = InterconnectFitness(graph)
    assert matrix.sum() == fit.evaluate(assignment)
    assert np.trace(matrix) == 0.0  # zero diagonal by definition


@given(graph_and_assignment())
@settings(max_examples=60, deadline=None)
def test_local_global_conservation(data):
    """Local + global traffic == total traffic, for any assignment: the
    per-synapse split and the merged pair matrix agree on what crosses
    (self-loops are local under every assignment)."""
    graph, assignment, _ = data
    m = TrafficMatrix(graph)
    local, global_ = local_global_split(graph, assignment)
    assert global_ == m.global_traffic(assignment)
    assert local + m.global_traffic(assignment) == graph.total_traffic()


@given(graph_and_assignment())
@settings(max_examples=40, deadline=None)
def test_batch_matches_scalar(data):
    graph, assignment, c = data
    fit = InterconnectFitness(graph)
    batch = np.stack([assignment, assignment[::-1].copy()])
    values = fit.evaluate_batch(batch)
    assert values[0] == fit.evaluate(batch[0])
    assert values[1] == fit.evaluate(batch[1])


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_single_cluster_zero_fitness(graph):
    """Everything on one crossbar -> no interconnect traffic."""
    fit = InterconnectFitness(graph)
    assert fit.evaluate(np.zeros(graph.n_neurons, dtype=int)) == 0.0


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_fitness_bounded_by_total(graph):
    """No assignment can exceed all-synapses-global traffic."""
    fit = InterconnectFitness(graph)
    rng = np.random.default_rng(0)
    a = rng.integers(0, graph.n_neurons, size=graph.n_neurons)
    assert fit.evaluate(a) <= graph.total_traffic()
