"""The ``noc`` objective's closed form against the simulation it skips.

``InterconnectFitness(objective="noc")`` scores a row without the cycle
loop when the fabric's :class:`~repro.noc.routing.DeliveryCertificate`
proves every packet arrives.  Two oracles:

- the certificate against route-by-route walks of the table (the
  destinations each route enters per router, the tree test, the channel
  dependency graph searched depth-first), over generated fabrics;
- the closed-form score against ``_one_schedule_score`` (one schedule
  through the kernel, the path ``evaluate`` used to take) for every row
  the certificate proves, over generated fabrics, graphs and NoC
  parameters — plus the premise of the proof on that row's kernel run:
  everything delivered, and the network drained within hops +
  deliveries cycles of the last injection.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitness import InterconnectFitness
from repro.noc.fastsim import FastInterconnect
from repro.noc.faults import inject_random_faults
from repro.noc.interconnect import NocConfig
from repro.noc.multichip import multichip
from repro.noc.packet import Injection
from repro.noc.routing import DeliveryCertificate, RoutingTable, routing_for
from repro.noc.stats import summarize
from repro.noc.topology import dense_node_ids, mesh, star, torus, tree
from repro.noc.traffic import build_injections
from repro.obs import observe
from repro.snn.graph import SpikeGraph
from tests.core.test_fitness import _one_schedule_score


@st.composite
def fabrics(draw):
    """Meshes, trees, stars, tori (some with failed links) and 2- or
    4-chip boards, up to 6x6."""
    kind = draw(st.sampled_from(["mesh", "tree", "star", "torus", "board"]))
    if kind == "mesh":
        topology = mesh(draw(st.integers(1, 6)), draw(st.integers(2, 6)))
    elif kind == "tree":
        topology = tree(draw(st.integers(2, 9)), arity=draw(st.integers(2, 3)))
    elif kind == "star":
        topology = star(draw(st.integers(2, 7)))
    elif kind == "torus":
        topology = torus(draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    else:
        n_chips = draw(st.sampled_from([2, 4]))
        topology = multichip(
            draw(st.integers(n_chips, 3 * n_chips)),
            n_chips=n_chips,
            chip_kind=draw(st.sampled_from(["mesh", "tree", "star", "torus"])),
            bridge_latency=draw(st.integers(1, 3)),
        )
    faults = draw(st.integers(0, 2))
    if faults and kind in ("mesh", "torus"):
        try:
            topology, _ = inject_random_faults(
                topology, faults, seed=draw(st.integers(0, 2**16))
            )
        except ValueError:
            pass  # no redundant link left to fail
    return topology


def _routes(next_hops):
    """Every route as its router list, or None when one never arrives."""
    n = len(next_hops)
    routes = {}
    for s in range(n):
        for d in range(n):
            if s == d:
                continue
            path = [s]
            while path[-1] != d:
                step = next_hops[path[-1]][d]
                if step < 0 or len(path) > n:
                    return None
                path.append(step)
            routes[s, d] = path
    return routes


def _has_cycle(edges) -> bool:
    graph = {}
    for tail, head in edges:
        graph.setdefault(tail, []).append(head)
    state = {}  # node -> 1 on the DFS stack, 2 finished

    def visit(node):
        state[node] = 1
        for nxt in graph.get(node, ()):
            if state.get(nxt) == 1 or (nxt not in state and visit(nxt)):
                return True
        state[node] = 2
        return False

    return any(node not in state and visit(node) for node in list(graph))


def _check_against_walks(next_hops):
    certificate = DeliveryCertificate(np.asarray(next_hops, dtype=np.int64))
    routes = _routes(np.asarray(next_hops).tolist())
    if routes is None:
        assert not certificate.deadlock_free
        return certificate
    n = len(next_hops)
    through = [[set() for _ in range(n)] for _ in range(n)]
    tree_routed = [True] * n
    waits = set()
    for (s, d), path in routes.items():
        for k, router in enumerate(path[1:], start=1):
            through[s][router].add(d)
            if routes[s, router] != path[: k + 1]:
                tree_routed[s] = False
        channels = list(zip(path, path[1:]))
        waits.update(zip(channels, channels[1:]))
    for s in range(n):
        for r in range(n):
            bits = np.unpackbits(
                certificate.through[s, r].astype("<u8").view(np.uint8),
                bitorder="little",
            )
            assert set(np.flatnonzero(bits).tolist()) == through[s][r]
    assert certificate.tree.tolist() == tree_routed
    assert certificate.deadlock_free == (not _has_cycle(waits))
    return certificate


@given(fabrics())
@settings(max_examples=80, deadline=None)
def test_certificate_matches_route_walks(topology):
    _check_against_walks(routing_for(topology).next_hops)


def test_certificate_refuses_tables_that_do_not_deliver():
    # A ring of three, each router forwarding clockwise: acyclic routes
    # but a cyclic channel dependency graph.
    ring = [[-1, 1, 1], [2, -1, 2], [0, 0, -1]]
    assert not _check_against_walks(ring).deadlock_free
    # A routing loop between routers 0 and 1 toward router 2.
    looping = [[-1, 1, 1], [0, -1, 0], [1, 1, -1]]
    assert not _check_against_walks(looping).deadlock_free
    # An unroutable pair.
    split = [[-1, 1, -1], [0, -1, -1], [1, 1, -1]]
    assert not _check_against_walks(split).deadlock_free
    # A line of three routes every pair and cannot deadlock.
    line = [[-1, 1, 1], [0, -1, 2], [1, 1, -1]]
    assert _check_against_walks(line).deadlock_free


def test_multicast_from_a_non_tree_source_is_refused():
    """On a 2x2 mesh whose route from router 0 to router 1 goes the long
    way round (0-2-3-1) while its route to router 3 passes router 1, a
    multicast packet from 0 to {1, 3} enters routers 3 and 1 twice each:
    counting the routers its routes enter would be wrong, so only the
    unicast form is proven."""
    topology = mesh(2, 2)
    next_hops = [[-1, 2, 2, 1], [0, -1, 3, 3], [0, 3, -1, 3], [2, 1, 2, -1]]
    distances = [[0, 3, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]]
    table = RoutingTable(
        dense_node_ids(topology),
        np.array(next_hops, dtype=np.int64),
        np.array(distances, dtype=np.int64),
        name="long-way-round",
    )
    certificate = _check_against_walks(next_hops)
    assert certificate.deadlock_free and not certificate.tree[0]
    reach = np.array([[[0b1010]]], dtype=np.uint64)  # routers 1 and 3
    source, spikes = np.zeros((1, 1), dtype=np.int64), np.ones(1, dtype=np.int64)
    packet = [Injection(cycle=0, src_node=0, dst_nodes=(1, 3), src_neuron=0)]
    for multicast, proven_hops in ((False, 5), (True, None)):
        config = NocConfig(backend="fast", multicast=multicast)
        stats = FastInterconnect(topology, routing=table, config=config).simulate(
            packet
        )
        assert stats.total_hops() == 5 and stats.undelivered_count == 0
        hops, proven = table.certificate().closed_form(
            reach, source, spikes, multicast, config.max_extra_cycles
        )
        assert proven.tolist() == [proven_hops is not None]
        if proven_hops is not None:
            assert hops.tolist() == [proven_hops]
        else:
            assert hops.tolist() == [3]  # what a tree would have cost


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_edges = draw(st.integers(1, 30))
    src = rng.integers(0, n, size=n_edges)
    dst = rng.integers(0, n, size=n_edges)
    spike_times = [
        np.sort(rng.uniform(0.0, 20.0, size=rng.integers(0, 5))) for _ in range(n)
    ]
    return SpikeGraph.from_edges(
        n, src, dst, np.ones(n_edges), spike_times=spike_times, name="generated"
    )


def _closed_form(fit, batch):
    reach = fit.matrix.reach_masks(batch, index=fit._attach_bit, n_bits=fit._n_routers)
    config = fit._noc.config
    return fit._certificate.closed_form(
        reach,
        fit._attach_bit[batch],
        fit._events.counts,
        config.multicast,
        config.max_extra_cycles,
    )


@given(
    topology=fabrics(),
    graph=graphs(),
    multicast=st.booleans(),
    buffer_capacity=st.integers(1, 8),
    cycles_per_ms=st.sampled_from([0.5, 1.0, 10.0, 100.0]),
    max_extra_cycles=st.integers(1, 300),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_proven_rows_score_what_the_kernel_does(
    topology,
    graph,
    multicast,
    buffer_capacity,
    cycles_per_ms,
    max_extra_cycles,
    seed,
):
    config = NocConfig(
        buffer_capacity=buffer_capacity,
        multicast=multicast,
        max_extra_cycles=max_extra_cycles,
    )
    fit = InterconnectFitness(
        graph,
        objective="noc",
        topology=topology,
        noc_config=config,
        cycles_per_ms=cycles_per_ms,
    )
    rng = np.random.default_rng(seed)
    batch = rng.integers(0, topology.n_attach_points, size=(3, graph.n_neurons))
    scores = fit.evaluate_batch(batch)
    hops, proven = _closed_form(fit, batch)
    for row, score, row_hops, row_proven in zip(batch, scores, hops, proven):
        assert score == _one_schedule_score(fit, row)
        if not row_proven:
            continue
        assert score == float(row_hops)
        schedule = build_injections(
            graph, row, topology, cycles_per_ms=cycles_per_ms, events=fit._events
        )
        stats = fit._noc.simulate(schedule)
        summary = summarize(stats, topology)
        assert summary.delivered == summary.n_expected
        if schedule.n_packets:
            last_injection = int(schedule.cycle[-1])
            assert stats.cycles_run - last_injection <= row_hops + summary.n_expected


def _rows_by_path(fit, batch):
    with observe(tracer=False) as obs:
        scores = fit.evaluate_batch(batch)
    metrics = obs.metrics
    return scores, {
        path: metrics.counter_value("fitness.noc_rows", path=path)
        for path in ("closed", "simulated")
    }


@pytest.mark.parametrize(
    "topology",
    [torus(6), multichip(8, n_chips=4)],
    ids=["torus-6x6", "board-4-chips"],
)
def test_refused_fabrics_are_simulated(tiny_graph, topology):
    fit = InterconnectFitness(tiny_graph, objective="noc", topology=topology)
    assert not fit._certificate.deadlock_free
    batch = np.random.default_rng(3).integers(0, topology.n_attach_points, size=(4, 8))
    scores, rows = _rows_by_path(fit, batch)
    assert rows == {"closed": 0, "simulated": 4}
    assert scores.tolist() == [_one_schedule_score(fit, row) for row in batch]


def test_a_short_drain_budget_is_simulated(tiny_graph):
    """Hops + deliveries past ``max_extra_cycles``: no proof, so the
    kernel runs and its undelivered penalty stays in the score."""
    batch = np.array([[0, 1, 2, 3, 0, 1, 2, 3], [0, 0, 0, 0, 1, 1, 1, 1]])
    roomy = InterconnectFitness(tiny_graph, objective="noc", topology=mesh(2))
    scores, rows = _rows_by_path(roomy, batch)
    assert rows == {"closed": 2, "simulated": 0}
    hops, _ = _closed_form(roomy, batch)
    budget = int(hops.min())  # below every row's hops + deliveries
    tight = InterconnectFitness(
        tiny_graph,
        objective="noc",
        topology=mesh(2),
        noc_config=NocConfig(max_extra_cycles=budget),
    )
    assert tight._certificate.deadlock_free
    tight_scores, rows = _rows_by_path(tight, batch)
    assert rows == {"closed": 0, "simulated": 2}
    assert tight_scores.tolist() == [_one_schedule_score(tight, row) for row in batch]
    assert scores.tolist() == [_one_schedule_score(roomy, row) for row in batch]


def test_closed_form_path_keeps_the_builders_errors(tiny_graph):
    """Out-of-range clusters and negative spike times of emitting neurons
    raise as the schedule builder does, before anything is scored."""
    fit = InterconnectFitness(tiny_graph, objective="noc", topology=mesh(2))
    with pytest.raises(ValueError, match="only 4 crossbar attach points"):
        fit.evaluate(np.array([0, 0, 0, 0, 4, 4, 4, 4]))
    with pytest.raises(ValueError, match="cover 7 neurons"):
        fit.evaluate_batch(np.zeros((1, 7), dtype=np.int64))
    times = list(tiny_graph.spike_times)
    times[3] = np.array([-1.0, 3.0])
    graph = SpikeGraph.from_edges(
        8, tiny_graph.src, tiny_graph.dst, tiny_graph.traffic, spike_times=times
    )
    fit = InterconnectFitness(graph, objective="noc", topology=mesh(2))
    assert fit.evaluate(np.zeros(8, dtype=np.int64)) == 0.0  # nothing emits
    with pytest.raises(ValueError, match="negative injection cycle -10 "):
        fit.evaluate(np.array([0, 0, 0, 0, 1, 1, 1, 1]))
