"""Differential oracle for the view-based schedule builder.

``build_injections_batch`` cuts every schedule out of one pre-sorted
event list (``SpikeEvents``) with the swarm's reach masks as destination
words.  The implementation it replaced re-derived everything per call
and per particle: an ``np.unique`` over the synapse pairs, a
``bitwise_or.at`` scatter for the masks, a gather of each emitting
neuron's spike run, a stable ``argsort`` and four ``np.repeat``s.  That
version lives on here as the oracle, and the contract is the strongest
one available: every column byte-, dtype-, shape- and layout-identical,
the provenance counts equal, and the same ``ValueError`` for a negative
spike time exactly when its neuron emits.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitness import InterconnectFitness
from repro.core.mapper import map_snn
from repro.core.pso import PSOConfig
from repro.core.traffic_matrix import TrafficMatrix
from repro.hardware.presets import custom
from repro.noc.multichip import multichip
from repro.noc.topology import mesh_for, tree
from repro.noc.traffic import (
    ColumnarSchedule,
    SpikeEvents,
    build_injections,
    build_injections_batch,
    dense_node_ids,
)
from repro.snn.graph import SpikeGraph

# -- the replaced implementation, verbatim -----------------------------------


class OracleSpikeColumns:
    def __init__(self, graph, cycles_per_ms):
        self.counts = graph.spike_counts()
        self.offsets = np.cumsum(self.counts) - self.counts
        if int(self.counts.sum()):
            times = np.concatenate(graph.spike_times)
        else:
            times = np.empty(0, dtype=np.float64)
        self.cycles = np.rint(times * cycles_per_ms).astype(np.int64)

    def gather(self, neurons):
        cnts = self.counts[neurons]
        total = int(cnts.sum())
        if total == 0:
            return cnts, np.empty(0, dtype=np.int64)
        run_starts = np.cumsum(cnts) - cnts
        idx = (
            np.arange(total, dtype=np.int64)
            - np.repeat(run_starts, cnts)
            + np.repeat(self.offsets[neurons], cnts)
        )
        cycles = self.cycles[idx]
        if int(cycles.min()) < 0:
            raise ValueError(
                f"negative injection cycle {int(cycles.min())} (negative "
                "spike time in graph)"
            )
        return cnts, cycles


def oracle_empty(node_ids, n_words, cycles_per_ms):
    return ColumnarSchedule(
        cycle=np.empty(0, dtype=np.int64),
        src_node=np.empty(0, dtype=np.int64),
        src_neuron=np.empty(0, dtype=np.int64),
        uid=np.empty(0, dtype=np.int64),
        dst_words=np.empty((0, n_words), dtype=np.uint64),
        node_ids=node_ids,
        cycles_per_ms=cycles_per_ms,
        n_source_neurons=0,
        n_spike_events=0,
    )


def oracle_build_batch(graph, assignments, topology, cycles_per_ms):
    a = np.asarray(assignments, dtype=np.int64)
    node_ids = dense_node_ids(topology)
    n_words = max(1, -(-int(node_ids.shape[0]) // 64))
    attach = np.asarray(topology.attach_points, dtype=np.int64)
    attach_didx = np.searchsorted(node_ids, attach)
    if graph.n_synapses:
        pair_keys = np.unique(graph.src * graph.n_neurons + graph.dst)
        u_src = pair_keys // graph.n_neurons
        u_dst = pair_keys % graph.n_neurons
    else:
        u_src = u_dst = np.empty(0, dtype=np.int64)
    spikes = OracleSpikeColumns(graph, cycles_per_ms)

    out = []
    for row in a:
        src_c = row[u_src]
        dst_c = row[u_dst]
        remote = src_c != dst_c
        if not remote.any():
            out.append(oracle_empty(node_ids, n_words, cycles_per_ms))
            continue
        rsrc = u_src[remote]
        didx = attach_didx[dst_c[remote]]
        new_group = np.empty(rsrc.shape[0], dtype=bool)
        new_group[0] = True
        np.not_equal(rsrc[1:], rsrc[:-1], out=new_group[1:])
        neurons = rsrc[new_group]
        words = np.zeros((neurons.shape[0], n_words), dtype=np.uint64)
        np.bitwise_or.at(
            words,
            (np.cumsum(new_group) - 1, didx >> 6),
            np.left_shift(np.uint64(1), (didx & 63).astype(np.uint64)),
        )
        cnts, pk_cycle = spikes.gather(neurons)
        n_packets = int(pk_cycle.shape[0])
        if n_packets == 0:
            schedule = oracle_empty(node_ids, n_words, cycles_per_ms)
            schedule.n_source_neurons = int(neurons.shape[0])
            out.append(schedule)
            continue
        order = np.argsort(pk_cycle, kind="stable")
        out.append(
            ColumnarSchedule(
                cycle=pk_cycle[order],
                src_node=np.repeat(attach[row[neurons]], cnts)[order],
                src_neuron=np.repeat(neurons, cnts)[order],
                uid=order.astype(np.int64),
                dst_words=np.repeat(words, cnts, axis=0)[order],
                node_ids=node_ids,
                cycles_per_ms=cycles_per_ms,
                n_source_neurons=int(neurons.shape[0]),
                n_spike_events=n_packets,
            )
        )
    return out


# -- comparison ----------------------------------------------------------------

COLUMNS = ("cycle", "src_node", "src_neuron", "uid", "dst_words", "node_ids")


def assert_same_schedule(got: ColumnarSchedule, want: ColumnarSchedule):
    for name in COLUMNS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.shape == w.shape, name
        assert g.flags.c_contiguous and w.flags.c_contiguous, name
        assert g.tobytes() == w.tobytes(), name
    assert got.cycles_per_ms == want.cycles_per_ms
    assert got.n_source_neurons == want.n_source_neurons
    assert got.n_spike_events == want.n_spike_events


def outcome(build):
    """The schedules a builder returns, or the ``ValueError`` it raises."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_schedule(g, w)


# -- generated cases -----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def fabric(name: str):
    """Fabrics by mask width and family; tree / board ids are not dense."""
    return {
        "mesh-1w": lambda: mesh_for(6),  # <= 63 routers: one word
        "tree-1w": lambda: tree(5),
        "board-1w": lambda: multichip(8, n_chips=2, bridge_latency=2),
        "mesh-2w": lambda: mesh_for(70),  # 64-127 routers: two words
        "mesh-3w": lambda: mesh_for(130),  # >= 128 routers: three words
    }[name]()


@st.composite
def cases(draw, negative_times=False):
    topology = fabric(
        draw(
            st.sampled_from(
                ["mesh-1w", "tree-1w", "board-1w", "mesh-2w", "mesh-3w"]
            )
        )
    )
    n = draw(st.integers(1, 10))
    neuron = st.integers(0, n - 1)
    # Free endpoints: parallel synapses, self-loops, isolated neurons and
    # neurons without any out-synapse all come up on their own.
    edges = draw(st.lists(st.tuples(neuron, neuron), max_size=30))
    # A small grid of times in stored (not sorted) order: ties within a
    # train and across neurons, at the rounding midpoints too; empty
    # trains are silent neurons.
    low = -2 if negative_times else 0
    train = st.lists(st.integers(low, 6).map(lambda k: k * 0.25), max_size=5)
    spike_times = [
        np.asarray(draw(train), dtype=np.float64) for _ in range(n)
    ]
    graph = SpikeGraph.from_edges(
        n,
        [e[0] for e in edges],
        [e[1] for e in edges],
        np.ones(len(edges)),
        spike_times=spike_times,
    )
    cluster = st.integers(0, topology.n_attach_points - 1)
    # All-local rows (one cluster for everybody) and rows that use two
    # clusters only (so some neurons' targets are all local) beside free
    # ones.
    row = st.one_of(
        st.lists(cluster, min_size=n, max_size=n),
        cluster.map(lambda c: [c] * n),
        st.tuples(cluster, cluster, st.lists(st.booleans(), min_size=n, max_size=n))
        .map(lambda t: [t[0] if pick else t[1] for pick in t[2]]),
    )
    assignments = np.asarray(
        draw(st.lists(row, min_size=1, max_size=4)), dtype=np.int64
    )
    cycles_per_ms = draw(st.sampled_from([1.0, 2.0, 10.0]))
    return graph, assignments, topology, cycles_per_ms


@given(cases())
@settings(max_examples=300, deadline=None)
def test_batch_matches_replaced_builder(case):
    graph, assignments, topology, cycles_per_ms = case
    want = oracle_build_batch(graph, assignments, topology, cycles_per_ms)
    got = build_injections_batch(graph, assignments, topology, cycles_per_ms)
    assert_same_outcome(got, want)
    # The same through a caller-owned handle, and one row at a time.
    events = SpikeEvents(graph, cycles_per_ms)
    shared = build_injections_batch(
        graph, assignments, topology, cycles_per_ms, events=events
    )
    assert_same_outcome(shared, want)
    for row, schedule in zip(assignments, want):
        assert_same_schedule(
            build_injections(graph, row, topology, cycles_per_ms), schedule
        )
        assert_same_schedule(
            build_injections(
                graph, row, topology, cycles_per_ms, events=events
            ),
            schedule,
        )


@given(cases(negative_times=True))
@settings(max_examples=200, deadline=None)
def test_negative_spike_time_raises_only_when_its_neuron_emits(case):
    graph, assignments, topology, cycles_per_ms = case
    assert_same_outcome(
        outcome(
            lambda: build_injections_batch(
                graph, assignments, topology, cycles_per_ms
            )
        ),
        outcome(
            lambda: oracle_build_batch(
                graph, assignments, topology, cycles_per_ms
            )
        ),
    )


@given(cases())
@settings(max_examples=50, deadline=None)
def test_row_blocks_do_not_change_schedules(case):
    """Any block size cuts the same schedules (the budget is not a knob)."""
    from repro.core import traffic_matrix
    from repro.noc import traffic

    graph, assignments, topology, cycles_per_ms = case
    want = oracle_build_batch(graph, assignments, topology, cycles_per_ms)
    saved = traffic._BLOCK_BYTES, traffic_matrix._BLOCK_BYTES
    traffic._BLOCK_BYTES = traffic_matrix._BLOCK_BYTES = 1  # one row a block
    try:
        got = build_injections_batch(
            graph, assignments, topology, cycles_per_ms
        )
    finally:
        traffic._BLOCK_BYTES, traffic_matrix._BLOCK_BYTES = saved
    assert_same_outcome(got, want)


# -- hand-picked semantics -----------------------------------------------------


def _emitter_graph(spikes_of_0):
    """0 -> 1 and 2 -> 2 (a self-loop); neuron 1 has no out-synapse."""
    return SpikeGraph.from_edges(
        3,
        [0, 2],
        [1, 2],
        [1.0, 1.0],
        spike_times=[
            np.asarray(spikes_of_0, dtype=np.float64),
            np.array([1.0]),
            np.array([2.0]),
        ],
    )


class TestSemanticsKept:
    def test_all_local_schedule_is_empty_with_zero_sources(self):
        (schedule,) = build_injections_batch(
            _emitter_graph([1.0]), np.zeros((1, 3), dtype=int), mesh_for(4)
        )
        assert schedule.n_packets == 0
        assert schedule.n_source_neurons == 0
        assert schedule.n_spike_events == 0
        assert schedule.dst_words.shape == (0, 1)

    def test_silent_emitter_counts_as_a_source(self):
        """A neuron with remote targets but no spikes: no packets, still
        one source neuron."""
        (schedule,) = build_injections_batch(
            _emitter_graph([]), np.array([[0, 1, 1]]), mesh_for(4)
        )
        assert schedule.n_packets == 0
        assert schedule.n_source_neurons == 1
        assert schedule.n_spike_events == 0

    def test_self_loop_never_emits(self):
        (schedule,) = build_injections_batch(
            _emitter_graph([1.0]), np.array([[0, 0, 3]]), mesh_for(4)
        )
        assert schedule.n_packets == 0 and schedule.n_source_neurons == 0

    def test_negative_time_of_a_local_neuron_is_ignored(self):
        graph = _emitter_graph([-1.0, 2.0])
        local = np.array([2, 2, 0])
        remote = np.array([0, 1, 1])
        assert build_injections(graph, local, mesh_for(4)).n_packets == 0
        with pytest.raises(ValueError, match="negative injection cycle -10 "):
            build_injections(graph, remote, mesh_for(4))
        # One emitting row in a batch is enough.
        with pytest.raises(ValueError, match="negative injection cycle -10 "):
            build_injections_batch(
                graph, np.stack([local, remote]), mesh_for(4)
            )

    def test_foreign_events_handle_rejected(self):
        graph, other = _emitter_graph([1.0]), _emitter_graph([1.0])
        events = SpikeEvents(other, 10.0)
        with pytest.raises(ValueError, match="another graph or cycles_per_ms"):
            build_injections(graph, np.zeros(3, dtype=int), mesh_for(4), events=events)
        with pytest.raises(ValueError, match="another graph or cycles_per_ms"):
            build_injections(
                other, np.zeros(3, dtype=int), mesh_for(4), 5.0, events=events
            )


# -- compute once --------------------------------------------------------------


def _count_constructions(monkeypatch, cls):
    calls = []
    original = cls.__init__

    def counting(self, *args, **kwargs):
        calls.append(cls.__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return calls


class TestComputeOnce:
    """Counts, not timings: what is per graph is derived once."""

    def test_fitness_dedups_pairs_and_sorts_events_once(
        self, monkeypatch, tiny_graph
    ):
        matrices = _count_constructions(monkeypatch, TrafficMatrix)
        events = _count_constructions(monkeypatch, SpikeEvents)
        fitness = InterconnectFitness(
            tiny_graph, objective="noc", topology=mesh_for(4)
        )
        rng = np.random.default_rng(5)
        for _ in range(3):
            fitness.evaluate_batch(rng.integers(0, 4, (6, 8)))
        fitness.evaluate(rng.integers(0, 4, 8))
        assert len(matrices) == 1  # the one np.unique over synapse pairs
        assert len(events) == 1  # the one sort of the spike events

    def test_map_snn_noc_sorts_spike_events_once(self, monkeypatch, tiny_graph):
        matrices = _count_constructions(monkeypatch, TrafficMatrix)
        events = _count_constructions(monkeypatch, SpikeEvents)
        arch = custom(4, 2, interconnect="mesh", name="tiny-mesh")
        map_snn(
            tiny_graph,
            arch,
            method="pso",
            objective="noc",
            seed=3,
            pso_config=PSOConfig(n_particles=6, n_iterations=5),
        )
        assert len(events) == 1
        # The fitness's, which the greedy warm start and the result's
        # extras["packets"] reuse.
        assert len(matrices) == 1


class TestComputeOncePerPipeline:
    """Counts, not timings: one ``run_pipeline`` derives each per-graph
    and per-fabric object once and passes it on."""

    ARCH = custom(4, 2, interconnect="mesh", name="tiny-mesh")
    PSO = PSOConfig(n_particles=6, n_iterations=5)

    def _count(self, monkeypatch):
        from repro.hardware.architecture import Architecture
        from repro.noc.fastsim import FastInterconnect
        from repro.noc.interconnect import Interconnect

        counts = {
            cls.__name__: _count_constructions(monkeypatch, cls)
            for cls in (TrafficMatrix, SpikeEvents)
        }
        # The engines themselves, in construction order (a host without
        # the compiled kernel also builds reference engines to fall back
        # on, so their count is not pinned).
        for cls in (FastInterconnect, Interconnect):
            built = counts[cls.__name__] = []
            original = cls.__init__

            def recording(self, *args, _built=built, _original=original, **kwargs):
                _built.append(self)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", recording)
        topologies = counts["build_topology"] = []
        build_topology = Architecture.build_topology

        def counting_topology(arch):
            topologies.append(arch)
            return build_topology(arch)

        monkeypatch.setattr(Architecture, "build_topology", counting_topology)
        return counts

    def _run(self, tiny_graph, **kwargs):
        from repro.framework.pipeline import run_pipeline

        return run_pipeline(
            tiny_graph, self.ARCH, method="pso", seed=3, pso_config=self.PSO,
            **kwargs,
        )

    def test_healthy_noc_run_builds_each_object_once(self, monkeypatch, tiny_graph):
        from repro.noc.interconnect import NocConfig

        counts = self._count(monkeypatch)
        self._run(
            tiny_graph, objective="noc", noc_config=NocConfig(backend="fast")
        )
        del counts["Interconnect"]
        assert {name: len(built) for name, built in counts.items()} == {
            "TrafficMatrix": 1,
            "SpikeEvents": 1,
            "FastInterconnect": 1,
            "build_topology": 1,
        }

    def test_packets_run_builds_one_matrix(self, monkeypatch, tiny_graph):
        counts = self._count(monkeypatch)
        self._run(tiny_graph, objective="packets")
        assert len(counts["TrafficMatrix"]) == 1
        assert len(counts["SpikeEvents"]) == 1
        assert len(counts["build_topology"]) == 1  # the placement pass's

    def test_packets_run_builds_one_routing_table(self, monkeypatch):
        """The placement pass's routing table serves the final engine on
        the same healthy fabric (hello_world on a 6-crossbar mesh)."""
        import math
        import sys

        import repro.noc.routing
        from repro.apps import build_application
        from repro.framework.pipeline import run_pipeline

        original = repro.noc.routing.routing_for
        tables = []

        def counting(topology):
            tables.append(topology)
            return original(topology)

        for name, module in list(sys.modules.items()):
            bound = vars(module).get("routing_for")
            if name.startswith("repro.") and bound is original:
                monkeypatch.setattr(module, "routing_for", counting)
        graph = build_application("hello_world", seed=1)
        arch = custom(6, math.ceil(graph.n_neurons / 6), interconnect="mesh")
        result = run_pipeline(
            graph, arch, method="pso", seed=3, pso_config=self.PSO,
            objective="packets",
        )
        assert len(tables) == 1
        assert tables[0] is result.topology

    def test_faults_get_a_fresh_engine_on_the_degraded_fabric(
        self, monkeypatch, tiny_graph
    ):
        from repro.noc.interconnect import NocConfig

        counts = self._count(monkeypatch)
        result = self._run(
            tiny_graph, objective="noc", noc_config=NocConfig(backend="fast"),
            faults=1, fault_seed=0,
        )
        swarm, final = counts["FastInterconnect"]
        assert result.failed_links
        assert final is not swarm
        assert final.topology is result.topology
        assert swarm.topology is not result.topology
        assert len(counts["SpikeEvents"]) == 1  # events know no fabric

    def test_reference_backend_gets_a_reference_engine(self, monkeypatch, tiny_graph):
        from repro.noc.interconnect import NocConfig

        counts = self._count(monkeypatch)
        result = self._run(
            tiny_graph, objective="noc",
            noc_config=NocConfig(backend="reference"),
        )
        (swarm,) = counts["FastInterconnect"]
        final = counts["Interconnect"][-1]
        assert swarm.topology is final.topology is result.topology
        assert final.config == NocConfig(backend="reference")
        assert len(counts["build_topology"]) == 1
