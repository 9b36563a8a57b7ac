"""Columnar schedule pipeline: builder, batch, and >63-router kernel.

Three equivalence contracts are pinned here:

1. **Columnar vs legacy builder** — ``build_injections`` (vectorized,
   columnar) must produce exactly the ``Injection`` stream of the
   row-oriented reference builder, and simulating either representation
   on the fast backend must be bit-identical to the reference loop,
   across every topology family and both multicast modes.
2. **Batch vs per-particle** — ``build_injections_batch`` must equal N
   independent ``build_injections`` calls, array for array.
3. **Multi-word masks** — fabrics past 63 routers (where destination
   masks span several uint64 words) must run through the compiled
   kernel bit-identically to the reference backend.

:func:`reference_injection_rows` (and :func:`build_injections_reference`,
its rows as a schedule) is the row-oriented builder the columnar ones
replaced, kept here as their oracle; ``benchmarks/test_large_mesh.py``
times the batch builder against it.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from typing import List, Tuple

import numpy as np
import pytest

from repro.core.mapper import map_snn
from repro.framework.pipeline import run_fault_campaign
from repro.hardware.presets import custom, multichip_board
from repro.noc._ckernel import load_kernel
from repro.noc.fastsim import FastInterconnect
from repro.noc.faults import inject_random_faults
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.packet import Injection
from repro.noc.parallel import parallel_simulate_many
from repro.noc.stats import summarize
from repro.noc.topology import Topology, build_topology, mesh_for
from repro.noc.traffic import (
    ColumnarSchedule,
    build_injections,
    build_injections_batch,
    dense_node_ids,
)
from repro.obs import observe
from repro.snn.graph import SpikeGraph
from repro.utils.validation import check_positive
from tests.framework.test_exploration import global_destinations
from tests.noc.test_traffic import synthetic_injections


def reference_injection_rows(
    graph: SpikeGraph,
    assignment: np.ndarray,
    topology: Topology,
    cycles_per_ms: float = 10.0,
) -> Tuple[List[Injection], int]:
    """Row-oriented reference builder (one ``Injection`` object at a time).

    The original pure-Python implementation, kept as the oracle the
    columnar builders' injection streams are compared with and as the
    baseline the batched builder is benchmarked against.  Returns the
    rows, sorted by ``(cycle, uid)``, and the number of source neurons
    (those with a remote destination).
    """
    check_positive("cycles_per_ms", cycles_per_ms)
    assignment = np.asarray(assignment, dtype=np.int64)
    dests = global_destinations(graph, assignment)

    injections: List[Injection] = []
    uid = 0
    for neuron in sorted(dests):
        crossbars = dests[neuron]
        src_node = topology.attach_points[int(assignment[neuron])]
        dst_nodes = tuple(sorted(topology.attach_points[c] for c in crossbars))
        for t_ms in graph.spike_times[neuron]:
            injections.append(
                Injection(
                    cycle=int(round(t_ms * cycles_per_ms)),
                    src_node=src_node,
                    dst_nodes=dst_nodes,
                    src_neuron=neuron,
                    uid=uid,
                )
            )
            uid += 1
    injections.sort(key=lambda i: (i.cycle, i.uid))
    return injections, len(dests)


def build_injections_reference(
    graph: SpikeGraph,
    assignment: np.ndarray,
    topology: Topology,
    cycles_per_ms: float = 10.0,
) -> ColumnarSchedule:
    """The rows of :func:`reference_injection_rows` as a schedule,
    through :meth:`ColumnarSchedule.from_injections` (which stamps
    ``cycles_per_ms=1``; the rows' own rate goes back on the result)."""
    rows, n_source_neurons = reference_injection_rows(
        graph, assignment, topology, cycles_per_ms
    )
    return dataclasses.replace(
        ColumnarSchedule.from_injections(
            rows, dense_node_ids(topology), n_source_neurons
        ),
        cycles_per_ms=cycles_per_ms,
    )


def record_tuples(stats):
    return [
        (
            r.uid,
            r.src_neuron,
            r.src_node,
            r.dst_node,
            r.injected_cycle,
            r.delivered_cycle,
            r.hops,
        )
        for r in stats.deliveries
    ]


def assert_identical(ref_stats, fast_stats):
    assert record_tuples(ref_stats) == record_tuples(fast_stats)
    assert ref_stats.cycles_run == fast_stats.cycles_run
    assert ref_stats.link_loads == fast_stats.link_loads
    assert ref_stats.peak_buffer_occupancy == fast_stats.peak_buffer_occupancy
    assert ref_stats.n_injected == fast_stats.n_injected
    assert ref_stats.n_expected_deliveries == fast_stats.n_expected_deliveries
    assert ref_stats.undelivered_count == fast_stats.undelivered_count


def random_graph(n_neurons, n_edges, seed, t_max=30.0, max_spikes=5):
    rng = np.random.default_rng(seed)
    spikes = [
        np.sort(rng.uniform(0.0, t_max, int(rng.integers(0, max_spikes + 1))))
        for _ in range(n_neurons)
    ]
    return SpikeGraph.from_edges(
        n_neurons,
        rng.integers(0, n_neurons, n_edges),
        rng.integers(0, n_neurons, n_edges),
        np.ones(n_edges),
        spike_times=spikes,
    )


TOPOLOGIES = [("mesh", 9), ("tree", 8), ("star", 6), ("torus", 9), ("multichip", 8)]


class TestColumnarVsLegacyBuilder:
    @pytest.mark.parametrize("kind,n_crossbars", TOPOLOGIES)
    def test_identical_injection_stream(self, kind, n_crossbars):
        topo = build_topology(kind, n_crossbars)
        graph = random_graph(40, 150, seed=3)
        assignment = np.random.default_rng(7).integers(0, n_crossbars, 40)
        columnar = build_injections(graph, assignment, topo)
        rows, _ = reference_injection_rows(graph, assignment, topo)
        legacy = build_injections_reference(graph, assignment, topo)
        assert columnar.injections == rows == legacy.injections
        assert columnar.n_packets == legacy.n_packets
        assert columnar.n_source_neurons == legacy.n_source_neurons
        assert columnar.n_spike_events == legacy.n_spike_events

    @pytest.mark.parametrize("kind,n_crossbars", TOPOLOGIES)
    @pytest.mark.parametrize("multicast", [True, False])
    def test_bit_identical_simulation(self, kind, n_crossbars, multicast):
        topo = build_topology(kind, n_crossbars)
        graph = random_graph(40, 150, seed=11)
        assignment = np.random.default_rng(5).integers(0, n_crossbars, 40)
        columnar = build_injections(graph, assignment, topo)
        rows, _ = reference_injection_rows(graph, assignment, topo)
        fast = FastInterconnect(
            topo, config=NocConfig(backend="fast", multicast=multicast)
        )
        from_columnar = fast.simulate(columnar)
        from_rows = fast.simulate(rows)
        oracle = Interconnect(
            topo, config=NocConfig(multicast=multicast)
        ).simulate(rows)
        assert_identical(oracle, from_columnar)
        assert_identical(oracle, from_rows)

    def test_mask_bits_follow_sorted_node_ids(self):
        topo = build_topology("tree", 8)  # leaves 0..7, internal above
        graph = random_graph(20, 60, seed=2)
        assignment = np.random.default_rng(1).integers(0, 8, 20)
        schedule = build_injections(graph, assignment, topo)
        assert np.array_equal(schedule.node_ids, dense_node_ids(topo))
        for inj, counts in zip(
            schedule.injections, schedule.destination_counts().tolist()
        ):
            assert len(inj.dst_nodes) == counts
            assert inj.src_node not in inj.dst_nodes

    def test_empty_when_everything_local(self):
        topo = build_topology("star", 4)
        graph = random_graph(10, 30, seed=4)
        schedule = build_injections(graph, np.zeros(10, dtype=int), topo)
        assert schedule.n_packets == 0
        assert schedule.injections == []
        stats = FastInterconnect(
            topo, config=NocConfig(backend="fast")
        ).simulate(schedule)
        assert stats.n_injected == 0 and stats.cycles_run == 0

    def test_wrong_length_rejected(self):
        topo = build_topology("star", 4)
        graph = random_graph(10, 30, seed=4)
        with pytest.raises(ValueError, match="neurons"):
            build_injections(graph, np.zeros(7, dtype=int), topo)

    def test_negative_spike_time_rejected_at_build(self):
        topo = build_topology("star", 4)
        graph = random_graph(10, 30, seed=4)
        spike_times = list(graph.spike_times)
        spike_times[0] = np.array([-1.0, 2.0])
        graph = dataclasses.replace(graph, spike_times=spike_times)
        assignment = np.arange(10) % 4  # neuron 0 has remote targets
        with pytest.raises(ValueError, match="negative injection cycle"):
            build_injections(graph, assignment, topo)

    def _assert_both_backends_reject(self, edit_cycle, message):
        """The schedule invariant is the schedule's: a hand-built one
        that breaks it raises the same error whichever backend it was
        meant for (the reference engine used to reorder an unsorted one
        silently and deliver it)."""
        topo = build_topology("mesh", 4)
        graph = random_graph(12, 40, seed=6)
        assignment = np.random.default_rng(8).integers(0, 4, 12)
        schedule = build_injections(graph, assignment, topo)
        if schedule.n_packets < 2 or schedule.cycle[0] == schedule.cycle[-1]:
            pytest.skip("workload produced too few distinct cycles")

        def dirty():
            return ColumnarSchedule(
                cycle=edit_cycle(schedule.cycle.copy()),
                src_node=schedule.src_node,
                src_neuron=schedule.src_neuron,
                uid=schedule.uid,
                dst_words=schedule.dst_words,
                node_ids=schedule.node_ids,
                cycles_per_ms=schedule.cycles_per_ms,
                n_source_neurons=schedule.n_source_neurons,
                n_spike_events=schedule.n_spike_events,
            )

        for engine in (
            Interconnect(topo),
            FastInterconnect(topo, config=NocConfig(backend="fast")),
        ):
            with pytest.raises(ValueError, match=message):
                engine.simulate(dirty())

    def test_unsorted_hand_built_schedule_rejected(self):
        self._assert_both_backends_reject(lambda c: c[::-1], "sorted ascending")

    def test_negative_cycle_hand_built_schedule_rejected(self):
        def negative_first(cycle):
            cycle[0] = -3
            return cycle

        self._assert_both_backends_reject(
            negative_first, "negative injection cycle -3"
        )

    def test_negative_cluster_rejected(self):
        topo = build_topology("star", 4)
        graph = random_graph(10, 30, seed=4)
        assignment = np.zeros(10, dtype=int)
        assignment[3] = -1  # would silently wrap via negative indexing
        with pytest.raises(ValueError, match="negative cluster"):
            build_injections(graph, assignment, topo)
        # Raised by the reach loop under the builder (the packets
        # objective reads the same loop), in whichever row it sits.
        batch = np.stack([np.zeros(10, dtype=int), assignment])
        with pytest.raises(ValueError, match="negative cluster id -1"):
            build_injections_batch(graph, batch, topo)

    def test_cluster_past_attach_points_rejected(self):
        """Used to die inside numpy with a bare ``IndexError``."""
        topo = build_topology("mesh", 6)
        graph = random_graph(10, 30, seed=4)
        assignment = np.arange(10) % 6
        assignment[0] = 9
        with pytest.raises(
            ValueError, match="cluster 9 but the topology has only 6 crossbar"
        ):
            build_injections(graph, assignment, topo)
        with pytest.raises(ValueError, match="cluster 9 .* only 6 crossbar"):
            build_injections_batch(graph, np.stack([assignment % 6, assignment]), topo)

    def test_hand_built_schedule_sanitized_like_reference(self):
        """Self-destination bits are stripped, empty rows dropped."""
        topo = build_topology("mesh", 4)
        graph = random_graph(12, 40, seed=6)
        assignment = np.random.default_rng(8).integers(0, 4, 12)
        schedule = build_injections(graph, assignment, topo)
        if schedule.n_packets < 2:
            pytest.skip("workload produced too few packets")
        words = schedule.dst_words.copy()
        src_idx = np.searchsorted(schedule.node_ids, schedule.src_node)
        words[0, src_idx[0] >> 6] |= np.uint64(1) << np.uint64(src_idx[0] & 63)
        words[1] = 0  # an empty destination set
        dirty = ColumnarSchedule(
            cycle=schedule.cycle,
            src_node=schedule.src_node,
            src_neuron=schedule.src_neuron,
            uid=schedule.uid,
            dst_words=words,
            node_ids=schedule.node_ids,
            cycles_per_ms=schedule.cycles_per_ms,
            n_source_neurons=schedule.n_source_neurons,
            n_spike_events=schedule.n_spike_events,
        )
        fast = FastInterconnect(topo, config=NocConfig(backend="fast"))
        oracle = Interconnect(topo).simulate(dirty.injections)
        assert_identical(oracle, fast.simulate(dirty))

    def test_foreign_topology_rejected_by_fast_backend(self):
        graph = random_graph(20, 60, seed=9)
        assignment = np.random.default_rng(3).integers(0, 6, 20)
        schedule = build_injections(graph, assignment, build_topology("star", 6))
        other = FastInterconnect(
            build_topology("mesh", 9), config=NocConfig(backend="fast")
        )
        with pytest.raises(ValueError, match="different topology"):
            other.simulate(schedule)


class TestBatchBuilder:
    def test_matches_per_particle_builds(self):
        topo = build_topology("mesh", 16)
        graph = random_graph(60, 300, seed=13)
        swarm = np.random.default_rng(17).integers(0, 16, (8, 60))
        batch = build_injections_batch(graph, swarm, topo)
        assert len(batch) == 8
        for row, schedule in zip(swarm, batch):
            single = build_injections(graph, row, topo)
            assert np.array_equal(schedule.cycle, single.cycle)
            assert np.array_equal(schedule.src_node, single.src_node)
            assert np.array_equal(schedule.src_neuron, single.src_neuron)
            assert np.array_equal(schedule.uid, single.uid)
            assert np.array_equal(schedule.dst_words, single.dst_words)
            rows, n_source_neurons = reference_injection_rows(graph, row, topo)
            assert schedule.injections == rows
            assert schedule.n_source_neurons == n_source_neurons

    def test_single_row_promotes(self):
        topo = build_topology("tree", 4)
        graph = random_graph(16, 40, seed=19)
        row = np.random.default_rng(23).integers(0, 4, 16)
        (schedule,) = build_injections_batch(graph, row, topo)
        assert isinstance(schedule, ColumnarSchedule)
        assert schedule.injections == build_injections(graph, row, topo).injections

    def test_parallel_summaries_match_serial(self):
        topo = build_topology("mesh", 9)
        graph = random_graph(40, 160, seed=29)
        swarm = np.random.default_rng(31).integers(0, 9, (6, 40))
        batch = build_injections_batch(graph, swarm, topo)
        cfg = NocConfig(backend="fast")
        serial_sim = FastInterconnect(topo, config=cfg)
        serial = [summarize(s, topo) for s in serial_sim.simulate_many(batch)]
        # Columnar schedules cross the process boundary as arrays.
        parallel = parallel_simulate_many(topo, batch, config=cfg, workers=2)
        assert parallel == serial


class TestMultiWordFabrics:
    """>63 routers: masks span several words; the mw kernel engages."""

    def _case(self, n_crossbars, seed):
        topo = mesh_for(n_crossbars)
        graph = random_graph(100, 400, seed=seed, max_spikes=3)
        assignment = np.random.default_rng(seed + 1).integers(0, n_crossbars, 100)
        return topo, build_injections(graph, assignment, topo)

    @pytest.mark.parametrize("n_crossbars", [70, 256])
    def test_compiled_multiword_matches_reference(self, n_crossbars):
        topo, schedule = self._case(n_crossbars, seed=37)
        fast = FastInterconnect(topo, config=NocConfig(backend="fast"))
        assert fast._n_words == (topo.n_routers + 63) // 64 > 1
        # Wherever a kernel loads at all it must engage on large
        # fabrics, not silently drop to the reference engine.
        assert (fast._ck is None) == (load_kernel() is None)
        ref = Interconnect(topo).simulate(schedule.injections)
        assert ref.undelivered_count == 0
        assert_identical(ref, fast.simulate(schedule))

    def test_row_oriented_injections_through_mw_kernel(self):
        """Legacy Injection lists also reach the multi-word kernel."""
        topo = mesh_for(70)
        schedule = synthetic_injections([0.2] * 70, topo, 40, fanout=3, seed=5)
        fast = FastInterconnect(topo, config=NocConfig(backend="fast"))
        ref = Interconnect(topo).simulate(schedule.injections)
        assert_identical(ref, fast.simulate(schedule.injections))

    def test_unicast_multiword_matches_reference(self):
        topo, schedule = self._case(70, seed=43)
        cfg = NocConfig(backend="fast", multicast=False)
        fast = FastInterconnect(topo, config=cfg)
        ref = Interconnect(
            topo, config=NocConfig(multicast=False)
        ).simulate(schedule.injections)
        assert_identical(ref, fast.simulate(schedule))


class TestScheduleSurface:
    def test_injections_view_is_cached(self):
        topo = build_topology("mesh", 9)
        graph = random_graph(30, 120, seed=59)
        assignment = np.random.default_rng(61).integers(0, 9, 30)
        schedule = build_injections(graph, assignment, topo)
        assert schedule.injections is schedule.injections


COLUMNS = ("cycle", "src_node", "src_neuron", "uid", "dst_words", "node_ids")


def _mesh_schedule():
    topo = build_topology("mesh", 9)
    graph = random_graph(30, 120, seed=67)
    assignment = np.random.default_rng(71).integers(0, 9, 30)
    schedule = build_injections(graph, assignment, topo)
    assert schedule.n_packets > 1
    return topo, schedule


def _assert_read_only(schedule):
    for name in COLUMNS:
        column = getattr(schedule, name)
        assert not column.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            column[...] = 0


class TestPlannedOnce:
    """A schedule's packet plan is derived once, however many fabrics
    it meets; read-only columns keep it from going stale."""

    @pytest.mark.parametrize("multicast", [True, False])
    def test_one_plan_across_fabrics(self, multicast):
        healthy, schedule = _mesh_schedule()
        fabrics = [healthy] + [
            inject_random_faults(healthy, k, seed=k)[0] for k in (1, 2, 3)
        ]
        cfg = NocConfig(backend="fast", multicast=multicast)
        with observe(tracer=False) as obs:
            results = [
                FastInterconnect(fabric, config=cfg).simulate(schedule)
                for fabric in fabrics
            ]
        assert obs.metrics.counter_value("noc.plans_built") == 1
        for fabric, stats in zip(fabrics, results):
            fresh = dataclasses.replace(schedule)  # same columns, no plan
            assert_identical(
                FastInterconnect(fabric, config=cfg).simulate(fresh), stats
            )
            oracle = Interconnect(fabric, config=NocConfig(multicast=multicast))
            assert_identical(oracle.simulate(schedule.injections), stats)

    def test_builder_columns_refuse_writes(self):
        _, schedule = _mesh_schedule()
        _assert_read_only(schedule)
        (second,) = build_injections_batch(
            random_graph(30, 120, seed=67),
            np.random.default_rng(71).integers(0, 9, (1, 30)),
            build_topology("mesh", 9),
        )
        _assert_read_only(second)

    def test_hand_built_columns_are_copied_once(self):
        _, schedule = _mesh_schedule()
        mine = {name: getattr(schedule, name).copy() for name in COLUMNS}
        hand_built = ColumnarSchedule(
            **mine,
            cycles_per_ms=schedule.cycles_per_ms,
            n_source_neurons=schedule.n_source_neurons,
            n_spike_events=schedule.n_spike_events,
        )
        _assert_read_only(hand_built)
        for name, column in mine.items():
            assert column.flags.writeable
            assert not np.shares_memory(column, getattr(hand_built, name))
        mine["dst_words"][...] = 0  # the caller's arrays stay the caller's
        assert hand_built == schedule
        # Read-only columns are adopted as they are.
        again = dataclasses.replace(hand_built)
        assert all(
            getattr(again, name) is getattr(hand_built, name) for name in COLUMNS
        )

    def test_pickle_round_trips_frozen(self):
        topo, schedule = _mesh_schedule()
        fast = FastInterconnect(topo, config=NocConfig(backend="fast"))
        want = fast.simulate(schedule)  # derives (and caches) a plan
        for restored in (
            pickle.loads(pickle.dumps(schedule)),
            copy.deepcopy(schedule),
        ):
            assert restored == schedule
            assert restored._plans == {} and restored._injections is None
            _assert_read_only(restored)
            assert_identical(want, fast.simulate(restored))

    @pytest.mark.parametrize("board", [False, True], ids=["mesh", "board2x2"])
    def test_campaign_plans_each_schedule_once(self, board):
        """Under ``observe()``: ``noc.plans_built`` equals the campaign
        span's ``schedules_built`` — on the board, draws that lose relay
        routers build (and plan) schedules of their own."""
        graph = random_graph(32, 120, seed=73)
        arch = (
            dataclasses.replace(
                multichip_board(
                    n_chips=4, crossbars_per_chip=4, neurons_per_crossbar=4
                ),
                bridge_latency=3,
            )
            if board
            else custom(9, 4, interconnect="mesh", name="mesh-9x4")
        )
        mappings = {
            method: map_snn(graph, arch, method=method)
            for method in ("pacman", "greedy")
        }
        with observe() as obs:
            run_fault_campaign(
                graph,
                arch,
                mappings=mappings,
                fault_levels=(0, 1, 2),
                draws=4,
                campaign_seed=11,
                noc_config=NocConfig(backend="fast"),
            )
        (span,) = [s for s in obs.tracer.iter_spans() if s.name == "run_fault_campaign"]
        built = span.attributes["schedules_built"]
        assert obs.metrics.counter_value("noc.plans_built") == built
        assert built >= len(mappings)
