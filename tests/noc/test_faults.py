"""Tests for fault injection, degraded-fabric rerouting and accounting."""

import pytest

from repro.metrics.report import build_report
from repro.noc.fastsim import FastInterconnect
from repro.noc.faults import (
    FaultSet,
    FaultTimeline,
    FaultWindow,
    _survivable,
    apply_faults,
    bridge_chains,
    degrade_topology,
    inject_random_faults,
)
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.multichip import (
    RELAY_CHIP,
    MultiChipTopology,
    chip_breakdown,
    multichip,
)
from repro.noc.packet import Injection
from repro.noc.routing import routing_for
from repro.noc.stats import summarize
from repro.noc.topology import mesh, mesh_for, torus, tree
from tests.noc.test_traffic import synthetic_injections


class TestDegradeTopology:
    def test_removes_link(self):
        topo = mesh(3)
        degraded = degrade_topology(topo, [(0, 1)])
        assert not degraded.graph.has_edge(0, 1)
        assert "degraded" in degraded.kind

    def test_original_untouched(self):
        topo = mesh(3)
        degrade_topology(topo, [(0, 1)])
        assert topo.graph.has_edge(0, 1)

    def test_missing_link_rejected(self):
        with pytest.raises(ValueError, match="does not exist"):
            degrade_topology(mesh(3), [(0, 8)])

    def test_disconnecting_fault_rejected(self):
        topo = tree(4)  # every tree link is a bridge
        link = next(iter(topo.graph.edges))
        with pytest.raises(ValueError, match="disconnects"):
            degrade_topology(topo, [link])


def survivable_links(topology):
    """Links whose single failure leaves the fabric connected: the pool
    ``inject_random_faults`` draws from (a failed bridge segment takes
    its whole bridge down, so a 2-chip board's bridge is never in it)."""
    return _survivable(topology.graph, bridge_chains(topology))


class TestSurvivableLinks:
    def test_tree_has_none(self):
        assert survivable_links(tree(8)) == []

    def test_mesh_has_some(self):
        assert len(survivable_links(mesh(3))) > 0

    def test_torus_all_survivable(self):
        topo = torus(3)
        assert len(survivable_links(topo)) == topo.graph.number_of_edges()


class TestInjectRandomFaults:
    def test_requested_count(self):
        degraded, chosen = inject_random_faults(mesh(4), 3, seed=0)
        assert len(chosen) == 3
        assert (degraded.graph.number_of_edges()
                == mesh(4).graph.number_of_edges() - 3)

    def test_deterministic(self):
        _, a = inject_random_faults(mesh(4), 2, seed=5)
        _, b = inject_random_faults(mesh(4), 2, seed=5)
        assert a == b

    def test_tree_cannot_absorb_faults(self):
        with pytest.raises(ValueError, match="cannot survive"):
            inject_random_faults(tree(4), 1, seed=0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            inject_random_faults(mesh(3), -1)


class TestReroutedTraffic:
    def test_traffic_survives_fault(self):
        """All packets still deliver after a fault, with >= latency."""
        topo = mesh(3)
        injections = [
            Injection(cycle=c, src_node=0, dst_nodes=(8,), src_neuron=0,
                      uid=c)
            for c in range(10)
        ]
        healthy = Interconnect(topo).simulate(injections)

        degraded, _ = inject_random_faults(topo, 2, seed=1)
        # Shortest-path routing adapts to the degraded graph.
        rerouted = Interconnect(
            degraded, routing=routing_for_degraded(degraded)
        ).simulate(injections)
        assert rerouted.undelivered_count == 0
        assert rerouted.mean_latency() >= healthy.mean_latency()


def routing_for_degraded(topology):
    """Degraded meshes lose grid regularity: force shortest-path routing."""
    from repro.noc.routing import shortest_path_routing
    return shortest_path_routing(topology)


class TestFaultSet:
    def test_links_normalized_undirected(self):
        fs = FaultSet(dead_links=[(3, 1), (1, 3), (0, 2)])
        assert fs.dead_links == frozenset({(1, 3), (0, 2)})

    def test_empty_is_falsy(self):
        assert not FaultSet()
        assert FaultSet(dead_routers=[5])

    def test_counts_and_describe(self):
        fs = FaultSet(
            dead_links=[(0, 1)], dead_routers=[7], faulty_crossbars=[2, 3]
        )
        assert fs.n_faults == 4
        assert "1 dead links" in fs.describe()
        assert "2 faulty crossbars" in fs.describe()

    def test_nonpositive_bridge_degradation_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FaultSet(degraded_bridges={0: 0})


class TestApplyFaultsSingleChip:
    def test_dead_router_removed_with_links(self):
        topo = mesh(3)
        # Router 4 (the center) hosts a crossbar, so drop an attach
        # point first to free it up.
        topo.attach_points.remove(4)
        degraded = apply_faults(topo, FaultSet(dead_routers=[4]))
        assert 4 not in degraded.graph
        assert degraded.graph.number_of_edges() == topo.graph.number_of_edges() - 4
        assert 4 not in degraded.positions

    def test_dead_router_hosting_crossbar_rejected(self):
        with pytest.raises(ValueError, match="hosts a crossbar"):
            apply_faults(mesh(3), FaultSet(dead_routers=[4]))

    def test_missing_router_rejected(self):
        topo = mesh(3)
        with pytest.raises(ValueError, match="does not exist"):
            apply_faults(topo, FaultSet(dead_routers=[99]))

    def test_faulty_crossbar_leaves_graph_untouched(self):
        topo = mesh(3)
        degraded = apply_faults(topo, FaultSet(faulty_crossbars=[0, 8]))
        assert degraded.graph.number_of_edges() == topo.graph.number_of_edges()
        assert degraded.attach_points == topo.attach_points

    def test_faulty_crossbar_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_faults(mesh(3), FaultSet(faulty_crossbars=[9]))

    def test_degraded_bridge_needs_multichip(self):
        with pytest.raises(ValueError, match="multichip"):
            apply_faults(mesh(3), FaultSet(degraded_bridges={0: 1}))

    def test_disconnecting_router_rejected(self):
        topo = tree(4)
        hub = max(topo.graph.nodes)  # the root switches all traffic
        with pytest.raises(ValueError, match="disconnects"):
            apply_faults(topo, FaultSet(dead_routers=[hub]))

    def test_kind_suffix_not_stacked(self):
        once = degrade_topology(mesh(3), [(0, 1)])
        twice = degrade_topology(once, [(1, 2)])
        assert twice.kind == "mesh-degraded"


def _board(n_chips=4, bridge_latency=2):
    """2x2 chip grid of 2x2-mesh chips: the four bridges form a cycle
    (any one may die) and each chip has intra-mesh link redundancy."""
    return multichip(
        16, n_chips=n_chips, chip_kind="mesh", bridge_latency=bridge_latency
    )


class TestMultichipDegradation:
    """Regression: degradation must not drop the MultiChipTopology class."""

    def test_subclass_and_bookkeeping_survive(self):
        board = _board()
        chain = bridge_chains(board)[0]
        degraded = degrade_topology(board, [tuple(chain[:2])])
        assert isinstance(degraded, MultiChipTopology)
        assert degraded.kind == "multichip-degraded"
        assert degraded.n_chips == board.n_chips
        assert degraded.chip_of_crossbar == board.chip_of_crossbar
        assert degraded.bridge_latency == board.bridge_latency
        # Every surviving router keeps its chip assignment.
        assert all(n in degraded.chip_of_router for n in degraded.graph.nodes)

    def test_bridge_segment_kills_whole_bridge(self):
        board = _board(bridge_latency=3)
        chain = bridge_chains(board)[0]
        degraded = degrade_topology(board, [(chain[1], chain[2])])
        assert degraded.n_bridges == board.n_bridges - 1
        # All relay routers of the dead chain are gone.
        for relay in chain[1:-1]:
            assert relay not in degraded.graph
        # The other bridges are intact.
        assert len(degraded.bridge_entry_links) == 2 * degraded.n_bridges

    def test_dead_relay_router_kills_whole_bridge(self):
        board = _board(bridge_latency=3)
        chain = bridge_chains(board)[0]
        relay = chain[1]
        assert board.chip_of_router[relay] == RELAY_CHIP
        degraded = apply_faults(board, FaultSet(dead_routers=[relay]))
        assert degraded.n_bridges == board.n_bridges - 1
        for node in chain[1:-1]:
            assert node not in degraded.graph

    def test_degraded_bridge_lengthens_crossing(self):
        board = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=2)
        chain = bridge_chains(board)[0]
        slow = apply_faults(board, FaultSet(degraded_bridges={0: 3}))
        assert isinstance(slow, MultiChipTopology)
        assert slow.n_bridges == 1
        routing = routing_for(slow)
        gateways = (chain[0], chain[-1])
        assert routing.distance(*gateways) == board.bridge_latency + 3
        # Original routers keep their ids; only fresh relays are added.
        assert set(board.graph.nodes) <= set(slow.graph.nodes)

    def test_degrading_dead_bridge_rejected(self):
        board = _board()
        chain = bridge_chains(board)[0]
        faults = FaultSet(
            dead_links=[tuple(chain[:2])], degraded_bridges={0: 1}
        )
        with pytest.raises(ValueError, match="dead"):
            apply_faults(board, faults)

    def test_chip_breakdown_survives_degradation(self):
        """chip_breakdown / bridge accounting still work after faults."""
        board = _board(bridge_latency=2)
        chain = bridge_chains(board)[0]
        degraded = degrade_topology(board, [tuple(chain[:2])])
        schedule = synthetic_injections(
            [0.4] * degraded.n_attach_points, degraded, 60, fanout=3, seed=4
        )
        stats = Interconnect(degraded).simulate(schedule.injections)
        assert stats.undelivered_count == 0
        breakdown = chip_breakdown(stats, degraded)
        assert breakdown.n_chips == 4
        assert breakdown.inter_chip_deliveries > 0
        # Relay chains make every crossing cost bridge_latency hops.
        assert breakdown.inter_chip_hops == (
            breakdown.bridge_crossings * degraded.bridge_latency
        )
        summary = summarize(stats, degraded)
        assert summary.inter_chip_hops == breakdown.inter_chip_hops
        assert summary.bridge_crossings == breakdown.bridge_crossings

    def test_report_keeps_chip_rows_on_degraded_fabric(self):
        """build_report's isinstance check must see degraded multichip."""
        from repro.core.mapper import map_snn
        from repro.hardware.presets import custom
        from repro.noc.traffic import build_injections
        from repro.apps import build_application

        graph = build_application("hello_world", seed=1)
        arch = custom(
            8,
            max(16, -(-graph.n_neurons // 6)),
            interconnect="mesh",
            name="board",
            n_chips=4,
            bridge_latency=2,
        )
        board = arch.build_topology()
        chain = bridge_chains(board)[0]
        degraded = degrade_topology(board, [tuple(chain[:2])])
        mapping = map_snn(graph, arch, method="pacman")
        schedule = build_injections(
            graph, mapping.assignment, degraded,
            cycles_per_ms=arch.cycles_per_ms,
        )
        stats = Interconnect(degraded).simulate(schedule.injections)
        report = build_report("hw", mapping, stats, arch, degraded)
        assert report.n_chips == 4
        if report.bridge_crossings:
            assert report.inter_chip_hops == (
                report.bridge_crossings * degraded.bridge_latency
            )
            # The bridge energy term is charged per crossing.
            assert report.global_energy_pj == pytest.approx(
                arch.energy.global_energy_pj(stats)
                + report.bridge_crossings * arch.energy.e_bridge_pj
            )

    def test_survivable_links_exclude_bridge_cut_sets(self):
        """A 2-chip board's only bridge must never be offered as a fault."""
        board = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=2)
        offered = set(survivable_links(board))
        assert offered  # intra-chip mesh redundancy exists
        assert not (offered & set(board.bridge_links))

    def test_random_faults_keep_subclass(self):
        board = _board()
        degraded, chosen = inject_random_faults(board, 2, seed=11)
        assert isinstance(degraded, MultiChipTopology)
        assert len(chosen) == 2


def _record_tuples(stats):
    return [
        (r.uid, r.src_neuron, r.src_node, r.dst_node, r.injected_cycle,
         r.delivered_cycle, r.hops)
        for r in stats.deliveries
    ]


class TestCrossBackendDegraded:
    """Degraded fabrics keep the bit-identical backend contract."""

    def _topologies(self):
        single = mesh_for(9)
        single_deg, _ = inject_random_faults(single, 2, seed=1)
        board = _board(bridge_latency=2)
        chain = bridge_chains(board)[0]
        board_deg = degrade_topology(board, [tuple(chain[:2])])
        return {
            "single-healthy": single,
            "single-degraded": single_deg,
            "multichip-healthy": board,
            "multichip-degraded": board_deg,
        }

    @pytest.mark.parametrize(
        "key",
        [
            "single-healthy",
            "single-degraded",
            "multichip-healthy",
            "multichip-degraded",
        ],
    )
    def test_matrix_bit_identical(self, key):
        topo = self._topologies()[key]
        schedule = synthetic_injections(
            [0.4] * topo.n_attach_points, topo, 100, fanout=3, seed=9
        )
        ref = Interconnect(topo).simulate(schedule.injections)
        fast = FastInterconnect(
            topo, config=NocConfig(backend="fast")
        ).simulate(schedule.injections)
        assert _record_tuples(ref) == _record_tuples(fast)
        assert ref.link_loads == fast.link_loads
        assert summarize(ref, topo) == summarize(fast, topo)

    def test_default_routing_detours_automatically(self):
        """No caller-side routing override is needed for degraded kinds."""
        topo, _ = inject_random_faults(mesh(3), 2, seed=1)
        injections = [
            Injection(cycle=c, src_node=0, dst_nodes=(8,), src_neuron=0,
                      uid=c)
            for c in range(10)
        ]
        stats = Interconnect(topo).simulate(injections)
        assert stats.undelivered_count == 0


class TestFaultSetUnion:
    def test_union_merges_all_fields(self):
        a = FaultSet(dead_links=[(0, 1)], dead_routers=[3],
                     faulty_crossbars=[0])
        b = FaultSet(dead_links=[(1, 2)], faulty_crossbars=[5])
        u = a | b
        assert u.dead_links == frozenset({(0, 1), (1, 2)})
        assert u.dead_routers == frozenset({3})
        assert u.faulty_crossbars == frozenset({0, 5})

    def test_union_keeps_worst_bridge_degradation(self):
        a = FaultSet(degraded_bridges={0: 2, 1: 1})
        b = FaultSet(degraded_bridges={0: 1, 2: 4})
        assert (a | b).degraded_bridges == {0: 2, 1: 1, 2: 4}

    def test_union_with_non_faultset_rejected(self):
        with pytest.raises(TypeError):
            FaultSet() | 3


class TestFaultWindow:
    def test_half_open_interval(self):
        w = FaultWindow(FaultSet(dead_routers=[1]), arrive=2.0, clear=5.0)
        assert not w.active_at(1.9)
        assert w.active_at(2.0)
        assert w.active_at(4.9)
        assert not w.active_at(5.0)

    def test_permanent_window_never_clears(self):
        w = FaultWindow(FaultSet(dead_routers=[1]), arrive=3.0)
        assert w.active_at(1e9)
        assert not w.active_at(2.9)

    def test_clear_before_arrive_rejected(self):
        with pytest.raises(ValueError, match="clear after"):
            FaultWindow(FaultSet(), arrive=5.0, clear=5.0)

    def test_default_window_is_permanent_from_zero(self):
        w = FaultWindow(FaultSet(faulty_crossbars=[0]))
        assert w.arrive == 0.0 and w.clear is None
        assert w.active_at(0.0)
        assert not w.active_at(-0.5)


class TestFaultTimeline:
    def _timeline(self):
        return FaultTimeline([
            FaultWindow(FaultSet(dead_links=[(0, 1)]), arrive=0.0,
                        clear=10.0),
            FaultWindow(FaultSet(faulty_crossbars=[2]), arrive=5.0,
                        clear=15.0),
            FaultWindow(FaultSet(dead_routers=[4]), arrive=20.0),
        ])

    def test_active_union_and_edges(self):
        tl = self._timeline()
        assert tl.edges() == [0.0, 5.0, 10.0, 15.0, 20.0]
        at7 = tl.active_at(7.0)
        assert at7.dead_links == frozenset({(0, 1)})
        assert at7.faulty_crossbars == frozenset({2})
        assert not tl.active_at(16.0)
        assert tl.crossbars_at(7.0) == frozenset({2})
        assert tl.crossbars_at(12.0) == frozenset({2})

    def test_describe(self):
        text = self._timeline().describe()
        assert "3 windows" in text
        assert "1 permanent" in text
        assert "5 edges" in text

    def test_crossbars_outside_every_window(self):
        tl = self._timeline()
        assert tl.crossbars_at(4.9) == frozenset()
        assert tl.crossbars_at(15.0) == frozenset()  # half-open: cleared
        assert tl.crossbars_at(25.0) == frozenset()  # only a dead router

    def test_empty_timeline_is_healthy(self):
        tl = FaultTimeline()
        assert tl.edges() == []
        assert not tl.active_at(0.0)
        assert tl.crossbars_at(0.0) == frozenset()
        assert "0 windows (0 permanent), 0 edges" in tl.describe()

    def test_windows_coerced_to_tuple(self):
        tl = FaultTimeline([FaultWindow(FaultSet(dead_routers=[0]))])
        assert isinstance(tl.windows, tuple)


class TestTransientCrossBackend:
    """Arrive -> clear -> re-admit must stay bit-identical everywhere."""

    def _phase_stats(self, topo, schedule):
        ref = Interconnect(topo).simulate(schedule.injections)
        fast = FastInterconnect(topo, config=NocConfig(backend="fast"))
        return {"reference": ref, "fast": fast.simulate(schedule.injections)}

    @pytest.mark.parametrize("board", [False, True])
    def test_transient_cycle_bit_identical(self, board):
        if board:
            topo = _board(bridge_latency=2)
            chain = bridge_chains(topo)[0]
            faults = FaultSet(dead_links=[tuple(chain[:2])])
        else:
            topo = mesh_for(9)
            link = survivable_links(topo)[0]
            faults = FaultSet(dead_links=[link])
        tl = FaultTimeline([FaultWindow(faults, arrive=1.0, clear=2.0)])
        schedule = synthetic_injections(
            [0.4] * topo.n_attach_points, topo, 80, fanout=3, seed=7
        )
        # Phase snapshots: healthy, degraded, healed.
        assert not tl.active_at(0.0) and not tl.active_at(3.0)
        degraded = apply_faults(topo, tl.active_at(1.5))
        phases = {0.0: topo, 1.5: degraded, 3.0: topo}
        baseline = {}
        for time, phase_topo in phases.items():
            engines = self._phase_stats(phase_topo, schedule)
            records = {k: _record_tuples(s) for k, s in engines.items()}
            first = next(iter(records.values()))
            assert all(r == first for r in records.values()), (
                f"backends disagree at t={time}"
            )
            baseline[time] = first
        # The healed fabric reproduces the pre-fault packet records.
        assert baseline[3.0] == baseline[0.0]
        # The degraded phase detours: records differ from healthy.
        assert baseline[1.5] != baseline[0.0]
