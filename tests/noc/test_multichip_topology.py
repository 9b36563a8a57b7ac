"""Multi-chip topology: construction, classification, and equivalence.

The headline acceptance contract: on a 2-chip mesh under deterministic
routing, the fast and reference backends produce bit-identical results
(delivery records, cycle counts, link loads, summaries), exactly as on
single-chip fabrics — bridges are expanded into relay-router chains, so
neither engine needs multi-chip knowledge.
"""

from __future__ import annotations

import warnings

import pytest

from repro.noc.fastsim import FastInterconnect
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.multichip import (
    RELAY_CHIP,
    MultiChipTopology,
    chip_breakdown,
    chip_distance_matrix,
    multichip,
)
from repro.noc.parallel import parallel_simulate_many
from repro.noc.routing import routing_for
from repro.noc.stats import summarize
from repro.noc.topology import build_topology
from tests.noc.test_traffic import synthetic_injections


def routers_of_chip(topo, chip):
    """Router ids owned by ``chip``, ascending."""
    return sorted(n for n, c in topo.chip_of_router.items() if c == chip)


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


class TestBuilder:
    @pytest.mark.parametrize("kind", ["mesh", "tree", "star", "torus"])
    def test_families_compose(self, kind):
        topo = multichip(8, n_chips=2, chip_kind=kind, bridge_latency=2)
        assert isinstance(topo, MultiChipTopology)
        assert topo.kind == "multichip"
        assert topo.n_attach_points == 8
        assert topo.n_chips == 2
        assert topo.n_bridges == 1

    def test_crossbars_split_evenly(self):
        topo = multichip(9, n_chips=4, chip_kind="mesh")
        assert topo.chip_of_crossbar == [0, 0, 0, 1, 1, 2, 2, 3, 3]

    def test_relay_chain_length(self):
        flat = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=1)
        long = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=5)
        # One bridge: latency L adds L - 1 relay routers.
        assert long.n_routers == flat.n_routers + 4
        relays = [n for n, c in long.chip_of_router.items() if c == RELAY_CHIP]
        assert len(relays) == 4
        for relay in relays:
            assert long.graph.degree(relay) == 2
            assert relay not in long.attach_points

    def test_bridge_latency_prices_cross_chip_distance(self):
        for latency in (1, 3):
            topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=latency)
            routing = routing_for(topo)
            cross = min(
                routing.distance(a, b)
                for a in routers_of_chip(topo, 0)
                for b in routers_of_chip(topo, 1)
            )
            assert cross == latency

    def test_grid_of_four_chips_has_four_bridges(self):
        topo = multichip(16, n_chips=4, chip_kind="mesh")
        assert topo.n_bridges == 4  # 2x2 chip grid: 2 horizontal + 2 vertical
        assert len(topo.bridge_entry_links) == 8

    def test_three_chips_skip_wrapped_adjacency(self):
        # Chips 0,1 on row 0 and chip 2 on row 1: bridge 0-1 and 0-2 only;
        # 1-2 are diagonal neighbors and must not be bridged.
        topo = multichip(6, n_chips=3, chip_kind="tree")
        assert topo.n_bridges == 2

    def test_single_chip_has_no_bridges(self):
        topo = multichip(4, n_chips=1, chip_kind="mesh")
        assert topo.n_bridges == 0
        assert topo.bridge_links == frozenset()
        assert set(topo.chip_of_router.values()) == {0}

    def test_positions_offset_per_chip(self):
        topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=2)
        xs0 = [topo.positions[n][0] for n in routers_of_chip(topo, 0)]
        xs1 = [topo.positions[n][0] for n in routers_of_chip(topo, 1)]
        assert max(xs0) < min(xs1)

    def test_unpositioned_chips_have_no_positions(self):
        assert multichip(8, n_chips=2, chip_kind="tree").positions == {}

    def test_more_chips_than_crossbars_rejected(self):
        with pytest.raises(ValueError, match="at least one crossbar"):
            multichip(3, n_chips=4)

    def test_nested_multichip_rejected(self):
        with pytest.raises(ValueError, match="cannot themselves"):
            multichip(8, n_chips=2, chip_kind="multichip")

    def test_zero_bridge_latency_rejected(self):
        with pytest.raises(ValueError):
            multichip(8, n_chips=2, bridge_latency=0)

    def test_factory_kwargs(self):
        topo = build_topology(
            "multichip", 12, n_chips=3, chip_kind="tree", bridge_latency=2
        )
        assert isinstance(topo, MultiChipTopology)
        assert topo.n_chips == 3
        assert topo.chip_kind == "tree"
        assert topo.bridge_latency == 2

    def test_describe_mentions_chips_and_bridges(self):
        text = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=3).describe()
        assert "2 x mesh" in text
        assert "bridges" in text
        assert "latency 3" in text

    def test_chip_distance_matrix(self):
        topo = multichip(16, n_chips=4, chip_kind="mesh", bridge_latency=2)
        dist = chip_distance_matrix(topo)
        assert dist.shape == (4, 4)
        assert (dist.diagonal() == 0).all()
        # Diagonal chip pairs route over two bridges: strictly farther.
        assert dist[0, 3] > dist[0, 1]
        assert dist[1, 2] > dist[1, 3]


class TestLoadClassification:
    def _simulated(self, topo, seed=9):
        schedule = synthetic_injections(
            [0.3] * topo.n_attach_points, topo, 100, fanout=3, seed=seed
        )
        stats = FastInterconnect(topo, config=NocConfig(backend="fast")).simulate(
            schedule.injections
        )
        assert stats.undelivered_count == 0
        return stats

    def test_hops_partition_into_intra_and_inter(self):
        topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=3)
        stats = self._simulated(topo)
        per_chip = topo.per_chip_hops(stats.link_loads)
        inter = topo.inter_chip_hops(stats.link_loads)
        assert sum(per_chip.values()) + inter == stats.total_hops()
        assert inter > 0

    def test_crossings_times_latency_equals_inter_hops(self):
        topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=3)
        stats = self._simulated(topo)
        crossings = topo.bridge_crossings(stats.link_loads)
        assert crossings > 0
        assert topo.inter_chip_hops(stats.link_loads) == crossings * 3

    def test_chip_breakdown_deliveries(self):
        topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=2)
        stats = self._simulated(topo)
        breakdown = chip_breakdown(stats, topo)
        assert (
            breakdown.intra_chip_deliveries + breakdown.inter_chip_deliveries
            == stats.delivered_count
        )
        assert breakdown.total_hops == stats.total_hops()
        # Crossing a bridge can never be faster than staying on-chip here.
        assert breakdown.mean_inter_latency > (
            breakdown.intra_chip_latency_sum / breakdown.intra_chip_deliveries
        )

    def test_breakdown_matches_on_both_backends(self):
        topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=2)
        schedule = synthetic_injections([0.3] * 8, topo, 80, fanout=2, seed=4)
        ref = Interconnect(topo).simulate(schedule.injections)
        fast = FastInterconnect(topo, config=NocConfig(backend="fast")).simulate(
            schedule.injections
        )
        assert chip_breakdown(ref, topo) == chip_breakdown(fast, topo)


class TestBackendEquivalence:
    """Acceptance: bit-identical backends on multi-chip fabrics."""

    @pytest.mark.parametrize("multicast", [True, False])
    @pytest.mark.parametrize("buffer_capacity", [1, 8])
    @pytest.mark.parametrize("bridge_latency", [1, 3])
    def test_two_chip_mesh_bit_identical(
        self, multicast, buffer_capacity, bridge_latency
    ):
        topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=bridge_latency)
        schedule = synthetic_injections([0.4] * 8, topo, 120, fanout=3, seed=13)
        ref = Interconnect(
            topo,
            config=NocConfig(multicast=multicast, buffer_capacity=buffer_capacity),
        ).simulate(schedule.injections)
        fast = FastInterconnect(
            topo,
            config=NocConfig(
                multicast=multicast,
                buffer_capacity=buffer_capacity,
                backend="fast",
            ),
        ).simulate(schedule.injections)
        assert_identical(ref, fast)
        assert summarize(ref, topo) == summarize(fast, topo)

    @pytest.mark.parametrize("kind", ["tree", "star", "torus"])
    def test_other_chip_families_bit_identical(self, kind):
        topo = multichip(8, n_chips=2, chip_kind=kind, bridge_latency=2)
        schedule = synthetic_injections([0.4] * 8, topo, 100, fanout=2, seed=5)
        ref = Interconnect(topo).simulate(schedule.injections)
        fast = FastInterconnect(topo, config=NocConfig(backend="fast")).simulate(
            schedule.injections
        )
        assert_identical(ref, fast)

    def test_four_chip_grid_bit_identical(self):
        topo = multichip(16, n_chips=4, chip_kind="mesh", bridge_latency=2)
        schedule = synthetic_injections([0.3] * 16, topo, 100, fanout=3, seed=21)
        ref = Interconnect(topo).simulate(schedule.injections)
        fast = FastInterconnect(topo, config=NocConfig(backend="fast")).simulate(
            schedule.injections
        )
        assert_identical(ref, fast)


class TestSummaries:
    def test_flat_topology_summary_has_zero_breakdown(self):
        topo = build_topology("mesh", 9)
        schedule = synthetic_injections([0.3] * 9, topo, 60, fanout=2, seed=2)
        stats = FastInterconnect(topo, config=NocConfig(backend="fast")).simulate(
            schedule.injections
        )
        with_topo = summarize(stats, topo)
        without = summarize(stats)
        assert with_topo == without
        assert with_topo.inter_chip_hops == 0
        assert with_topo.bridge_crossings == 0
        assert with_topo.total_hops - with_topo.inter_chip_hops == with_topo.total_hops

    def test_multichip_summary_breakdown(self):
        topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=2)
        schedule = synthetic_injections([0.3] * 8, topo, 80, fanout=3, seed=3)
        stats = FastInterconnect(topo, config=NocConfig(backend="fast")).simulate(
            schedule.injections
        )
        summary = summarize(stats, topo)
        assert summary.inter_chip_hops > 0
        assert summary.bridge_crossings * 2 == summary.inter_chip_hops
        assert summary.inter_chip_delivered > 0
        assert summary.inter_chip_latency_sum / summary.inter_chip_delivered > 0.0
        assert 0 < summary.inter_chip_hops < summary.total_hops

    def test_parallel_summaries_match_serial(self):
        topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=2)
        schedules = [
            synthetic_injections([0.3] * 8, topo, 60, fanout=2, seed=s).injections
            for s in range(6)
        ]
        sim = FastInterconnect(topo, config=NocConfig(backend="fast"))
        serial = [summarize(s, topo) for s in sim.simulate_many(schedules)]
        with warnings.catch_warnings():
            # A sandbox without working process pools falls back to the
            # serial path, which must produce the same summaries anyway.
            warnings.simplefilter("ignore", RuntimeWarning)
            sharded = parallel_simulate_many(topo, schedules, workers=2)
        assert sharded == serial
        assert sharded[0].inter_chip_hops > 0

    def test_topology_pickles_with_chip_metadata(self):
        import pickle

        topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=3)
        clone = pickle.loads(pickle.dumps(topo))
        assert isinstance(clone, MultiChipTopology)
        assert clone.chip_of_router == topo.chip_of_router
        assert clone.bridge_links == topo.bridge_links
        assert clone.bridge_entry_links == topo.bridge_entry_links
