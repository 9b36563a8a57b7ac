"""Tests for the cycle-accurate interconnect simulator."""

import pytest

from repro.noc.fastsim import FastInterconnect
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.packet import Injection
from repro.noc.routing import shortest_path_routing
from repro.noc.topology import mesh, star, tree
from tests.noc.test_traffic import synthetic_injections


def _inject(cycle, src, dsts, neuron=0, uid=-1):
    return Injection(cycle=cycle, src_node=src, dst_nodes=tuple(dsts),
                     src_neuron=neuron, uid=uid)


class TestBasicDelivery:
    def test_single_packet_delivered(self):
        topo = tree(4)
        stats = Interconnect(topo).simulate([_inject(0, 0, [3])])
        assert stats.delivered_count == 1
        assert stats.undelivered_count == 0

    def test_latency_at_least_distance(self):
        topo = tree(8)
        routing = shortest_path_routing(topo)
        stats = Interconnect(topo, routing).simulate([_inject(0, 0, [7])])
        rec = stats.deliveries[0]
        assert rec.delivered_cycle - rec.injected_cycle >= routing.distance(0, 7)

    def test_hops_equal_distance_uncongested(self):
        topo = mesh(3)
        stats = Interconnect(topo).simulate([_inject(0, 0, [8])])
        assert stats.deliveries[0].hops == 4  # Manhattan distance

    def test_empty_schedule(self):
        stats = Interconnect(tree(2)).simulate([])
        assert stats.delivered_count == 0
        assert stats.cycles_run == 0

    def test_self_destination_dropped(self):
        stats = Interconnect(tree(4)).simulate([_inject(0, 0, [0])])
        assert stats.n_injected == 0

    def test_delivery_record_fields(self):
        topo = star(3)
        stats = Interconnect(topo).simulate([_inject(5, 0, [2], neuron=42)])
        rec = stats.deliveries[0]
        assert rec.src_neuron == 42
        assert rec.src_node == 0
        assert rec.dst_node == 2
        assert rec.injected_cycle == 5


class TestMulticast:
    def test_multicast_reaches_all(self):
        topo = tree(4)
        stats = Interconnect(topo).simulate([_inject(0, 0, [1, 2, 3])])
        assert stats.delivered_count == 3
        assert {r.dst_node for r in stats.deliveries} == {1, 2, 3}

    def test_multicast_shares_trunk(self):
        """A forked packet uses shared links once (tree: 0->root once)."""
        topo = tree(4, arity=2)  # 0,1 under 4; 2,3 under 5; root 6
        multicast = Interconnect(topo, config=NocConfig(multicast=True))
        m_stats = multicast.simulate([_inject(0, 0, [2, 3])])
        unicast = Interconnect(topo, config=NocConfig(multicast=False))
        u_stats = unicast.simulate([_inject(0, 0, [2, 3])])
        # Unicast sends two packets up the shared trunk; multicast one.
        assert m_stats.total_hops() < u_stats.total_hops()

    def test_unicast_expected_deliveries(self):
        topo = tree(4)
        stats = Interconnect(topo, config=NocConfig(multicast=False)).simulate(
            [_inject(0, 0, [1, 2, 3])]
        )
        assert stats.n_expected_deliveries == 3
        assert stats.delivered_count == 3

    def test_same_uid_on_multicast_copies(self):
        topo = tree(4)
        stats = Interconnect(topo).simulate([_inject(0, 0, [1, 2, 3], uid=77)])
        assert all(r.uid == 77 for r in stats.deliveries)


class TestCongestion:
    def test_burst_queues_at_ejection(self):
        """Many sources to one destination: deliveries serialize."""
        topo = star(5)
        injections = [_inject(0, s, [4 - 1], neuron=s) for s in range(3)]
        # three packets target node 3; hub ejects 1/cycle at the dst router
        stats = Interconnect(topo).simulate(injections)
        times = sorted(r.delivered_cycle for r in stats.deliveries)
        assert len(set(times)) == 3  # strictly serialized

    def test_bounded_buffers_backpressure(self):
        topo = star(8)
        config = NocConfig(buffer_capacity=1)
        injections = [
            _inject(c, s, [7 - 1], neuron=s)
            for c in range(5)
            for s in range(5)
        ]
        stats = Interconnect(topo, config=config).simulate(injections)
        assert stats.undelivered_count == 0  # drains despite tiny buffers
        assert stats.peak_buffer_occupancy <= 1

    def test_latency_grows_with_load(self):
        topo = tree(4)
        light = Interconnect(topo).simulate(
            [_inject(i * 50, 0, [3]) for i in range(5)]
        )
        heavy = Interconnect(topo).simulate(
            [_inject(0, s, [3], neuron=s) for s in range(3) for _ in range(5)]
        )
        assert heavy.max_latency() > light.max_latency()


class TestDrainSafety:
    def test_deadline_reports_undelivered(self):
        topo = tree(2)
        config = NocConfig(max_extra_cycles=1)
        # One hop needs ~2 cycles (leaf -> leaf via root is 2 hops); the
        # 1-cycle drain budget cannot complete it.
        stats = Interconnect(topo, config=config).simulate([_inject(0, 0, [1])])
        assert stats.undelivered_count > 0

    def test_idle_gap_fast_forward(self):
        topo = tree(2)
        stats = Interconnect(topo).simulate(
            [_inject(0, 0, [1]), _inject(1_000_000, 0, [1])]
        )
        assert stats.delivered_count == 2


class TestEngineReuse:
    """A reused engine starts every run empty, like a fresh one."""

    FIELDS = (
        "deliveries", "n_injected", "n_expected_deliveries", "cycles_run",
        "link_loads", "peak_buffer_occupancy",
    )

    def _assert_same(self, a, b):
        for name in self.FIELDS:
            assert getattr(a, name) == getattr(b, name), name

    def test_heavy_then_light_matches_fresh_and_fast(self):
        topo = mesh(9)
        n = topo.n_attach_points
        heavy = synthetic_injections([0.5] * n, topo, 60, fanout=3, seed=1)
        light = synthetic_injections([0.002] * n, topo, 60, fanout=1, seed=2)
        fresh_heavy = Interconnect(topo).simulate(heavy)
        fresh_light = Interconnect(topo).simulate(light)
        # The case is only meaningful if the two loads peak differently.
        assert fresh_heavy.peak_buffer_occupancy > fresh_light.peak_buffer_occupancy

        reused = Interconnect(topo)
        self._assert_same(reused.simulate(heavy), fresh_heavy)
        self._assert_same(reused.simulate(light), fresh_light)

        fast = FastInterconnect(topo)
        self._assert_same(fast.simulate(heavy), fresh_heavy)
        self._assert_same(fast.simulate(light), fresh_light)

    def test_packets_left_by_a_deadline_do_not_replay(self):
        topo = tree(2)
        config = NocConfig(max_extra_cycles=4)
        burst = [_inject(0, 0, [1], neuron=k) for k in range(8)]
        single = [_inject(0, 0, [1], neuron=99)]
        engine = Interconnect(topo, config=config)
        assert engine.simulate(burst).undelivered_count > 0
        self._assert_same(
            engine.simulate(single),
            Interconnect(topo, config=config).simulate(single),
        )


class TestConfigValidation:
    # Non-integer counts and a non-bool multicast flag: the reference
    # engine ran them, the compiled kernel could not take them.
    @pytest.mark.parametrize(
        "kwargs", [dict(buffer_capacity=0),
                   dict(max_extra_cycles=0), dict(buffer_capacity=2.5),
                   dict(max_extra_cycles=1.5),
                   dict(buffer_capacity="8"), dict(max_extra_cycles="200"),
                   dict(multicast="no"), dict(multicast=1),
                   dict(backend="gpu")]
    )
    def test_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            NocConfig(**kwargs)


class TestLinkLoads:
    def test_loads_recorded(self):
        topo = tree(4, arity=2)
        stats = Interconnect(topo).simulate([_inject(0, 0, [3])])
        # Path 0 -> 4 -> 6 -> 5 -> 3: four directed links.
        assert stats.total_hops() == 4
        assert stats.link_loads[(0, 4)] == 1

    def test_hottest_links_sorted(self):
        topo = star(4)
        injections = [_inject(c, 0, [1]) for c in range(10)]
        stats = Interconnect(topo).simulate(injections)
        hottest = stats.hottest_links()
        assert hottest[0][1] >= hottest[1][1]
