"""Tests for the energy model."""

import pytest

from repro.hardware.energy_model import EnergyModel
from repro.noc.stats import DeliveryRecord, NocStats


class TestLocalEnergy:
    def test_scales_with_crossbar_size(self):
        model = EnergyModel(e_local_event_pj=2.0, reference_crossbar_size=128)
        assert model.local_event_energy_pj(128) == 2.0
        assert model.local_event_energy_pj(256) == 4.0
        assert model.local_event_energy_pj(64) == 1.0

    def test_total_local_energy(self):
        model = EnergyModel(e_local_event_pj=1.0, reference_crossbar_size=100)
        assert model.local_energy_pj(1000.0, 100) == 1000.0

    def test_zero_events_zero_energy(self):
        assert EnergyModel().local_energy_pj(0.0, 128) == 0.0

    def test_negative_events_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel().local_energy_pj(-1.0, 128)


class TestGlobalEnergy:
    def _stats(self, hops: int, injected: int, delivered: int) -> NocStats:
        stats = NocStats()
        for i in range(hops):
            stats.count_link(i, i + 1)
        stats.n_injected = injected
        for i in range(delivered):
            stats.record(DeliveryRecord(uid=i, src_neuron=0, src_node=0,
                                        dst_node=1, injected_cycle=0,
                                        delivered_cycle=1, hops=1))
        return stats

    def test_breakdown(self):
        model = EnergyModel(e_router_pj=2.0, e_link_pj=1.0,
                            e_encode_pj=4.0, e_decode_pj=5.0)
        stats = self._stats(hops=10, injected=3, delivered=4)
        assert model.global_energy_pj(stats) == 10 * 3.0 + 3 * 4.0 + 4 * 5.0

    def test_empty_stats_zero(self):
        assert EnergyModel().global_energy_pj(NocStats()) == 0.0

    def test_analytic_estimate_matches_formula(self):
        model = EnergyModel(e_router_pj=2.0, e_link_pj=1.0,
                            e_encode_pj=4.0, e_decode_pj=5.0)
        assert model.estimate_global_energy_pj(
            spike_hops=10, packets=3, deliveries=4
        ) == 10 * 3.0 + 3 * 4.0 + 4 * 5.0


class TestConfigRoundTrip:
    def test_to_from_dict(self):
        model = EnergyModel(e_router_pj=7.0)
        clone = EnergyModel.from_dict(model.to_dict())
        assert clone == model

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            EnergyModel.from_dict({"e_rocket_pj": 1.0})

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(e_router_pj=-1.0)


class TestBridgeEnergy:
    def _multichip_stats(self):
        from repro.noc.fastsim import FastInterconnect
        from repro.noc.interconnect import NocConfig
        from repro.noc.multichip import multichip
        from tests.noc.test_traffic import synthetic_injections

        topo = multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=2)
        schedule = synthetic_injections([0.3] * 8, topo, 60, fanout=2, seed=6)
        stats = FastInterconnect(
            topo, config=NocConfig(backend="fast")
        ).simulate(schedule.injections)
        return topo, stats

    def test_bridge_term_charged_per_crossing(self):
        topo, stats = self._multichip_stats()
        model = EnergyModel(e_bridge_pj=50.0)
        crossings = topo.bridge_crossings(stats.link_loads)
        assert crossings > 0
        assert model.global_energy_pj(stats, topo) == pytest.approx(
            model.global_energy_pj(stats) + crossings * 50.0
        )

    def test_flat_topology_adds_nothing(self):
        from repro.noc.topology import build_topology

        topo, stats = self._multichip_stats()
        flat = build_topology("mesh", 4)
        model = EnergyModel(e_bridge_pj=50.0)
        assert model.global_energy_pj(stats, flat) == model.global_energy_pj(stats)

    def test_estimate_includes_bridge_crossings(self):
        model = EnergyModel(e_router_pj=1.0, e_link_pj=1.0, e_encode_pj=0.0,
                            e_decode_pj=0.0, e_bridge_pj=10.0)
        base = model.estimate_global_energy_pj(5.0, 2.0, 2.0)
        with_bridges = model.estimate_global_energy_pj(
            5.0, 2.0, 2.0, bridge_crossings=3.0
        )
        assert with_bridges == base + 30.0

    def test_negative_bridge_energy_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(e_bridge_pj=-1.0)

    def test_round_trip_carries_bridge_energy(self):
        model = EnergyModel(e_bridge_pj=77.0)
        assert EnergyModel.from_dict(model.to_dict()).e_bridge_pj == 77.0
