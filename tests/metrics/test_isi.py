"""Tests for ISI distortion."""

import pytest

from repro.metrics.isi import isi_distortion_summary
from repro.noc.stats import DeliveryRecord, NocStats


def _stats(flow_records):
    """flow_records: list of (neuron, dst, injected, delivered)."""
    stats = NocStats()
    for uid, (neuron, dst, injected, delivered) in enumerate(flow_records):
        stats.record(DeliveryRecord(
            uid=uid, src_neuron=neuron, src_node=0, dst_node=dst,
            injected_cycle=injected, delivered_cycle=delivered, hops=1,
        ))
    return stats


class TestPerFlow:
    def test_constant_delay_zero_distortion(self):
        stats = _stats([(0, 1, 0, 3), (0, 1, 10, 13), (0, 1, 20, 23)])
        assert isi_distortion_summary(stats) == (0.0, 0.0)

    def test_jitter_measured(self):
        # ISIs at source: 10, 10.  At destination: 13, 7 -> max diff 3.
        stats = _stats([(0, 1, 0, 2), (0, 1, 10, 15), (0, 1, 20, 22)])
        assert isi_distortion_summary(stats) == (3.0, 3.0)

    def test_single_spike_flow_skipped(self):
        stats = _stats([(0, 1, 0, 5)])
        assert isi_distortion_summary(stats) == (0.0, 0.0)

    def test_flows_separated_by_neuron_and_dst(self):
        stats = _stats([
            (0, 1, 0, 1), (0, 1, 10, 11),
            (1, 1, 0, 9), (1, 1, 10, 12),
            (0, 2, 0, 4), (0, 2, 10, 20),
        ])
        # Per flow: (0, 1) -> 0, (1, 1) -> 7, (0, 2) -> 6.
        mean, worst = isi_distortion_summary(stats)
        assert mean == pytest.approx(13.0 / 3.0)
        assert worst == 7.0


class TestAggregates:
    def test_mean_and_worst(self):
        stats = _stats([
            (0, 1, 0, 1), (0, 1, 10, 11),           # distortion 0
            (1, 2, 0, 0), (1, 2, 10, 14),           # distortion 4
        ])
        assert isi_distortion_summary(stats) == (2.0, 4.0)

    def test_empty_zero(self):
        assert isi_distortion_summary(NocStats()) == (0.0, 0.0)
