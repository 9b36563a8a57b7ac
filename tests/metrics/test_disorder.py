"""Tests for spike disorder counting."""

from repro.metrics.disorder import disorder_count, disorder_fraction
from repro.noc.stats import DeliveryRecord, NocStats


def _stats(records):
    stats = NocStats()
    for uid, (neuron, dst, injected, delivered) in enumerate(records):
        stats.record(DeliveryRecord(
            uid=uid, src_neuron=neuron, src_node=0, dst_node=dst,
            injected_cycle=injected, delivered_cycle=delivered, hops=1,
        ))
    return stats


class TestDisorderCount:
    def test_in_order_zero(self):
        stats = _stats([(0, 1, 0, 5), (1, 1, 2, 7), (2, 1, 4, 9)])
        assert disorder_count(stats) == 0

    def test_paper_abc_example(self):
        """A injected before B, but B's crossbar wins arbitration: A's
        spike arrives after B's and is disordered."""
        stats = _stats([
            (1, 2, 1, 4),   # B: injected at 1, delivered at 4
            (0, 2, 0, 6),   # A: injected at 0 (earlier), delivered at 6
        ])
        assert disorder_count(stats) == 1

    def test_multiple_overtaken(self):
        stats = _stats([
            (0, 1, 10, 11),
            (1, 1, 0, 12),  # overtaken
            (2, 1, 5, 13),  # overtaken
        ])
        assert disorder_count(stats) == 2

    def test_destinations_independent(self):
        stats = _stats([
            (0, 1, 10, 11),
            (1, 2, 0, 12),  # different destination: no overtaking
        ])
        assert disorder_count(stats) == 0

    def test_equal_injection_not_disordered(self):
        stats = _stats([(0, 1, 5, 6), (1, 1, 5, 7)])
        assert disorder_count(stats) == 0


class TestDisorderFraction:
    def test_fraction(self):
        stats = _stats([
            (0, 1, 10, 11),
            (1, 1, 0, 12),
        ])
        assert disorder_fraction(stats) == 0.5

    def test_empty_zero(self):
        assert disorder_fraction(NocStats()) == 0.0

