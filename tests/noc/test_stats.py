"""Tests for NoC statistics containers."""

from repro.noc.stats import DeliveryRecord, NocStats


def _rec(uid=0, neuron=0, src=0, dst=1, injected=0, delivered=5, hops=2):
    return DeliveryRecord(uid=uid, src_neuron=neuron, src_node=src,
                          dst_node=dst, injected_cycle=injected,
                          delivered_cycle=delivered, hops=hops)


class TestNocStats:
    def test_latencies(self):
        stats = NocStats()
        stats.record(_rec(injected=0, delivered=5))
        stats.record(_rec(uid=1, injected=2, delivered=12))
        assert list(stats.latencies()) == [5, 10]
        assert stats.max_latency() == 10
        assert stats.mean_latency() == 7.5

    def test_empty_stats_zero(self):
        stats = NocStats()
        assert stats.max_latency() == 0
        assert stats.mean_latency() == 0.0
        assert stats.throughput_aer_per_ms(10.0) == 0.0

    def test_throughput(self):
        stats = NocStats()
        stats.cycles_run = 100
        for i in range(10):
            stats.record(_rec(uid=i))
        # 100 cycles at 10 cycles/ms = 10 ms; 10 packets / 10 ms = 1.
        assert stats.throughput_aer_per_ms(10.0) == 1.0

    def test_link_counting(self):
        stats = NocStats()
        stats.count_link(0, 1)
        stats.count_link(0, 1)
        stats.count_link(1, 2)
        assert stats.link_loads[(0, 1)] == 2
        assert stats.total_hops() == 3

    def test_undelivered_accounting(self):
        stats = NocStats()
        stats.n_expected_deliveries = 5
        stats.record(_rec())
        assert stats.undelivered_count == 4

    def test_describe_contains_counts(self):
        stats = NocStats()
        stats.n_expected_deliveries = 1
        stats.record(_rec())
        assert "1/1" in stats.describe()
