"""Tests for congestion analysis."""

import numpy as np
import pytest

from repro.metrics.congestion import (
    congestion_report,
    gini_coefficient,
)
from repro.noc.interconnect import Interconnect
from repro.noc.packet import Injection
from repro.noc.stats import NocStats
from repro.noc.topology import star, tree


class TestGini:
    def test_uniform_zero(self):
        assert gini_coefficient(np.array([5.0, 5.0, 5.0])) == pytest.approx(0.0)

    def test_concentrated_high(self):
        g = gini_coefficient(np.array([0.0, 0.0, 0.0, 100.0]))
        assert g > 0.7

    def test_empty_zero(self):
        assert gini_coefficient(np.array([])) == 0.0

    def test_all_zero(self):
        assert gini_coefficient(np.zeros(5)) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini_coefficient(np.array([-1.0, 2.0]))

    def test_negative_rejected_when_loads_sum_to_zero(self):
        with pytest.raises(ValueError, match="non-negative"):
            gini_coefficient(np.array([-1.0, 1.0]))

    def test_one_hot_is_one_minus_one_over_n(self):
        g = gini_coefficient(np.array([0.0, 0.0, 0.0, 100.0]))
        assert g == pytest.approx(0.75)

    def test_scale_and_order_invariant(self):
        loads = np.array([4.0, 1.0, 7.0, 2.0])
        g = gini_coefficient(loads)
        assert gini_coefficient(10.0 * loads) == pytest.approx(g)
        assert gini_coefficient(loads[::-1]) == pytest.approx(g)

    def test_monotone_in_concentration(self):
        even = gini_coefficient(np.array([3.0, 3.0, 3.0, 3.0]))
        skew = gini_coefficient(np.array([1.0, 1.0, 1.0, 9.0]))
        assert skew > even


class TestCongestionReport:
    def _simulate(self, topo, injections):
        return Interconnect(topo).simulate(injections)

    def test_hotspot_through_hub(self):
        """Star traffic funnels through the hub: high load concentration."""
        topo = star(5)
        injections = [
            Injection(cycle=c, src_node=s, dst_nodes=(3,), src_neuron=s,
                      uid=c * 10 + s)
            for c in range(10) for s in range(3)
        ]
        stats = self._simulate(topo, injections)
        report = congestion_report(stats, topo)
        assert report.max_link_load >= 10
        assert report.n_links_used <= report.n_links_total
        # Hub->destination link is the hottest.
        hottest_link, _ = report.hotspots[0]
        assert hottest_link[1] == 3 or hottest_link[0] == 5

    def test_empty_stats(self):
        report = congestion_report(NocStats(), tree(4))
        assert report.max_link_load == 0
        assert report.gini == 0.0

    def test_balanced_vs_hotspot_gini(self):
        topo = star(5)
        hotspot = [
            Injection(cycle=c, src_node=0, dst_nodes=(1,), src_neuron=0,
                      uid=c)
            for c in range(12)
        ]
        balanced = [
            Injection(cycle=c, src_node=s, dst_nodes=((s + 1) % 4,),
                      src_neuron=s, uid=c * 10 + s)
            for c in range(3) for s in range(4)
        ]
        g_hot = congestion_report(self._simulate(topo, hotspot), topo).gini
        topo2 = star(5)
        g_bal = congestion_report(
            Interconnect(topo2).simulate(balanced), topo2
        ).gini
        assert g_hot > g_bal

