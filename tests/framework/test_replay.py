"""Tests for post-interconnect spike replay."""

import numpy as np
import pytest

from repro.framework.pipeline import run_pipeline
from repro.framework.replay import (
    delivered_spike_trains,
    perceived_spike_trains,
    pooled_arrivals_at,
    timing_error_summary,
)


@pytest.fixture
def pipeline_result(tiny_graph, two_cluster_arch):
    return run_pipeline(tiny_graph, two_cluster_arch, method="pacman")


class TestDeliveredTrains:
    def test_only_global_flows(self, pipeline_result):
        flows = delivered_spike_trains(pipeline_result)
        assignment = pipeline_result.mapping.assignment
        for (neuron, crossbar) in flows:
            assert assignment[neuron] != crossbar  # crossed the NoC

    def test_counts_match_noc(self, pipeline_result):
        flows = delivered_spike_trains(pipeline_result)
        total = sum(t.size for t in flows.values())
        assert total == pipeline_result.noc_stats.delivered_count

    def test_times_sorted_and_after_injection(self, pipeline_result):
        for times in delivered_spike_trains(pipeline_result).values():
            assert (np.diff(times) >= 0).all()
            assert (times >= 0).all()


class TestPerceivedTrains:
    def test_local_flows_keep_original_timing(self, pipeline_result):
        graph = pipeline_result.graph
        assignment = pipeline_result.mapping.assignment
        trains = perceived_spike_trains(pipeline_result)
        # Neuron 0's targets are local under the pacman split.
        own = int(assignment[0])
        assert np.array_equal(trains[(0, own)], graph.spike_times[0])

    def test_global_flows_delayed(self, pipeline_result):
        graph = pipeline_result.graph
        assignment = pipeline_result.mapping.assignment
        trains = perceived_spike_trains(pipeline_result)
        # The bridge neuron 3 -> remote crossbar flow exists and every
        # arrival is strictly later than the corresponding send.
        remote = 1 - int(assignment[3])
        delivered = trains[(3, remote)]
        source = graph.spike_times[3][: delivered.size]
        assert (delivered > source).all()


class TestPooledArrivals:
    def test_pooled_sorted(self, pipeline_result):
        pooled = pooled_arrivals_at(pipeline_result, 0)
        assert (np.diff(pooled) >= 0).all()
        assert pooled.size > 0

    def test_absent_crossbar_empty(self, pipeline_result):
        assert pooled_arrivals_at(pipeline_result, 99).size == 0


class TestTimingErrorSummary:
    def test_summary_fields(self, pipeline_result):
        summary = timing_error_summary(pipeline_result)
        assert summary["max_shift_ms"] >= summary["mean_shift_ms"] >= 0
        assert summary["n_flows"] >= 1

    def test_pinned_summary(self, pipeline_result):
        assert timing_error_summary(pipeline_result) == {
            "mean_shift_ms": 0.2000000000000015,
            "max_shift_ms": 0.20000000000000284,
            "n_flows": 1,
        }

    def test_pinned_summary_on_a_table1_app(self):
        from repro.apps.registry import build_application
        from repro.hardware.presets import custom
        graph = build_application("hello_world", seed=1)
        arch = custom(8, 16, interconnect="mesh")
        result = run_pipeline(graph, arch, method="greedy", seed=1)
        assert timing_error_summary(result) == {
            "mean_shift_ms": 0.2607393244104535,
            "max_shift_ms": 1.0,
            "n_flows": 110,
        }

    def test_no_global_traffic_zero(self, tiny_graph):
        from repro.hardware.presets import custom
        arch = custom(n_crossbars=1, neurons_per_crossbar=8)
        result = run_pipeline(tiny_graph, arch, method="pacman")
        summary = timing_error_summary(result)
        assert summary == {
            "mean_shift_ms": 0.0, "max_shift_ms": 0.0, "n_flows": 0,
        }
