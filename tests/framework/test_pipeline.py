"""Tests for the end-to-end pipeline (paper Fig. 4)."""

import pytest

from repro.core.pso import PSOConfig
from repro.framework.pipeline import run_pipeline
from repro.noc.interconnect import NocConfig


class TestRunPipeline:
    def test_all_packets_delivered(self, tiny_graph, two_cluster_arch):
        result = run_pipeline(tiny_graph, two_cluster_arch, method="random",
                              seed=0)
        assert result.noc_stats.undelivered_count == 0

    def test_schedule_matches_mapping(self, tiny_graph, two_cluster_arch):
        result = run_pipeline(tiny_graph, two_cluster_arch, method="pacman")
        # Optimal-like pacman split: only neuron 3 (bridge source) sends.
        assert result.schedule.n_source_neurons == 1
        assert result.schedule.n_packets == 10  # its 10 spikes

    def test_skip_noc_simulation(self, tiny_graph, two_cluster_arch):
        """There is no skip: every run simulates its schedule."""
        with pytest.raises(TypeError):
            run_pipeline(tiny_graph, two_cluster_arch, method="pacman",
                         simulate_noc=False)
        result = run_pipeline(tiny_graph, two_cluster_arch, method="pacman")
        assert result.noc_stats.delivered_count > 0
        assert result.report.global_spikes > 0  # mapping metrics intact

    def test_noc_config_respected(self, tiny_graph, two_cluster_arch):
        result = run_pipeline(
            tiny_graph, two_cluster_arch, method="random", seed=0,
            noc_config=NocConfig(multicast=False),
        )
        assert result.noc_stats.undelivered_count == 0

    def test_fast_backend_end_to_end_matches_reference(
        self, tiny_graph, two_cluster_arch
    ):
        """The whole pipeline agrees between backends, report included."""
        ref = run_pipeline(tiny_graph, two_cluster_arch, method="pacman",
                           noc_config=NocConfig(backend="reference"))
        fast = run_pipeline(tiny_graph, two_cluster_arch, method="pacman",
                            noc_config=NocConfig(backend="fast"))
        assert ref.noc_stats.delivered_count == fast.noc_stats.delivered_count
        assert ref.noc_stats.cycles_run == fast.noc_stats.cycles_run
        assert ref.noc_stats.link_loads == fast.noc_stats.link_loads
        ref_records = [
            (r.uid, r.dst_node, r.delivered_cycle, r.hops)
            for r in ref.noc_stats.deliveries
        ]
        fast_records = [
            (r.uid, r.dst_node, r.delivered_cycle, r.hops)
            for r in fast.noc_stats.deliveries
        ]
        assert ref_records == fast_records
        assert ref.report.max_latency_cycles == fast.report.max_latency_cycles
        assert ref.report.global_energy_pj == pytest.approx(
            fast.report.global_energy_pj
        )

    def test_pso_method(self, tiny_graph, two_cluster_arch):
        result = run_pipeline(
            tiny_graph, two_cluster_arch, method="pso", seed=0,
            pso_config=PSOConfig(n_particles=10, n_iterations=10),
        )
        assert result.mapping.fitness == 5.0

    def test_describe_renders(self, tiny_graph, two_cluster_arch):
        result = run_pipeline(tiny_graph, two_cluster_arch, method="pacman")
        text = result.describe()
        assert "two_communities" in text

    def test_better_mapping_less_interconnect_traffic(
        self, tiny_graph, two_cluster_arch
    ):
        worst = run_pipeline(tiny_graph, two_cluster_arch, method="random",
                             seed=3)
        best = run_pipeline(
            tiny_graph, two_cluster_arch, method="pso", seed=0,
            pso_config=PSOConfig(n_particles=20, n_iterations=20),
        )
        assert (best.noc_stats.n_injected <= worst.noc_stats.n_injected)
        assert (best.report.global_energy_pj <= worst.report.global_energy_pj)
