"""Tests for the end-to-end pipeline (paper Fig. 4)."""

import dataclasses

import pytest

from repro.core.pso import PSOConfig
from repro.framework.pipeline import run_pipeline
from repro.hardware.presets import custom
from repro.metrics.report import build_report
from repro.noc.fastsim import FastInterconnect
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.stats import NocStats
from repro.noc.traffic import build_injections


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


class TestSharedEngineOracle:
    """A ``noc`` run on a healthy fabric measures its mapping on the
    engine the swarm scored with.  On a 4-chip board the routing
    certificate refuses every row, so that engine has run the swarm's
    ``simulate_many`` batches before the final ``simulate``: its result
    must equal, field by field, a fresh reference engine's run of the
    same assignment — no state may carry over from one run to the next."""

    # Two slots per crossbar: no mapping keeps all traffic local.
    ARCH = custom(8, 2, interconnect="mesh", n_chips=4, name="board")

    @pytest.mark.parametrize("multicast", [True, False])
    def test_final_run_equals_a_fresh_reference_run(
        self, monkeypatch, tiny_graph, multicast
    ):
        calls = []
        for name in ("simulate_many", "simulate"):
            original = getattr(FastInterconnect, name)

            def logged(self, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, self))
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(FastInterconnect, name, logged)
        config = NocConfig(backend="fast", buffer_capacity=2, multicast=multicast)
        result = run_pipeline(
            tiny_graph, self.ARCH, method="pso", seed=5, objective="noc",
            pso_config=PSOConfig(n_particles=6, n_iterations=4),
            noc_config=config,
        )
        # One engine served the swarm and then the final run.
        engines = {id(engine) for _, engine in calls}
        assert len(engines) == 1
        names = [name for name, _ in calls]
        assert names[-1] == "simulate" and "simulate_many" in names[:-1]

        topology = self.ARCH.build_topology()
        schedule = build_injections(
            tiny_graph, result.mapping.assignment, topology,
            cycles_per_ms=self.ARCH.cycles_per_ms,
        )
        reference = Interconnect(
            topology, config=dataclasses.replace(config, backend="reference")
        ).simulate(schedule)
        assert reference.delivered_count > 0
        for field in dataclasses.fields(NocStats):
            assert getattr(result.noc_stats, field.name) == getattr(
                reference, field.name
            ), field.name
        want = build_report(
            tiny_graph.name, result.mapping, reference, self.ARCH, topology
        )
        for field in dataclasses.fields(want):
            assert getattr(result.report, field.name) == getattr(
                want, field.name
            ), field.name
