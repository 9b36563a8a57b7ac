"""Tests for the high-level mapping entry point."""

import pytest

from repro.core import fitness, mapper
from repro.core.mapper import METHODS, compare_methods, map_snn
from repro.core.partition import is_feasible
from repro.core.pso import PSOConfig


class TestMapSnn:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_returns_feasible(self, tiny_graph, two_cluster_arch,
                                           method):
        kwargs = {}
        if method == "pso":
            kwargs["pso_config"] = PSOConfig(n_particles=10, n_iterations=5)
        result = map_snn(tiny_graph, two_cluster_arch, method=method, seed=0,
                         **kwargs)
        assert is_feasible(result.assignment, 2, 4)
        assert result.method == method

    def test_spike_accounting_consistent(self, tiny_graph, two_cluster_arch):
        result = map_snn(tiny_graph, two_cluster_arch, method="pacman")
        assert result.local_spikes + result.global_spikes == pytest.approx(
            tiny_graph.total_traffic()
        )
        assert result.fitness == result.global_spikes

    def test_synapse_accounting_consistent(self, tiny_graph, two_cluster_arch):
        result = map_snn(tiny_graph, two_cluster_arch, method="random", seed=1)
        assert (result.local_synapses + result.global_synapses
                == tiny_graph.n_synapses)

    def test_pso_records_history(self, tiny_graph, two_cluster_arch):
        result = map_snn(
            tiny_graph, two_cluster_arch, method="pso", seed=0,
            pso_config=PSOConfig(n_particles=10, n_iterations=5),
        )
        assert "history" in result.extras
        assert result.extras["n_evaluations"] == 50

    def test_warm_start_never_worse_than_pacman(self, tiny_graph,
                                                two_cluster_arch):
        pacman = map_snn(tiny_graph, two_cluster_arch, method="pacman")
        pso = map_snn(
            tiny_graph, two_cluster_arch, method="pso", seed=0,
            pso_config=PSOConfig(n_particles=10, n_iterations=5),
        )
        assert pso.fitness <= pacman.fitness

    @pytest.mark.parametrize("objective", fitness.OBJECTIVES)
    def test_every_objective_maps(self, tiny_graph, two_cluster_arch,
                                  objective):
        result = map_snn(
            tiny_graph, two_cluster_arch, method="pso", seed=0,
            objective=objective,
            pso_config=PSOConfig(n_particles=6, n_iterations=3),
        )
        assert is_feasible(result.assignment, 2, 4)
        assert result.fitness == result.global_spikes

    def test_unknown_objective_rejected(self, tiny_graph, two_cluster_arch):
        with pytest.raises(ValueError, match="unknown objective 'hops'"):
            map_snn(tiny_graph, two_cluster_arch, method="greedy",
                    objective="hops")

    def test_objectives_shared_with_fitness(self):
        assert mapper.OBJECTIVES is fitness.OBJECTIVES
        assert fitness.OBJECTIVES == ("spikes", "packets", "noc")

    def test_unknown_method_rejected(self, tiny_graph, two_cluster_arch):
        with pytest.raises(ValueError, match="unknown method"):
            map_snn(tiny_graph, two_cluster_arch, method="magic")

    def test_architecture_too_small_rejected(self, tiny_graph, small_arch):
        from repro.hardware.presets import custom
        cramped = custom(n_crossbars=1, neurons_per_crossbar=4)
        with pytest.raises(ValueError, match="exceeds"):
            map_snn(tiny_graph, cramped, method="pacman")

    def test_describe(self, tiny_graph, two_cluster_arch):
        result = map_snn(tiny_graph, two_cluster_arch, method="greedy")
        assert "greedy" in result.describe()


class TestCompareMethods:
    def test_all_requested_present(self, tiny_graph, two_cluster_arch):
        results = compare_methods(
            tiny_graph, two_cluster_arch,
            methods=("random", "pacman", "pso"), seed=0,
            pso_config=PSOConfig(n_particles=10, n_iterations=10),
        )
        assert set(results) == {"random", "pacman", "pso"}

    def test_pso_wins_on_structured_graph(self, tiny_graph, two_cluster_arch):
        results = compare_methods(
            tiny_graph, two_cluster_arch,
            methods=("random", "pso"), seed=0,
            pso_config=PSOConfig(n_particles=20, n_iterations=20),
        )
        assert results["pso"].fitness <= results["random"].fitness
