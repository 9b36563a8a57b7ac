"""Tests for the genetic-algorithm partitioner."""

import numpy as np
import pytest

from repro.core.baselines.genetic import ELITE, GAConfig, genetic_partition
from repro.core.fitness import InterconnectFitness
from repro.core.partition import is_feasible

FAST = GAConfig(population=20, generations=15)


class TestGeneticPartition:
    def test_feasible(self, tiny_graph):
        p = genetic_partition(tiny_graph, 2, 4, config=FAST, seed=0)
        assert is_feasible(p.assignment, 2, 4)

    def test_finds_community_structure(self, tiny_graph):
        p = genetic_partition(
            tiny_graph, 2, 4, config=GAConfig(population=40, generations=40),
            seed=1,
        )
        fit = InterconnectFitness(tiny_graph)
        assert fit.evaluate(p.assignment) == 5.0

    def test_deterministic_given_seed(self, tiny_graph):
        a = genetic_partition(tiny_graph, 2, 4, config=FAST, seed=3).assignment
        b = genetic_partition(tiny_graph, 2, 4, config=FAST, seed=3).assignment
        assert np.array_equal(a, b)

    def test_beats_random_on_structure(self, tiny_graph):
        from repro.core.baselines import random_partition
        fit = InterconnectFitness(tiny_graph)
        ga = genetic_partition(tiny_graph, 2, 4, config=FAST, seed=0)
        rnd = random_partition(tiny_graph, 2, 4, seed=0)
        assert fit.evaluate(ga.assignment) <= fit.evaluate(rnd.assignment)

    def test_packet_objective(self, tiny_graph):
        p = genetic_partition(tiny_graph, 2, 4, config=FAST, seed=0,
                              objective="packets")
        assert is_feasible(p.assignment, 2, 4)

    @pytest.mark.parametrize(
        "objective, match",
        [("noc", "needs a topology"), ("hops", "unknown objective")],
    )
    def test_objective_passed_to_fitness(self, tiny_graph, objective, match):
        """The objective goes to the fitness as is: only the closed-form
        ones run without a fabric."""
        with pytest.raises(ValueError, match=match):
            genetic_partition(tiny_graph, 2, 4, config=FAST, seed=0,
                              objective=objective)

    def test_impossible_capacity_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="cannot fit"):
            genetic_partition(tiny_graph, 2, 3, config=FAST)

    def test_elitism_monotone(self, tiny_graph):
        """More generations can only improve the elite-preserved best."""
        fit = InterconnectFitness(tiny_graph)
        short = genetic_partition(
            tiny_graph, 2, 4, config=GAConfig(population=20, generations=2),
            seed=5,
        )
        long = genetic_partition(
            tiny_graph, 2, 4, config=GAConfig(population=20, generations=30),
            seed=5,
        )
        assert (fit.evaluate(long.assignment)
                <= fit.evaluate(short.assignment))


class TestGAConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(population=0), dict(generations=0), dict(population=1)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GAConfig(**kwargs)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_smallest_populations_run(self, tiny_graph, extra):
        """A population of only the elites breeds no children; one more
        breeds one.  Both run and stay feasible."""
        config = GAConfig(population=ELITE + extra, generations=3)
        p = genetic_partition(tiny_graph, 2, 4, config=config, seed=0)
        assert is_feasible(p.assignment, 2, 4)

    @pytest.mark.parametrize("name", ["population", "generations"])
    def test_non_integer_count_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GAConfig(**{name: 2.5})
