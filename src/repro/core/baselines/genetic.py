"""Genetic-algorithm partitioner (ablation baseline).

Section III of the paper motivates PSO as "computationally less expensive
with faster convergence compared to its counterparts such as genetic
algorithm (GA) or simulated annealing (SA)".  This GA optimizes the
identical objective so the optimizer-ablation bench can measure that
trade-off directly:

- individuals are neuron->crossbar assignment vectors;
- tournament selection, uniform crossover, per-gene mutation;
- capacity repair after every variation (same operator PSO uses);
- elitism preserves the best individual across generations.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.core.fitness import InterconnectFitness
from repro.core.partition import Partition, random_assignment, repair_assignment
from repro.snn.graph import SpikeGraph
from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_count, check_positive

#: Contenders per tournament pick.
TOURNAMENT = 3
#: Probability that two parents are crossed rather than one copied.
CROSSOVER_RATE = 0.9
#: Per-gene mutation probability.
MUTATION_RATE = 0.02
#: Best individuals carried unchanged into each generation.
ELITE = 2


@dataclass(frozen=True)
class GAConfig:
    """GA budget; defaults sized like the PSO bench budget.  Both counts
    are integers of at least 1, and the population holds the
    :data:`ELITE` individuals."""

    population: int = 60
    generations: int = 40

    def __post_init__(self) -> None:
        check_count("population", self.population)
        check_count("generations", self.generations)
        if self.population < ELITE:
            raise ValueError(
                f"population must hold the {ELITE} elite individuals, "
                f"got {self.population}"
            )


def genetic_partition(
    graph: SpikeGraph,
    n_clusters: int,
    capacity: int,
    config: GAConfig = GAConfig(),
    seed: SeedLike = None,
    objective: str = "spikes",
) -> Partition:
    """Evolve an assignment minimizing interconnect traffic.

    ``objective`` is a closed-form
    :data:`~repro.core.fitness.OBJECTIVES` entry, ``"spikes"`` or
    ``"packets"``, handed to the fitness as is.
    """
    check_positive("n_clusters", n_clusters)
    check_positive("capacity", capacity)
    n = graph.n_neurons
    if n > n_clusters * capacity:
        raise ValueError(
            f"{n} neurons cannot fit in {n_clusters} x {capacity} slots"
        )
    rng = default_rng(seed)
    fitness_fn = InterconnectFitness(graph, objective=objective)
    move_cost = graph.neuron_out_traffic()

    population = np.stack([
        random_assignment(n, n_clusters, capacity, rng=rng)
        for _ in range(config.population)
    ])
    fitness = fitness_fn.evaluate_batch(population)

    def tournament_pick() -> int:
        contenders = rng.integers(0, config.population, size=TOURNAMENT)
        return int(contenders[np.argmin(fitness[contenders])])

    for _ in range(config.generations):
        order = np.argsort(fitness, kind="stable")
        elites = population[order[:ELITE]].copy()

        children = []
        while len(children) < config.population - ELITE:
            a = population[tournament_pick()]
            b = population[tournament_pick()]
            if rng.random() < CROSSOVER_RATE:
                mask = rng.random(n) < 0.5
                child = np.where(mask, a, b)
            else:
                child = a.copy()
            mutate = rng.random(n) < MUTATION_RATE
            if mutate.any():
                child = child.copy()
                child[mutate] = rng.integers(0, n_clusters, size=int(mutate.sum()))
            child = repair_assignment(
                child, n_clusters, capacity, rng=rng, move_cost=move_cost
            )
            children.append(child)

        # A population of only elites breeds no children.
        population = np.vstack([elites, *children])
        fitness = fitness_fn.evaluate_batch(population)

    best = int(np.argmin(fitness))
    return Partition(
        assignment=population[best], n_clusters=n_clusters, capacity=capacity
    )
