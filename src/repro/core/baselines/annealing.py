"""Simulated-annealing partitioner (ablation baseline).

The paper motivates PSO over GA/SA on convergence speed (Section III).
This SA implementation optimizes the identical Eq. 8 objective with a
single-neuron-move neighborhood and geometric cooling, so the ablation
bench can compare solution quality at matched evaluation budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fitness import InterconnectFitness
from repro.core.partition import Partition, random_assignment
from repro.snn.graph import SpikeGraph
from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_count

#: Geometric cooling: from ``T_INITIAL`` by ``ALPHA`` per step, floored
#: at ``T_FINAL``.
T_INITIAL = 100.0
T_FINAL = 0.01
ALPHA = 0.999


@dataclass(frozen=True)
class AnnealingConfig:
    """SA budget: ``n_steps`` (an integer of at least 1) steps of the
    :data:`T_INITIAL` / :data:`ALPHA` / :data:`T_FINAL` schedule."""

    n_steps: int = 20_000

    def __post_init__(self) -> None:
        check_count("n_steps", self.n_steps)


def annealing_partition(
    graph: SpikeGraph,
    n_clusters: int,
    capacity: int,
    config: AnnealingConfig = AnnealingConfig(),
    seed: SeedLike = None,
) -> Partition:
    """Single-neuron-move simulated annealing on the Eq. 8 objective."""
    rng = default_rng(seed)
    n = graph.n_neurons
    fitness = InterconnectFitness(graph)
    assignment = random_assignment(n, n_clusters, capacity, rng=rng)
    sizes = np.bincount(assignment, minlength=n_clusters)

    # Per-neuron incident edge lists for O(degree) move deltas.
    matrix = fitness.matrix
    incident_out: list = [[] for _ in range(n)]
    incident_in: list = [[] for _ in range(n)]
    for e in range(matrix.n_pairs):
        incident_out[int(matrix.src[e])].append(e)
        incident_in[int(matrix.dst[e])].append(e)

    def move_delta(neuron: int, new_cluster: int) -> float:
        old = int(assignment[neuron])
        delta = 0.0
        for e in incident_out[neuron]:
            other = int(assignment[matrix.dst[e]])
            delta += matrix.traffic[e] * (
                int(other != new_cluster) - int(other != old)
            )
        for e in incident_in[neuron]:
            other = int(assignment[matrix.src[e]])
            delta += matrix.traffic[e] * (
                int(other != new_cluster) - int(other != old)
            )
        return float(delta)

    def accept(delta: float, temperature: float) -> bool:
        if delta <= 0:
            return True
        return rng.random() < np.exp(-delta / temperature)

    current = fitness.evaluate(assignment)
    best = current
    best_assignment = assignment.copy()
    temperature = T_INITIAL

    for step in range(config.n_steps):
        # Alternate single-neuron moves with pairwise swaps; swaps keep
        # cluster sizes fixed, so they remain available even when every
        # crossbar is at exact capacity (where moves are all infeasible).
        do_swap = step % 2 == 1
        if do_swap:
            i, j = rng.integers(0, n, size=2)
            i, j = int(i), int(j)
            ci, cj = int(assignment[i]), int(assignment[j])
            if ci == cj:
                temperature = max(temperature * ALPHA, T_FINAL)
                continue
            delta = move_delta(i, cj)
            assignment[i] = cj  # tentative, so j's delta sees i moved
            delta += move_delta(j, ci)
            assignment[i] = ci
            if accept(delta, temperature):
                assignment[i], assignment[j] = cj, ci
                current += delta
        else:
            neuron = int(rng.integers(0, n))
            new_cluster = int(rng.integers(0, n_clusters))
            old_cluster = int(assignment[neuron])
            if new_cluster == old_cluster or sizes[new_cluster] >= capacity:
                temperature = max(temperature * ALPHA, T_FINAL)
                continue
            delta = move_delta(neuron, new_cluster)
            if accept(delta, temperature):
                assignment[neuron] = new_cluster
                sizes[old_cluster] -= 1
                sizes[new_cluster] += 1
                current += delta
        if current < best:
            best = current
            best_assignment = assignment.copy()
        temperature = max(temperature * ALPHA, T_FINAL)

    return Partition(
        assignment=best_assignment, n_clusters=n_clusters, capacity=capacity
    )
