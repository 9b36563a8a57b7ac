"""Tests for the binary PSO optimizer."""

import hashlib

import numpy as np
import pytest

from repro.core.fitness import InterconnectFitness
from repro.core.partition import is_feasible
from repro.core.pso import COGNITIVE, INERTIA, SOCIAL, BinaryPSO, PSOConfig


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _pso(graph, n_clusters=2, capacity=4, **cfg_kwargs):
    defaults = dict(n_particles=30, n_iterations=30)
    defaults.update(cfg_kwargs)
    return BinaryPSO(
        InterconnectFitness(graph),
        n_neurons=graph.n_neurons,
        n_clusters=n_clusters,
        capacity=capacity,
        config=PSOConfig(**defaults),
        seed=7,
    )


class TestOptimization:
    def test_finds_community_structure(self, tiny_graph):
        """On the two-community graph PSO must find the bridge cut."""
        result = _pso(tiny_graph).optimize()
        assert result.best_fitness == 5.0  # only the weak bridge crosses

    def test_solution_feasible(self, tiny_graph):
        result = _pso(tiny_graph, n_clusters=3, capacity=3).optimize()
        assert is_feasible(result.best_assignment, 3, 3)

    def test_history_monotone_nonincreasing(self, tiny_graph):
        result = _pso(tiny_graph).optimize()
        assert (np.diff(result.history) <= 0).all()

    def test_history_length(self, tiny_graph):
        result = _pso(tiny_graph, n_iterations=12).optimize()
        assert result.history.shape == (12,)

    def test_more_particles_no_worse(self, tiny_graph):
        small = _pso(tiny_graph, n_particles=2, n_iterations=10).optimize()
        large = _pso(tiny_graph, n_particles=60, n_iterations=10).optimize()
        assert large.best_fitness <= small.best_fitness

    def test_deterministic_given_seed(self, tiny_graph):
        r1 = _pso(tiny_graph).optimize()
        r2 = _pso(tiny_graph).optimize()
        assert r1.best_fitness == r2.best_fitness
        assert np.array_equal(r1.best_assignment, r2.best_assignment)

    def test_full_result_deterministic_given_seed(self, tiny_graph):
        """Same seed → the same PSOResult twice, field for field.

        Regression test for the repair RNG fix: repair used to draw
        from the shared swarm stream, so *which* particles needed
        repair changed how much randomness later particles saw.  The
        whole trajectory — not just the final best — must now repeat.
        """
        r1 = _pso(tiny_graph, n_particles=12, n_iterations=15).optimize()
        r2 = _pso(tiny_graph, n_particles=12, n_iterations=15).optimize()
        assert r1.best_fitness == r2.best_fitness
        assert np.array_equal(r1.best_assignment, r2.best_assignment)
        assert np.array_equal(r1.history, r2.history)
        assert r1.n_evaluations == r2.n_evaluations

    def test_evaluation_count(self, tiny_graph):
        result = _pso(tiny_graph, n_particles=10, n_iterations=5).optimize()
        assert result.n_evaluations == 50


class TestWarmStart:
    def test_initial_assignment_bounds_result(self, tiny_graph):
        optimal = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        pso = _pso(tiny_graph, n_particles=5, n_iterations=3)
        result = pso.optimize(initial_assignments=optimal[None, :])
        assert result.best_fitness <= 5.0

    def test_1d_initial_accepted(self, tiny_graph):
        pso = _pso(tiny_graph, n_particles=5, n_iterations=3)
        result = pso.optimize(
            initial_assignments=np.array([0, 0, 0, 0, 1, 1, 1, 1])
        )
        assert result.best_fitness <= 5.0


class TestRepairIndependence:
    def test_repair_of_one_particle_cannot_couple_others(self, tiny_graph):
        """Whether particle 0 needs repair must not change particle 1's.

        Two identical optimizers repair two batches that differ only in
        particle 0 (feasible vs infeasible); every other particle's
        repaired row must come out identical.
        """
        def fresh():
            return BinaryPSO(
                InterconnectFitness(tiny_graph),
                n_neurons=8, n_clusters=2, capacity=4,
                config=PSOConfig(n_particles=4, n_iterations=1),
                seed=123,
            )

        feasible_row = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        overfull_row = np.array([0, 0, 0, 0, 0, 0, 0, 0])
        rest = np.array([
            [0, 0, 0, 1, 1, 0, 0, 0],   # overfull: needs repair
            [1, 1, 1, 1, 1, 0, 0, 1],   # overfull: needs repair
        ])
        batch_a = np.vstack([feasible_row, rest]).astype(np.int64)
        batch_b = np.vstack([overfull_row, rest]).astype(np.int64)

        repaired_a = fresh()._repair_batch(batch_a.copy())
        repaired_b = fresh()._repair_batch(batch_b.copy())
        assert np.array_equal(repaired_a[1:], repaired_b[1:])


class TestPinnedDeterminism:
    """optimize() must reproduce the pre-refactor trajectories exactly.

    The hashes below were captured from the original (pre-vectorization,
    pre-buffer-reuse) implementation: per-particle repair loop, repeat/tile
    one-hot, out-of-place velocity update.  The batched/in-place rewrite
    must hit the same best assignments, fitness values and full history,
    bit for bit, for every seed/binarization/repair-path combination.
    """

    # (seed, binarization, with_move_cost) -> (best digest, best fitness,
    #                                          history digest)
    PINNED = {
        (0, "stochastic", True): ("6bb60a1095bd987c", 1.0, "c7a425b205a6bde4"),
        (0, "stochastic", False): ("caf4e136368dceeb", 3.0, "31ecdfaa2fe436af"),
        (0, "argmax", True): ("3d80ec5ff537859f", 1.0, "f23a37197b97f182"),
        (0, "argmax", False): ("93f4acd365ea68be", 7.0, "72c0e9a257ec4782"),
        (7, "stochastic", True): ("bd77e4586edec16a", 0.0, "2ea193d3464c0840"),
        (7, "stochastic", False): ("a513d57d5ad85b27", 2.0, "ebab783b52358843"),
        (7, "argmax", True): ("c23e53a57de4208a", 1.0, "460aae4a3461e553"),
        (7, "argmax", False): ("926eb596d5a36f9e", 4.0, "723320210e356af8"),
    }

    @staticmethod
    def _run(seed, binarization, with_cost):
        n, c, cap = 60, 6, 12
        cost = np.random.default_rng(123).uniform(0, 5, n) if with_cost else None

        def fitness(batch):
            return (batch * np.arange(1, n + 1)).sum(axis=1).astype(float) % 977

        pso = BinaryPSO(
            fitness, n_neurons=n, n_clusters=c, capacity=cap,
            config=PSOConfig(
                n_particles=30, n_iterations=12, binarization=binarization
            ),
            move_cost=cost, seed=seed,
        )
        return pso.optimize()

    @pytest.mark.parametrize("key", sorted(PINNED, key=str))
    def test_matches_pre_refactor_seeds(self, key):
        expected = self.PINNED[key]
        result = self._run(*key)
        assert _digest(result.best_assignment) == expected[0]
        assert result.best_fitness == expected[1]
        assert _digest(result.history) == expected[2]

    def test_warm_start_matches_pre_refactor_seeds(self):
        n, c, cap = 50, 5, 12
        cost = np.random.default_rng(5).uniform(0, 3, n)

        def fitness(batch):
            return np.abs(np.diff(batch, axis=1)).sum(axis=1).astype(float)

        pinned = {0: ("206c696f2fc30a0a", 45.0), 7: ("577589b1aec0f7f5", 47.0)}
        for seed, (digest, best) in pinned.items():
            pso = BinaryPSO(
                fitness, n_neurons=n, n_clusters=c, capacity=cap,
                config=PSOConfig(n_particles=20, n_iterations=10),
                move_cost=cost, seed=seed,
            )
            seeds = np.stack([np.arange(n) % c, (np.arange(n) * 3) % c])
            result = pso.optimize(initial_assignments=seeds)
            assert _digest(result.best_assignment) == digest
            assert result.best_fitness == best


class TestOneHot:
    def test_put_along_axis_matches_legacy_build(self, tiny_graph):
        pso = _pso(tiny_graph, n_particles=6)
        assignments = np.random.default_rng(0).integers(0, 2, size=(6, 8))
        onehot = pso._one_hot(assignments)
        # Legacy construction: {0,1} -> {-x_max/2, +x_max/2}.
        legacy = np.zeros((6, 8, 2))
        idx_p = np.repeat(np.arange(6), 8)
        idx_n = np.tile(np.arange(8), 6)
        legacy[idx_p, idx_n, assignments.ravel()] = 1.0
        legacy = (legacy * 2.0 - 1.0) * (pso.config.x_max / 2.0)
        assert np.array_equal(onehot, legacy)

    def test_buffer_reused_across_calls(self, tiny_graph):
        pso = _pso(tiny_graph, n_particles=6)
        a = np.zeros((6, 8), dtype=np.int64)
        first = pso._one_hot(a)
        second = pso._one_hot(a)
        assert first is second  # same reusable buffer

    def test_callers_copy_what_they_keep(self, tiny_graph):
        """gbest/pbest snapshots must survive the buffer being rewritten."""
        result = _pso(tiny_graph, n_particles=8, n_iterations=6).optimize()
        assert is_feasible(result.best_assignment, 2, 4)


class TestBinarizationModes:
    @pytest.mark.parametrize("mode", ["stochastic", "argmax"])
    def test_both_modes_feasible(self, tiny_graph, mode):
        result = _pso(tiny_graph, binarization=mode).optimize()
        assert is_feasible(result.best_assignment, 2, 4)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="binarization"):
            PSOConfig(binarization="quantum")


class TestProblemValidation:
    def test_impossible_capacity_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="cannot fit"):
            BinaryPSO(
                InterconnectFitness(tiny_graph),
                n_neurons=8, n_clusters=2, capacity=3,
            )

    def test_callable_fitness_accepted(self, tiny_graph):
        calls = []

        def fitness(batch):
            calls.append(batch.shape)
            return np.zeros(batch.shape[0])

        pso = BinaryPSO(fitness, n_neurons=8, n_clusters=2, capacity=4,
                        config=PSOConfig(n_particles=4, n_iterations=2),
                        seed=0)
        pso.optimize()
        assert calls and all(shape == (4, 8) for shape in calls)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(n_particles=0), dict(n_iterations=0)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PSOConfig(**kwargs)

    @pytest.mark.parametrize(
        "args, kwargs, match",
        [
            ((), dict(n_particles=2.5), "n_particles"),
            ((5.0, 2), {}, "n_particles"),
            ((), dict(n_iterations=2.0), "n_iterations"),
            ((), dict(n_particles="8"), "n_particles"),
            ((), dict(x_max=float("inf")), "x_max"),
            ((), dict(x_max=float("nan")), "x_max"),
            ((), dict(x_max=0.0), "x_max"),
            ((), dict(x_max=-1.0), "x_max"),
        ],
    )
    def test_unrunnable_config_rejected(self, args, kwargs, match):
        """Counts that numpy cannot size an array with, and coefficients
        that would move the swarm on NaN, fail at construction."""
        with pytest.raises(ValueError, match=match):
            PSOConfig(*args, **kwargs)

    def test_eq1_coefficients_are_the_constriction_values(self):
        """Eq. 1's fixed coefficients: inertia 0.729 and both pulls
        0.729 * 2.05 (to the nearest float, 1.49445), the constriction
        setting the PINNED trajectories were recorded with."""
        assert INERTIA == 0.729
        assert COGNITIVE == SOCIAL == 1.49445
        assert COGNITIVE == pytest.approx(INERTIA * 2.05, rel=1e-15)
