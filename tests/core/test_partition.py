"""Tests for partition representation and constraint handling.

:func:`repair_assignment_reference` is the O(C)-per-eviction argmin
scan the heap repair and :func:`repair_batch` replaced, kept here as
their oracle; ``benchmarks/test_frontend_speedup.py`` times the batch
repair against it.
"""

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    Partition,
    is_feasible,
    random_assignment,
    repair_assignment,
    repair_batch,
)
from repro.utils.rng import SeedLike, default_rng


def repair_assignment_reference(
    assignment: np.ndarray,
    n_clusters: int,
    capacity: int,
    rng: SeedLike = None,
    move_cost: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The original O(C)-per-eviction repair loop, kept as the equivalence
    oracle for :func:`repair_assignment` and :func:`repair_batch`."""
    a = np.asarray(assignment, dtype=np.int64).copy()
    if a.size > n_clusters * capacity:
        raise ValueError(
            f"{a.size} neurons cannot fit in {n_clusters} x {capacity} slots"
        )
    rng = default_rng(rng)
    sizes = np.bincount(a, minlength=n_clusters)
    overfull = [int(k) for k in np.nonzero(sizes > capacity)[0]]
    for k in overfull:
        members = np.nonzero(a == k)[0]
        excess = int(sizes[k] - capacity)
        if move_cost is not None:
            order = members[np.argsort(move_cost[members], kind="stable")]
        else:
            order = rng.permutation(members)
        for neuron in order[:excess]:
            target = int(np.argmin(sizes))
            a[neuron] = target
            sizes[k] -= 1
            sizes[target] += 1
    return a


class TestPartition:
    def test_valid_partition(self):
        p = Partition(assignment=np.array([0, 0, 1, 1]), n_clusters=2,
                      capacity=2)
        assert p.n_neurons == 4
        assert p.cluster_sizes().tolist() == [2, 2]

    def test_capacity_violation_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            Partition(assignment=np.array([0, 0, 0]), n_clusters=2, capacity=2)

    def test_out_of_range_cluster_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Partition(assignment=np.array([0, 2]), n_clusters=2, capacity=2)

    def test_negative_cluster_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Partition(assignment=np.array([0, -1]), n_clusters=2, capacity=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Partition(assignment=np.array([], dtype=int), n_clusters=2,
                      capacity=2)

    def test_cluster_sizes_count_empty_crossbars(self):
        p = Partition(assignment=[2, 2, 0], n_clusters=4, capacity=2)
        assert p.cluster_sizes().tolist() == [1, 0, 2, 0]

    def test_assignment_coerced_to_int64(self):
        p = Partition(assignment=[1.0, 0.0], n_clusters=2, capacity=1)
        assert p.assignment.dtype == np.int64
        assert p.assignment.tolist() == [1, 0]

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            Partition(assignment=np.zeros((2, 2), dtype=int), n_clusters=2,
                      capacity=4)

    @pytest.mark.parametrize(
        "n_clusters, capacity, name",
        [(0, 2, "n_clusters"), (2, 0, "capacity")],
    )
    def test_nonpositive_sizes_rejected(self, n_clusters, capacity, name):
        with pytest.raises(ValueError, match=name):
            Partition(assignment=np.array([0]), n_clusters=n_clusters,
                      capacity=capacity)


class TestIsFeasible:
    def test_good(self):
        assert is_feasible(np.array([0, 1, 0]), 2, 2)

    def test_overfull(self):
        assert not is_feasible(np.array([0, 0, 0]), 2, 2)

    def test_bad_range(self):
        assert not is_feasible(np.array([0, 5]), 2, 2)

    def test_empty(self):
        assert not is_feasible(np.array([], dtype=int), 2, 2)


class TestRepairAssignment:
    def test_feasible_untouched(self):
        a = np.array([0, 1, 0, 1])
        repaired = repair_assignment(a, 2, 2, rng=0)
        assert np.array_equal(repaired, a)

    def test_overfull_fixed(self):
        a = np.array([0, 0, 0, 0])
        repaired = repair_assignment(a, 2, 2, rng=0)
        assert is_feasible(repaired, 2, 2)

    def test_input_not_mutated(self):
        a = np.array([0, 0, 0, 0])
        repair_assignment(a, 2, 2, rng=0)
        assert (a == 0).all()

    def test_impossible_raises(self):
        with pytest.raises(ValueError, match="cannot fit"):
            repair_assignment(np.zeros(5, dtype=int), 2, 2)

    @pytest.mark.parametrize(
        "assignment", [[0, 5], [0, 0, 0, 5], [-1, 0], [0, 0, 1, -1]]
    )
    def test_out_of_range_rejected_like_batch(self, assignment):
        """The single-row and batch paths reject ids outside
        ``[0, n_clusters)`` with the same error."""
        with pytest.raises(ValueError, match="outside") as row:
            repair_assignment(np.array(assignment), 2, 2)
        with pytest.raises(ValueError, match="outside") as batch:
            repair_batch(np.array([assignment]), 2, 2)
        assert str(row.value) == str(batch.value)

    def test_move_cost_keeps_expensive_neurons(self):
        # Cluster 0 over capacity by 2; costs make neurons 0,1 cheapest.
        a = np.zeros(4, dtype=int)
        cost = np.array([0.0, 1.0, 100.0, 100.0])
        repaired = repair_assignment(a, 2, 2, rng=0, move_cost=cost)
        assert repaired[2] == 0 and repaired[3] == 0
        assert repaired[0] == 1 and repaired[1] == 1

    def test_deterministic_with_seed(self):
        a = np.zeros(6, dtype=int)
        r1 = repair_assignment(a, 3, 2, rng=42)
        r2 = repair_assignment(a, 3, 2, rng=42)
        assert np.array_equal(r1, r2)


class TestHeapRepairMatchesReference:
    """The heap-based repair must replay the argmin scan bit-for-bit."""

    def test_move_cost_path_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            c = int(rng.integers(1, 9))
            cap = int(rng.integers(1, 12))
            n = int(rng.integers(1, c * cap + 1))
            a = rng.integers(0, c, size=n)
            cost = rng.uniform(0, 4, n)
            if rng.random() < 0.4:
                cost = np.round(cost)  # force cost ties
            assert np.array_equal(
                repair_assignment(a, c, cap, move_cost=cost),
                repair_assignment_reference(a, c, cap, move_cost=cost),
            )

    def test_random_path_equivalence(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            c = int(rng.integers(2, 7))
            cap = int(rng.integers(2, 9))
            n = int(rng.integers(2, c * cap + 1))
            a = rng.integers(0, c, size=n)
            seed = int(rng.integers(0, 2**31))
            assert np.array_equal(
                repair_assignment(a, c, cap, rng=seed),
                repair_assignment_reference(a, c, cap, rng=seed),
            )


class TestRepairBatch:
    def _loop(self, batch, c, cap, cost):
        return np.stack([
            repair_assignment_reference(batch[i], c, cap, move_cost=cost)
            for i in range(batch.shape[0])
        ])

    def test_feasible_batch_untouched(self):
        batch = np.array([[0, 1, 0, 1], [1, 1, 0, 0]])
        out = repair_batch(batch, 2, 2, move_cost=np.zeros(4))
        assert np.array_equal(out, batch)
        assert out is not batch

    def test_overfull_rows_match_looped_reference(self):
        batch = np.array([
            [0, 0, 0, 0, 1, 1],   # over-full cluster 0
            [0, 1, 0, 1, 2, 2],   # feasible
            [2, 2, 2, 2, 2, 2],   # one cluster holds everything
        ])
        cost = np.array([5.0, 1.0, 1.0, 3.0, 0.0, 2.0])
        out = repair_batch(batch, 3, 2, move_cost=cost)
        assert np.array_equal(out, self._loop(batch, 3, 2, cost))

    def test_all_rows_overfull(self):
        batch = np.zeros((4, 6), dtype=np.int64)  # every particle infeasible
        cost = np.arange(6.0)
        out = repair_batch(batch, 3, 2, move_cost=cost)
        assert np.array_equal(out, self._loop(batch, 3, 2, cost))
        for row in out:
            assert is_feasible(row, 3, 2)

    def test_input_not_mutated(self):
        batch = np.zeros((2, 4), dtype=np.int64)
        repair_batch(batch, 2, 2, move_cost=np.arange(4.0))
        assert (batch == 0).all()

    def test_random_path_uses_per_particle_child_streams(self):
        """Child seeds are one fixed-size draw: same recipe as the old
        BinaryPSO._repair_batch, so particle i's randomness is a function
        of (rng, i) alone."""
        batch = np.array([
            [0, 0, 0, 0, 1, 1],
            [0, 1, 0, 1, 1, 0],
            [1, 1, 1, 1, 0, 0],
        ])
        out = repair_batch(batch, 2, 3, rng=np.random.default_rng(9))
        rng = np.random.default_rng(9)
        child = rng.integers(0, 2**63 - 1, size=3)
        expected = batch.copy()
        for i in range(3):
            if np.bincount(expected[i], minlength=2).max() > 3:
                expected[i] = repair_assignment_reference(
                    expected[i], 2, 3, rng=np.random.default_rng(int(child[i]))
                )
        assert np.array_equal(out, expected)

    def test_random_path_draw_is_feasibility_independent(self):
        """The child-seed draw happens even for all-feasible batches, so
        downstream consumers of the shared rng see a fixed stream."""
        rng1 = np.random.default_rng(3)
        repair_batch(np.array([[0, 1]]), 2, 1, rng=rng1)
        rng2 = np.random.default_rng(3)
        repair_batch(np.array([[0, 0]]), 2, 1, rng=rng2)
        assert rng1.integers(0, 2**31) == rng2.integers(0, 2**31)

    def test_move_cost_path_consumes_no_randomness(self):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        repair_batch(np.zeros((3, 4), dtype=np.int64), 2, 2,
                     rng=rng, move_cost=np.arange(4.0))
        assert rng.bit_generator.state == before

    def test_impossible_raises(self):
        with pytest.raises(ValueError, match="cannot fit"):
            repair_batch(np.zeros((2, 5), dtype=np.int64), 2, 2)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            repair_batch(np.zeros(4, dtype=np.int64), 2, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            repair_batch(np.array([[0, 5]]), 2, 2)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hypothesis_equivalence_move_cost(self, data):
        c = data.draw(st.integers(1, 6), label="clusters")
        cap = data.draw(st.integers(1, 6), label="capacity")
        n = data.draw(st.integers(1, c * cap), label="neurons")
        p = data.draw(st.integers(1, 5), label="particles")
        batch = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, c - 1), min_size=n, max_size=n),
                    min_size=p, max_size=p,
                ),
                label="assignments",
            ),
            dtype=np.int64,
        )
        cost = np.array(
            data.draw(
                st.lists(
                    st.floats(0.0, 10.0, allow_nan=False), min_size=n, max_size=n
                ),
                label="cost",
            )
        )
        out = repair_batch(batch, c, cap, move_cost=cost)
        assert np.array_equal(out, self._loop(batch, c, cap, cost))
        for row in out:
            assert is_feasible(row, c, cap)


class TestRandomAssignment:
    def test_always_feasible(self):
        for seed in range(20):
            a = random_assignment(10, 3, 4, rng=seed)
            assert is_feasible(a, 3, 4)

    def test_tight_fit(self):
        a = random_assignment(12, 3, 4, rng=0)
        assert np.bincount(a, minlength=3).tolist() == [4, 4, 4]

    def test_impossible_raises(self):
        with pytest.raises(ValueError):
            random_assignment(13, 3, 4)
