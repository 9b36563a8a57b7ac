"""Partition representation and constraint handling (paper Eqs. 4-5).

A partition assigns every neuron to exactly one crossbar (Eq. 4) without
exceeding any crossbar's capacity (Eq. 5).  We store the assignment densely
as an int array ``assignment[neuron] -> crossbar`` — equivalent to the
paper's binary ``x_{i,k}`` matrix with the one-hot constraint built into
the representation — and enforce capacity by explicit validation plus a
repair operator used by the stochastic optimizers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Partition:
    """A validated neuron→crossbar assignment.

    Attributes
    ----------
    assignment:
        ``assignment[i]`` is the crossbar index of neuron ``i``.
    n_clusters:
        Number of crossbars ``C``.
    capacity:
        Per-crossbar neuron capacity ``Nc``.
    """

    assignment: np.ndarray
    n_clusters: int
    capacity: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "assignment", np.asarray(self.assignment, dtype=np.int64)
        )
        check_positive("n_clusters", self.n_clusters)
        check_positive("capacity", self.capacity)
        self.validate()

    def validate(self) -> None:
        a = self.assignment
        if a.ndim != 1:
            raise ValueError(f"assignment must be 1-D, got shape {a.shape}")
        if a.size == 0:
            raise ValueError("assignment is empty")
        if a.min() < 0 or a.max() >= self.n_clusters:
            raise ValueError(
                f"assignment uses clusters outside [0, {self.n_clusters}): "
                f"min={a.min()}, max={a.max()}"
            )
        sizes = self.cluster_sizes()
        worst = int(sizes.max())
        if worst > self.capacity:
            offenders = np.nonzero(sizes > self.capacity)[0].tolist()
            raise ValueError(
                f"crossbars {offenders} exceed capacity {self.capacity} "
                f"(largest has {worst} neurons)"
            )

    @property
    def n_neurons(self) -> int:
        return int(self.assignment.shape[0])

    def cluster_sizes(self) -> np.ndarray:
        """Neurons placed on each crossbar."""
        return np.bincount(self.assignment, minlength=self.n_clusters)


def is_feasible(assignment: np.ndarray, n_clusters: int, capacity: int) -> bool:
    """Check Eqs. 4-5 without raising."""
    a = np.asarray(assignment)
    if a.ndim != 1 or a.size == 0:
        return False
    if a.min() < 0 or a.max() >= n_clusters:
        return False
    return int(np.bincount(a, minlength=n_clusters).max()) <= capacity


def repair_assignment(
    assignment: np.ndarray,
    n_clusters: int,
    capacity: int,
    rng: SeedLike = None,
    move_cost: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Restore capacity feasibility with minimal disruption.

    Neurons are evicted from over-full crossbars into the emptiest ones.
    When ``move_cost`` is given (one non-negative value per neuron, e.g.
    the neuron's total synapse traffic), the *cheapest* neurons move first,
    so heavily communicating neurons keep their optimizer-chosen placement.
    Without it, evictees are chosen uniformly at random.

    Eviction targets come from a heap of under-full crossbars keyed by
    ``(size, index)``, so one repair is O((N + C) log C) instead of the
    O(C)-per-eviction argmin scan; outputs are identical to that scan
    (the oracle in ``tests/core/test_partition.py``) because the running
    argmin is always an under-full crossbar and ties break toward lower
    indices in both.

    Cluster ids outside ``[0, n_clusters)`` raise ``ValueError``, as in
    :func:`repair_batch`.  Returns a new array; the input is never
    modified.
    """
    a = np.asarray(assignment, dtype=np.int64).copy()
    if a.size > n_clusters * capacity:
        raise ValueError(
            f"{a.size} neurons cannot fit in {n_clusters} x {capacity} slots"
        )
    if a.size and (a.min() < 0 or a.max() >= n_clusters):
        raise ValueError(
            f"assignments use clusters outside [0, {n_clusters}): "
            f"min={a.min()}, max={a.max()}"
        )
    rng = default_rng(rng)
    sizes = np.bincount(a, minlength=n_clusters)
    overfull = [int(k) for k in np.nonzero(sizes > capacity)[0]]
    if not overfull:
        return a
    # While any crossbar is over capacity the global minimum size is
    # strictly below capacity (sum(sizes) = N <= C * capacity), so the
    # per-eviction argmin can only ever land on an under-full crossbar:
    # seeding the heap with those alone is exact, not an approximation.
    heap = [(int(s), j) for j, s in enumerate(sizes[:n_clusters]) if s < capacity]
    heapq.heapify(heap)
    for k in overfull:
        members = np.nonzero(a == k)[0]
        excess = int(sizes[k] - capacity)
        if move_cost is not None:
            order = members[np.argsort(move_cost[members], kind="stable")]
        else:
            order = rng.permutation(members)
        for neuron in order[:excess]:
            size, target = heapq.heappop(heap)
            a[neuron] = target
            if size + 1 < capacity:
                heapq.heappush(heap, (size + 1, target))
    return a


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.cumsum(counts)
    out -= counts
    return out


def repair_batch(
    assignments: np.ndarray,
    n_clusters: int,
    capacity: int,
    rng: SeedLike = None,
    move_cost: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Repair a whole ``(P, N)`` swarm of assignments at once.

    The deterministic ``move_cost`` path (the one the mapper uses) is fully
    vectorized — one batched bincount for sizes, one argsort over all
    over-full crossbars' members grouping them by (particle, crossbar,
    eviction rank), and a vectorized refill that replays the reference
    argmin sequence by consuming under-full (size-level, crossbar) slots in
    sorted order — and produces bit-for-bit the same arrays as looping
    :func:`repair_assignment` row by row.

    Without ``move_cost`` eviction is random: every particle gets its own
    child RNG stream seeded by one fixed-size draw from ``rng`` (size P,
    consumed whether or not any particle needs repair), so a particle's
    randomness never depends on which *other* particles were infeasible.

    Returns a new ``(P, N)`` int64 array; the input is never modified.
    """
    a = np.asarray(assignments, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"assignments must be 2-D (P, N), got shape {a.shape}")
    n_particles, n_neurons = a.shape
    if n_neurons > n_clusters * capacity:
        raise ValueError(
            f"{n_neurons} neurons cannot fit in {n_clusters} x {capacity} slots"
        )
    if n_neurons and (a.min() < 0 or a.max() >= n_clusters):
        raise ValueError(
            f"assignments use clusters outside [0, {n_clusters}): "
            f"min={a.min()}, max={a.max()}"
        )
    out = a.copy()
    if move_cost is None:
        rng = default_rng(rng)
        child_seeds = rng.integers(0, 2**63 - 1, size=n_particles)
        for i in range(n_particles):
            if np.bincount(out[i], minlength=n_clusters).max() > capacity:
                out[i] = repair_assignment(
                    out[i], n_clusters, capacity, rng=int(child_seeds[i])
                )
        return out

    offsets = np.arange(n_particles, dtype=np.int64) * n_clusters
    sizes = np.bincount(
        (out + offsets[:, None]).ravel(), minlength=n_particles * n_clusters
    ).reshape(n_particles, n_clusters)
    infeasible = np.nonzero(sizes.max(axis=1) > capacity)[0]
    if infeasible.size == 0:
        return out
    all_rows = infeasible.size == n_particles
    sub = out if all_rows else out[infeasible]        # (K, N) rows to repair
    szs = sizes if all_rows else sizes[infeasible]    # (K, C)
    k_rows, c = sub.shape[0], n_clusters

    # Evictees: one argsort groups every particle's neurons by (crossbar
    # asc, eviction rank asc).  The rank orders each crossbar's members by
    # (move_cost, neuron id), i.e. the reference repair's stable eviction
    # order.  Keys are unique within a row, so any sort kind yields the
    # same permutation — pick the narrowest dtype so integer sorts run at
    # radix/cache speed.
    cost = np.asarray(move_cost, dtype=np.float64)
    cost_rank = np.empty(n_neurons, dtype=np.int64)
    cost_rank[np.argsort(cost[:n_neurons], kind="stable")] = np.arange(n_neurons)
    key = sub * n_neurons + cost_rank[None, :]
    key_span = n_clusters * n_neurons
    if key_span <= 2**15:
        order = np.argsort(key.astype(np.int16), axis=1, kind="stable")
    elif key_span <= 2**31:
        order = np.argsort(key.astype(np.int32), axis=1)
    else:
        order = np.argsort(key, axis=1)
    # Row-major (particle, crossbar) blocks start at the sizes' exclusive
    # cumsum; evict the first `excess` (cheapest) members of each block.
    excess = np.clip(szs - capacity, 0, None)         # (K, C)
    exc_flat = excess.ravel()
    n_evict = int(exc_flat.sum())
    row_block_starts = np.cumsum(szs, axis=1) - szs
    base = (
        row_block_starts + np.arange(k_rows, dtype=np.int64)[:, None] * n_neurons
    ).ravel()
    picks = np.repeat(base, exc_flat) + (
        np.arange(n_evict, dtype=np.int64)
        - np.repeat(_exclusive_cumsum(exc_flat), exc_flat)
    )
    evict_neuron = order.ravel()[picks]               # neuron ids, row-major
    evict_row = np.repeat(
        np.arange(k_rows * c, dtype=np.int64) // c, exc_flat
    )

    # Refill targets: the reference loop sends each evictee to the current
    # argmin-sized crossbar.  That sequence equals consuming the slots
    # (level L, crossbar j) for every under-full crossbar (levels s_j ..
    # capacity-1) in ascending (L, j) order: the argmin always sits at the
    # lowest unconsumed level, ties resolving to the lowest index.
    deficits = np.clip(capacity - szs, 0, None)       # (K, C)
    def_flat = deficits.ravel()
    n_slots = int(def_flat.sum())
    slot_j = np.repeat(
        np.tile(np.arange(c, dtype=np.int64), k_rows), def_flat
    )
    slot_level = np.repeat(szs.ravel(), def_flat) + (
        np.arange(n_slots, dtype=np.int64)
        - np.repeat(_exclusive_cumsum(def_flat), def_flat)
    )
    slot_row = np.repeat(
        np.arange(k_rows * c, dtype=np.int64) // c, def_flat
    )
    slot_order = np.argsort(
        (slot_row * np.int64(capacity) + slot_level) * c + slot_j,
        kind="stable",
    )
    # First E_k slots of every particle's sorted run (E_k = neurons it evicts).
    per_row_evicted = excess.sum(axis=1)
    run_starts = _exclusive_cumsum(deficits.sum(axis=1))
    take = np.repeat(run_starts, per_row_evicted) + (
        np.arange(n_evict, dtype=np.int64)
        - np.repeat(_exclusive_cumsum(per_row_evicted), per_row_evicted)
    )
    targets = slot_j[slot_order][take]

    rows = evict_row if all_rows else infeasible[evict_row]
    out[rows, evict_neuron] = targets
    return out


def random_assignment(
    n_neurons: int,
    n_clusters: int,
    capacity: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Uniform random feasible assignment (optimizer seeding, tests)."""
    check_positive("n_neurons", n_neurons)
    if n_neurons > n_clusters * capacity:
        raise ValueError(
            f"{n_neurons} neurons cannot fit in {n_clusters} x {capacity} slots"
        )
    rng = default_rng(rng)
    raw = rng.integers(0, n_clusters, size=n_neurons)
    return repair_assignment(raw, n_clusters, capacity, rng=rng)
