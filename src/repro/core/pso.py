"""Binary particle swarm optimization for neuron placement (paper Eqs. 1-3).

Each particle is a candidate placement of all ``N`` neurons onto ``C``
crossbars: a real-valued position matrix over the ``D = N * C`` binary
dimensions ``x_{i,k}`` of the paper.  Every iteration:

1. positions are *binarized* into a one-hot assignment per neuron —
   either by sampling proportionally to a sigmoid of the position (the
   paper's stochastic rule, Eqs. 2-3, adapted to respect the one-neuron-
   one-crossbar constraint by construction) or by argmax (deterministic
   variant, kept for the ablation bench);
2. capacity violations (Eq. 5) are repaired by evicting the
   cheapest-to-move neurons to under-full crossbars;
3. the swarm-batched fitness (Eq. 8) scores all particles;
4. personal/global bests update, and velocities/positions follow Eq. 1
   with an inertia weight and clamping (standard constriction-style
   parameters; the paper's phi1/phi2 formulation with velocities retained
   across iterations).

The one-hot decode makes constraint Eq. 4 structural: no particle can ever
assign a neuron to two crossbars, so no penalty terms are needed.

How the loop is laid out for speed — six ``(P, N, C)`` buffers allocated
once, a cluster-major stochastic decode, no move after the last
generation — is described on :meth:`BinaryPSO.optimize` and
:meth:`BinaryPSO._binarize`.  Each form is the same float sequence, and
the same draws at the same stream positions, as the textbook one:
``tests/core/test_pso_oracle.py`` keeps the replaced loop as the oracle
and ``tests/core/test_pso.py`` pins trajectories that predate all of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np

from repro.core.fitness import InterconnectFitness
from repro.core.partition import Partition, repair_batch
from repro.obs import get_observer
from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_count, check_positive

BatchFitness = Callable[[np.ndarray], np.ndarray]

#: Eq. 1's inertia weight and acceleration constants: the Clerc-Kennedy
#: constriction values, fixed for every swarm the paper runs.
INERTIA = 0.729
COGNITIVE = 1.49445  # phi_1: pull toward the particle's own best
SOCIAL = 1.49445     # phi_2: pull toward the swarm's best
#: Velocity clamp of Eq. 1.
V_MAX = 6.0


@dataclass(frozen=True)
class PSOConfig:
    """Swarm hyper-parameters.

    The paper fixes ``n_particles=1000, n_iterations=100`` for its main
    results (Section V-D); smaller swarms trade quality for time exactly as
    its Fig. 7 shows.  Defaults here are mid-range so unit tests stay fast;
    benches pass the paper's values explicitly.

    The two counts must be integers (``operator.index`` accepts them)
    of at least 1 and ``x_max`` finite and positive: anything else would
    fail deep inside numpy or run the swarm on NaN.  Eq. 1's
    coefficients are the module constants :data:`INERTIA`,
    :data:`COGNITIVE`, :data:`SOCIAL` and :data:`V_MAX`.  The swarm's
    six ``(P, N, C)`` buffers (position, velocity, personal best,
    scratch, uniform draws, one-hot) are float64.
    """

    n_particles: int = 100
    n_iterations: int = 100
    x_max: float = 10.0
    binarization: str = "stochastic"  # or "argmax"

    def __post_init__(self) -> None:
        check_count("n_particles", self.n_particles)
        check_count("n_iterations", self.n_iterations)
        if not math.isfinite(self.x_max):
            raise ValueError(f"x_max must be finite, got {self.x_max!r}")
        check_positive("x_max", self.x_max)
        if self.binarization not in ("stochastic", "argmax"):
            raise ValueError(
                f"unknown binarization {self.binarization!r}; "
                "use 'stochastic' or 'argmax'"
            )


@dataclass
class PSOResult:
    """Outcome of one swarm run."""

    best_assignment: np.ndarray
    best_fitness: float
    history: np.ndarray  # global-best fitness after each iteration
    n_evaluations: int

    def partition(self, n_clusters: int, capacity: int) -> Partition:
        return Partition(
            assignment=self.best_assignment,
            n_clusters=n_clusters,
            capacity=capacity,
        )


class BinaryPSO:
    """PSO over neuron→crossbar assignments.

    Parameters
    ----------
    fitness:
        An :class:`InterconnectFitness` (or any object exposing
        ``evaluate_batch``) or a bare callable mapping a (P, N) batch of
        assignments to (P,) objective values (lower = better).
    n_neurons, n_clusters, capacity:
        Problem dimensions (Eqs. 4-5 constraints).
    move_cost:
        Optional per-neuron cost used by capacity repair: cheap neurons are
        evicted first.  The mapper passes each neuron's total spike traffic
        so hot neurons keep their optimized placement.
    seed:
        RNG seed for swarm initialization and stochastic binarization.
    """

    def __init__(
        self,
        fitness: Union[InterconnectFitness, BatchFitness],
        n_neurons: int,
        n_clusters: int,
        capacity: int,
        config: Optional[PSOConfig] = None,
        move_cost: Optional[np.ndarray] = None,
        seed: SeedLike = None,
    ) -> None:
        check_positive("n_neurons", n_neurons)
        check_positive("n_clusters", n_clusters)
        check_positive("capacity", capacity)
        if n_neurons > n_clusters * capacity:
            raise ValueError(
                f"{n_neurons} neurons cannot fit in {n_clusters} x {capacity} slots"
            )
        self.n_neurons = n_neurons
        self.n_clusters = n_clusters
        self.capacity = capacity
        self.config = config if config is not None else PSOConfig()
        self.move_cost = move_cost
        self.rng = default_rng(seed)
        evaluate_batch = getattr(fitness, "evaluate_batch", None)
        if evaluate_batch is not None:
            self._evaluate: BatchFitness = evaluate_batch
        else:
            self._evaluate = fitness
        self._half_x = np.float64(self.config.x_max / 2.0)
        self._onehot_buf: Optional[np.ndarray] = None
        self._onehot_base: Optional[np.ndarray] = None
        self._onehot_set: Optional[np.ndarray] = None

    # -- public API --------------------------------------------------------------

    def optimize(
        self, initial_assignments: Optional[np.ndarray] = None
    ) -> PSOResult:
        """Run the swarm and return the best feasible assignment found.

        The iteration loop is allocation-free in its hot path: the
        position, velocity, one-hot, scratch and uniform-draw
        ``(P, N, C)`` buffers are allocated once and updated in place
        (every in-place formulation below is bit-identical to the
        original out-of-place expression), so a paper-scale swarm's
        per-generation cost is the fitness call plus the batched
        decode/repair, not allocator churn.

        Eq. 1 builds each pull in the buffer its uniform factor was
        drawn into — ``r *= phi; r *= (best - x); v += r`` is
        ``v += (phi * r) * (best - x)`` operand for operand — and ``r1``,
        ``r2`` are two consecutive fills of that one buffer: the
        generator hands out the same values in the same order whatever
        arithmetic runs between two draws.  Between a move and the next
        draw the buffer is dead, so the decode keeps its cumulative
        planes there.

        The last generation is not followed by a move: nothing would
        decode the moved swarm, and no result field can tell.  The one
        visible difference is the stream position the instance is left
        at — ``2 * P * N * C`` draws earlier — which only a second
        ``optimize()`` on the same instance would see; it would start a
        different (equally valid) swarm than it used to.
        """
        cfg = self.config
        p, n, c = cfg.n_particles, self.n_neurons, self.n_clusters

        positions = self.rng.uniform(-1.0, 1.0, size=(p, n, c))
        velocities = self.rng.uniform(-V_MAX / 2, V_MAX / 2, size=(p, n, c))
        scratch = np.empty_like(positions)
        r = np.empty_like(positions)
        # The decode's cumulative planes live in r's memory: the uniform
        # draws are dead from the end of one move to the next.
        planes = r.reshape(c, p, n)
        above = np.empty((c, p, n), dtype=bool)

        pbest_positions = positions.copy()
        pbest_fitness = np.full(p, np.inf)
        gbest_position = positions[0].copy()
        gbest_fitness = np.inf
        gbest_assignment = np.zeros(n, dtype=np.int64)

        if initial_assignments is not None:
            # Warm start: pin leading particles to the seeds AND evaluate
            # the seeds exactly, so the swarm's global best can never be
            # worse than any seed (the stochastic decode alone would
            # almost never reproduce a seed bit-for-bit).
            seeds = np.atleast_2d(np.asarray(initial_assignments, dtype=np.int64))
            self._seed_positions(positions, seeds)
            seeds = self._repair_batch(seeds)
            seed_fitness = np.asarray(self._evaluate(seeds), dtype=np.float64)
            onehot_seeds = self._one_hot(seeds)
            k = min(seeds.shape[0], p)
            pbest_fitness[:k] = seed_fitness[:k]
            pbest_positions[:k] = onehot_seeds[:k]
            best_seed = int(np.argmin(seed_fitness))
            gbest_fitness = float(seed_fitness[best_seed])
            gbest_position = onehot_seeds[best_seed].copy()
            gbest_assignment = seeds[best_seed].copy()

        history: List[float] = []
        n_evaluations = 0

        obs = get_observer()
        for iteration in range(1, cfg.n_iterations + 1):
            with obs.span("pso.iteration", iteration=iteration) as it_span:
                with obs.span("pso.decode_repair"):
                    assignments = self._binarize(positions, scratch, planes, above)
                    assignments = self._repair_batch(assignments)
                with obs.span("pso.evaluate", particles=p):
                    fitness = np.asarray(
                        self._evaluate(assignments), dtype=np.float64
                    )
                n_evaluations += p

            improved = fitness < pbest_fitness
            pbest_fitness = np.where(improved, fitness, pbest_fitness)
            onehot = self._one_hot(assignments)
            pbest_positions[improved] = onehot[improved]

            best_idx = int(np.argmin(fitness))
            if fitness[best_idx] < gbest_fitness:
                gbest_fitness = float(fitness[best_idx])
                gbest_position = onehot[best_idx].copy()
                gbest_assignment = assignments[best_idx].copy()
            history.append(gbest_fitness)
            # The span closed with the evaluation; attributes stay
            # writable, so record where the swarm stood afterwards.
            it_span.set(best_fitness=gbest_fitness)

            # Nothing decodes the swarm after the last evaluation: no
            # draws, no move.
            if iteration == cfg.n_iterations:
                break

            # In-place Eq. 1: the operands and operation order of
            # `inertia*v + cognitive*r1*(pbest-x) + social*r2*(gbest-x)`,
            # r1 then r2 drawn into the one buffer (see the docstring).
            velocities *= INERTIA
            for attractor, phi in (
                (pbest_positions, COGNITIVE),
                (gbest_position[None, :, :], SOCIAL),
            ):
                np.subtract(attractor, positions, out=scratch)
                self._rand(out=r)
                r *= phi
                r *= scratch
                velocities += r
            np.clip(velocities, -V_MAX, V_MAX, out=velocities)
            positions += velocities
            np.clip(positions, -cfg.x_max, cfg.x_max, out=positions)

        return PSOResult(
            best_assignment=gbest_assignment,
            best_fitness=gbest_fitness,
            history=np.asarray(history),
            n_evaluations=n_evaluations,
        )

    # -- internals ------------------------------------------------------------------

    def _rand(self, size=None, out=None) -> np.ndarray:
        """Uniform [0, 1) draws from the swarm stream: the one draw site
        of Eq. 1's factors and the decode's ``u``."""
        return self.rng.random(size=size, out=out)

    def _binarize(
        self,
        positions: np.ndarray,
        scratch: Optional[np.ndarray] = None,
        planes: Optional[np.ndarray] = None,
        above: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Decode real positions into one cluster per neuron (Eqs. 2-3).

        Stochastic rule: sample cluster ``k`` with probability
        proportional to ``sigmoid(x_{i,k})`` — the paper's
        rand()-vs-sigmoid test with the one-hot constraint enforced by
        drawing exactly one ``k`` per neuron: with ``cum[k]`` the running
        sum of the sigmoids over clusters ``0..k`` and ``u`` uniform, the
        neuron goes to the number of ``k`` with ``u * cum[C-1] > cum[k]``.

        The work is laid out cluster-major so that nothing reduces along
        the short cluster axis (numpy runs a reduction over 6 elements
        several times slower per element than a whole-array pass).
        ``planes[k]``, ``(C, P, N)``, is built by ``C - 1`` whole-plane
        adds ``planes[k-1] + s[:, :, k]``: the left-to-right order in
        which ``np.add.accumulate`` sums along an axis, so each plane is
        bit-equal to the column of the running sum over ``axis=2`` it
        replaces.  ``u`` is one ``(P, N)`` draw — as many values, at the
        same stream position, as a ``(P, N, 1)`` one — and the count
        runs over the leading axis of the ``(C, P, N)`` bool ``above``.
        ``scratch`` (shaped like ``positions``), ``planes`` and ``above``
        are workspaces, allocated here when not given.
        """
        if self.config.binarization == "argmax":
            return positions.argmax(axis=2).astype(np.int64)
        p, n, c = positions.shape
        if scratch is None:
            scratch = np.empty_like(positions)
            planes = np.empty((c, p, n), dtype=positions.dtype)
            above = np.empty((c, p, n), dtype=bool)
        # The op sequence of `1 / (1 + exp(-x))`.
        np.negative(positions, out=scratch)
        np.exp(scratch, out=scratch)
        scratch += 1.0
        np.divide(1.0, scratch, out=scratch)
        planes[0] = scratch[:, :, 0]
        for k in range(1, c):
            np.add(planes[k - 1], scratch[:, :, k], out=planes[k])
        u = self._rand(size=(p, n))
        u *= planes[-1]
        np.greater(u, planes, out=above)
        return above.sum(axis=0)

    def _repair_batch(self, assignments: np.ndarray) -> np.ndarray:
        # One vectorized call repairs the whole generation.  With a
        # move_cost, eviction is cost-sorted and fully deterministic — no
        # randomness is consumed at all.  Without one, repair_batch seeds
        # one child RNG stream per particle from a fixed-size draw on the
        # swarm stream, so a particle's randomness never depends on which
        # *other* particles happened to be infeasible that iteration.
        return repair_batch(
            assignments,
            self.n_clusters,
            self.capacity,
            rng=self.rng,
            move_cost=self.move_cost,
        )

    def _one_hot(self, assignments: np.ndarray) -> np.ndarray:
        """Attractor form of a ``(P, N)`` batch: ``+x_max/2`` at each
        neuron's cluster, ``-x_max/2`` elsewhere, so the pull toward a
        best position saturates the sigmoid decisively.

        The ``(P, N, C)`` buffer is reused across calls (callers copy
        what they keep): after the initial fill only the ``+half``
        entries change, so a call erases the previous batch's entries
        and writes the new ones — two O(P*N) scatters through the flat
        view at ``(p * N + n) * C + cluster``, the ``(p * N + n) * C``
        part cached, instead of an O(P*N*C) fill.  Ids must lie in
        ``[0, C)``; ``repair_batch`` checks every batch ``optimize``
        passes.
        """
        p, n = assignments.shape
        buf = self._onehot_buf
        if buf is None or buf.shape[0] != p:
            buf = np.empty((p, n, self.n_clusters), dtype=np.float64)
            buf.fill(-self._half_x)
            self._onehot_buf = buf
            self._onehot_base = np.arange(
                0, buf.size, self.n_clusters
            ).reshape(p, n)
            self._onehot_set = None
        flat = buf.reshape(-1)
        if self._onehot_set is not None:
            flat[self._onehot_set] = -self._half_x
        self._onehot_set = self._onehot_base + assignments
        flat[self._onehot_set] = self._half_x
        return buf

    def _seed_positions(
        self, positions: np.ndarray, initial_assignments: np.ndarray
    ) -> None:
        """Overwrite leading particles with provided assignments (warm start)."""
        if initial_assignments.ndim == 1:
            initial_assignments = initial_assignments[None, :]
        k = min(initial_assignments.shape[0], positions.shape[0])
        for i in range(k):
            onehot = np.full(
                (self.n_neurons, self.n_clusters),
                -self._half_x,
                dtype=np.float64,
            )
            onehot[np.arange(self.n_neurons), initial_assignments[i]] = (
                self._half_x
            )
            positions[i] = onehot
