"""The swarm loop against the loop it replaced.

``BinaryPSO`` decodes cluster-major (whole-plane adds, one ``(P, N)``
draw, a count over the leading axis), scatters its one-hot through a
flat index, draws both of Eq. 1's uniform factors into one buffer and
does not move the swarm after the last evaluation.  None of that may
change a bit of any result, so the replaced forms live on here as
oracles: the short-axis ``cumsum`` decode, the ``put_along_axis``
one-hot and the whole former ``optimize`` loop (two scratch buffers,
``r1``/``r2``, a move after every generation).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pso import COGNITIVE, INERTIA, SOCIAL, V_MAX, BinaryPSO, PSOConfig

# -- the replaced implementation ------------------------------------------------


def oracle_binarize(pso, positions):
    """``BinaryPSO._binarize`` before the cluster-major layout."""
    if pso.config.binarization == "argmax":
        return positions.argmax(axis=2).astype(np.int64)
    scratch = np.empty_like(positions)
    scratch2 = np.empty_like(positions)
    np.negative(positions, out=scratch)
    np.exp(scratch, out=scratch)
    scratch += 1.0
    np.divide(1.0, scratch, out=scratch)
    np.cumsum(scratch, axis=2, out=scratch2)
    totals = scratch2[:, :, -1:]
    u = pso._rand(size=positions.shape[:2] + (1,))
    u *= totals
    return (u > scratch2).sum(axis=2).astype(np.int64)


class OracleOneHot:
    """``BinaryPSO._one_hot`` before the flat-index scatter."""

    def __init__(self, pso):
        self.pso, self.buf, self.prev = pso, None, None

    def __call__(self, assignments):
        pso = self.pso
        p, n = assignments.shape
        if self.buf is None or self.buf.shape[0] != p:
            self.buf = np.empty((p, n, pso.n_clusters), dtype=np.float64)
            self.buf.fill(-pso._half_x)
            self.prev = None
        if self.prev is not None:
            np.put_along_axis(
                self.buf, self.prev[:, :, None], -pso._half_x, axis=2
            )
        np.put_along_axis(self.buf, assignments[:, :, None], pso._half_x, axis=2)
        self.prev = assignments
        return self.buf


def oracle_optimize(pso, initial_assignments=None):
    """``BinaryPSO.optimize`` before this rewrite, spans left out.

    Returns the result fields as a dict, the positions each generation
    decoded and the number of uniform buffer fills the loop made.
    """
    cfg = pso.config
    p, n, c = cfg.n_particles, pso.n_neurons, pso.n_clusters
    one_hot = OracleOneHot(pso)

    positions = pso.rng.uniform(-1.0, 1.0, size=(p, n, c))
    velocities = pso.rng.uniform(-V_MAX / 2, V_MAX / 2, size=(p, n, c))
    scratch = np.empty_like(positions)
    scratch2 = np.empty_like(positions)
    r1 = np.empty_like(positions)
    r2 = np.empty_like(positions)

    pbest_positions = positions.copy()
    pbest_fitness = np.full(p, np.inf)
    gbest_position = positions[0].copy()
    gbest_fitness = np.inf
    gbest_assignment = np.zeros(n, dtype=np.int64)

    if initial_assignments is not None:
        seeds = np.atleast_2d(np.asarray(initial_assignments, dtype=np.int64))
        pso._seed_positions(positions, seeds)
        seeds = pso._repair_batch(seeds)
        seed_fitness = np.asarray(pso._evaluate(seeds), dtype=np.float64)
        onehot_seeds = one_hot(seeds)
        k = min(seeds.shape[0], p)
        pbest_fitness[:k] = seed_fitness[:k]
        pbest_positions[:k] = onehot_seeds[:k]
        best_seed = int(np.argmin(seed_fitness))
        gbest_fitness = float(seed_fitness[best_seed])
        gbest_position = onehot_seeds[best_seed].copy()
        gbest_assignment = seeds[best_seed].copy()

    history = []
    n_evaluations = 0
    fills = 0
    decoded = []
    for _ in range(cfg.n_iterations):
        decoded.append(positions.copy())
        assignments = oracle_binarize(pso, positions)
        assignments = pso._repair_batch(assignments)
        fitness = np.asarray(pso._evaluate(assignments), dtype=np.float64)
        n_evaluations += p

        improved = fitness < pbest_fitness
        pbest_fitness = np.where(improved, fitness, pbest_fitness)
        onehot = one_hot(assignments)
        pbest_positions[improved] = onehot[improved]

        best_idx = int(np.argmin(fitness))
        if fitness[best_idx] < gbest_fitness:
            gbest_fitness = float(fitness[best_idx])
            gbest_position = onehot[best_idx].copy()
            gbest_assignment = assignments[best_idx].copy()
        history.append(gbest_fitness)

        pso._rand(out=r1)
        pso._rand(out=r2)
        fills += 2
        velocities *= INERTIA
        np.subtract(pbest_positions, positions, out=scratch)
        np.multiply(r1, COGNITIVE, out=scratch2)
        scratch2 *= scratch
        velocities += scratch2
        np.subtract(gbest_position[None, :, :], positions, out=scratch)
        np.multiply(r2, SOCIAL, out=scratch2)
        scratch2 *= scratch
        velocities += scratch2
        np.clip(velocities, -V_MAX, V_MAX, out=velocities)
        positions += velocities
        np.clip(positions, -cfg.x_max, cfg.x_max, out=positions)

    result = dict(
        best_assignment=gbest_assignment,
        best_fitness=gbest_fitness,
        history=np.asarray(history),
        n_evaluations=n_evaluations,
    )
    return result, decoded, fills


# -- helpers ---------------------------------------------------------------------


def _make(n, c, seed=0, fitness=None, move_cost=None, capacity=None, **cfg):
    if fitness is None:
        def fitness(batch):
            return np.zeros(batch.shape[0])
    return BinaryPSO(
        fitness,
        n_neurons=n,
        n_clusters=c,
        capacity=n if capacity is None else capacity,
        config=PSOConfig(**cfg),
        move_cost=move_cost,
        seed=seed,
    )


def _count_fills(pso):
    """Make ``pso`` count its ``_rand(out=...)`` calls; returns the box."""
    fills = [0]
    rand = pso._rand

    def counting(size=None, out=None):
        fills[0] += out is not None
        return rand(size=size, out=out)

    pso._rand = counting
    return fills


def _record_decoded(pso):
    """Make ``pso`` keep a copy of the positions it decodes each
    generation; returns the list.  The results alone would not show a
    last-bit change in Eq. 1 (a draw has to land within an ulp of a
    cumulative sum for one to flip a decode); the positions do."""
    decoded = []
    binarize = pso._binarize

    def recording(positions, *workspaces):
        decoded.append(positions.copy())
        return binarize(positions, *workspaces)

    pso._binarize = recording
    return decoded


@st.composite
def _decode_cases(draw):
    p = draw(st.integers(1, 7))
    n = draw(st.integers(1, 40))
    c = draw(st.sampled_from([1, 2, 3, 6, 9, 65]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    x_max = 10.0
    # A wide cloud clipped to the box: many entries sit exactly on
    # +-x_max (saturated sigmoids), as after a few hard moves.
    spread = draw(st.sampled_from([1.0, 8.0, 30.0]))
    positions = np.clip(rng.normal(0.0, spread, (p, n, c)), -x_max, x_max)
    if draw(st.booleans()):
        # Whole neurons with equal positions: equal sigmoids, so the
        # cumulative sums are small multiples of one value.
        positions[:, :: 2, :] = positions[:, :: 2, :1]
    return positions, draw(st.integers(0, 2**31 - 1))


# -- decode ----------------------------------------------------------------------


class TestDecodeOracle:
    @given(_decode_cases())
    @settings(max_examples=150, deadline=None)
    def test_same_assignments_and_same_stream_position(self, case):
        positions, seed = case
        p, n, c = positions.shape
        new = _make(n, c, seed=seed)
        old = _make(n, c, seed=seed)
        got = new._binarize(positions.copy())
        want = oracle_binarize(old, positions.copy())
        assert got.dtype == np.int64 and got.shape == (p, n)
        assert np.array_equal(got, want)
        assert new.rng.bit_generator.state == old.rng.bit_generator.state
        # A second decode continues the same stream, through caller-owned
        # workspaces this time (planes in any buffer of the right size,
        # as optimize() passes them).
        scratch = np.empty_like(positions)
        planes = np.empty_like(positions).reshape(c, p, n)
        above = np.empty((c, p, n), dtype=bool)
        got = new._binarize(positions, scratch, planes, above)
        assert np.array_equal(got, oracle_binarize(old, positions))
        assert new.rng.bit_generator.state == old.rng.bit_generator.state

    @pytest.mark.parametrize("c", [2, 4, 8])
    def test_exact_ties_fall_to_the_lower_cluster(self, c):
        """``u * total == cum[k]`` is not ``>``: the draw lands on ``k``.

        All-zero positions give sigmoids of exactly 0.5, so with ``c`` a
        power of two the cumulative sums ``(k + 1) / 2`` and the draws
        ``u = (k + 1) / c`` meet exactly; one ulp more lands on ``k + 1``.
        """
        n = 2 * c
        positions = np.zeros((3, n, c))
        k = np.arange(n) % (c - 1)
        ties = (k + 1) / c  # exact: c is a power of two
        for u, want in ((ties, k), (np.nextafter(ties, 1.0), k + 1)):
            u = np.broadcast_to(u, (3, n))
            new, old = _make(n, c), _make(n, c)
            new._rand = lambda size=None, out=None: u.reshape(size).copy()
            old._rand = new._rand
            got = new._binarize(positions)
            assert np.array_equal(got, oracle_binarize(old, positions))
            assert np.array_equal(got, np.broadcast_to(want, (3, n)))

    def test_argmax_mode_draws_nothing(self):
        pso = _make(5, 3, binarization="argmax")
        before = pso.rng.bit_generator.state
        positions = np.random.default_rng(1).normal(size=(4, 5, 3))
        assert np.array_equal(
            pso._binarize(positions), oracle_binarize(pso, positions)
        )
        assert pso.rng.bit_generator.state == before


# -- one-hot ---------------------------------------------------------------------


class TestOneHotOracle:
    def test_sequence_of_batches_equals_put_along_axis(self):
        pso = _make(11, 5)
        oracle = OracleOneHot(pso)
        rng = np.random.default_rng(4)
        # The swarm's batches, then a differently sized one (warm-start
        # seeds reallocate the buffer), then the swarm's size again.
        for p in (6, 6, 6, 2, 6, 6):
            a = rng.integers(0, 5, (p, 11))
            got, want = pso._one_hot(a), oracle(a)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_caller_may_reuse_its_array(self):
        """The erase list is the method's own index array, not the
        caller's batch."""
        pso = _make(4, 3)
        a = np.array([[0, 1, 2, 0]])
        pso._one_hot(a)
        a[:] = 2
        want = np.full((1, 4, 3), -pso._half_x)
        want[0, np.arange(4), [1, 1, 0, 2]] = pso._half_x
        assert np.array_equal(pso._one_hot(np.array([[1, 1, 0, 2]])), want)


# -- the whole loop --------------------------------------------------------------


def _fitness_bank(n, c):
    weights = np.arange(1, n + 1)

    def weighted(batch):
        return (batch * weights).sum(axis=1).astype(float) % 977

    def roughness(batch):
        return np.abs(np.diff(batch, axis=1, prepend=0)).sum(axis=1).astype(float)

    def some_infinite(batch):
        # Every third particle never scores: its pbest stays where the
        # swarm started (or on its warm-start seed).
        out = weighted(batch)
        out[::3] = np.inf
        return out

    def flat(batch):
        return np.full(batch.shape[0], 5.0)

    return dict(
        weighted=weighted, roughness=roughness,
        some_infinite=some_infinite, flat=flat,
    )


@st.composite
def _loop_cases(draw):
    n = draw(st.integers(2, 24))
    c = draw(st.integers(1, 5))
    capacity = draw(st.integers(-(-n // c), n))
    cfg = dict(
        n_particles=draw(st.integers(1, 9)),
        n_iterations=draw(st.integers(1, 7)),
        binarization=draw(st.sampled_from(["stochastic", "stochastic", "argmax"])),
    )
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    move_cost = rng.uniform(0, 5, n) if draw(st.booleans()) else None
    n_seeds = draw(st.sampled_from([0, 0, 1, 3, cfg["n_particles"] + 2]))
    warm = rng.integers(0, c, (n_seeds, n)) if n_seeds else None
    if n_seeds == 1 and draw(st.booleans()):
        warm = warm[0]  # the 1-D form
    name = draw(st.sampled_from(["weighted", "roughness", "some_infinite", "flat"]))
    return n, c, capacity, cfg, seed, move_cost, warm, name


class TestOptimizeOracle:
    @given(_loop_cases())
    @settings(max_examples=200, deadline=None)
    def test_every_result_field_equal(self, case):
        n, c, capacity, cfg, seed, move_cost, warm, name = case
        fitness = _fitness_bank(n, c)[name]
        kwargs = dict(
            seed=seed, fitness=fitness, move_cost=move_cost, capacity=capacity
        )
        new = _make(n, c, **kwargs, **cfg)
        fills, decoded = _count_fills(new), _record_decoded(new)
        got = dataclasses.asdict(new.optimize(warm))
        want, oracle_decoded, oracle_fills = oracle_optimize(
            _make(n, c, **kwargs, **cfg), warm
        )
        assert len(decoded) == len(oracle_decoded)
        for generation, (x, oracle_x) in enumerate(zip(decoded, oracle_decoded)):
            assert x.dtype == oracle_x.dtype
            assert np.array_equal(x, oracle_x), generation
        assert got.keys() == want.keys()
        for field, value in want.items():
            if isinstance(value, np.ndarray):
                assert got[field].dtype == value.dtype, field
                assert np.array_equal(got[field], value), field
            else:
                assert type(got[field]) is type(value), field
                assert got[field] == value, field
        # The one thing that differs: no move follows the generation
        # that exhausts n_iterations.
        assert oracle_fills - fills[0] == 2

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_k_generations_make_k_minus_one_moves(self, k):
        """Eq. 1's two uniform fills happen between generations only:
        nothing reads the positions, or the stream, after the last."""
        pso = _make(12, 3, n_particles=5, n_iterations=k)
        fills = _count_fills(pso)
        result = pso.optimize()
        assert len(result.history) == k
        assert result.n_evaluations == 5 * k
        assert fills[0] == 2 * (k - 1)
