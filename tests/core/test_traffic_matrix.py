"""Tests for traffic aggregation (Eqs. 6-7)."""

import numpy as np
import pytest

from repro.core.fitness import InterconnectFitness
from repro.core.traffic_matrix import (
    TrafficMatrix,
    cluster_traffic,
    local_global_split,
    synapse_split_counts,
)
from repro.snn.graph import SpikeGraph


class TestTrafficMatrix:
    def test_total(self, tiny_graph):
        m = TrafficMatrix(tiny_graph)
        assert m.total == tiny_graph.total_traffic()

    def test_parallel_synapses_merged(self):
        g = SpikeGraph.from_edges(2, [0, 0], [1, 1], [3.0, 4.0])
        m = TrafficMatrix(g)
        assert m.n_pairs == 1
        assert m.traffic[0] == 7.0

    def test_self_loops_dropped(self):
        g = SpikeGraph.from_edges(2, [0, 0], [0, 1], [5.0, 2.0])
        m = TrafficMatrix(g)
        assert m.n_pairs == 1
        assert m.total == 2.0

    def test_global_traffic_all_local(self, tiny_graph):
        m = TrafficMatrix(tiny_graph)
        assert m.global_traffic(np.zeros(8, dtype=int)) == 0.0

    def test_global_traffic_optimal_cut(self, tiny_graph):
        m = TrafficMatrix(tiny_graph)
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert m.global_traffic(a) == 5.0  # only the bridge

    def test_local_plus_global_is_total(self, tiny_graph):
        m = TrafficMatrix(tiny_graph)
        a = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        local, _ = local_global_split(tiny_graph, a)
        assert local + m.global_traffic(a) == m.total

    def test_batch_matches_scalar(self, tiny_graph):
        m = TrafficMatrix(tiny_graph)
        rng = np.random.default_rng(0)
        batch = rng.integers(0, 3, size=(16, 8))
        batched = m.global_traffic_batch(batch)
        scalar = np.array([m.global_traffic(row) for row in batch])
        assert np.allclose(batched, scalar)

    def test_batch_1d_input(self, tiny_graph):
        m = TrafficMatrix(tiny_graph)
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert m.global_traffic_batch(a)[0] == 5.0

    def test_batch_wrong_width_rejected(self, tiny_graph):
        m = TrafficMatrix(tiny_graph)
        with pytest.raises(ValueError):
            m.global_traffic_batch(np.zeros((4, 5), dtype=int))


class TestClusterTraffic:
    def test_eq7_matrix(self, tiny_graph):
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        matrix = cluster_traffic(tiny_graph, a, 2)
        assert matrix[0, 1] == 5.0   # the bridge 3 -> 4
        assert matrix[1, 0] == 0.0
        assert matrix[0, 0] == 0.0   # Eq. 7: zero diagonal
        assert matrix[1, 1] == 0.0

    def test_matrix_sum_equals_global_traffic(self, tiny_graph):
        a = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        matrix = cluster_traffic(tiny_graph, a, 2)
        m = TrafficMatrix(tiny_graph)
        assert matrix.sum() == m.global_traffic(a)

    def test_n_clusters_inferred(self, tiny_graph):
        a = np.array([0, 0, 0, 0, 2, 2, 2, 2])
        matrix = cluster_traffic(tiny_graph, a)
        assert matrix.shape == (3, 3)

    def test_wrong_length_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            cluster_traffic(tiny_graph, np.zeros(3, dtype=int))

    @pytest.mark.parametrize(
        "assignment",
        [
            [0, 0, 1, -1],  # used to land on the diagonal and be dropped
            [0, 0, -1, -1],  # used to be priced as 0 -> 1
            [-1, 0, 0, 0],  # a negative id whose neuron only sends
            [0, 0, 1, 2],  # one past the last crossbar
            [0, 5, 1, 1],
            [0, 1],  # wrong length
        ],
    )
    def test_both_estimators_reject_malformed_assignments(self, assignment):
        """Ids outside ``[0, n_crossbars)`` (or a wrong length) raise
        ``ValueError`` from ``cluster_traffic`` and both energy
        estimators instead of wrapping onto other crossbars."""
        from repro.framework import exploration
        from repro.hardware.presets import custom

        graph = SpikeGraph.from_edges(
            4, [0, 1, 2, 3, 2], [1, 2, 3, 0, 0], [3.0, 3.0, 2.0, 4.0, 2.0]
        )
        arch = custom(n_crossbars=2, neurons_per_crossbar=2)
        with pytest.raises(ValueError):
            cluster_traffic(graph, np.array(assignment), 2)
        for estimate in (
            exploration.estimate_synapse_energy_pj,
            exploration.estimate_interconnect_energy_pj,
        ):
            with pytest.raises(ValueError):
                estimate(graph, np.array(assignment), arch)


class TestSplits:
    def test_local_global_split(self, tiny_graph):
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        local, global_ = local_global_split(tiny_graph, a)
        assert global_ == 5.0
        assert local == tiny_graph.total_traffic() - 5.0

    def test_synapse_split_counts(self, tiny_graph):
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        local, global_ = synapse_split_counts(tiny_graph, a)
        assert global_ == 1
        assert local == tiny_graph.n_synapses - 1


# -- the spikes objective: a blocked sum over the synapse pairs ----------------


def oracle_global_traffic_batch(m, assignments):
    """The replaced batch form: a scipy csr x one-hot product."""
    from scipy import sparse

    a = np.asarray(assignments, dtype=np.int64)
    n_particles, n = a.shape
    csr = sparse.csr_matrix((m.traffic, (m.src, m.dst)), shape=(n, n))
    n_clusters = int(a.max()) + 1
    cols = (np.arange(n_particles)[:, None] * n_clusters + a).astype(np.int64)
    x = np.zeros((n, n_particles * n_clusters), dtype=np.float64)
    x[np.arange(n)[None, :].repeat(n_particles, axis=0).ravel(), cols.ravel()] = 1.0
    y = csr.dot(x)
    intra = (x * y).sum(axis=0).reshape(n_particles, n_clusters).sum(axis=1)
    return m.total - intra


class TestGlobalTrafficBatch:
    # The assignments are held in the narrowest word that holds the
    # highest id: one byte up to id 255, two bytes past it.
    @pytest.mark.parametrize("n_particles", [1, 2, 9])
    @pytest.mark.parametrize(
        "n_clusters, word",
        [(4, np.uint8), (256, np.uint8), (257, np.uint16), (600, np.uint16)],
    )
    def test_integer_traffic_is_exact(self, n_particles, n_clusters, word):
        g = _random_graph(40, 300, seed=n_clusters)
        m = TrafficMatrix(g)
        a = np.random.default_rng(n_particles).integers(
            0, n_clusters, (n_particles, 40)
        )
        a[-1, 5] = n_clusters - 1
        assert np.min_scalar_type(int(a.max())) == word
        a[:, 6] = a[:, 7]  # at least one local pair per row
        got = m.global_traffic_batch(a)
        assert got.dtype == np.float64 and got.shape == (n_particles,)
        assert np.array_equal(got, oracle_global_traffic_batch(m, a))
        assert got.tolist() == [m.global_traffic(row) for row in a]

    def test_float_traffic_within_rounding(self):
        g = _random_graph(40, 300, seed=11, integer_traffic=False)
        m = TrafficMatrix(g)
        a = np.random.default_rng(4).integers(0, 6, (8, 40))
        got = m.global_traffic_batch(a)
        np.testing.assert_allclose(got, oracle_global_traffic_batch(m, a), rtol=1e-9)
        np.testing.assert_allclose(
            got, [m.global_traffic(row) for row in a], rtol=1e-9
        )

    def test_pairs_in_many_blocks(self, monkeypatch):
        from repro.core import traffic_matrix

        g = _random_graph(40, 300, seed=13)
        m = TrafficMatrix(g)
        a = np.random.default_rng(6).integers(0, 5, (7, 40))
        whole = m.global_traffic_batch(a)
        # Room for 11 pairs of 7 rows a block: the last block is short.
        assert m.n_pairs % 11
        monkeypatch.setattr(traffic_matrix, "_SUM_BLOCK_BYTES", 8 * 7 * 11)
        assert np.array_equal(m.global_traffic_batch(a), whole)
        assert np.array_equal(whole, oracle_global_traffic_batch(m, a))

    def test_no_pairs_no_traffic(self):
        m = TrafficMatrix(SpikeGraph.from_edges(3, [1], [1], [4.0]))
        assert m.n_pairs == 0
        assert m.global_traffic_batch(np.zeros((2, 3), dtype=int)).tolist() == [0, 0]


# -- remote reach: one primitive behind the packets objective ------------------


def oracle_packet_traffic(m, assignment):
    """The replaced scalar form: one ``np.unique`` per assignment."""
    a = np.asarray(assignment, dtype=np.int64)
    src_c = a[m.src]
    dst_c = a[m.dst]
    cross = src_c != dst_c
    if not cross.any():
        return 0.0
    n_clusters = int(a.max()) + 1
    pair = m.src[cross] * n_clusters + dst_c[cross]
    neurons = np.unique(pair) // n_clusters
    return float(m.neuron_spikes[neurons].sum())


def oracle_packet_traffic_batch(m, assignments):
    """The replaced batch form: a scipy adjacency x one-hot product."""
    from scipy import sparse

    a = np.asarray(assignments, dtype=np.int64)
    n_particles, n = a.shape
    adj = sparse.csr_matrix(
        (np.ones_like(m.traffic), (m.src, m.dst)), shape=(n, n)
    )
    n_clusters = int(a.max()) + 1
    cols = (np.arange(n_particles)[:, None] * n_clusters + a).astype(np.int64)
    x = np.zeros((n, n_particles * n_clusters), dtype=np.float64)
    x[np.arange(n)[None, :].repeat(n_particles, axis=0).ravel(), cols.ravel()] = 1.0
    reach = (adj.dot(x) > 0).astype(np.float64)
    reach3 = reach.reshape(n, n_particles, n_clusters)
    own = np.take_along_axis(reach3, a.T[:, :, None], axis=2)[:, :, 0]
    return m.neuron_spikes @ (reach3.sum(axis=2) - own)


def _random_graph(n, n_edges, seed, integer_traffic=True):
    """Parallel synapses, self-loops and neurons without out-synapses
    included; a synapse's traffic is its source neuron's spike count."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, n_edges)
    dst = rng.integers(0, n, n_edges)
    spikes = rng.integers(0, 40, n).astype(np.float64)
    if not integer_traffic:
        spikes = spikes * rng.uniform(0.1, 3.0, n)
    return SpikeGraph.from_edges(n, src, dst, spikes[src])


def brute_force_reach(graph, assignment):
    """neuron -> set of remote clusters, one synapse at a time."""
    reach = [set() for _ in range(graph.n_neurons)]
    for s, d in zip(graph.src.tolist(), graph.dst.tolist()):
        if assignment[s] != assignment[d]:
            reach[s].add(int(assignment[d]))
    return reach


def mask_members(words):
    """Set bit positions of one ``(n_words,)`` mask."""
    return {
        64 * w + b
        for w, word in enumerate(words.tolist())
        for b in range(64)
        if word >> b & 1
    }


class TestReachMasks:
    @pytest.mark.parametrize("n_clusters", [3, 64, 65, 200])
    def test_masks_are_the_remote_cluster_sets(self, n_clusters):
        g = _random_graph(30, 150, seed=n_clusters)
        m = TrafficMatrix(g)
        a = np.random.default_rng(1).integers(0, n_clusters, (3, 30))
        masks = m.reach_masks(a, n_bits=n_clusters)
        assert masks.dtype == np.uint64
        assert masks.shape == (3, 30, -(-n_clusters // 64))
        for row, row_masks in zip(a, masks):
            want = brute_force_reach(g, row)
            assert [mask_members(w) for w in row_masks] == want

    def test_index_renumbers_the_bits(self):
        g = _random_graph(20, 80, seed=3)
        m = TrafficMatrix(g)
        a = np.random.default_rng(2).integers(0, 5, (2, 20))
        index = np.array([70, 3, 64, 0, 129])  # spread over three words
        masks = m.reach_masks(a, index=index, n_bits=130)
        assert masks.shape == (2, 20, 3)
        for row, row_masks in zip(a, masks):
            want = [{int(index[c]) for c in s} for s in brute_force_reach(g, row)]
            assert [mask_members(w) for w in row_masks] == want

    def test_no_synapses_no_reach(self):
        g = SpikeGraph.from_edges(4, [], [], [])
        m = TrafficMatrix(g)
        assert not m.reach_masks(np.arange(4)[None, :]).any()
        assert m.packet_traffic(np.arange(4)) == 0.0

    def test_wrong_width_rejected(self, tiny_graph):
        m = TrafficMatrix(tiny_graph)
        with pytest.raises(ValueError, match="neurons"):
            m.reach_masks(np.zeros((4, 5), dtype=int))
        with pytest.raises(ValueError, match="neurons"):
            m.packet_traffic_batch(np.zeros((4, 5), dtype=int))

    def test_negative_cluster_id_rejected(self):
        """A shift by a negative id sets no bit: ``[0, 0, -1, 1]`` used
        to score 3.0 packets (8.0 with -1 read as a cluster) and all -1
        scored 0.0, the optimum.  Every reader of the reach loop raises
        what the schedule builder raises."""
        g = SpikeGraph.from_edges(4, [0, 0, 1, 2], [1, 2, 3, 3], [5, 5, 2, 1])
        m = TrafficMatrix(g)
        fitness = InterconnectFitness(g, objective="packets")
        for bad in ([0, 0, -1, 1], [[0, 0, 1, 1], [-1, -1, -1, -1]]):
            for reader in (
                m.reach_masks,
                m.packet_traffic_batch,
                fitness.evaluate_batch,
                lambda a: m.reach_masks(a, index=np.arange(3), n_bits=3),
            ):
                with pytest.raises(ValueError, match="negative cluster id -1"):
                    reader(np.array(bad))
        with pytest.raises(ValueError, match="negative cluster id -2"):
            m.packet_traffic(np.array([0, -2, -1, 1]))
        with pytest.raises(ValueError, match="negative cluster id -1"):
            fitness.evaluate(np.array([0, 0, -1, 1]))
        assert m.packet_traffic(np.array([0, 0, 2, 1])) == 8.0

    def test_negative_cluster_id_rejected_by_the_spikes_objective(self):
        """Row ``p``'s cluster -1 used to land in one-hot column ``p * C -
        1``, which is row ``p - 1``'s: the first batch scored ``[17, 4]``
        instead of ``[17, 11]``, the second ``[9, 4]``."""
        g = SpikeGraph.from_edges(4, [0, 1, 2, 3, 0], [1, 2, 3, 0, 2], [5, 3, 2, 7, 1])
        m = TrafficMatrix(g)
        fitness = InterconnectFitness(g)
        for bad in (
            [[0, -1, 0, -1], [1, 1, 0, 0]],
            [[0, 0, 0, -1], [1, 1, 0, 0]],
            [0, 0, -1, 1],
        ):
            for reader in (m.global_traffic_batch, fitness.evaluate_batch):
                with pytest.raises(ValueError, match="negative cluster id -1"):
                    reader(np.array(bad))
        relabelled = np.array([[0, 2, 0, 2], [1, 1, 0, 0]])
        assert m.global_traffic_batch(relabelled).tolist() == [17.0, 11.0]
        assert [m.global_traffic(row) for row in relabelled] == [17.0, 11.0]


class TestPacketTraffic:
    @pytest.mark.parametrize("n_particles", [1, 2, 9])
    @pytest.mark.parametrize("n_clusters", [4, 70])
    def test_integer_traffic_is_exact(self, n_particles, n_clusters):
        g = _random_graph(40, 300, seed=7)
        m = TrafficMatrix(g)
        a = np.random.default_rng(n_particles).integers(
            0, n_clusters, (n_particles, 40)
        )
        batched = m.packet_traffic_batch(a)
        assert batched.dtype == np.float64 and batched.shape == (n_particles,)
        assert np.array_equal(batched, oracle_packet_traffic_batch(m, a))
        assert batched.tolist() == [oracle_packet_traffic(m, row) for row in a]
        assert batched.tolist() == [m.packet_traffic(row) for row in a]

    def test_float_traffic_within_rounding(self):
        g = _random_graph(40, 300, seed=11, integer_traffic=False)
        m = TrafficMatrix(g)
        a = np.random.default_rng(4).integers(0, 6, (8, 40))
        batched = m.packet_traffic_batch(a)
        np.testing.assert_allclose(
            batched, oracle_packet_traffic_batch(m, a), rtol=1e-9
        )
        np.testing.assert_allclose(
            batched, [oracle_packet_traffic(m, row) for row in a], rtol=1e-9
        )

    def test_batch_larger_than_one_row_block(self, monkeypatch):
        from repro.core import traffic_matrix

        g = _random_graph(40, 300, seed=13)
        m = TrafficMatrix(g)
        a = np.random.default_rng(6).integers(0, 70, (7, 40))
        whole = m.packet_traffic_batch(a)
        # Room for two rows of gathered words a block: 2 + 2 + 2 + 1.
        monkeypatch.setattr(traffic_matrix, "_BLOCK_BYTES", 8 * m.n_pairs * 2)
        assert np.array_equal(m.packet_traffic_batch(a), whole)
        assert np.array_equal(whole, oracle_packet_traffic_batch(m, a))

    # One either side of every reach-word width: uint8 holds 8 clusters,
    # uint16 16, uint32 32, one uint64 64, then several uint64 words.
    @pytest.mark.parametrize(
        "n_clusters, word, n_words",
        [
            (7, np.uint8, 1), (8, np.uint8, 1),
            (9, np.uint16, 1), (16, np.uint16, 1),
            (17, np.uint32, 1), (32, np.uint32, 1),
            (33, np.uint64, 1), (64, np.uint64, 1),
            (65, np.uint64, 2), (200, np.uint64, 4),
        ],
    )
    def test_is_the_popcount_of_reach_masks_at_every_word_width(
        self, n_clusters, word, n_words, monkeypatch
    ):
        from repro.core import traffic_matrix

        g = _random_graph(50, 600, seed=n_clusters)
        m = TrafficMatrix(g)
        a = np.random.default_rng(n_clusters).integers(0, n_clusters, (7, 50))
        a[3, 10] = n_clusters - 1  # the width follows the highest id used
        want = np.bitwise_count(m.reach_masks(a)).sum(axis=2) @ m.neuron_spikes
        got = m.packet_traffic_batch(a)
        assert np.array_equal(got, want)
        assert got.tolist() == [oracle_packet_traffic(m, row) for row in a]
        assert m.packet_traffic_batch(a[3]).tolist() == [want[3]]
        # The words the objective popcounts: as narrow as the ids allow.
        n_rows, counted_words, blocks = m._reach_blocks(a)
        blocks = list(blocks)
        assert (n_rows, counted_words) == (7, n_words)
        assert [w for _, w, _ in blocks] == list(range(n_words))
        assert {reach.dtype for _, _, reach in blocks} == {np.dtype(word)}
        # The same batch, two rows of gathered words at a time.
        monkeypatch.setattr(
            traffic_matrix, "_BLOCK_BYTES", np.dtype(word).itemsize * m.n_pairs * 2
        )
        assert [lo for lo, _, _ in m._reach_blocks(a)[2]] == [
            lo for lo in (0, 2, 4, 6) for _ in range(n_words)
        ]
        assert np.array_equal(m.packet_traffic_batch(a), want)
        assert np.array_equal(m.reach_masks(a), m.reach_masks(a[::-1])[::-1])

    @pytest.mark.parametrize("n_clusters", [12, 24, 50, 70])
    def test_float_traffic_within_rounding_at_wider_words(self, n_clusters):
        g = _random_graph(40, 300, seed=11, integer_traffic=False)
        m = TrafficMatrix(g)
        a = np.random.default_rng(4).integers(0, n_clusters, (8, 40))
        np.testing.assert_allclose(
            m.packet_traffic_batch(a),
            [oracle_packet_traffic(m, row) for row in a],
            rtol=1e-9,
        )

    def test_1d_input_is_a_batch_of_one(self, tiny_graph):
        m = TrafficMatrix(tiny_graph)
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert m.packet_traffic_batch(a).tolist() == [m.packet_traffic(a)]
        assert m.packet_traffic(a) == oracle_packet_traffic(m, a)

    def test_all_local_is_zero(self, tiny_graph):
        m = TrafficMatrix(tiny_graph)
        assert m.packet_traffic(np.zeros(8, dtype=int)) == 0.0
        assert not m.packet_traffic_batch(np.zeros((3, 8), dtype=int)).any()
