"""Differential oracle for the per-target-set reach loop.

``TrafficMatrix._reach_blocks`` ORs ``1 << position`` over each distinct
target set once and then gathers the sets' words to their sources.  The
loop it replaced gathered one word per synapse pair and folded each
source's run with a ``bitwise_or.reduceat``; it lives on here verbatim
as the oracle.  Every reader of the loop — ``reach_masks``,
``packet_traffic_batch`` and the ``build_injections_batch`` columns —
must give ``==`` results whichever loop feeds it.  The generated graphs
are built to share target sets, which random graphs almost never do.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import traffic_matrix
from repro.core.traffic_matrix import TrafficMatrix
from repro.noc import traffic as noc_traffic
from repro.noc.topology import mesh_for
from repro.noc.traffic import build_injections_batch, n_mask_words
from repro.snn.graph import SpikeGraph

# -- the replaced implementation, verbatim -----------------------------------


def oracle_reach_blocks(self, assignments, index=None, n_bits=None, width=None):
    """The per-pair loop (its ``_run_starts`` derived from ``src`` here)."""
    new_run = np.ones(self.src.shape[0], dtype=bool)
    np.not_equal(self.src[1:], self.src[:-1], out=new_run[1:])
    run_starts = np.flatnonzero(new_run)
    a = self._rows(assignments)
    position = a if index is None else np.asarray(index, dtype=np.int64)[a]
    if n_bits is None:
        n_bits = int(position.max()) + 1 if position.size else 1
    if width is None:
        width = next((w for w in (8, 16, 32) if n_bits <= w), 64)
    word = np.dtype(f"u{width // 8}").type
    n_words = n_mask_words(n_bits, width)

    def blocks():
        if not self.n_pairs:
            return
        sources = self._run_sources
        block = max(1, traffic_matrix._BLOCK_BYTES // (width // 8 * self.n_pairs))
        for lo in range(0, a.shape[0], block):
            rows = position[lo : lo + block]
            # width is a power of two: divmod by shift and mask.
            in_word = rows >> (width.bit_length() - 1)
            bit = np.left_shift(word(1), (rows & (width - 1)).astype(word))
            for w in range(n_words):
                own = bit * (in_word == w)
                reach = np.bitwise_or.reduceat(
                    np.take(own, self.dst, axis=1), run_starts, axis=1
                )
                reach &= ~own[:, sources]
                yield lo, w, reach

    return a.shape[0], n_words, blocks()


# -- generated graphs that share target sets ----------------------------------


def _layered(rng, sizes):
    """Feed-forward layers; each layer's neurons share one fan-out."""
    offsets = np.cumsum([0, *sizes])
    src, dst = [], []
    for layer in range(len(sizes) - 1):
        width = sizes[layer + 1]
        fan_out = rng.choice(width, size=rng.integers(1, width + 1), replace=False)
        for neuron in range(offsets[layer], offsets[layer + 1]):
            src += [neuron] * fan_out.size
            dst += (fan_out + offsets[layer + 1]).tolist()
    return int(offsets[-1]), src, dst


def _overlapping(rng, n, n_bases):
    """Sources drawing from a few base sets, some with one member toggled;
    about one in five has no out-synapses."""
    bases = [
        set(rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist())
        for _ in range(n_bases)
    ]
    src, dst = [], []
    for neuron in range(n):
        if rng.random() < 0.2:
            continue
        targets = set(bases[rng.integers(n_bases)])
        if rng.random() < 0.4:
            targets ^= {int(rng.integers(n))}
        targets = rng.permutation(sorted(targets)).tolist()
        src += [neuron] * len(targets)
        dst += targets
    return n, src, dst


@st.composite
def shared_graphs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["layered", "overlapping", "random", "empty"]))
    if kind == "layered":
        n, src, dst = _layered(
            rng, draw(st.lists(st.integers(1, 12), min_size=2, max_size=4))
        )
    elif kind == "overlapping":
        n, src, dst = _overlapping(
            rng, draw(st.integers(1, 40)), draw(st.integers(1, 4))
        )
    elif kind == "random":
        n = draw(st.integers(1, 30))
        n_edges = int(rng.integers(0, 4 * n + 1))
        src = rng.integers(0, n, n_edges).tolist()
        dst = rng.integers(0, n, n_edges).tolist()
    else:
        n, src, dst = draw(st.integers(1, 10)), [], []
    if src and draw(st.booleans()):  # parallel synapses
        again = rng.choice(len(src), size=rng.integers(1, len(src) + 1))
        src += [src[i] for i in again]
        dst += [dst[i] for i in again]
    if draw(st.booleans()):  # self-loops
        loops = rng.choice(n, size=rng.integers(1, n + 1)).tolist()
        src += loops
        dst += loops
    order = rng.permutation(len(src))
    src = np.asarray(src, dtype=np.int64)[order]
    dst = np.asarray(dst, dtype=np.int64)[order]
    counts = rng.integers(0, 4, n)
    spike_times = [np.sort(rng.uniform(0.0, 5.0, c)) for c in counts]
    traffic = counts[src].astype(np.float64)
    return SpikeGraph.from_edges(n, src, dst, traffic, spike_times=spike_times)


#: Cluster counts on both sides of every reach-word width, and past 64.
CLUSTER_COUNTS = [1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 130]


@st.composite
def reach_cases(draw):
    graph = draw(shared_graphs())
    n_clusters = draw(st.sampled_from(CLUSTER_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, n_clusters, (draw(st.integers(1, 5)), graph.n_neurons))
    if draw(st.booleans()):
        a[0, 0] = n_clusters - 1  # the word width follows the highest id
    index = n_bits = None
    if draw(st.booleans()):
        n_bits = n_clusters + draw(st.integers(0, 70))
        index = rng.permutation(n_bits)[:n_clusters]
    return graph, a, index, n_bits, draw(st.booleans())


# -- the contract -------------------------------------------------------------


def _readers(m, graph, a, index, n_bits, topology):
    """Everything the reach loop feeds, for one ``TrafficMatrix``."""
    blocks = m._reach_blocks(a, index, n_bits)
    return (
        blocks[:2],
        [(lo, w, reach.dtype, reach.tolist()) for lo, w, reach in blocks[2]],
        m.reach_masks(a, index=index, n_bits=n_bits),
        m.packet_traffic_batch(a),
        build_injections_batch(graph, a, topology),
    )


def _schedule_columns(schedule):
    columns = (
        schedule.cycle,
        schedule.src_node,
        schedule.src_neuron,
        schedule.uid,
        schedule.dst_words,
    )
    counts = [schedule.n_source_neurons, schedule.n_spike_events]
    return [(c.dtype, c.shape, c.tobytes()) for c in columns] + counts


def _assert_same_as_oracle(graph, a, index, n_bits, one_row_blocks, monkeypatch):
    m = TrafficMatrix(graph)
    topology = mesh_for(int(a.max()) + 1)
    if one_row_blocks:
        monkeypatch.setattr(traffic_matrix, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(noc_traffic, "_BLOCK_BYTES", 1)
    got = _readers(m, graph, a, index, n_bits, topology)
    monkeypatch.setattr(TrafficMatrix, "_reach_blocks", oracle_reach_blocks)
    want = _readers(m, graph, a, index, n_bits, topology)
    monkeypatch.undo()
    assert got[:2] == want[:2]
    assert got[2].dtype == want[2].dtype == np.uint64
    assert np.array_equal(got[2], want[2])
    assert got[3].tolist() == want[3].tolist()
    got_schedules = [_schedule_columns(s) for s in got[4]]
    assert got_schedules == [_schedule_columns(s) for s in want[4]]


def _target_sets(graph):
    """Each source neuron's targets (self-loops dropped), by neuron."""
    sets = {}
    for s, d in zip(graph.src.tolist(), graph.dst.tolist()):
        if s != d:
            sets.setdefault(s, set()).add(d)
    return sets


class TestAgainstThePerPairLoop:
    @given(reach_cases())
    @settings(max_examples=150, deadline=None)
    def test_every_reader_gets_the_same_words(self, case):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _assert_same_as_oracle(*case, monkeypatch)

    @given(shared_graphs())
    @settings(max_examples=100, deadline=None)
    def test_one_set_per_distinct_target_set(self, graph):
        m = TrafficMatrix(graph)
        sets = _target_sets(graph)
        assert m._run_sources.tolist() == sorted(sets)
        ends = np.append(m._set_starts[1:], m._set_dst.shape[0])
        for source, s in zip(m._run_sources.tolist(), m._run_set.tolist()):
            members = m._set_dst[m._set_starts[s] : ends[s]].tolist()
            assert members == sorted(sets[source])
        assert m._set_starts.shape[0] == len({frozenset(t) for t in sets.values()})

    @pytest.mark.parametrize("n_clusters", [5, 70])
    def test_hash_collisions_cost_sharing_not_correctness(
        self, n_clusters, monkeypatch
    ):
        """Every slice hashing alike: only runs equal to the first share."""
        rng = np.random.default_rng(n_clusters)
        n, src, dst = _overlapping(rng, 30, 3)
        times = [np.array([1.0, 2.0])] * n
        graph = SpikeGraph.from_edges(n, src, dst, np.ones(len(src)), spike_times=times)

        def colliding(dst, starts, n_neurons):
            return np.zeros(starts.shape[0], dtype=np.uint64)

        monkeypatch.setattr(traffic_matrix, "_slice_digests", colliding)
        m = TrafficMatrix(graph)
        sets = _target_sets(graph)
        first = sets[int(m._run_sources[0])]
        assert m._set_starts.shape[0] == 1 + sum(t != first for t in sets.values())
        a = rng.integers(0, n_clusters, (4, n))
        _assert_same_as_oracle(graph, a, None, None, False, monkeypatch)

    @pytest.mark.parametrize(
        "app, pairs, set_pairs, sets",
        [("synth_2x200", 42_000, 400, 2), ("hello_world", 1_053, 9, 1)],
    )
    def test_bench_graphs_share_their_fan_out(self, app, pairs, set_pairs, sets):
        from repro.apps import build_application

        kwargs = {"duration_ms": 150.0} if app.startswith("synth") else {}
        m = TrafficMatrix(build_application(app, seed=2018, **kwargs))
        got = (m.n_pairs, m._set_dst.shape[0], m._set_starts.shape[0])
        assert got == (pairs, set_pairs, sets)
