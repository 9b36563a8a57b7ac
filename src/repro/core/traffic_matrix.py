"""Spike-traffic aggregation (paper Eqs. 6-7).

The spike graph gives per-synapse traffic ``T_ij`` (spikes the synapse
carries).  For a candidate partition we need two aggregates:

- ``cluster_traffic`` — the C x C matrix ``spikes(k1, k2)`` of Eq. 7:
  spikes crossing from crossbar ``k1`` to ``k2`` (zero diagonal);
- fast scalar fitness — the off-diagonal sum (Eq. 8), which
  :mod:`repro.core.fitness` evaluates for whole swarms at once.

:class:`TrafficMatrix` pre-aggregates the graph's edges into unique
(src, dst) neuron pairs with summed traffic, sorted by source.  On top
of them sits the one *remote-reach* primitive of the repo,
:meth:`TrafficMatrix.reach_masks`: per (particle, neuron) the set of
remote crossbars (or routers) the neuron's synapses reach, as bitmasks.
A spike costs the interconnect one AER packet per member of that set, so
both the closed-form ``packets`` objective (a popcount of the masks) and
the NoC schedules of :mod:`repro.noc.traffic` (the masks *are* the
destination words) read it, and so do the analytic energy estimates
of :mod:`repro.framework.exploration`.

A neuron's reach depends only on its *target set* and its own cluster,
and on feed-forward graphs most sources share their whole target set
with others: of the bench graphs, synth_2x200's 42 000 pairs hold 2
distinct sets (400 pairs), hello_world's 1 053 one set (9 pairs) and
digit_recognition's 258 500 pairs 501 sets (62 750 pairs); heartbeat
and image_smoothing share none.  So the loop ORs ``1 << position`` over
each distinct set once, gathers each set's words to its sources and
clears each source's own bit — the same words as one OR per source,
since OR ignores order and the own bit stays per source.  The sets are
found once per matrix (:meth:`TrafficMatrix._group_target_sets`); with
none shared the set-to-source gather is the identity.  The loop takes
the word type as a parameter: schedules get ``uint64`` words, the kernel's
format; the objective, which only counts bits, gets the narrowest
unsigned type that holds the cluster count (one byte per gathered word
at up to 8 crossbars instead of eight) — chosen from the assignments,
not by an option, and the same bits either way, so the objective's
exactness contract does not depend on it.

The per-synapse ``spikes`` objective (:meth:`TrafficMatrix.global_traffic_batch`)
sums the traffic of same-crossbar pairs a block of pairs at a time.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.noc.traffic import n_mask_words
from repro.snn.graph import SpikeGraph
from repro.utils.validation import check_index_range

#: Transient bytes the reach loop may hold per row block (the wider of
#: the ``(rows, set pairs)`` gather and the ``(rows, sources)`` words),
#: so peak memory does not grow with the swarm size.
_BLOCK_BYTES = 1 << 22

#: Bytes of the float64 ``(pairs, rows)`` buffer the ``spikes`` sum reuses
#: per block of pairs: small enough to stay in cache.
_SUM_BLOCK_BYTES = 1 << 20


def _slice_digests(dst: np.ndarray, starts: np.ndarray, n_neurons: int) -> np.ndarray:
    """An order-free uint64 hash of each slice ``dst[starts[i]:starts[i+1]]``.

    splitmix64's finalizer of each neuron id, summed (mod 2**64) per
    slice: equal slices hash equal, unequal ones almost never do.
    """
    z = np.arange(n_neurons, dtype=np.uint64)
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.add.reduceat(z[dst], starts)


class TrafficMatrix:
    """Neuron-level spike-traffic matrix with cluster aggregation helpers."""

    def __init__(self, graph: SpikeGraph) -> None:
        self.n_neurons = graph.n_neurons
        # Per-neuron outgoing spike count, taken from the *raw* edges:
        # every out-synapse of a neuron carries that neuron's full spike
        # train, so each raw edge's traffic equals the neuron's spike
        # count and max() recovers it exactly.  (Computed before pair
        # merging — merged parallel synapses would double-count.)
        self.neuron_spikes = np.zeros(self.n_neurons, dtype=np.float64)
        if graph.src.size:
            np.maximum.at(self.neuron_spikes, graph.src, graph.traffic)
        # Merge parallel synapses between the same neuron pair: their
        # traffic adds, and the optimizer only sees pairwise totals.
        pair_key = graph.src * graph.n_neurons + graph.dst
        order = np.argsort(pair_key, kind="stable")
        key_sorted = pair_key[order]
        first = np.ones(key_sorted.shape[0], dtype=bool)
        np.not_equal(key_sorted[1:], key_sorted[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        unique_keys = key_sorted[starts]
        sums = np.add.reduceat(graph.traffic[order], starts) if starts.size else (
            np.empty(0, dtype=np.float64)
        )
        self.src = (unique_keys // graph.n_neurons).astype(np.int64)
        self.dst = (unique_keys % graph.n_neurons).astype(np.int64)
        self.traffic = np.asarray(sums, dtype=np.float64)
        # Self-loops can never be global; drop them from the hot arrays.
        off_diag = self.src != self.dst
        self.src = self.src[off_diag]
        self.dst = self.dst[off_diag]
        self.traffic = self.traffic[off_diag]
        self.total = float(self.traffic.sum())
        # The pairs are sorted by (src, dst): each source neuron owns one
        # run, and the run's dst slice *is* the neuron's target set.
        new_run = np.ones(self.src.shape[0], dtype=bool)
        np.not_equal(self.src[1:], self.src[:-1], out=new_run[1:])
        run_starts = np.flatnonzero(new_run)
        self._run_sources = self.src[run_starts]
        self._run_spikes = self.neuron_spikes[self._run_sources]
        self._group_target_sets(run_starts)

    def _group_target_sets(self, run_starts: np.ndarray) -> None:
        """Give the source runs that hold the same targets one set.

        Sets ``_set_dst`` / ``_set_starts`` (the distinct dst slices,
        concatenated, and where each begins) and ``_run_set`` (each
        source run's set).  Candidates share an order-free hash of their
        slice; a run joins the first run of its hash only if the two
        slices are equal element for element, so a collision costs
        sharing, never correctness.
        """
        n_runs = run_starts.shape[0]
        self._set_dst, self._set_starts = self.dst, run_starts
        self._run_set = np.arange(n_runs)
        digest = _slice_digests(self.dst, run_starts, self.n_neurons)
        by_digest = np.argsort(digest, kind="stable")
        ordered = digest[by_digest]
        head = np.ones(n_runs, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
        if head.all():
            return  # no two sources can share a set
        rep = np.empty(n_runs, dtype=np.int64)
        rep[by_digest] = by_digest[head][np.cumsum(head) - 1]
        lengths = np.diff(run_starts, append=self.n_pairs)
        cand = (rep != self._run_set) & (lengths == lengths[rep])
        # partner[p]: the pair at p's offset in its representative's run
        # (p itself outside candidates, whose lengths match by now).
        partner = np.repeat(np.where(cand, run_starts[rep] - run_starts, 0), lengths)
        partner += np.arange(self.n_pairs)
        same = np.logical_and.reduceat(self.dst[partner] == self.dst, run_starts)
        heads = ~(cand & same)
        rep[heads] = self._run_set[heads]
        self._run_set = (np.cumsum(heads) - 1)[rep]
        self._set_dst = self.dst[np.repeat(heads, lengths)]
        self._set_starts = np.cumsum(lengths[heads]) - lengths[heads]

    @property
    def n_pairs(self) -> int:
        return int(self.src.shape[0])

    # -- scalar evaluation ----------------------------------------------------

    def global_traffic(self, assignment: np.ndarray) -> float:
        """Eq. 8: spikes crossing crossbar boundaries under ``assignment``.

        A negative cluster id raises ``ValueError``, as in the batch form.
        """
        a = self._rows(assignment)[0]
        cross = a[self.src] != a[self.dst]
        return float(self.traffic[cross].sum())

    # -- batched evaluation (one swarm at a time) --------------------------------

    def global_traffic_batch(self, assignments: np.ndarray) -> np.ndarray:
        """Eq. 8 for a (P, N) batch of assignments (or one), shape (P,).

        ``total`` minus, per row, the traffic of the pairs whose neurons
        share a cluster: ``at[src] == at[dst]`` on the rows transposed, in
        the narrowest unsigned word that holds the highest id, a block of
        pairs at a time into one reused float64 buffer, weighted by the
        block's traffic.  Exact for integer traffic, as every simulated
        graph's is.  A negative cluster id raises ``ValueError``.
        """
        a = self._rows(assignments)
        n_rows = a.shape[0]
        word = np.min_scalar_type(int(a.max(initial=0)))
        at = np.ascontiguousarray(a.T, dtype=word)
        block = max(1, _SUM_BLOCK_BYTES // (8 * max(n_rows, 1)))
        same = np.empty((min(block, self.n_pairs), n_rows))
        intra = np.zeros(n_rows)
        for lo in range(0, self.n_pairs, block):
            src, dst = self.src[lo : lo + block], self.dst[lo : lo + block]
            eq = same[: src.shape[0]]
            np.equal(at[src], at[dst], out=eq)
            intra += self.traffic[lo : lo + block] @ eq
        return self.total - intra

    def _rows(self, assignments: np.ndarray) -> np.ndarray:
        """``assignments`` as checked ``(rows, N)`` int64 cluster ids."""
        a = np.asarray(assignments, dtype=np.int64)
        if a.ndim == 1:
            a = a[None, :]
        if a.shape[1] != self.n_neurons:
            raise ValueError(
                f"assignments cover {a.shape[1]} neurons, expected "
                f"{self.n_neurons}"
            )
        if a.size and int(a.min()) < 0:
            # Indexing would wrap a negative id to the last clusters,
            # and a shift by it scores as "reaches nothing".
            raise ValueError(
                f"assignments contain negative cluster id {int(a.min())}"
            )
        return a

    # -- remote reach and AER packet counting ---------------------------------

    def _reach_blocks(self, assignments, index=None, n_bits=None, width=None):
        """The reach loop behind :meth:`reach_masks` and
        :meth:`packet_traffic_batch`.

        Returns ``(n_rows, n_words, blocks)``.  ``blocks`` yields
        ``(lo, w, reach)``: for the rows from ``lo`` on, mask word ``w``
        of every neuron that has out-synapses, ``(rows,
        len(_run_sources))`` unsigned integers of ``width`` bits — by
        default the narrowest of 8/16/32/64 that holds ``n_bits``.  Bit
        position ``b`` is bit ``b % width`` of word ``b // width``.
        Per block and word: one gather over the distinct target sets'
        pairs, one ``bitwise_or.reduceat`` per set, one gather of the
        sets' words to their sources, minus each source's own bit.
        """
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
            widest = max(self._set_dst.shape[0], sources.shape[0])
            block = max(1, _BLOCK_BYTES // (width // 8 * widest))
            for lo in range(0, a.shape[0], block):
                rows = position[lo : lo + block]
                # width is a power of two: divmod by shift and mask.
                in_word = rows >> (width.bit_length() - 1)
                bit = np.left_shift(word(1), (rows & (width - 1)).astype(word))
                for w in range(n_words):
                    own = bit * (in_word == w)
                    sets = np.bitwise_or.reduceat(
                        np.take(own, self._set_dst, axis=1), self._set_starts, axis=1
                    )
                    reach = np.take(sets, self._run_set, axis=1)
                    reach &= ~own[:, sources]
                    yield lo, w, reach

        return a.shape[0], n_words, blocks()

    def reach_masks(
        self,
        assignments: np.ndarray,
        index: Optional[np.ndarray] = None,
        n_bits: Optional[int] = None,
    ) -> np.ndarray:
        """Remote-reach bitmasks, ``(P, N, n_words)`` uint64.

        Bit ``index[c]`` of row ``[p, n]`` (word ``index[c] // 64``) is
        set when, under ``assignments[p]``, neuron ``n`` has a target on
        cluster ``c`` other than its own cluster.  ``index`` maps
        cluster ids to bit positions and must be injective; the default
        is the identity (bit ``c`` = cluster ``c``), schedules pass the
        dense router index of each cluster's attach point.  ``n_bits``
        sizes the masks (default: just past the highest position used).
        A negative cluster id raises ``ValueError``; ids past the end of
        ``index`` are the caller's to check.

        One ``1 << position`` per neuron, one gather over the pairs of
        the distinct target sets, one ``bitwise_or.reduceat`` per set and
        one gather of the sets' words to their source neurons, per mask
        word — any number of clusters, no per-particle work, and a cost
        that follows the graph's distinct fan-out rather than its
        synapse count.  Rows go through in blocks of at most
        ``_BLOCK_BYTES`` of gathered words.
        """
        n_rows, n_words, blocks = self._reach_blocks(
            assignments, index, n_bits, width=64
        )
        masks = np.zeros((n_rows, self.n_neurons, n_words), dtype=np.uint64)
        for lo, w, reach in blocks:
            masks[lo : lo + reach.shape[0], self._run_sources, w] = reach
        return masks

    def packet_traffic(self, assignment: np.ndarray) -> float:
        """AER packets on the interconnect under multicast delivery.

        A neuron reaching k remote crossbars sends each of its spikes as k
        unicast-equivalent packets — one per (neuron, remote crossbar)
        flow — regardless of how many synapses land on each crossbar.
        This is what a multicast AER interconnect actually carries.
        """
        return float(self.packet_traffic_batch(assignment)[0])

    def packet_traffic_batch(self, assignments: np.ndarray) -> np.ndarray:
        """AER packet counts for a (P, N) batch of assignments (or one).

        ``sum_n spikes_n * |reach(p, n)|``: a popcount of the reach
        words weighted by the per-neuron spike counts.  The words come
        from one OR per distinct target set, gathered to the sources, so
        a swarm pays for the graph's distinct fan-out (2 sets on
        synth_2x200's 42 000 pairs), not for its synapses.  Only the count
        is read, so the words are as narrow as the cluster count allows
        (uint8 up to 8 clusters ... uint64 up to 64, several uint64 words
        past that — a function of the input, the same loop as
        :meth:`reach_masks`) and stay on the neurons that have
        out-synapses.  Exact (order-independent) whenever the spike
        counts are integer-valued, as every simulated graph's are; for
        arbitrary float traffic the dot product may differ from a
        neuron-by-neuron sum in the last bits.
        """
        n_rows, _, blocks = self._reach_blocks(assignments)
        packets = np.zeros(n_rows, dtype=np.float64)
        for lo, _, reach in blocks:
            packets[lo : lo + reach.shape[0]] += (
                np.bitwise_count(reach) @ self._run_spikes
            )
        return packets


def cluster_traffic(
    graph: SpikeGraph,
    assignment: np.ndarray,
    n_clusters: Optional[int] = None,
) -> np.ndarray:
    """Eq. 7: the C x C matrix of spikes between crossbars (zero diagonal).

    Cluster ids outside ``[0, n_clusters)`` raise ``ValueError`` (a
    negative one would otherwise wrap onto the last clusters).
    """
    a = np.asarray(assignment, dtype=np.int64)
    if a.shape[0] != graph.n_neurons:
        raise ValueError(
            f"assignment covers {a.shape[0]} neurons, graph has {graph.n_neurons}"
        )
    c = n_clusters if n_clusters is not None else int(a.max()) + 1
    check_index_range("assignment", a, c)
    src_c = a[graph.src]
    dst_c = a[graph.dst]
    cross = src_c != dst_c
    matrix = np.zeros((c, c), dtype=np.float64)
    np.add.at(matrix, (src_c[cross], dst_c[cross]), graph.traffic[cross])
    return matrix


def local_global_split(
    graph: SpikeGraph, assignment: np.ndarray
) -> Tuple[float, float]:
    """(local, global) spike-event totals under an assignment."""
    a = np.asarray(assignment)
    cross = a[graph.src] != a[graph.dst]
    global_spikes = float(graph.traffic[cross].sum())
    return float(graph.traffic.sum()) - global_spikes, global_spikes


def synapse_split_counts(
    graph: SpikeGraph, assignment: np.ndarray
) -> Tuple[int, int]:
    """(local, global) synapse *counts* under an assignment."""
    a = np.asarray(assignment)
    cross = a[graph.src] != a[graph.dst]
    n_global = int(cross.sum())
    return graph.n_synapses - n_global, n_global
