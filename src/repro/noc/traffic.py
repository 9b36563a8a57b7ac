"""Convert a mapped spike graph into an AER injection schedule.

Given the neuron→crossbar assignment chosen by a partitioner, every spike
of every neuron that has at least one *global* synapse (a post-synaptic
target on a different crossbar) becomes one AER packet, injected at the
crossbar hosting the neuron and destined for the set of crossbars hosting
its remote targets.  Spike times (ms, from the SNN simulation) are mapped
to interconnect cycles through ``cycles_per_ms`` — the ratio between the
NoC clock and biological real time.

The schedule representation is *columnar*: :class:`ColumnarSchedule`
holds one flat array per packet field (injection cycle, source router,
source neuron, uid) plus a ``(n_packets, n_words)`` uint64 matrix of
destination-router bitmasks over the topology's dense router indices
(``sorted(graph.nodes)`` order — the same renumbering the fast backend
uses, so :class:`~repro.noc.fastsim.FastInterconnect` consumes the
arrays without any per-packet conversion).  The columns are read-only,
so what is derived from them is derived once per schedule, lazily, and
never goes stale: the legacy ``Injection`` list
(:attr:`ColumnarSchedule.injections`) for the reference backend and for
any consumer that wants objects, and the fast backend's packet plan
(:meth:`ColumnarSchedule.packet_plan`), which every fabric a schedule is
simulated on shares.  It is the only schedule type: rows (hand-written
tests, the synthetic traffic of the NoC tests, the row-oriented
reference builder that is the oracle in
``tests/noc/test_columnar_schedule.py``) become one through
:meth:`ColumnarSchedule.from_injections`.

Schedules are *views of one event list*.  Everything a schedule needs
that does not depend on the mapping lives in a :class:`SpikeEvents`,
built once per ``(graph, cycles_per_ms)``: the graph's spike events,
converted to cycles and sorted by cycle **once** (stable, so ties keep
neuron-major order, each neuron's spikes in stored order).  A mapping
only decides *which* neurons emit — those whose remote-reach mask
(:meth:`repro.core.traffic_matrix.TrafficMatrix.reach_masks`, indexed by
the dense router index of each crossbar's attach point) is non-empty —
and a stable sort of a subsequence *is* the subsequence of the stable
sort.  So a particle's schedule is the event list filtered to its
emitting neurons, its destination words are the reach masks gathered per
event, and no schedule is ever sorted: :func:`build_injections_batch`
filters and gathers a whole swarm in a few array operations, and
:func:`build_injections` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.noc.packet import Injection
from repro.noc.topology import Topology, dense_node_ids
from repro.obs import get_observer
from repro.snn.graph import SpikeGraph
from repro.utils.validation import check_positive

#: Transient bytes :func:`build_injections_batch` may hold per block of
#: assignment rows (on top of the schedules it returns), so peak memory
#: does not grow with the swarm size.
_BLOCK_BYTES = 1 << 22

def n_mask_words(n_bits: int, width: int = 64) -> int:
    """Words of ``width`` bits a mask over ``n_bits`` positions takes:
    bit ``b`` is bit ``b % width`` of word ``b // width``, and a mask
    has at least one word.  The one rule behind every destination and
    reach mask — a schedule's ``dst_words``, the reach masks it is
    built from, the kernel's mask tables."""
    return max(1, -(-n_bits // width))


def unpack_destination_bits(words: np.ndarray):
    """Set-bit coordinates of a ``(n, n_words)`` uint64 mask matrix.

    Returns ``(rows, cols)`` in row-major order, so each row's columns
    come out ascending — ascending dense router index.  The ``"<u8"``
    view is a no-op on little-endian hosts and a byte-swapped copy on
    big-endian ones, keeping unpacked bit ``k`` equal to dense index
    ``k`` on any platform.  Shared by the legacy-view materializer and
    the packet plan's unicast split so the mapping lives in one place.
    """
    bits = np.unpackbits(
        words.astype("<u8", copy=False).view(np.uint8),
        axis=1,
        bitorder="little",
    )
    return np.nonzero(bits)


class PacketMeta(NamedTuple):
    """Per-packet injection metadata as int64 columns indexed by packet
    id — what the fast backend's delivery columns are gathered through."""

    uid: np.ndarray
    src_neuron: np.ndarray
    src_node: np.ndarray
    cycle: np.ndarray


class PacketPlan(NamedTuple):
    """A schedule as the packets the fast backend injects, for one
    multicast mode — everything of the kernel's packet plan that no
    fabric changes (see :meth:`ColumnarSchedule.packet_plan`)."""

    n_injected: int  # injections with at least one destination
    n_expected: int  # deliveries they owe
    mask_words: np.ndarray  # uint64 (n_packets, n_words)
    src_index: np.ndarray  # int64 (n_packets,) dense source router
    bucket_cycle: np.ndarray  # int64 (n_buckets,) ascending
    bucket_off: np.ndarray  # int64 (n_buckets + 1,)
    bucket_pid: np.ndarray  # int32 (n_packets,) packets in bucket order
    meta: PacketMeta


#: The array fields of :class:`ColumnarSchedule`, all held read-only.
_COLUMNS = ("cycle", "src_node", "src_neuron", "uid", "dst_words", "node_ids")


def _read_only(column) -> np.ndarray:
    """``column`` as a read-only array: adopted when it already is one,
    copied once when the caller could still write to it."""
    if not isinstance(column, np.ndarray) or column.flags.writeable:
        column = np.array(column)
        column.flags.writeable = False
    return column


@dataclass(eq=False)
class ColumnarSchedule:
    """Columnar AER injection schedule (struct-of-arrays).

    The columns are read-only: the builders freeze what they return, a
    writable array handed in is copied once, and unpickling freezes
    again — so what is derived from them (:attr:`injections`,
    :meth:`packet_plan`) is derived once and cannot go stale.
    Construction enforces the invariants every consumer relies on, the
    cycle column sorted ascending and non-negative and
    ``max(1, ceil(n_routers / 64))`` mask words a row:
    a schedule that breaks one raises ``ValueError`` before either
    backend sees it.

    Attributes
    ----------
    cycle:
        int64 ``(n_packets,)`` injection cycles, sorted ascending,
        non-negative.
    src_node:
        int64 ``(n_packets,)`` source router node ids.
    src_neuron:
        int64 ``(n_packets,)`` AER source addresses.
    uid:
        int64 ``(n_packets,)`` unique packet ids (ascending within one
        injection cycle — the reference sort order).
    dst_words:
        uint64 ``(n_packets, n_words)`` destination bitmasks.  Bit ``d``
        of the concatenated words marks dense router index ``d``, where
        dense indices follow ``node_ids`` (sorted router ids — the fast
        backend's renumbering).  Builders never set the source router's
        own bit.
    node_ids:
        int64 ``(n_routers,)`` sorted router ids giving each mask bit
        its meaning.
    cycles_per_ms, n_source_neurons, n_spike_events:
        Provenance: the NoC clock ratio the cycles were converted with,
        the neurons that emit, and the spike events behind the packets.

    Rows (a sequence of :class:`Injection`) become a schedule through
    :meth:`from_injections`, the one row-to-column conversion.
    """

    cycle: np.ndarray
    src_node: np.ndarray
    src_neuron: np.ndarray
    uid: np.ndarray
    dst_words: np.ndarray
    node_ids: np.ndarray
    cycles_per_ms: float
    n_source_neurons: int
    n_spike_events: int

    def __post_init__(self) -> None:
        for name in _COLUMNS:
            setattr(self, name, _read_only(getattr(self, name)))
        n_words = n_mask_words(self.node_ids.shape[0])
        if self.dst_words.ndim != 2 or self.dst_words.shape[1] != n_words:
            raise ValueError(
                f"dst_words of shape {self.dst_words.shape} for "
                f"{self.node_ids.shape[0]} routers: need {n_words} word(s) a row"
            )
        cycle = self.cycle
        if cycle.size:
            if cycle[0] < 0:
                raise ValueError(f"negative injection cycle {int(cycle[0])}")
            if (cycle[1:] < cycle[:-1]).any():
                raise ValueError(
                    "columnar schedule cycle column must be sorted ascending"
                )
        self._forget_derived()

    @classmethod
    def from_injections(
        cls,
        rows: Sequence[Injection],
        node_ids: np.ndarray,
        n_source_neurons: int,
    ) -> "ColumnarSchedule":
        """The schedule of row-oriented injections over the routers
        ``node_ids`` (sorted), by the rules of the reference
        :func:`~repro.noc.interconnect.build_packet_schedule`.  The rows
        carry their own cycles, so ``cycles_per_ms`` is 1.

        A row's own router is dropped from its destinations, and a row
        left with none is dropped; uid ``-1`` takes the next id after
        the largest uid seen so far, in input order; the rows are then
        stably sorted by cycle, so rows of one cycle keep their input
        order.  A destination router outside ``node_ids`` raises
        ``ValueError`` here, a source router outside it when the
        schedule is planned, a negative cycle in the constructor.
        Every row counts as one spike event.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        index = {node: i for i, node in enumerate(node_ids.tolist())}
        kept: List[Tuple[int, int, int, int]] = []  # cycle, src, neuron, uid
        masks: List[int] = []
        next_uid = 0
        for row in rows:
            src = row.src_node
            mask = 0
            for d in row.dst_nodes:
                if d != src:
                    try:
                        mask |= 1 << index[d]
                    except KeyError:
                        raise ValueError(
                            f"router {d} is not in the schedule's fabric"
                        ) from None
            if not mask:
                continue
            uid = row.uid if row.uid >= 0 else next_uid
            next_uid = max(next_uid, uid) + 1
            kept.append((row.cycle, src, row.src_neuron, uid))
            masks.append(mask)
        n_words = n_mask_words(node_ids.shape[0])
        columns = np.array(kept, dtype=np.int64).reshape(-1, 4)
        words = np.frombuffer(
            b"".join([m.to_bytes(8 * n_words, "little") for m in masks]),
            dtype="<u8",
        ).reshape(-1, n_words)
        order = np.argsort(columns[:, 0], kind="stable")
        cycle, src_node, src_neuron, uid = columns[order].T
        return cls(
            cycle=cycle,
            src_node=src_node,
            src_neuron=src_neuron,
            uid=uid,
            dst_words=words[order].astype(np.uint64, copy=False),
            node_ids=node_ids,
            cycles_per_ms=1.0,
            n_source_neurons=n_source_neurons,
            n_spike_events=len(rows),
        )

    def _forget_derived(self) -> None:
        self._injections: Optional[List[Injection]] = None
        self._plans: Dict[bool, PacketPlan] = {}

    def __eq__(self, other) -> bool:
        # The dataclass-generated __eq__ would compare ndarrays with
        # `==` and raise; compare column contents instead (caches and
        # everything derived from the columns are excluded).
        if not isinstance(other, ColumnarSchedule):
            return NotImplemented
        return (
            self.cycles_per_ms == other.cycles_per_ms
            and self.n_source_neurons == other.n_source_neurons
            and self.n_spike_events == other.n_spike_events
            and np.array_equal(self.cycle, other.cycle)
            and np.array_equal(self.src_node, other.src_node)
            and np.array_equal(self.src_neuron, other.src_neuron)
            and np.array_equal(self.uid, other.uid)
            and np.array_equal(self.dst_words, other.dst_words)
            and np.array_equal(self.node_ids, other.node_ids)
        )

    def __getstate__(self):
        # Never pickle what is derived from the columns (the legacy
        # view, the packet plans): whoever unpickles reads
        # the arrays, and the whole point of the columnar form is not
        # pickling per-packet Injection objects.
        return {
            name: value
            for name, value in self.__dict__.items()
            if name not in ("_injections", "_plans")
        }

    def __setstate__(self, state) -> None:
        # Unpickled (and deep-copied) arrays come back writable.
        self.__dict__.update(state)
        for name in _COLUMNS:
            getattr(self, name).flags.writeable = False
        self._forget_derived()

    @property
    def n_packets(self) -> int:
        return int(self.cycle.shape[0])

    @property
    def n_words(self) -> int:
        return int(self.dst_words.shape[1])

    def destination_counts(self) -> np.ndarray:
        """Destinations per packet (mask popcounts), int64 ``(n_packets,)``."""
        if self.n_packets == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bitwise_count(self.dst_words).sum(axis=1).astype(np.int64)

    @property
    def injections(self) -> List[Injection]:
        """Legacy row view: one :class:`Injection` per packet (lazy).

        Destination tuples come out in ascending node-id order, exactly
        as the legacy builder produced them; the list is materialized
        once and cached.
        """
        if self._injections is None:
            self._injections = self._materialize()
        return self._injections

    def _materialize(self) -> List[Injection]:
        n = self.n_packets
        if n == 0:
            return []
        rows, cols = unpack_destination_bits(self.dst_words)
        dst_ids = self.node_ids[cols].tolist()
        offs = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))).tolist()
        cyc = self.cycle.tolist()
        src = self.src_node.tolist()
        neu = self.src_neuron.tolist()
        uid = self.uid.tolist()
        return [
            Injection(
                cycle=cyc[i],
                src_node=src[i],
                dst_nodes=tuple(dst_ids[offs[i] : offs[i + 1]]),
                src_neuron=neu[i],
                uid=uid[i],
            )
            for i in range(n)
        ]

    def packet_plan(self, multicast: bool) -> PacketPlan:
        """The packets the fast backend injects for this schedule (lazy).

        Derived once per multicast mode and shared by every engine the
        schedule is simulated on — a fabric adds only its port layout.
        Each derivation ticks the ``noc.plans_built`` counter under
        ``observe()``, so a trace shows whether a schedule was planned
        again.
        """
        plan = self._plans.get(multicast)
        if plan is None:
            plan = self._plans[multicast] = self._derive_plan(multicast)
            obs = get_observer()
            if obs.enabled:
                obs.inc("noc.plans_built")
        return plan

    def _derive_plan(self, multicast: bool) -> PacketPlan:
        words = self.dst_words
        node_ids = self.node_ids
        n_routers = node_ids.shape[0]
        src_idx = np.searchsorted(node_ids, self.src_node)
        # What the kernel would read out of bounds: a source router
        # outside the fabric, a destination bit past its last router.
        if not (node_ids.take(src_idx, mode="clip") == self.src_node).all():
            raise ValueError("schedule has a source router outside its fabric")
        tail = n_routers - 64 * (words.shape[1] - 1)
        if tail < 64 and np.bitwise_or.reduce(words[:, -1]) >> np.uint64(tail):
            raise ValueError(
                f"schedule has a destination bit past its {n_routers} routers"
            )
        cycle = self.cycle
        uid = self.uid
        src_neuron = self.src_neuron
        src_node = self.src_node
        # The builders never emit self-destinations or empty masks, but
        # hand-built schedules might; apply the reference's
        # sanitization (strip the source bit, drop empty rows) so both
        # backends stay bit-identical on any input.
        rows = np.arange(words.shape[0])
        src_word = src_idx >> 6
        src_bit = np.left_shift(np.uint64(1), (src_idx & 63).astype(np.uint64))
        has_self = (words[rows, src_word] & src_bit) != 0
        if has_self.any():
            words = words.copy()
            words[rows[has_self], src_word[has_self]] &= ~src_bit[has_self]
        per_packet = np.bitwise_count(words).sum(axis=1)
        keep = per_packet != 0
        if not keep.all():
            words = words[keep]
            cycle = cycle[keep]
            uid = uid[keep]
            src_neuron = src_neuron[keep]
            src_node = src_node[keep]
            src_idx = src_idx[keep]
            per_packet = per_packet[keep]
        n_injected = int(words.shape[0])
        n_expected = int(per_packet.sum())
        if not multicast:
            # One single-bit row per destination, in ascending bit order
            # (the reference's sorted split).
            rows, cols = unpack_destination_bits(words)
            split = np.zeros((rows.shape[0], words.shape[1]), dtype=np.uint64)
            split[np.arange(rows.shape[0]), cols >> 6] = np.left_shift(
                np.uint64(1), (cols & 63).astype(np.uint64)
            )
            words = split
            cycle = cycle[rows]
            uid = uid[rows]
            src_neuron = src_neuron[rows]
            src_node = src_node[rows]
            src_idx = src_idx[rows]
        # A bucket starts wherever the (sorted, non-negative) cycle moves.
        starts = np.flatnonzero(np.diff(cycle, prepend=-1))
        n_packets = cycle.shape[0]
        return PacketPlan(
            n_injected=n_injected,
            n_expected=n_expected,
            mask_words=np.ascontiguousarray(words, dtype=np.uint64),
            src_index=src_idx,
            bucket_cycle=np.ascontiguousarray(cycle[starts], dtype=np.int64),
            bucket_off=np.append(starts, n_packets).astype(np.int64),
            bucket_pid=np.arange(n_packets, dtype=np.int32),
            meta=PacketMeta(uid, src_neuron, src_node, cycle),
        )


def schedule_addressing(topology: Topology) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """All a schedule reads of a fabric: ``(router ids, attach points)``.

    The builders read :func:`dense_node_ids` (what each mask bit means)
    and ``attach_points`` (source routers, destination bits), never the
    links: fabrics with equal addressing get identical schedules for the
    same mapping whatever links either has lost, while a fault that
    removes or adds routers (a bridge's relays) changes the addressing.
    Sweeps, campaigns and the artifact cache share schedules by this rule.
    """
    return tuple(dense_node_ids(topology).tolist()), tuple(topology.attach_points)


class SpikeEvents:
    """All a schedule reads of a graph that no mapping changes.

    Built once per run and passed by argument to every builder call of
    that run: :class:`~repro.core.fitness.InterconnectFitness` keeps one
    for its lifetime, and :func:`~repro.framework.pipeline.run_pipeline`
    cuts its final schedule from that one (or, for the other objectives,
    from one built on the mapping's
    :class:`~repro.core.traffic_matrix.TrafficMatrix`); a fault campaign
    cuts every mapping's schedules from one.  A bare
    :func:`build_injections` / :func:`build_injections_batch` call
    without ``events`` builds its own on the spot.

    The graph's spike events are converted to cycles
    (``int(round(t * cycles_per_ms))``, IEEE round-half-even) and stably
    sorted by cycle, which leaves ties in neuron-major order with each
    neuron's spikes in stored order — the order of the row-oriented
    reference builder (the oracle in ``tests/noc/test_columnar_schedule.py``).
    Every schedule of the graph is a subsequence of these columns.

    Attributes
    ----------
    matrix:
        The graph's :class:`~repro.core.traffic_matrix.TrafficMatrix`:
        the deduplicated synapse pairs behind ``reach_masks``.
    counts:
        int64 ``(n_neurons,)`` spikes per neuron.
    cycle, neuron, within:
        int64 ``(n_events,)`` columns, sorted by ``cycle``: the event's
        injection cycle, its neuron, and the spike's index within that
        neuron's train.
    """

    def __init__(self, graph: SpikeGraph, cycles_per_ms: float, matrix=None) -> None:
        check_positive("cycles_per_ms", cycles_per_ms)
        if matrix is None:
            from repro.core.traffic_matrix import TrafficMatrix

            matrix = TrafficMatrix(graph)
        self.graph = graph
        self.cycles_per_ms = cycles_per_ms
        self.matrix = matrix
        self.counts = graph.spike_counts()
        n_events = int(self.counts.sum())
        if n_events:
            times = np.concatenate(graph.spike_times)
        else:
            times = np.empty(0, dtype=np.float64)
        # Neuron-major columns first; the stable sort is the one sort
        # every schedule shares.
        cycle = np.rint(times * cycles_per_ms).astype(np.int64)
        order = np.argsort(cycle, kind="stable")
        self.cycle = cycle[order]
        self.neuron = np.repeat(np.arange(graph.n_neurons), self.counts)[order]
        self.within = (
            np.arange(n_events)
            - np.repeat(np.cumsum(self.counts) - self.counts, self.counts)
        )[order]

    def check_emitting(self, emits: np.ndarray) -> None:
        """Raise ``ValueError`` when a row of ``emits`` (bool ``(P, N)``:
        the neurons whose packets that row injects) would inject before
        cycle 0, naming the first such row's first cycle.  Neurons that
        do not emit may hold negative spike times, as in the row-oriented
        reference builder."""
        if not self.cycle.size or int(self.cycle[0]) >= 0:
            return
        # The columns are sorted: a neuron's first event is its lowest.
        first = np.zeros(self.counts.shape[0], dtype=np.int64)
        neurons, at = np.unique(self.neuron, return_index=True)
        first[neurons] = self.cycle[at]
        lowest = np.where(emits, first, 0).min(axis=1)
        if (lowest < 0).any():
            raise ValueError(
                f"negative injection cycle {int(lowest[lowest < 0][0])} "
                "(negative spike time in graph)"
            )


def check_assignments(
    graph: SpikeGraph, assignments: np.ndarray, topology: Topology
) -> np.ndarray:
    """``assignments`` as int64 ``(P, N)`` rows, checked against the
    graph's neuron count and the topology's attach points (``ValueError``
    naming the mismatch) — what every schedule of ``graph`` on
    ``topology`` needs of a mapping.  A negative cluster id is left to
    :meth:`~repro.core.traffic_matrix.TrafficMatrix.reach_masks`."""
    a = np.asarray(assignments, dtype=np.int64)
    if a.ndim == 1:
        a = a[None, :]
    if a.shape[1] != graph.n_neurons:
        raise ValueError(
            f"assignments cover {a.shape[1]} neurons, graph has "
            f"{graph.n_neurons}"
        )
    if a.size and int(a.max()) >= topology.n_attach_points:
        raise ValueError(
            f"assignment uses cluster {int(a.max())} but the topology "
            f"has only {topology.n_attach_points} crossbar attach points"
        )
    return a


def build_injections_batch(
    graph: SpikeGraph,
    assignments: np.ndarray,
    topology: Topology,
    cycles_per_ms: float = 10.0,
    *,
    events: Optional[SpikeEvents] = None,
) -> List[ColumnarSchedule]:
    """Build one :class:`ColumnarSchedule` per assignment row.

    The swarm-scoring hot path.  Per call: one
    :meth:`~repro.core.traffic_matrix.TrafficMatrix.reach_masks` over
    the whole batch (bit = dense router index of the cluster's attach
    point), then every row's schedule is cut out of ``events`` — the
    events whose neuron has a non-empty mask, in list order.  Because
    the list is stably sorted by cycle and filtering keeps relative
    order, each result is already in the reference order (cycle, then
    neuron, then spike) with no per-schedule sort; ``uid`` is the
    packet's rank in neuron-major order among the row's emitting
    neurons, ``dst_words`` the neuron's mask.  A negative spike time
    raises only when its neuron emits in some row.

    ``events`` is a handle to the graph's precomputed
    :class:`SpikeEvents` (it must be of this ``graph`` and
    ``cycles_per_ms``); without one the columns are built for this call.
    The schedules of one call are read-only slices of shared arrays.
    """
    obs = get_observer()
    if not obs.enabled:
        return _build_injections_batch_impl(
            graph, assignments, topology, cycles_per_ms, events
        )
    with obs.span(
        "traffic.build_injections_batch", graph=graph.name
    ) as span:
        out = _build_injections_batch_impl(
            graph, assignments, topology, cycles_per_ms, events
        )
        span.set(
            n_schedules=len(out),
            n_packets=sum(s.n_packets for s in out),
        )
    obs.inc("traffic.build_calls")
    obs.inc("traffic.schedules_built", len(out))
    obs.inc("traffic.packets_built", sum(s.n_packets for s in out))
    return out


def _build_injections_batch_impl(
    graph: SpikeGraph,
    assignments: np.ndarray,
    topology: Topology,
    cycles_per_ms: float,
    events: Optional[SpikeEvents],
) -> List[ColumnarSchedule]:
    a = check_assignments(graph, assignments, topology)
    if events is None:
        events = SpikeEvents(graph, cycles_per_ms)
    elif events.graph is not graph or events.cycles_per_ms != cycles_per_ms:
        raise ValueError(
            "events were built for another graph or cycles_per_ms "
            f"({events.graph.name!r}, {events.cycles_per_ms})"
        )
    node_ids = dense_node_ids(topology)
    attach = np.asarray(topology.attach_points, dtype=np.int64)
    attach_bit = np.searchsorted(node_ids, attach)

    out: List[ColumnarSchedule] = []
    # About eight int64 temporaries per (row, event) besides the output.
    block = max(1, _BLOCK_BYTES // (64 * max(1, events.cycle.shape[0])))
    for lo in range(0, a.shape[0], block):
        rows = a[lo : lo + block]
        words = events.matrix.reach_masks(
            rows, index=attach_bit, n_bits=node_ids.shape[0]
        )
        emits = words.any(axis=2)
        events.check_emitting(emits)
        packets = events.counts * emits  # per (row, neuron)
        n_packets = packets.sum(axis=1)
        ends = np.cumsum(n_packets)
        starts = ends - n_packets
        first_uid = np.cumsum(packets, axis=1) - packets
        # Row-major: each row's kept events stay in event-list order.
        kept = np.flatnonzero(emits[:, events.neuron])
        row_of = np.repeat(np.arange(rows.shape[0]), n_packets)
        event = kept - row_of * events.cycle.shape[0]
        cycle = events.cycle[event]
        src_neuron = events.neuron[event]
        at = row_of * graph.n_neurons + src_neuron
        src_node = attach[rows].ravel()[at]
        uid = first_uid.ravel()[at] + events.within[event]
        dst_words = np.take(words.reshape(-1, words.shape[2]), at, axis=0)
        # Frozen at birth: the schedules below are read-only views.
        for column in (cycle, src_node, src_neuron, uid, dst_words):
            column.flags.writeable = False
        for s, e, n_emitting in zip(
            starts.tolist(), ends.tolist(), emits.sum(axis=1).tolist()
        ):
            out.append(
                ColumnarSchedule(
                    cycle=cycle[s:e],
                    src_node=src_node[s:e],
                    src_neuron=src_neuron[s:e],
                    uid=uid[s:e],
                    dst_words=dst_words[s:e],
                    node_ids=node_ids,
                    cycles_per_ms=cycles_per_ms,
                    n_source_neurons=n_emitting,
                    n_spike_events=e - s,
                )
            )
    return out


def build_injections(
    graph: SpikeGraph,
    assignment: np.ndarray,
    topology: Topology,
    cycles_per_ms: float = 10.0,
    *,
    events: Optional[SpikeEvents] = None,
) -> ColumnarSchedule:
    """Build the AER injection schedule for a mapped spike graph.

    Each spike of a neuron with remote targets becomes one multicast
    injection (the interconnect config decides whether it travels as one
    forked packet or per-destination unicast copies).  Returns the
    columnar representation; ``.injections`` materializes the legacy
    :class:`Injection` list on demand.  A batch of one:
    see :func:`build_injections_batch` for ``events``.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    return build_injections_batch(
        graph,
        assignment[None, :],
        topology,
        cycles_per_ms=cycles_per_ms,
        events=events,
    )[0]
