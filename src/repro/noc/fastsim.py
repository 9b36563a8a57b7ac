"""Fast NoC simulation backend: one compiled kernel, one fallback.

``NocConfig(backend="fast")`` (or the :func:`build_interconnect`
factory) selects :class:`FastInterconnect`, which means exactly one
thing: the C transcription of the cycle-accurate loop of
:mod:`repro.noc.interconnect` in ``_fastsim_kernel.c``, reached through
one entry point per kernel body.  :func:`simulate_fabrics` is the one
dispatch: it takes ``[(engine, schedules), ...]`` and runs every
schedule of every fabric in one kernel call, each schedule naming its
own fabric's tables — a fault campaign level (one engine per distinct
degraded fabric) is one call.  :meth:`FastInterconnect.simulate_many` —
the swarm-scale NoC-in-the-loop fitness path — is its one-fabric case,
and :meth:`FastInterconnect.simulate` a batch of one.  Whatever the
kernel cannot run falls through to the reference
:class:`~repro.noc.interconnect.Interconnect`, which takes the same
inputs and is the bit-identity oracle:

- no kernel (no C compiler on the host: :func:`load_kernel` warns once
  and ``backend="fast"`` then runs at reference speed, 30-70x slower
  than the kernel — no pure-Python middle tier exists any more);
- a kernel call that reports a failure (``noc.kernel.fallbacks``, once
  per failed call; every schedule of the call reruns, each on its own
  fabric).

Design
------
Routers are renumbered to dense indices and everything the kernel reads
is a flat array:

- **destination sets as bitmasks** — a packet's remaining destinations
  are ``(n_packets, n_words)`` uint64 words over router indices, so
  multicast fork / eject / progress bookkeeping are AND/OR operations
  instead of frozenset algebra; one word on fabrics up to 63 routers
  (kernel body ``run_single``) and multi-word beyond (TrueNorth-scale
  meshes, ``run_single_mw``) — chosen from the router count, never by
  an option;
- **columnar schedules in, columns out** — a
  :class:`~repro.noc.traffic.ColumnarSchedule` is adopted directly as
  the packet plan (row-oriented input is converted to one first, by
  :meth:`~repro.noc.traffic.ColumnarSchedule.from_injections`, so every
  schedule is planned the same way), and deliveries come back as flat
  columns.  What the plan needs of the schedule alone (the order, range
  and sanitization checks, popcounts, the unicast split, injection
  buckets, per-packet metadata, dense source routers) is derived once
  per schedule and multicast mode by
  :meth:`~repro.noc.traffic.ColumnarSchedule.packet_plan` and shared
  by every engine the schedule meets — a fault campaign
  simulates one schedule on dozens of fabrics; an engine adds only the
  node-id check and its source-port gather;
- **one fabric record per engine** — the tables below are built once,
  and a ``KernelFabric`` record (router and port counts plus pointers
  to them) is what a kernel call's schedules point at; engines share a
  call when they agree on what it reads once (``_call_key``: kernel
  body and mask width, ``buffer_capacity``);
- **precomputed next-hop port masks** — the routing table's dense
  ``next_hops`` array (:mod:`repro.noc.routing`) collapses into
  per-router ``(dst_mask, neighbor, downstream_port, edge)`` entries:
  :func:`~repro.noc.routing.route_links` checks that every next hop is
  a live link of this fabric and compares each link's router row of
  the table with the link's far end, and those bits are packed into
  mask words whole; grouping a head packet's destinations by output
  port (the router crossbar fork) is one AND per port;
- **columnar, lazily materialized statistics** — the kernel path
  returns a :class:`FastNocStats` whose per-delivery
  :class:`~repro.noc.stats.DeliveryRecord` objects are only built when
  the ``deliveries`` list is first touched; aggregate queries
  (latencies, counts) come straight from the columns.

Equivalence contract
--------------------
The fast backend reproduces the reference loop **bit for bit**:
identical delivery records, cycle counts, link loads and peak buffer
occupancies, for every routing table, any thread count, and with or
without a compiler.  Routing is deterministic (XY or shortest-path
tables, one next hop per pair), and the kernel replicates the reference
cycle order exactly — routers arbitrate in ascending order, input ports
rotate round-robin by cycle, and the groups of one head packet never
interact with each other (distinct output ports, at most one eject
group), so the only orderings that matter are across ports and across
routers, both of which are preserved.  Everything else *is* the
reference loop.

``tests/noc/test_backend_equivalence.py`` enforces the contract over
mesh/torus topologies, unicast/multicast traffic and tight/roomy
buffers, ``tests/noc/test_kernel_fallback.py`` over the failure paths,
and property tests assert the fast backend always drains feasible
schedules.
"""

from __future__ import annotations

import ctypes
import itertools
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.noc._ckernel import KernelFabric, load_kernel, resolve_threads
from repro.noc.interconnect import EJECTIONS_PER_CYCLE, Interconnect, NocConfig
from repro.noc.packet import Injection
from repro.noc.routing import RoutingTable, route_links, routing_for
from repro.noc.stats import DeliveryColumns, DeliveryRecord, NocStats
from repro.noc.topology import Topology, dense_node_ids
from repro.noc.traffic import ColumnarSchedule, PacketMeta, n_mask_words
from repro.obs import get_observer

#: Anything ``simulate`` accepts: a row-oriented injection sequence or
#: the columnar schedule the traffic builders produce.
ScheduleLike = Union[Sequence[Injection], ColumnarSchedule]


def _offsets(sizes) -> np.ndarray:
    """CSR offsets ``[0, s0, s0 + s1, ...]`` (int64) of consecutive runs."""
    return np.array([0, *itertools.accumulate(sizes)], dtype=np.int64)


_POINTER_OF = {
    np.dtype(np.int32): ctypes.POINTER(ctypes.c_int32),
    np.dtype(np.int64): ctypes.POINTER(ctypes.c_int64),
    np.dtype(np.uint64): ctypes.POINTER(ctypes.c_uint64),
}


def _ptr(a: np.ndarray):
    """Typed pointer to ``a`` for the kernel (the caller keeps ``a``
    alive across the call); a dtype or layout the kernel does not read
    raises here instead of corrupting memory there."""
    if not a.flags.c_contiguous:
        raise ValueError("kernel arrays must be C-contiguous")
    return a.ctypes.data_as(_POINTER_OF[a.dtype])


def kernel_engine(n_routers: int) -> str:
    """Kernel body (and ``noc.engine_runs`` label) serving a fabric of
    ``n_routers``: ``"c"``, one uint64 destination-mask word, up to 63
    routers; ``"c-mw"``, multi-word masks, beyond."""
    return "c" if n_routers <= 63 else "c-mw"


class _Plan(NamedTuple):
    """Kernel-ready packet plan of one schedule.  The five arrays are
    C-contiguous in the dtypes the kernel reads, in its argument order
    (a batch concatenates them column by column); ``meta`` maps a packet
    index back to its injection for the delivery records, and
    ``n_expected`` sizes the schedule's delivery slice (each delivery
    clears one destination bit, so no run makes more)."""

    mask_words: np.ndarray    # uint64 (n_packets, n_words)
    src_gp: np.ndarray        # int32 (n_packets,) source injection port
    bucket_cycle: np.ndarray  # int64 (n_buckets,) ascending
    bucket_off: np.ndarray    # int64 (n_buckets + 1,)
    bucket_pid: np.ndarray    # int32 (n_packets,) packets in bucket order
    meta: PacketMeta
    n_expected: int


class FastNocStats(NocStats):
    """:class:`NocStats` with columnar, lazily materialized deliveries.

    The kernel records deliveries as flat ``(packet, router, cycle,
    hops)`` columns, straight into the batch's host-allocated slabs;
    the stats hold views of its schedule's slices (so a kept stats keeps
    its batch's delivery slabs alive).  Full :class:`DeliveryRecord`
    objects are only constructed when ``deliveries`` is first accessed.
    Every metric (counts, latencies, ISI distortion, disorder, chip
    breakdown) is answered from :meth:`delivery_columns` — gathers over
    those columns — so neither swarm scoring nor the metric report pays
    for record construction.
    """

    def _attach(self, delivered, p_meta: PacketMeta, node_ids) -> None:
        self._delivered = delivered
        self._p_meta = p_meta
        self._node_ids = node_ids  # int64 array: dense index -> node id
        self._records: Optional[List[DeliveryRecord]] = None

    def delivery_columns(self) -> DeliveryColumns:
        if getattr(self, "_delivered", None) is None:
            return super().delivery_columns()
        pid, dst, at, _ = self._delivered
        meta = self._p_meta
        return DeliveryColumns(
            uid=meta.uid[pid],
            src_neuron=meta.src_neuron[pid],
            src_node=meta.src_node[pid],
            dst_node=self._node_ids[dst],
            injected_cycle=meta.cycle[pid],
            delivered_cycle=at,
        )

    @property
    def deliveries(self) -> List[DeliveryRecord]:
        if getattr(self, "_delivered", None) is None:
            return self._eager_deliveries
        if self._records is None:
            # DeliveryRecord's fields are the six columns, then hops.
            columns = (*self.delivery_columns(), self._delivered[3])
            self._records = [
                DeliveryRecord(*row)
                for row in zip(*(column.tolist() for column in columns))
            ]
        return self._records

    @deliveries.setter
    def deliveries(self, value: List[DeliveryRecord]) -> None:
        self._eager_deliveries = value
        self._delivered = None

    @property
    def delivered_count(self) -> int:
        if getattr(self, "_delivered", None) is None:
            return len(self._eager_deliveries)
        return len(self._delivered[0])

    def latencies(self) -> np.ndarray:
        if getattr(self, "_delivered", None) is None:
            return super().latencies()
        pid, _, at, _ = self._delivered
        return at - self._p_meta.cycle[pid]


class FastInterconnect:
    """Compiled drop-in replacement for :class:`Interconnect`.

    Construction precomputes the kernel's routing/port tables, so one
    instance amortizes that cost over arbitrarily many :meth:`simulate`
    / :meth:`simulate_many` calls (the swarm-scoring hot path).
    """

    def __init__(
        self,
        topology: Topology,
        routing: Optional[RoutingTable] = None,
        config: Optional[NocConfig] = None,
    ) -> None:
        self.topology = topology
        self.routing = routing if routing is not None else routing_for(topology)
        self.config = config if config is not None else NocConfig()
        self._build_tables()

    def __reduce__(self):
        """Pickle as the (topology, routing, config) spec.

        The derived tables — and especially the ctypes kernel handle,
        which cannot cross process boundaries — are rebuilt on
        unpickling.  Only :mod:`repro.noc.parallel` (the benchmark's
        one-shot pool) ships an engine to another process; this goes
        when it does.  ``type(self)`` (not the base class) so
        subclasses survive the round trip.
        """
        return (type(self), (self.topology, self.routing, self.config))

    # -- precomputed tables --------------------------------------------------

    def _build_tables(self) -> None:
        nodes = dense_node_ids(self.topology)  # dense index -> id
        ids = nodes.tolist()
        n = len(ids)
        self._n = n
        self._node_arr = nodes
        # Destination masks span this many uint64 words: one for the
        # single-word kernel body, as many as it takes beyond.
        self._engine = kernel_engine(n)
        self._n_words = n_mask_words(n)

        # Port layout: slot 0 is the local injection queue, slots 1..k
        # are the bounded channel buffers from sorted neighbors — the
        # same canonical order the reference router arbitrates over.
        nbrs, routed = route_links(self.routing, self.topology)
        port_base: List[int] = []
        base = 0
        for row in nbrs:
            port_base.append(base)
            base += 1 + len(row)
        self._n_flat_ports = base
        self._port_base_arr = np.asarray(port_base, dtype=np.int32)

        # Directed links in a fixed order; loads accumulate in a flat
        # counter array indexed by these ids.
        pairs = [(i, nb) for i in range(n) for nb in nbrs[i]]
        self._edges: List[Tuple[int, int]] = [  # edge id -> (u_id, v_id)
            (ids[i], ids[nb]) for i, nb in pairs
        ]

        # The compiled kernel, or None: then every schedule runs on the
        # reference engine and none of the tables below are needed.
        self._ck = load_kernel()
        if self._ck is None:
            return

        # Next-hop masks per link: bit d set iff traffic for destination
        # d leaves over that link — the routed bits, packed into words.
        bits = np.zeros((len(pairs), self._n_words * 64), dtype=bool)
        bits[:, :n] = routed
        masks = np.packbits(bits, axis=1, bitorder="little").view("<u8")

        # Output stage per link, in link order: neighbor, next-hop mask
        # words, downstream global port (the neighbor's input slot for
        # this router), edge id.
        in_slot = [{u: s + 1 for s, u in enumerate(row)} for row in nbrs]
        # The arrays stay referenced here for as long as the kernel may
        # read them through the pointers made (once) from them.
        self._ck_tables = (
            self._port_base_arr,
            np.asarray([1 + len(row) for row in nbrs], dtype=np.int32),
            _offsets(len(row) for row in nbrs).astype(np.int32),
            np.asarray([nb for _, nb in pairs], dtype=np.int32),
            masks.astype(np.uint64, copy=False),
            np.asarray(
                [port_base[nb] + in_slot[nb][i] for i, nb in pairs],
                dtype=np.int32,
            ),
            np.arange(len(pairs), dtype=np.int32),
        )
        self._ck_fabric = KernelFabric(
            n, self._n_flat_ports, *(_ptr(table) for table in self._ck_tables)
        )

    # -- public API ----------------------------------------------------------

    def simulate(self, injections: ScheduleLike) -> NocStats:
        """Run the network until all traffic drains; return statistics.

        Accepts a :class:`~repro.noc.traffic.ColumnarSchedule`, whose
        packet plan is adopted straight from its arrays, or a sequence
        of :class:`Injection` objects, converted to one first by
        :meth:`~repro.noc.traffic.ColumnarSchedule.from_injections`.  A
        schedule the kernel would misread (a router outside this
        fabric, a negative cycle, the wrong mask width) raises
        ``ValueError`` whether or not a kernel runs.  A batch of one:
        the same kernel call :meth:`simulate_many` makes.
        """
        obs = get_observer()
        if not obs.enabled:
            return _run_jobs([(self, [injections])], 1)[0][0]
        with obs.span("noc.simulate", backend="fast", routers=self._n) as span:
            stats = _run_jobs([(self, [injections])], 1)[0][0]
            span.set(
                n_packets=stats.n_injected,
                delivered=stats.delivered_count,
                cycles=stats.cycles_run,
            )
        _count(obs, [stats])
        return stats

    def simulate_many(
        self,
        schedules: Sequence[ScheduleLike],
        threads: Optional[int] = None,
    ) -> List[NocStats]:
        """Simulate a batch of injection schedules on this network.

        The one-fabric case of :func:`simulate_fabrics`: the
        routing/port tables are built once per instance and the whole
        batch runs in **one** C call (the ctypes call releases the GIL),
        with OpenMP parallelism across independent schedules when the
        kernel was built with it — bit-identical for any thread count,
        because each schedule runs the same single-schedule algorithm
        into its own slices of the batch's output slabs.

        ``threads`` caps the team (``None`` defers to
        ``REPRO_NOC_THREADS``, then one per core).  ``0`` means "no
        in-process thread team": the same call on the calling thread
        alone.
        """
        return simulate_fabrics([(self, schedules)], threads)[0]

    @property
    def _call_key(self) -> Tuple[str, int, int]:
        """What one kernel call reads once for all its schedules: the
        body, the mask width and the buffer capacity.  Engines that
        agree on it can share a call."""
        return (self._engine, self._n_words, self.config.buffer_capacity)

    # -- schedule expansion --------------------------------------------------

    def _columnar_plan(
        self, schedule: ColumnarSchedule, stats: FastNocStats
    ) -> Optional[_Plan]:
        """Adopt a columnar schedule as the packet plan.

        The schedule's mask words already use this network's dense
        router numbering (both sides derive it from sorted node ids), so
        everything but the source ports is the schedule's own
        :meth:`~repro.noc.traffic.ColumnarSchedule.packet_plan`, derived
        once however many fabrics the schedule is simulated on.
        """
        if not np.array_equal(schedule.node_ids, self._node_arr):
            raise ValueError(
                "columnar schedule was built for a different topology "
                "(router id mismatch)"
            )
        packets = schedule.packet_plan(self.config.multicast)
        stats.n_injected = packets.n_injected
        stats.n_expected_deliveries = packets.n_expected
        if not packets.n_injected:
            return None
        return _Plan(
            mask_words=packets.mask_words,
            src_gp=self._port_base_arr[packets.src_index],
            bucket_cycle=packets.bucket_cycle,
            bucket_off=packets.bucket_off,
            bucket_pid=packets.bucket_pid,
            meta=packets.meta,
            n_expected=packets.n_expected,
        )


#: One job of :func:`simulate_fabrics`: an engine and the schedules to
#: run on its fabric.
FabricJob = Tuple[FastInterconnect, Sequence[ScheduleLike]]


def simulate_fabrics(
    jobs: Sequence[FabricJob], threads: Optional[int] = None
) -> List[List[NocStats]]:
    """Simulate every job's schedules on its own engine's fabric.

    The one dispatch behind :meth:`FastInterconnect.simulate_many` (a
    single job) and a fault campaign's levels (one job per distinct
    degraded fabric): every schedule of every job runs in **one**
    kernel call, each schedule naming its own fabric's tables.  Engines
    that disagree on what a call reads once (``_call_key``: kernel body
    and mask width, ``buffer_capacity``) go
    into separate calls, in first-seen order.  A call that fails reruns
    all of its schedules, each on its own fabric's reference engine
    (``noc.kernel.fallbacks`` ticks once per failed call), and an
    engine without a kernel runs its schedules on the reference engine.
    Returns one stats list per job, in job and schedule order;
    ``threads`` as in :meth:`FastInterconnect.simulate_many`.
    """
    jobs = [(engine, list(schedules)) for engine, schedules in jobs]
    # The kernel reads n_threads <= 0 as "runtime default", so "no
    # team" has to reach it as 1.
    n_threads = resolve_threads(threads) or 1
    obs = get_observer()
    if not obs.enabled:
        return _run_jobs(jobs, n_threads)
    with obs.span(
        "noc.simulate_batch",
        backend="fast",
        fabrics=len(jobs),
        n_schedules=sum(len(schedules) for _, schedules in jobs),
        threads=n_threads,
    ):
        results = _run_jobs(jobs, n_threads)
    _count(obs, [stats for job in results for stats in job])
    return results


def _count(obs, results: Sequence[NocStats]) -> None:
    obs.inc("noc.simulations", len(results), backend="fast")
    obs.inc("noc.packets_injected", sum(s.n_injected for s in results))
    obs.inc("noc.deliveries", sum(s.delivered_count for s in results))


class _Live(NamedTuple):
    """A planned, non-empty schedule waiting for an engine."""

    engine: FastInterconnect
    schedule: ScheduleLike  # as given: the reference rerun reads it
    stats: FastNocStats
    plan: _Plan
    slot: Tuple[int, int]  # (job, schedule) position in the results


def _run_jobs(jobs: Sequence[FabricJob], n_threads: int) -> List[List[NocStats]]:
    """Plan every schedule on its engine (rows converted to columns
    first), run the non-empty ones in one kernel call per call key, and
    rerun on the reference engine what the kernel cannot (there is none,
    or the call reported a failure)."""
    results: List[List[NocStats]] = []
    groups: dict = {}  # call key -> [_Live]; None: the reference engine
    for j, (engine, schedules) in enumerate(jobs):
        out: List[NocStats] = []
        for schedule in schedules:
            columns = schedule
            if not isinstance(columns, ColumnarSchedule):
                columns = ColumnarSchedule.from_injections(
                    schedule, engine._node_arr, n_source_neurons=0
                )
            stats = FastNocStats()
            plan = engine._columnar_plan(columns, stats)
            if plan is not None:
                key = None if engine._ck is None else engine._call_key
                groups.setdefault(key, []).append(
                    _Live(engine, schedule, stats, plan, (j, len(out)))
                )
            out.append(stats)
        results.append(out)
    obs = get_observer()
    for key, live in groups.items():
        if key is not None and _dispatch(live, n_threads):
            engine_label = key[0]
        else:
            if key is not None:
                obs.inc("noc.kernel.fallbacks")
            engine_label = "reference"
            oracles: dict = {}  # one reference engine per fabric
            for item in live:
                engine = item.engine
                if id(engine) not in oracles:
                    oracles[id(engine)] = Interconnect(
                        engine.topology, engine.routing, engine.config
                    )
                j, k = item.slot
                results[j][k] = oracles[id(engine)]._simulate_impl(item.schedule)
        if obs.enabled:
            obs.inc("noc.engine_runs", len(live), engine=engine_label)
    return results


def _dispatch(live: List[_Live], n_threads: int) -> bool:
    """Concatenate the plans CSR-style, allocate every output the call
    writes (the kernel allocates nothing that outlives it), run one
    batch entry point once with every schedule on its own fabric, and
    attach to each schedule's stats views of its slices of the delivery
    slabs.  ``False`` when any schedule reports a failure in its
    ``status`` entry (the caller falls back)."""
    n_live = len(live)
    plans = [item.plan for item in live]
    if n_live == 1:
        # A batch of one is already laid out; skip the copies.
        pk_mask, pk_srcgp, bucket_cycle, bucket_off, bucket_pid = plans[0][:5]
    else:
        # Schedule s's bucket_off slice (length n_buckets_s + 1, local
        # offsets) lives at bk_off[s] + s in the concatenation — the
        # layout the C batch entry expects.
        pk_mask, pk_srcgp, bucket_cycle, bucket_off, bucket_pid = (
            np.concatenate(column) for column in zip(*(p[:5] for p in plans))
        )
    pk_off = _offsets(len(p.src_gp) for p in plans)
    bk_off = _offsets(len(p.bucket_cycle) for p in plans)
    deadlines = np.array(
        [
            int(item.plan.bucket_cycle[-1]) + item.engine.config.max_extra_cycles
            for item in live
        ],
        dtype=np.int64,
    )
    # Every fabric once in the call's record array, first seen first.
    fabric_index: dict = {}
    for item in live:
        fabric_index.setdefault(id(item.engine), (len(fabric_index), item.engine))
    fabrics = (KernelFabric * len(fabric_index))(
        *(engine._ck_fabric for _, engine in fabric_index.values())
    )
    fabric_of = np.array(
        [fabric_index[id(item.engine)][0] for item in live], dtype=np.int32
    )
    # Each schedule's link loads and port peaks are its fabric's size,
    # its delivery slice its expected deliveries.
    link_off = _offsets(len(item.engine._edges) for item in live)
    peak_off = _offsets(item.engine._n_flat_ports for item in live)
    d_off = _offsets(p.n_expected for p in plans)
    link_counts = np.zeros(int(link_off[-1]), dtype=np.int64)
    peaks = np.zeros(int(peak_off[-1]), dtype=np.int32)
    n_slots = int(d_off[-1])
    d_meta, d_dst, d_hops = (np.empty(n_slots, dtype=np.int32) for _ in range(3))
    d_cycle = np.empty(n_slots, dtype=np.int64)
    d_len, cycles_run = (np.empty(n_live, dtype=np.int64) for _ in range(2))
    status = np.empty(n_live, dtype=np.int32)
    ck = live[0].engine._ck
    kind, n_words, capacity = live[0].engine._call_key
    if kind == "c":
        entry, per_call = ck.nocsim_run_batch, (capacity, EJECTIONS_PER_CYCLE)
    else:
        entry, per_call = ck.nocsim_run_batch_mw, (
            n_words, capacity, EJECTIONS_PER_CYCLE,
        )
    # One ctypes call for the whole batch; ctypes releases the GIL for
    # the duration, so the OpenMP team runs truly in parallel.
    inputs = (
        pk_off, pk_mask, pk_srcgp, bk_off, bucket_cycle, bucket_off, bucket_pid,
        deadlines,
    )
    outputs = (
        link_off, link_counts, peak_off, peaks,
        d_off, d_meta, d_dst, d_cycle, d_hops, d_len, cycles_run, status,
    )
    entry(
        fabrics, _ptr(fabric_of), *per_call, n_live,
        *map(_ptr, inputs), n_threads, *map(_ptr, outputs),
    )
    if status.any():
        return False
    for s, item in enumerate(live):
        engine, stats = item.engine, item.stats
        stats.cycles_run = int(cycles_run[s])
        counts = link_counts[link_off[s]:link_off[s + 1]].tolist()
        stats.link_loads = {
            edge: count for edge, count in zip(engine._edges, counts) if count
        }
        pk = peaks[peak_off[s]:peak_off[s + 1]]
        stats.peak_buffer_occupancy = int(pk.max()) if pk.size else 0
        d = slice(d_off[s], d_off[s] + d_len[s])
        stats._attach(
            (d_meta[d], d_dst[d], d_cycle[d], d_hops[d]),
            item.plan.meta,
            engine._node_arr,
        )
    return True


def build_interconnect(
    topology: Topology,
    routing: Optional[RoutingTable] = None,
    config: Optional[NocConfig] = None,
):
    """Instantiate the simulation backend selected by ``config.backend``.

    Returns the reference :class:`~repro.noc.interconnect.Interconnect`
    oracle for ``backend="reference"`` (the default) and
    :class:`FastInterconnect` for ``backend="fast"``.  Both expose the
    same ``simulate`` surface and produce the same :class:`NocStats`.
    """
    cfg = config if config is not None else NocConfig()
    if cfg.backend == "fast":
        return FastInterconnect(topology, routing, cfg)
    return Interconnect(topology, routing, cfg)

