"""The cycle-accurate interconnect simulation loop.

Per cycle, in order:

1. packets scheduled for this cycle enter their source router's local
   injection queue (AER encoder output);
2. every occupied router arbitrates round-robin over its input ports.  The
   head packet of a port either (a) forks, if multicast destinations
   diverge onto different output ports, (b) ejects, if this router is a
   destination (one ejection per router per cycle), or (c) forwards to its
   next-hop router if that output port is free this cycle and the
   downstream channel buffer has space (credit-based backpressure);
3. staged forwards land in downstream buffers, becoming visible next cycle
   (one-cycle link latency).

The loop runs until every expected delivery has happened or a safety cap
is reached; the cap manifests as ``NocStats.undelivered_count > 0`` so a
deadlocked configuration fails loudly in tests rather than spinning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.noc.packet import Injection, SpikePacket
from repro.noc.router import LOCAL_PORT, Router
from repro.noc.routing import RoutingTable, route_links, routing_for
from repro.noc.stats import DeliveryRecord, NocStats
from repro.noc.topology import Topology
from repro.obs import get_observer
from repro.utils.validation import check_count

#: Decoder bandwidth at each tile: deliveries a router ejects per cycle.
EJECTIONS_PER_CYCLE = 1


@dataclass(frozen=True)
class NocConfig:
    """The interconnect parameters an experiment chooses.

    ``buffer_capacity`` is packets per channel buffer; ``multicast`` toggles Noxim++
    extension #3 (single packet forked in-network) versus plain unicast
    replication at the source; ``max_extra_cycles`` bounds
    post-injection drain time before the simulation declares itself
    stuck; ``backend`` selects the simulation engine — "reference" is the
    object-per-packet oracle loop in this module, "fast" is the compiled
    kernel behind :mod:`repro.noc.fastsim` (bit-identical; it hands
    whatever it cannot run back to this loop).  Each tile's decoder
    ejects :data:`EJECTIONS_PER_CYCLE` deliveries per cycle.

    The two counts must be integers (``operator.index`` accepts them)
    of at least 1 and ``multicast`` a ``bool``: the compiled kernel
    takes them as C integers.
    """

    buffer_capacity: int = 8
    multicast: bool = True
    max_extra_cycles: int = 200_000
    backend: str = "reference"

    def __post_init__(self) -> None:
        check_count("buffer_capacity", self.buffer_capacity)
        check_count("max_extra_cycles", self.max_extra_cycles)
        if not isinstance(self.multicast, bool):
            raise ValueError(
                f"multicast must be a bool, got {self.multicast!r}"
            )
        if self.backend not in ("reference", "fast"):
            raise ValueError(
                f"unknown backend {self.backend!r}; use 'reference' or 'fast'"
            )


def build_packet_schedule(
    injections: Sequence[Injection], multicast: bool, stats: NocStats
) -> Dict[int, List[SpikePacket]]:
    """Expand injections into per-cycle packet lists (both backends).

    Self-destinations are dropped; a multicast injection becomes one
    packet carrying the whole destination set, a unicast one becomes one
    packet per destination.  Injections without an explicit uid are
    numbered after the largest uid seen so far, and ``stats`` gains the
    injected/expected counters as a side effect.
    """
    schedule: Dict[int, List[SpikePacket]] = {}
    next_uid = 0
    for inj in injections:
        dsts = frozenset(d for d in inj.dst_nodes if d != inj.src_node)
        if not dsts:
            continue
        uid = inj.uid if inj.uid >= 0 else next_uid
        next_uid = max(next_uid, uid) + 1
        if multicast:
            packets = [
                SpikePacket(
                    uid=uid,
                    src_neuron=inj.src_neuron,
                    src_node=inj.src_node,
                    dst_nodes=dsts,
                    injected_cycle=inj.cycle,
                )
            ]
        else:
            packets = [
                SpikePacket(
                    uid=uid,
                    src_neuron=inj.src_neuron,
                    src_node=inj.src_node,
                    dst_nodes=frozenset([d]),
                    injected_cycle=inj.cycle,
                )
                for d in sorted(dsts)
            ]
        stats.n_injected += 1
        stats.n_expected_deliveries += len(dsts)
        schedule.setdefault(inj.cycle, []).extend(packets)
    return schedule


class Interconnect:
    """Simulate AER traffic over a topology with deterministic routing."""

    def __init__(
        self,
        topology: Topology,
        routing: Optional[RoutingTable] = None,
        config: Optional[NocConfig] = None,
    ) -> None:
        self.topology = topology
        self.routing = routing if routing is not None else routing_for(topology)
        self.config = config if config is not None else NocConfig()
        # A table that does not fit this fabric fails here, naming the
        # route, rather than mid-run.
        route_links(self.routing, topology)
        self.routers: Dict[int, Router] = {
            node: Router(node, topology.graph.neighbors(node), self.config.buffer_capacity)
            for node in topology.graph.nodes
        }

    # -- public API ----------------------------------------------------------

    def simulate(self, injections) -> NocStats:
        """Run the network until all traffic drains; return statistics.

        Accepts a sequence of :class:`Injection` objects or a
        :class:`~repro.noc.traffic.ColumnarSchedule`, whose lazily
        materialized ``.injections`` view is simulated.
        """
        obs = get_observer()
        if not obs.enabled:
            return self._simulate_impl(injections)
        with obs.span(
            "noc.simulate",
            backend="reference",
            routers=len(self.routers),
        ) as span:
            stats = self._simulate_impl(injections)
            span.set(
                n_packets=stats.n_injected,
                delivered=stats.delivered_count,
                cycles=stats.cycles_run,
            )
        obs.inc("noc.simulations", backend="reference")
        obs.inc("noc.packets_injected", stats.n_injected)
        obs.inc("noc.deliveries", stats.delivered_count)
        return stats

    def _simulate_impl(self, injections) -> NocStats:
        if hasattr(injections, "injections"):
            injections = injections.injections
        # A reused engine starts every run empty: no high-water marks and
        # no packets a previous run's deadline left queued.
        for router in self.routers.values():
            for buffer in router.buffers.values():
                buffer.clear()
        stats = NocStats()
        schedule = self._build_schedule(injections, stats)
        if not schedule:
            return stats

        last_injection = max(schedule)
        deadline = last_injection + self.config.max_extra_cycles
        active: set = set()
        cycle = 0
        while cycle <= deadline:
            if cycle in schedule:
                for pkt in schedule.pop(cycle):
                    self.routers[pkt.src_node].accept(LOCAL_PORT, pkt)
                    active.add(pkt.src_node)
            if not active and not schedule:
                break
            if active:
                self._step(cycle, active, stats)
            elif schedule:
                # Fast-forward idle gaps between injection bursts.
                cycle = min(schedule)
                continue
            cycle += 1
        stats.cycles_run = cycle
        stats.peak_buffer_occupancy = max(
            (r.peak_link_occupancy() for r in self.routers.values()), default=0
        )
        return stats

    # -- internals -------------------------------------------------------------

    def _build_schedule(
        self, injections: Sequence[Injection], stats: NocStats
    ) -> Dict[int, List[SpikePacket]]:
        return build_packet_schedule(injections, self.config.multicast, stats)

    def _step(self, cycle: int, active: set, stats: NocStats) -> None:
        staged: List[Tuple[int, int, SpikePacket]] = []  # (dst_router, from_node, pkt)
        staged_counts: Dict[Tuple[int, int], int] = {}

        for node in sorted(active):
            router = self.routers[node]
            outputs_used: set = set()
            ejections = 0
            for port in router.ports_in_arbitration_order(cycle):
                buf = router.buffers[port]
                if not buf:
                    continue
                pkt = buf.head()

                # Split destinations into eject-here vs per-output groups.
                # A multicast packet is forked *combinationally* inside the
                # router crossbar: each divergent group can leave through
                # its own output this same cycle.  Groups that cannot make
                # progress (busy output, full downstream buffer, decoder
                # budget spent) stay in the head packet for later cycles —
                # the buffer never grows from a fork.
                groups = self._route_groups(node, pkt)
                progressed: set = set()
                for direction, dst_group in groups.items():
                    if direction == "eject":
                        if ejections >= EJECTIONS_PER_CYCLE:
                            continue
                        ejections += 1
                        stats.record(
                            DeliveryRecord(
                                uid=pkt.uid,
                                src_neuron=pkt.src_neuron,
                                src_node=pkt.src_node,
                                dst_node=node,
                                injected_cycle=pkt.injected_cycle,
                                delivered_cycle=cycle,
                                hops=pkt.hops,
                            )
                        )
                        progressed.update(dst_group)
                        continue
                    nxt = direction
                    if nxt in outputs_used:
                        continue
                    key = (nxt, node)
                    extra = staged_counts.get(key, 0)
                    if not self.routers[nxt].buffers[node].has_space(extra):
                        continue  # backpressure: downstream channel is full
                    forwarded = SpikePacket(
                        uid=pkt.uid,
                        src_neuron=pkt.src_neuron,
                        src_node=pkt.src_node,
                        dst_nodes=frozenset(dst_group),
                        injected_cycle=pkt.injected_cycle,
                        hops=pkt.hops + 1,
                    )
                    staged.append((nxt, node, forwarded))
                    staged_counts[key] = extra + 1
                    outputs_used.add(nxt)
                    stats.count_link(node, nxt)
                    progressed.update(dst_group)

                if progressed:
                    remaining = pkt.dst_nodes - progressed
                    if remaining:
                        buf.replace_head([pkt.fork(remaining)])
                    else:
                        buf.pop()

        for dst_router, from_node, pkt in staged:
            self.routers[dst_router].accept(from_node, pkt)
            active.add(dst_router)

        # Drop routers that went idle.
        for node in [n for n in active if not self.routers[n].occupied()]:
            active.discard(node)

    def _route_groups(self, node: int, pkt: SpikePacket) -> Dict[object, List[int]]:
        """Group a packet's destinations by required action at ``node``.

        Key "eject" collects destinations equal to ``node``; integer keys
        are next-hop routers.
        """
        groups: Dict[object, List[int]] = {}
        for dst in sorted(pkt.dst_nodes):
            key: object = (
                "eject" if dst == node else self.routing.next_hop(node, dst)
            )
            groups.setdefault(key, []).append(dst)
        return groups
