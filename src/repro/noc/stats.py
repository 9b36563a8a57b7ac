"""Delivery records and aggregate interconnect statistics.

The simulator produces one :class:`DeliveryRecord` per (packet, destination
router) delivery.  Everything the paper reports about the interconnect —
latency (cycles), throughput (AER/ms), energy (via the hardware energy
model), spike disorder and ISI distortion — is derived from these
deliveries, so the metrics layer never needs to re-run the network.  It
reads them as :class:`DeliveryColumns` (:meth:`NocStats.delivery_columns`),
never record by record; :func:`summarize` collapses one simulation into
the integer :class:`ScheduleSummary` that swarm scoring compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.noc.topology import Topology


@dataclass(frozen=True)
class DeliveryRecord:
    """One spike delivered to one destination router."""

    uid: int
    src_neuron: int
    src_node: int
    dst_node: int
    injected_cycle: int
    delivered_cycle: int
    hops: int


class DeliveryColumns(NamedTuple):
    """Every delivery of one simulation as parallel int64 columns.

    Row ``i`` of each column describes the same delivery, in the order
    the simulator recorded them.  This is the one form the metrics layer
    reads deliveries in (:meth:`NocStats.delivery_columns`): whole-array
    numpy over these columns replaces per-record Python loops.
    """

    uid: np.ndarray
    src_neuron: np.ndarray
    src_node: np.ndarray
    dst_node: np.ndarray
    injected_cycle: np.ndarray
    delivered_cycle: np.ndarray


#: Links a congestion report names as hotspots.
HOTSPOTS = 5


@dataclass
class NocStats:
    """Aggregate outcome of one interconnect simulation.

    Attributes
    ----------
    deliveries:
        All per-destination delivery records.
    n_injected:
        Unique spike events offered to the network.
    n_expected_deliveries:
        Total (packet, destination) pairs that should be delivered.
    cycles_run:
        Cycles simulated until the network drained (or the safety cap hit).
    link_loads:
        Packet traversals per directed link ``(u, v)``.
    peak_buffer_occupancy:
        High-water mark over all bounded channel buffers.

    Every attribute starts empty and is filled in by the engine that
    runs the simulation: none is a constructor argument.
    """

    deliveries: List[DeliveryRecord] = field(default_factory=list, init=False)
    n_injected: int = field(default=0, init=False)
    n_expected_deliveries: int = field(default=0, init=False)
    cycles_run: int = field(default=0, init=False)
    link_loads: Dict[Tuple[int, int], int] = field(default_factory=dict, init=False)
    peak_buffer_occupancy: int = field(default=0, init=False)

    # -- bookkeeping used by the simulator ---------------------------------

    def record(self, rec: DeliveryRecord) -> None:
        self.deliveries.append(rec)

    def count_link(self, u: int, v: int) -> None:
        self.link_loads[(u, v)] = self.link_loads.get((u, v), 0) + 1

    # -- derived quantities -------------------------------------------------

    @property
    def delivered_count(self) -> int:
        return len(self.deliveries)

    @property
    def undelivered_count(self) -> int:
        return self.n_expected_deliveries - self.delivered_count

    def latencies(self) -> np.ndarray:
        """Per-delivery latency in cycles (decoder receive - encoder send)."""
        return np.asarray(
            [r.delivered_cycle - r.injected_cycle for r in self.deliveries],
            dtype=np.int64,
        )

    def delivery_columns(self) -> DeliveryColumns:
        """The deliveries as :class:`DeliveryColumns`, in record order.

        Built here in one pass over the record list; the fast backend
        overrides this to gather the columns straight from the kernel's
        output without constructing a :class:`DeliveryRecord`.
        """
        rows = np.array(
            [
                (
                    r.uid,
                    r.src_neuron,
                    r.src_node,
                    r.dst_node,
                    r.injected_cycle,
                    r.delivered_cycle,
                )
                for r in self.deliveries
            ],
            dtype=np.int64,
        ).reshape(-1, 6)
        return DeliveryColumns(*rows.T)

    def max_latency(self) -> int:
        """Worst-case spike latency on the interconnect (paper Table II row)."""
        lat = self.latencies()
        return int(lat.max()) if lat.size else 0

    def mean_latency(self) -> float:
        lat = self.latencies()
        return float(lat.mean()) if lat.size else 0.0

    def total_hops(self) -> int:
        """Total link traversals — the energy-proportional event count."""
        return int(sum(self.link_loads.values()))

    def throughput_aer_per_ms(self, cycles_per_ms: float) -> float:
        """AER packets delivered per millisecond (paper Table II row)."""
        if self.cycles_run == 0:
            return 0.0
        duration_ms = self.cycles_run / cycles_per_ms
        return self.delivered_count / duration_ms

    def hottest_links(self) -> List[Tuple[Tuple[int, int], int]]:
        """The :data:`HOTSPOTS` most-loaded directed links, for
        congestion reports."""
        return sorted(self.link_loads.items(), key=lambda kv: -kv[1])[:HOTSPOTS]

    def describe(self) -> str:
        return (
            f"NocStats: {self.delivered_count}/{self.n_expected_deliveries} "
            f"deliveries over {self.cycles_run} cycles, "
            f"max latency {self.max_latency()} cy, "
            f"mean latency {self.mean_latency():.1f} cy, "
            f"{self.total_hops()} link hops"
        )


class ScheduleSummary(NamedTuple):
    """Columnar aggregate of one simulated schedule.

    Everything swarm scoring reads off a simulation, as plain integers:
    tiny to pickle, exact to compare (worker-vs-serial equivalence tests
    use ``==`` on whole summaries, no float tolerance needed).

    The four trailing fields carry the multi-chip breakdown and stay
    zero on single-chip fabrics (or when :func:`summarize` is called
    without a topology).
    """

    n_injected: int
    n_expected: int
    delivered: int
    total_hops: int
    latency_sum: int
    max_latency: int
    cycles_run: int
    peak_buffer_occupancy: int
    inter_chip_hops: int = 0
    bridge_crossings: int = 0
    inter_chip_latency_sum: int = 0
    inter_chip_delivered: int = 0

    @property
    def undelivered(self) -> int:
        return self.n_expected - self.delivered


def summarize(
    stats: NocStats, topology: Optional[Topology] = None
) -> ScheduleSummary:
    """Collapse a :class:`NocStats` into its :class:`ScheduleSummary`.

    Works on both backends; on :class:`~repro.noc.fastsim.FastNocStats`
    it reads the lazy columns directly and never materializes
    per-delivery records.  Pass the simulated topology to fill the
    multi-chip breakdown fields (inter-chip hops, bridge crossings and
    the inter-chip latency split); they stay zero for flat topologies,
    so the summary of a single-chip run is unchanged by the argument.
    """
    from repro.noc.multichip import MultiChipTopology

    lat = stats.latencies()
    inter_hops = crossings = inter_lat = inter_n = 0
    if isinstance(topology, MultiChipTopology) and topology.n_chips > 1:
        inter_hops = topology.inter_chip_hops(stats.link_loads)
        crossings = topology.bridge_crossings(stats.link_loads)
        # latencies() and delivery_columns() share the record order.
        columns = stats.delivery_columns()
        inter = topology.crosses_chips(columns.src_node, columns.dst_node)
        inter_n = int(inter.sum())
        inter_lat = int(lat[inter].sum())
    return ScheduleSummary(
        n_injected=stats.n_injected,
        n_expected=stats.n_expected_deliveries,
        delivered=stats.delivered_count,
        total_hops=stats.total_hops(),
        latency_sum=int(lat.sum()) if lat.size else 0,
        max_latency=int(lat.max()) if lat.size else 0,
        cycles_run=stats.cycles_run,
        peak_buffer_occupancy=stats.peak_buffer_occupancy,
        inter_chip_hops=inter_hops,
        bridge_crossings=crossings,
        inter_chip_latency_sum=inter_lat,
        inter_chip_delivered=inter_n,
    )
