"""Cycle-accurate network-on-chip simulation substrate (Noxim++ substitute).

The paper extends the Noxim NoC simulator with (1) interconnect models for
neuromorphic hardware (NoC-tree for CxQuad, NoC-mesh for TrueNorth-like
chips), (2) SNN-related metrics (spike disorder, ISI distortion), and
(3) multicast spike delivery.  This package implements the same simulator
surface:

- :mod:`repro.noc.topology` — mesh / tree / star / torus builders with
  crossbar attach points;
- :mod:`repro.noc.multichip` — multi-chip fabrics: per-chip topologies
  joined by bridge links with configurable latency/energy, plus the
  per-chip / inter-chip statistics breakdown;
- :mod:`repro.noc.routing` — deterministic XY and shortest-path next-hop
  tables, held as dense arrays over sorted router ids;
- :mod:`repro.noc.interconnect` — the cycle-accurate, input-buffered,
  round-robin-arbitrated simulation loop with multicast forking;
- :mod:`repro.noc.fastsim` — the compiled-kernel backend
  (``NocConfig(backend="fast")``), bit-identical to the reference loop
  (which it falls back to when no kernel can run) and batched via
  ``simulate_fabrics`` / ``FastInterconnect.simulate_many`` (one C call
  per batch, each schedule on its own fabric's tables, an OpenMP thread
  team where the build has one);
- :mod:`repro.noc.traffic` — converts a mapped spike graph into AER packet
  injection schedules, built columnar (``ColumnarSchedule`` arrays the
  fast backend consumes directly, with a lazy legacy ``Injection`` view)
  and batched across whole swarms via ``build_injections_batch``; rows
  of ``Injection`` objects become a schedule through
  ``ColumnarSchedule.from_injections``, the one row-to-column conversion;
- :mod:`repro.noc.stats` — per-packet delivery records (read by the
  metrics as ``delivery_columns()`` arrays) and link utilization from
  which latency / throughput / energy / disorder / ISI metrics derive,
  plus the integer ``ScheduleSummary`` of one simulation (``summarize``).
"""

from repro.noc.packet import SpikePacket
from repro.noc.topology import Topology, build_topology, mesh, star, torus, tree
from repro.noc.multichip import (
    ChipBreakdown,
    MultiChipTopology,
    chip_breakdown,
    multichip,
)
from repro.noc.routing import (
    RoutingTable,
    shortest_path_routing,
    xy_routing,
)
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.fastsim import FastInterconnect, build_interconnect
from repro.noc.stats import (
    DeliveryRecord,
    NocStats,
    ScheduleSummary,
    summarize,
)
from repro.noc.traffic import (
    ColumnarSchedule,
    build_injections,
    build_injections_batch,
)
from repro.noc.faults import (
    FaultSet,
    FaultTimeline,
    FaultWindow,
    apply_faults,
    bridge_chains,
    degrade_topology,
    inject_random_faults,
)

__all__ = [
    "SpikePacket",
    "Topology",
    "build_topology",
    "mesh",
    "tree",
    "star",
    "torus",
    "MultiChipTopology",
    "ChipBreakdown",
    "chip_breakdown",
    "multichip",
    "RoutingTable",
    "xy_routing",
    "shortest_path_routing",
    "FaultSet",
    "FaultTimeline",
    "FaultWindow",
    "apply_faults",
    "bridge_chains",
    "degrade_topology",
    "inject_random_faults",
    "Interconnect",
    "FastInterconnect",
    "build_interconnect",
    "ScheduleSummary",
    "summarize",
    "NocConfig",
    "NocStats",
    "DeliveryRecord",
    "ColumnarSchedule",
    "build_injections",
    "build_injections_batch",
]
