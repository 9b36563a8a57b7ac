"""Energy model for local and global synaptic events.

The paper uses power numbers from in-house IMEC neuromorphic chips, which
are not public.  This model keeps every coefficient configurable and ships
defaults in the published ballpark for 28 nm-class neuromorphic designs
(TrueNorth reports 26 pJ per synaptic event end-to-end; memristive
crossbar *device* events are sub-pJ — we default to 0.16 pJ at the
128-wide reference wordline; NoC routers cost a few pJ per flit per
hop).  All paper results we reproduce are *normalized* or comparative,
so only the ratios matter to the shapes; the local/global ratio is
calibrated so the Fig. 6 exploration exhibits the paper's interior
total-energy minimum.

Local synapse energy
--------------------
Driving one crossbar row activates the wordline across all ``Nc`` columns,
so the energy of one local pre-synaptic spike scales linearly with crossbar
width: ``e_local_event * (Nc / reference_size)``.  This is what makes big
crossbars expensive locally and produces the local/global crossover of the
paper's Fig. 6.

Global synapse energy
---------------------
Charged per event on the interconnect: router traversal and link traversal
per hop, plus encoder (injection) and decoder (ejection) work per packet.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Mapping

from repro.noc.stats import NocStats
from repro.utils.validation import check_nonnegative, check_positive


@dataclass(frozen=True)
class EnergyModel:
    """Configurable per-event energy coefficients (picojoules).

    Attributes
    ----------
    e_local_event_pj:
        Energy of one local synaptic event on a crossbar of
        ``reference_crossbar_size`` neurons.
    reference_crossbar_size:
        Crossbar width at which ``e_local_event_pj`` is calibrated; local
        event energy scales as ``size / reference`` (wordline length).
    e_router_pj:
        Router traversal energy per packet per hop.
    e_link_pj:
        Link traversal energy per packet per hop.
    e_encode_pj / e_decode_pj:
        AER encoder / decoder energy per packet injected / delivered.
    e_bridge_pj:
        Extra energy per packet per chip-to-chip bridge *crossing*
        (SerDes + pad drive), on top of the ordinary per-hop cost the
        bridge's relay stages already pay.  Inert on single-chip
        fabrics, which have no bridges to cross.
    """

    e_local_event_pj: float = 0.16
    reference_crossbar_size: int = 128
    e_router_pj: float = 9.0
    e_link_pj: float = 4.5
    e_encode_pj: float = 3.0
    e_decode_pj: float = 3.0
    e_bridge_pj: float = 45.0

    def __post_init__(self) -> None:
        check_nonnegative("e_local_event_pj", self.e_local_event_pj)
        check_positive("reference_crossbar_size", self.reference_crossbar_size)
        check_nonnegative("e_router_pj", self.e_router_pj)
        check_nonnegative("e_link_pj", self.e_link_pj)
        check_nonnegative("e_encode_pj", self.e_encode_pj)
        check_nonnegative("e_decode_pj", self.e_decode_pj)
        check_nonnegative("e_bridge_pj", self.e_bridge_pj)

    # -- local side -----------------------------------------------------------

    def local_event_energy_pj(self, crossbar_size: int) -> float:
        """Energy of one local synaptic event on a crossbar of given width."""
        check_positive("crossbar_size", crossbar_size)
        return self.e_local_event_pj * (crossbar_size / self.reference_crossbar_size)

    def local_energy_pj(self, local_spike_events: float, crossbar_size: int) -> float:
        """Total local-synapse energy for a count of crossbar events."""
        check_nonnegative("local_spike_events", local_spike_events)
        return local_spike_events * self.local_event_energy_pj(crossbar_size)

    # -- global side ------------------------------------------------------------

    def global_energy_pj(self, stats: NocStats, topology=None) -> float:
        """Interconnect energy from a NoC simulation's event counts.

        Pass the simulated topology to charge the multi-chip bridge
        term: every chip-to-chip crossing costs ``e_bridge_pj`` on top
        of the per-hop energy its relay stages already pay.  Without a
        topology (or on a single-chip one) the result is the flat
        accounting unchanged.
        """
        hop_energy = stats.total_hops() * (self.e_router_pj + self.e_link_pj)
        endpoint_energy = (
            stats.n_injected * self.e_encode_pj
            + stats.delivered_count * self.e_decode_pj
        )
        bridge_energy = 0.0
        crossings = getattr(topology, "bridge_crossings", None)
        if crossings is not None:
            bridge_energy = crossings(stats.link_loads) * self.e_bridge_pj
        return hop_energy + endpoint_energy + bridge_energy

    # -- analytic global estimate (no NoC simulation) ---------------------------

    def estimate_global_energy_pj(
        self,
        spike_hops: float,
        packets: float,
        deliveries: float,
        bridge_crossings: float = 0.0,
    ) -> float:
        """Analytic estimate used by fast fitness sweeps.

        ``spike_hops`` is total (packet x hop) events; ``packets`` and
        ``deliveries`` are injection/ejection counts;
        ``bridge_crossings`` is the chip-to-chip crossing count on a
        multi-chip fabric (zero on one chip).
        """
        check_nonnegative("spike_hops", spike_hops)
        check_nonnegative("bridge_crossings", bridge_crossings)
        return (
            spike_hops * (self.e_router_pj + self.e_link_pj)
            + packets * self.e_encode_pj
            + deliveries * self.e_decode_pj
            + bridge_crossings * self.e_bridge_pj
        )

    # -- config round-trip (the paper's "external loaded YAML file") -------------

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)

    @classmethod
    def from_dict(cls, config: Mapping[str, float]) -> "EnergyModel":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(config) - known
        if unknown:
            raise ValueError(f"unknown energy parameters: {sorted(unknown)}")
        return cls(**config)
