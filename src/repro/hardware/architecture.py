"""Architecture description: crossbars + interconnect family.

The designer-provided specification of the paper's Section III: ``C``
crossbars of ``Nc`` neurons each, joined by a NoC of a given family
(tree for CxQuad, mesh for TrueNorth-like chips).  Section V-C explores
this very specification — :mod:`repro.framework.exploration` sweeps
``neurons_per_crossbar`` holding total neuron capacity fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.hardware.energy_model import EnergyModel
from repro.noc.topology import Topology, build_topology
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Architecture:
    """A clustered neuromorphic platform.

    Attributes
    ----------
    n_crossbars:
        Number of crossbar tiles (``C``).
    neurons_per_crossbar:
        Neuron capacity of each tile (``Nc``).
    interconnect:
        Topology family for the global synapse interconnect:
        "tree", "mesh", "star" or "torus".  With ``n_chips > 1`` this
        is the *per-chip* family and the chips are composed into a
        multi-chip fabric with bridge links.
    n_chips:
        Number of chips the crossbars are spread across.  ``1`` (the
        default) is the flat single-chip platform of the paper; larger
        values build a :class:`~repro.noc.multichip.MultiChipTopology`.
    bridge_latency:
        Cycles for a packet to cross one chip-to-chip bridge (only
        meaningful with ``n_chips > 1``).
    cycles_per_ms:
        Interconnect clock cycles per millisecond of biological time; sets
        how bursty simultaneous spikes appear to the NoC.
    energy:
        Per-event energy coefficients (including the per-crossing
        bridge energy on multi-chip platforms).
    name:
        Label for reports.
    """

    n_crossbars: int
    neurons_per_crossbar: int
    interconnect: str = "tree"
    cycles_per_ms: float = 10.0
    energy: EnergyModel = field(default_factory=EnergyModel)
    name: str = "custom"
    n_chips: int = 1
    bridge_latency: int = 1

    def __post_init__(self) -> None:
        check_positive("n_crossbars", self.n_crossbars)
        check_positive("neurons_per_crossbar", self.neurons_per_crossbar)
        check_positive("cycles_per_ms", self.cycles_per_ms)
        check_positive("n_chips", self.n_chips)
        check_positive("bridge_latency", self.bridge_latency)

    @property
    def total_capacity(self) -> int:
        """Maximum number of neurons the platform can host."""
        return self.n_crossbars * self.neurons_per_crossbar

    def build_topology(self) -> Topology:
        """Instantiate the interconnect topology with one attach point per tile.

        With ``n_chips > 1`` the crossbars are spread over a multi-chip
        fabric of ``interconnect``-family chips joined by bridges.  The
        chip count is clamped to the crossbar count so derived
        platforms (``scaled_to`` during exploration) stay buildable
        when they shrink below one crossbar per chip.
        """
        chips = min(self.n_chips, self.n_crossbars)
        if chips > 1:
            return build_topology(
                "multichip",
                self.n_crossbars,
                n_chips=chips,
                chip_kind=self.interconnect,
                bridge_latency=self.bridge_latency,
            )
        return build_topology(self.interconnect, self.n_crossbars)

    def fits(self, n_neurons: int) -> bool:
        """Whether a network of ``n_neurons`` can be placed at all."""
        return n_neurons <= self.total_capacity

    def require_fits(self, n_neurons: int) -> None:
        if not self.fits(n_neurons):
            raise ValueError(
                f"network of {n_neurons} neurons exceeds {self.name!r} capacity "
                f"{self.total_capacity} ({self.n_crossbars} x "
                f"{self.neurons_per_crossbar})"
            )

    def scaled_to(self, n_neurons: int, neurons_per_crossbar: int) -> "Architecture":
        """Derive an architecture with tiles of a new size covering ``n_neurons``.

        Used by the Fig. 6 exploration: crossbar size varies, and the tile
        count grows/shrinks to keep the network placeable.
        """
        check_positive("neurons_per_crossbar", neurons_per_crossbar)
        n_crossbars = max(1, -(-n_neurons // neurons_per_crossbar))
        return replace(
            self,
            n_crossbars=n_crossbars,
            neurons_per_crossbar=neurons_per_crossbar,
            name=f"{self.name}@{neurons_per_crossbar}/xbar",
        )

    def describe(self) -> str:
        chips = (
            f"{self.n_chips} chips of {self.interconnect} "
            f"(bridge latency {self.bridge_latency})"
            if self.n_chips > 1
            else f"{self.interconnect} interconnect"
        )
        return (
            f"Architecture {self.name!r}: {self.n_crossbars} crossbars x "
            f"{self.neurons_per_crossbar} neurons, {chips}, "
            f"{self.cycles_per_ms} cycles/ms"
        )
