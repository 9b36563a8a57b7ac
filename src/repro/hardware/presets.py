"""Platform presets.

- :func:`cxquad` — the paper's reference chip: four crossbars on a
  NoC-tree.  The paper describes CxQuad both as "1024 neurons clustered
  into four crossbars of 256 neurons each" and as crossbars of "128 pre-
  and 128 post-synaptic neurons implementing a full 16K local synapses";
  we take 256 neurons of *capacity* per tile (the mapping constraint) and
  keep 128 as the energy model's reference wordline width.
- :func:`truenorth_like` — many small tiles on a NoC-mesh.
- :func:`custom` — free-form.
"""

from __future__ import annotations

from repro.hardware.architecture import Architecture
from repro.hardware.energy_model import EnergyModel


def cxquad() -> Architecture:
    """The paper's reference platform: 4 crossbars x 256 neurons, NoC-tree."""
    return Architecture(
        n_crossbars=4,
        neurons_per_crossbar=256,
        interconnect="tree",
        energy=EnergyModel(reference_crossbar_size=128),
        name="cxquad",
    )


def truenorth_like(
    n_crossbars: int = 16,
    neurons_per_crossbar: int = 256,
) -> Architecture:
    """A TrueNorth-style platform: small tiles on a NoC-mesh."""
    return Architecture(
        n_crossbars=n_crossbars,
        neurons_per_crossbar=neurons_per_crossbar,
        interconnect="mesh",
        energy=EnergyModel(reference_crossbar_size=256),
        name="truenorth_like",
    )


def multichip_board(
    n_chips: int = 4,
    crossbars_per_chip: int = 4,
    neurons_per_crossbar: int = 256,
) -> Architecture:
    """A board of several mesh chips joined by bridges (TrueNorth-style).

    Chip-to-chip links are slower than on-chip hops (4 cycles each) and
    each crossing pays the energy model's ``e_bridge_pj`` on top of
    per-hop costs.
    """
    return Architecture(
        n_crossbars=n_chips * crossbars_per_chip,
        neurons_per_crossbar=neurons_per_crossbar,
        interconnect="mesh",
        energy=EnergyModel(reference_crossbar_size=256),
        name=f"multichip_board_{n_chips}x{crossbars_per_chip}",
        n_chips=n_chips,
        bridge_latency=4,
    )


def custom(
    n_crossbars: int,
    neurons_per_crossbar: int,
    interconnect: str = "tree",
    cycles_per_ms: float = 10.0,
    energy: EnergyModel = None,
    name: str = "custom",
    n_chips: int = 1,
    bridge_latency: int = 1,
) -> Architecture:
    """Free-form platform builder with CxQuad-calibrated default energies."""
    return Architecture(
        n_crossbars=n_crossbars,
        neurons_per_crossbar=neurons_per_crossbar,
        interconnect=interconnect,
        cycles_per_ms=cycles_per_ms,
        energy=energy if energy is not None else EnergyModel(),
        name=name,
        n_chips=n_chips,
        bridge_latency=bridge_latency,
    )


def architecture_for(
    n_neurons: int,
    neurons_per_crossbar: int = 256,
    interconnect: str = "tree",
    cycles_per_ms: float = 10.0,
    name: str = "auto",
    n_chips: int = 1,
    bridge_latency: int = 1,
) -> Architecture:
    """Smallest platform of fixed tile size that fits ``n_neurons``."""
    n_crossbars = max(1, -(-n_neurons // neurons_per_crossbar))
    return Architecture(
        n_crossbars=n_crossbars,
        neurons_per_crossbar=neurons_per_crossbar,
        interconnect=interconnect,
        cycles_per_ms=cycles_per_ms,
        name=name,
        n_chips=n_chips,
        bridge_latency=bridge_latency,
    )
