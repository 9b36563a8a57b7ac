"""Neuromorphic platform model (CxQuad-like clustered crossbar hardware).

The reference platform (paper Fig. 1) is a set of memristive crossbars —
each a fully connected array of Nc pre- x Nc post-synaptic neurons — joined
by a time-multiplexed interconnect carrying AER packets.  This package
models the platform pieces the mapping flow needs:

- :class:`Architecture` — C crossbars x Nc neurons + interconnect family;
- :class:`EnergyModel` — configurable local/global energy parameters
  (stand-in for the paper's in-house CxQuad power numbers);
- :mod:`repro.hardware.presets` — cxquad(), truenorth_like(), custom().
"""

from repro.hardware.architecture import Architecture
from repro.hardware.energy_model import EnergyModel
from repro.hardware.config import load_architecture, save_architecture
from repro.hardware.presets import (
    cxquad,
    custom,
    multichip_board,
    truenorth_like,
)

__all__ = [
    "Architecture",
    "EnergyModel",
    "cxquad",
    "truenorth_like",
    "custom",
    "multichip_board",
    "load_architecture",
    "save_architecture",
]
