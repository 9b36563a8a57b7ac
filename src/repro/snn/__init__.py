"""Spiking-neural-network simulation substrate (CARLsim substitute).

The paper uses CARLsim, a GPU-accelerated SNN simulator, purely to produce a
*spike graph*: the trained network's synapse list annotated with the spike
times each synapse carries.  This package provides a clock-driven,
numpy-vectorized SNN simulator that produces the same artifact
(:class:`repro.snn.graph.SpikeGraph`) for the same application topologies.

Public API
----------
- Neuron models: :class:`LIFModel`, :class:`AdaptiveLIFModel`
- Network construction: :class:`Network`, :class:`Population`, :class:`Projection`
- Spike sources: :class:`PoissonSource`, :class:`ScheduledSource`
- Simulation: :class:`Simulation`, :class:`SimulationResult`
- Plasticity: :class:`STDPRule`
- Coding: :func:`rate_encode`
- Graph extraction: :class:`SpikeGraph`
"""

from repro.snn.neuron import AdaptiveLIFModel, LIFModel, NeuronModel
from repro.snn.network import Network, Population, Projection
from repro.snn.generators import PoissonSource, ScheduledSource
from repro.snn.simulator import Simulation, SimulationResult
from repro.snn.stdp import STDPRule
from repro.snn.coding import rate_encode
from repro.snn.graph import SpikeGraph

__all__ = [
    "NeuronModel",
    "LIFModel",
    "AdaptiveLIFModel",
    "Network",
    "Population",
    "Projection",
    "PoissonSource",
    "ScheduledSource",
    "Simulation",
    "SimulationResult",
    "STDPRule",
    "rate_encode",
    "SpikeGraph",
]
