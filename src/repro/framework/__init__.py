"""End-to-end mapping framework (paper Fig. 4).

Ties the substrates together: application → SNN simulation → spike graph →
partitioner → NoC simulation → metric report.

- :func:`run_pipeline` — one (application, architecture, method) run;
- :mod:`repro.framework.exploration` — the paper's design-space studies
  (Fig. 6 crossbar-size sweep, Fig. 7 swarm-size sweep);
- :mod:`repro.framework.service` — the serving layer: a
  :class:`MappingService` that answers requests in order over a
  content-addressed :class:`ArtifactCache`, which also holds the
  finished points of long sweeps so a killed one restarts where it
  stopped.
"""

from repro.framework.artifacts import ArtifactCache
from repro.framework.pipeline import (
    PipelineResult,
    run_fault_campaign,
    run_pipeline,
)
from repro.framework.exploration import (
    ArchitecturePoint,
    ChipPoint,
    SwarmPoint,
    architecture_point,
    chip_point,
    estimate_interconnect_energy_pj,
    estimate_synapse_energy_pj,
    explore_architecture,
    explore_chips,
    explore_swarm_size,
)
from repro.framework.service import MapRequest, MappingService
from repro.framework.reproduce import reproduce

__all__ = [
    "run_pipeline",
    "run_fault_campaign",
    "PipelineResult",
    "ArtifactCache",
    "MapRequest",
    "MappingService",
    "architecture_point",
    "chip_point",
    "explore_architecture",
    "explore_chips",
    "explore_swarm_size",
    "estimate_interconnect_energy_pj",
    "estimate_synapse_energy_pj",
    "ArchitecturePoint",
    "ChipPoint",
    "SwarmPoint",
    "reproduce",
]
