"""Design-space exploration studies (paper Sections V-C and V-D).

- :func:`explore_architecture` — Fig. 6: sweep crossbar size for a fixed
  application; report local / global / total synapse energy and worst-case
  interconnect latency per point.
- :func:`explore_swarm_size` — Fig. 7: sweep the PSO swarm size at a fixed
  iteration budget; report the achieved interconnect energy per point
  (normalized by the sweep's minimum, as the paper plots it).
- :func:`explore_chips` — the multi-chip extension of the Fig. 6 study:
  hold the platform fixed and sweep how many chips its crossbars are
  spread across, reporting the inter-chip traffic, bridge crossings and
  energy/latency cost of each split.

Both return plain dataclass lists so benches can print the same series the
paper's figures show.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.core.mapper import SEED_FREE_METHODS, map_snn
from repro.core.pso import PSOConfig
from repro.framework.artifacts import _sweep_point, pipeline_token
from repro.framework.pipeline import run_pipeline
from repro.hardware.architecture import Architecture
from repro.noc.interconnect import NocConfig
from repro.noc.routing import routing_for
from repro.snn.graph import SpikeGraph
from repro.utils.rng import SeedLike, derive_seed, replayable


@dataclass(frozen=True)
class ArchitecturePoint:
    """One Fig. 6 sweep point."""

    neurons_per_crossbar: int
    n_crossbars: int
    local_energy_uj: float
    global_energy_uj: float
    total_energy_uj: float
    max_latency_cycles: int
    global_spikes: float


@dataclass(frozen=True)
class SwarmPoint:
    """One Fig. 7 sweep point.

    ``particle_iterations_per_s`` is the swarm's generation throughput
    (evaluated particle-iterations per second of pure PSO wall time) —
    the number the fig-7 bench prints so front-end slowdowns are visible
    in bench output, not just total wall time.
    """

    swarm_size: int
    interconnect_energy_pj: float
    global_spikes: float
    wall_time_s: float
    particle_iterations_per_s: float = 0.0


@dataclass(frozen=True)
class ChipPoint:
    """One chip-count sweep point."""

    n_chips: int
    n_bridges: int
    local_energy_uj: float
    global_energy_uj: float
    total_energy_uj: float
    max_latency_cycles: int
    mean_latency_cycles: float
    inter_chip_hops: int
    bridge_crossings: int
    mean_inter_chip_latency_cycles: float
    global_spikes: float


def architecture_point(
    graph: SpikeGraph,
    base: Architecture,
    size: int,
    index: int,
    *,
    method: str = "pso",
    seed: SeedLike = None,
    pso_config: Optional[PSOConfig] = None,
    noc_config: Optional[NocConfig] = None,
    objective: str = "packets",
    cache=None,
) -> ArchitecturePoint:
    """One Fig. 6 sweep point: crossbar size ``size`` at sweep ``index``.

    With a ``cache`` and a seed that replays, the finished point is
    memoized whole under the content of its ``run_pipeline`` call (kind
    ``sweep-point``, on disk when the cache has a directory), so a
    killed sweep run again computes only the points it had not reached.
    """
    arch = base.scaled_to(graph.n_neurons, size)
    run = dict(
        method=method,
        seed=derive_seed(seed, index),
        pso_config=pso_config,
        noc_config=noc_config,
        objective=objective,
    )

    def compute() -> ArchitecturePoint:
        report = run_pipeline(graph, arch, cache=cache, **run).report
        return ArchitecturePoint(
            neurons_per_crossbar=size,
            n_crossbars=arch.n_crossbars,
            local_energy_uj=report.local_energy_pj * 1e-6,
            global_energy_uj=report.global_energy_pj * 1e-6,
            total_energy_uj=report.total_energy_pj * 1e-6,
            max_latency_cycles=report.max_latency_cycles,
            global_spikes=report.global_spikes,
        )

    return _sweep_point(
        cache,
        replayable(run["seed"], unused=method in SEED_FREE_METHODS),
        lambda: ("architecture", pipeline_token(graph, arch, **run), size),
        compute,
    )


def explore_architecture(
    graph: SpikeGraph,
    base: Architecture,
    crossbar_sizes: Sequence[int],
    method: str = "pso",
    seed: SeedLike = None,
    pso_config: Optional[PSOConfig] = None,
    noc_config: Optional[NocConfig] = None,
    objective: str = "packets",
    cache=None,
) -> List[ArchitecturePoint]:
    """Fig. 6: vary crossbar size, keep the application fixed.

    For each size the platform is re-derived so the whole network fits
    (fewer, larger crossbars or more, smaller ones), then the full
    pipeline runs: mapping, NoC simulation, energy accounting.
    ``cache`` memoizes each point's deterministic mapping and result,
    so a repeated sweep (or a repeated point) is answered from it.
    """
    return [
        architecture_point(
            graph,
            base,
            size,
            i,
            method=method,
            seed=seed,
            pso_config=pso_config,
            noc_config=noc_config,
            objective=objective,
            cache=cache,
        )
        for i, size in enumerate(crossbar_sizes)
    ]


def chip_point(
    graph: SpikeGraph,
    base: Architecture,
    chips: int,
    index: int,
    *,
    method: str = "pso",
    seed: SeedLike = None,
    pso_config: Optional[PSOConfig] = None,
    noc_config: Optional[NocConfig] = None,
    objective: str = "packets",
    cache=None,
) -> ChipPoint:
    """One chip-count sweep point (see :func:`explore_chips`).

    Memoized like :func:`architecture_point`.
    """
    arch = replace(base, n_chips=chips, name=f"{base.name}@{chips}chips")
    run = dict(
        method=method,
        seed=derive_seed(seed, index),
        pso_config=pso_config,
        noc_config=noc_config,
        objective=objective,
    )

    def compute() -> ChipPoint:
        result = run_pipeline(graph, arch, cache=cache, **run)
        report = result.report
        return ChipPoint(
            n_chips=chips,
            n_bridges=getattr(result.topology, "n_bridges", 0),
            local_energy_uj=report.local_energy_pj * 1e-6,
            global_energy_uj=report.global_energy_pj * 1e-6,
            total_energy_uj=report.total_energy_pj * 1e-6,
            max_latency_cycles=report.max_latency_cycles,
            mean_latency_cycles=report.mean_latency_cycles,
            inter_chip_hops=report.inter_chip_hops,
            bridge_crossings=report.bridge_crossings,
            mean_inter_chip_latency_cycles=(
                report.mean_inter_chip_latency_cycles
            ),
            global_spikes=report.global_spikes,
        )

    return _sweep_point(
        cache,
        replayable(run["seed"], unused=method in SEED_FREE_METHODS),
        lambda: ("chips", pipeline_token(graph, arch, **run), chips),
        compute,
    )


def explore_chips(
    graph: SpikeGraph,
    base: Architecture,
    chip_counts: Sequence[int],
    method: str = "pso",
    seed: SeedLike = None,
    pso_config: Optional[PSOConfig] = None,
    noc_config: Optional[NocConfig] = None,
    objective: str = "packets",
    cache=None,
) -> List[ChipPoint]:
    """Sweep how many chips the platform's crossbars are spread across.

    Every point keeps ``base``'s crossbar count, tile size and per-chip
    topology family; only the chip split (and therefore the bridge
    structure) changes.  The full pipeline runs per point — mapping with
    the chip-aware placement pass, cycle-accurate NoC simulation, and
    the energy accounting including the bridge term — so the sweep shows
    the real latency/energy cliff of going off-chip, Fig. 6 style.
    """
    return [
        chip_point(
            graph,
            base,
            chips,
            i,
            method=method,
            seed=seed,
            pso_config=pso_config,
            noc_config=noc_config,
            objective=objective,
            cache=cache,
        )
        for i, chips in enumerate(chip_counts)
    ]


def estimate_interconnect_energy_pj(
    graph: SpikeGraph,
    assignment: np.ndarray,
    architecture: Architecture,
) -> float:
    """Analytic interconnect energy from per-flow AER packet counts.

    Avoids a full NoC simulation for sweeps with many points.  Each
    (neuron, remote crossbar) flow carries the neuron's spike count; a
    flow's packets pay hop energy over the routed distance (plus the
    per-crossing bridge energy on multi-chip fabrics), the encoder
    runs once per spike event that leaves a crossbar, and the decoder
    once per delivered packet.  This is the unicast-equivalent accounting
    (multicast trunk sharing makes the simulated energy at most a few
    percent lower); congestion does not change energy, only latency, so
    the ordering of mapping candidates always matches the simulator's.
    """
    from repro.core.traffic_matrix import TrafficMatrix
    from repro.noc.multichip import MultiChipTopology
    from repro.noc.traffic import global_destinations

    topology = architecture.build_topology()
    routing = routing_for(topology)
    bridged = isinstance(topology, MultiChipTopology) and topology.n_chips > 1
    assignment = np.asarray(assignment, dtype=np.int64)
    neuron_spikes = TrafficMatrix(graph).neuron_spikes
    dests = global_destinations(graph, assignment)

    spike_hops = encodes = decodes = crossings = 0.0
    for neuron, clusters in dests.items():
        spikes = float(neuron_spikes[neuron])
        if spikes == 0.0:
            continue
        own_node = topology.node_of_crossbar(int(assignment[neuron]))
        encodes += spikes  # one encode per spike event
        for c in clusters:
            dst_node = topology.node_of_crossbar(c)
            spike_hops += spikes * routing.distance(own_node, dst_node)
            decodes += spikes
            if bridged:
                crossings += spikes * topology.bridge_crossings_on_route(
                    routing, own_node, dst_node
                )
    return architecture.energy.estimate_global_energy_pj(
        spike_hops, encodes, decodes, bridge_crossings=crossings
    )


def estimate_synapse_energy_pj(
    graph: SpikeGraph,
    assignment: np.ndarray,
    architecture: Architecture,
) -> float:
    """Paper-literal interconnect energy: per-synapse spike accounting.

    Eq. 7-8 of the paper charge every crossing *synapse* spike
    independently (no multicast sharing): hop energy over the routed
    distance between the two crossbars (plus per-crossing bridge energy
    on multi-chip fabrics) plus encoder/decoder work per spike.  This
    is the cost model under which the paper's Fig. 5 numbers were
    produced; :func:`estimate_interconnect_energy_pj` is the
    multicast-aware packet variant.
    """
    from repro.core.traffic_matrix import cluster_traffic
    from repro.noc.multichip import MultiChipTopology

    topology = architecture.build_topology()
    routing = routing_for(topology)
    bridged = isinstance(topology, MultiChipTopology) and topology.n_chips > 1
    matrix = cluster_traffic(graph, assignment, architecture.n_crossbars)
    spike_hops = crossing = bridge_crossings = 0.0
    for k1 in range(architecture.n_crossbars):
        for k2 in range(architecture.n_crossbars):
            spikes = matrix[k1, k2]
            if k1 == k2 or spikes == 0.0:
                continue
            n1 = topology.node_of_crossbar(k1)
            n2 = topology.node_of_crossbar(k2)
            spike_hops += spikes * routing.distance(n1, n2)
            crossing += spikes
            if bridged:
                bridge_crossings += spikes * topology.bridge_crossings_on_route(
                    routing, n1, n2
                )
    return architecture.energy.estimate_global_energy_pj(
        spike_hops, crossing, crossing, bridge_crossings=bridge_crossings
    )


def explore_swarm_size(
    graph: SpikeGraph,
    architecture: Architecture,
    swarm_sizes: Sequence[int],
    n_iterations: int = 100,
    seed: SeedLike = None,
    base_config: Optional[PSOConfig] = None,
) -> List[SwarmPoint]:
    """Fig. 7: PSO quality as a function of swarm size at fixed iterations.

    Energy per point is the paper-literal per-synapse hop-weighted
    estimate of the best assignment found (the paper plots interconnect
    energy normalized to the per-application minimum; normalization
    happens at the caller) and the swarm optimizes the literal Eq. 8
    spike objective — matching the cost model under which the paper's
    Fig. 7 was produced.  Warm-starting and the cluster-placement
    post-pass are both disabled so each point reflects pure swarm search
    (placement would repair much of a weak swarm's damage and flatten
    the sweep).
    """
    base = base_config if base_config is not None else PSOConfig()
    points: List[SwarmPoint] = []
    for i, swarm in enumerate(swarm_sizes):
        config = replace(base, n_particles=swarm, n_iterations=n_iterations)
        result = map_snn(
            graph,
            architecture,
            method="pso",
            seed=derive_seed(seed, i),
            pso_config=config,
            warm_start=False,
            placement=False,
            objective="spikes",
        )
        energy = estimate_synapse_energy_pj(
            graph, result.assignment, architecture
        )
        points.append(
            SwarmPoint(
                swarm_size=swarm,
                interconnect_energy_pj=energy,
                global_spikes=result.global_spikes,
                wall_time_s=result.wall_time_s,
                particle_iterations_per_s=float(
                    result.extras.get("particle_iterations_per_s", 0.0)
                ),
            )
        )
    return points


def normalized_energies(points: Sequence[SwarmPoint]) -> List[float]:
    """Fig. 7's y-axis: energy normalized to the sweep's minimum."""
    energies = [p.interconnect_energy_pj for p in points]
    floor = min(e for e in energies if e > 0) if any(e > 0 for e in energies) else 1.0
    return [e / floor for e in energies]
