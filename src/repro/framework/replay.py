"""Post-interconnect spike replay.

The paper's SNN metrics (ISI distortion, disorder) quantify *how much*
the interconnect perturbs spike timing; this module reconstructs the
perturbed spike trains themselves, so application-level code can measure
what the degradation *does* — e.g. re-estimating heart rate from the
spikes a readout crossbar actually receives (Section V-B ties a 20% ISI
distortion reduction to >5% estimation accuracy).

Given a :class:`~repro.framework.pipeline.PipelineResult`:

- spikes that stayed *local* arrive untouched (crossbars deliver
  in-array within a cycle);
- spikes that crossed the interconnect arrive at their destination
  crossbar at the simulated delivery cycle.

``perceived_spike_trains`` merges both into the per-(source neuron,
destination crossbar) trains a receiving neuron observes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.framework.pipeline import PipelineResult


def delivered_spike_trains(
    result: PipelineResult,
) -> Dict[Tuple[int, int], np.ndarray]:
    """Delivery times (ms) per (source neuron, destination crossbar) flow.

    Only flows that crossed the interconnect appear; times convert from
    NoC cycles through the architecture's clock ratio.
    """
    cycles_per_ms = result.architecture.cycles_per_ms
    topology = result.architecture.build_topology()
    node_to_crossbar = {
        topology.node_of_crossbar(k): k
        for k in range(result.architecture.n_crossbars)
    }
    flows: Dict[Tuple[int, int], List[float]] = {}
    for rec in result.noc_stats.deliveries:
        crossbar = node_to_crossbar[rec.dst_node]
        flows.setdefault((rec.src_neuron, crossbar), []).append(
            rec.delivered_cycle / cycles_per_ms
        )
    return {
        flow: np.sort(np.asarray(times)) for flow, times in flows.items()
    }


def perceived_spike_trains(
    result: PipelineResult,
) -> Dict[Tuple[int, int], np.ndarray]:
    """What each destination crossbar observes from each source neuron.

    Local flows (source neuron on the same crossbar as its targets) pass
    through with original timing; global flows carry the NoC's delivery
    timing.  Keyed by (source neuron, destination crossbar); only flows
    with at least one synapse exist.
    """
    graph = result.graph
    assignment = result.mapping.assignment
    trains = dict(delivered_spike_trains(result))

    # Local flows: neuron -> its own crossbar, original spike times,
    # for neurons that have at least one local target there.
    local_pairs = set()
    for s, d in zip(graph.src, graph.dst):
        if assignment[s] == assignment[d] and int(s) != int(d):
            local_pairs.add((int(s), int(assignment[s])))
    for neuron, crossbar in local_pairs:
        trains[(neuron, crossbar)] = np.asarray(
            graph.spike_times[neuron], dtype=np.float64
        )
    return trains


def pooled_arrivals_at(
    result: PipelineResult, crossbar: int
) -> np.ndarray:
    """All spike arrival times (ms) observed at one crossbar, pooled.

    The raw material for population-level decoding at a readout tile
    (e.g. heart-rate estimation from whatever the readout crossbar sees).
    """
    pooled = [
        times
        for (_, xbar), times in perceived_spike_trains(result).items()
        if xbar == crossbar
    ]
    if not pooled:
        return np.empty(0, dtype=np.float64)
    return np.sort(np.concatenate(pooled))


def timing_error_summary(result: PipelineResult) -> Dict[str, float]:
    """Per-flow timing perturbation of the global flows, in ms.

    For each delivered global flow, compares the sorted delivery times
    against the source's injected spike times (first N spikes, N =
    deliveries) and reports mean/max absolute shift — a time-domain
    companion to the cycle-domain ISI distortion metric.  Every
    delivered flow is a global one: the NoC only carries the mapping's
    remote spikes.
    """
    graph = result.graph
    trains = delivered_spike_trains(result)

    shifts: List[float] = []
    for (neuron, _), delivered in trains.items():
        source_times = np.asarray(graph.spike_times[neuron])[: delivered.size]
        if source_times.size != delivered.size:
            continue
        shifts.extend(np.abs(delivered - source_times).tolist())
    if not shifts:
        return {"mean_shift_ms": 0.0, "max_shift_ms": 0.0, "n_flows": 0}
    arr = np.asarray(shifts)
    return {
        "mean_shift_ms": float(arr.mean()),
        "max_shift_ms": float(arr.max()),
        "n_flows": len(trains),
    }
