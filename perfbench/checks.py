"""Correctness oracles, run after timing and counted as failed ops.

Every reference here is independent of the path it checks: global spikes
are recomputed from graph edges with plain numpy, the NoC is re-simulated
on the object-per-packet reference engine, cached answers are compared
against computed ones field by field.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np

from repro.noc.fastsim import build_interconnect
from repro.noc.interconnect import NocConfig

Check = Tuple[str, bool, str]  # (name, passed, detail when failed)

# Every workload simulates under the default NoC parameters on the fast
# backend; the oracle run differs in the backend field only.
REFERENCE = NocConfig(backend="reference")


def global_spikes(graph, assignment: np.ndarray) -> float:
    """Eq. 8 straight from the edge list: traffic on synapses whose two
    ends sit on different crossbars."""
    a = np.asarray(assignment)
    crossing = a[np.asarray(graph.src)] != a[np.asarray(graph.dst)]
    return float(np.asarray(graph.traffic, dtype=np.float64)[crossing].sum())


def check_mapping(label: str, result) -> List[Check]:
    graph, arch, mapping = result.graph, result.architecture, result.mapping
    a = np.asarray(mapping.assignment)
    expected = global_spikes(graph, a)
    spikes_ok = expected == float(mapping.global_spikes)
    valid = (
        a.shape == (graph.n_neurons,)
        and a.size > 0
        and int(a.min()) >= 0
        and int(a.max()) < arch.n_crossbars
    )
    fits = valid and int(np.bincount(a).max()) <= arch.neurons_per_crossbar
    return [
        (f"{label}.global_spikes", spikes_ok,
         "" if spikes_ok else f"reported {mapping.global_spikes}, edges give {expected}"),
        (f"{label}.capacity", fits,
         "" if fits else "assignment out of range or a crossbar over capacity"),
    ]


def stats_fields(stats) -> tuple:
    """Everything the metrics layer reads off a ``NocStats``."""
    records = [
        (r.uid, r.src_neuron, r.src_node, r.dst_node, r.injected_cycle,
         r.delivered_cycle, r.hops)
        for r in stats.deliveries
    ]
    return (
        records,
        stats.cycles_run,
        dict(stats.link_loads),
        stats.peak_buffer_occupancy,
        stats.n_injected,
        stats.n_expected_deliveries,
        stats.undelivered_count,
    )


def check_reference_noc(results: Sequence) -> Tuple[Check, float]:
    """Re-simulate the smallest final schedule on the reference engine.

    Returns the check and the reference engine's host time.
    """
    smallest = min(results, key=lambda r: r.schedule.n_packets)
    t0 = time.perf_counter()
    reference = build_interconnect(smallest.topology, config=REFERENCE).simulate(
        smallest.schedule
    )
    elapsed = time.perf_counter() - t0
    same = stats_fields(reference) == stats_fields(smallest.noc_stats)
    detail = "" if same else (
        f"reference engine disagrees on a {smallest.schedule.n_packets}-packet "
        f"schedule of {smallest.graph.name}"
    )
    return ("noc_reference_equal", same, detail), elapsed


def answers_equal(expected: Sequence, actual: Sequence) -> Tuple[bool, str]:
    """Field-by-field equality of two lists of pipeline answers."""
    if len(expected) != len(actual):
        return False, f"{len(expected)} answers vs {len(actual)}"
    for i, (a, b) in enumerate(zip(expected, actual)):
        ma, mb = a.mapping, b.mapping
        pairs = [
            ("assignment", np.array_equal(ma.assignment, mb.assignment)),
            ("method", ma.method == mb.method),
            ("fitness", ma.fitness == mb.fitness),
            ("global_spikes", ma.global_spikes == mb.global_spikes),
            ("local_spikes", ma.local_spikes == mb.local_spikes),
            ("global_synapses", ma.global_synapses == mb.global_synapses),
            ("local_synapses", ma.local_synapses == mb.local_synapses),
            ("report", a.report == b.report),
            ("schedule", a.schedule == b.schedule),
            ("noc_stats", stats_fields(a.noc_stats) == stats_fields(b.noc_stats)),
            ("failed_links", list(a.failed_links) == list(b.failed_links)),
        ]
        for field, same in pairs:
            if not same:
                return False, f"answer {i}: {field} differs"
    return True, ""
