"""Ablation: fitness-definition and binarization design choices.

Two knobs DESIGN.md calls out:

1. **Objective**: the paper's Eq. 8 counts every crossing *synapse*
   spike; with in-network multicast the hardware actually pays per
   (neuron, destination-crossbar) *packet*.  This bench optimizes under
   both objectives and measures real NoC packets of the results.
2. **Binarization**: the paper's stochastic sigmoid rule (Eqs. 2-3)
   versus a deterministic argmax decode.

Expected shapes: packet-objective mappings never produce *more* NoC
packets than synapse-objective mappings on the same workload; both
binarizations land within a few percent of each other (the constraint
repair dominates decode noise).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import BinaryPSO, InterconnectFitness, PSOConfig
from repro.framework.reproduce import bench_architecture
from repro.noc.traffic import build_injections
from repro.utils.tables import format_table

PSO_CFG = PSOConfig(n_particles=60, n_iterations=40)


def _noc_packets(graph, assignment, arch) -> int:
    topology = arch.build_topology()
    schedule = build_injections(graph, assignment, topology,
                                cycles_per_ms=arch.cycles_per_ms)
    return schedule.n_packets


def _optimize(graph, arch, count_packets: bool, binarization: str):
    fitness = InterconnectFitness(graph, count_packets=count_packets)
    pso = BinaryPSO(
        fitness,
        n_neurons=graph.n_neurons,
        n_clusters=arch.n_crossbars,
        capacity=arch.neurons_per_crossbar,
        config=replace(PSO_CFG, binarization=binarization),
        seed=7,
    )
    return pso.optimize()


def _run(graph):
    arch = bench_architecture(graph)
    results = {}
    for objective in ("synapse", "packet"):
        res = _optimize(graph, arch, objective == "packet", "stochastic")
        results[objective] = {
            "fitness": res.best_fitness,
            "noc_packets": _noc_packets(graph, res.best_assignment, arch),
        }
    res_argmax = _optimize(graph, arch, False, "argmax")
    results["argmax"] = {
        "fitness": res_argmax.best_fitness,
        "noc_packets": _noc_packets(graph, res_argmax.best_assignment, arch),
    }
    return results


def _run_all(workloads):
    return {name: _run(g) for name, g in workloads.items()}


@pytest.fixture(scope="module")
def fitness_workloads(hello_world_graph, heartbeat_graph):
    return {"hello_world": hello_world_graph, "heartbeat": heartbeat_graph}


def test_fitness_ablation(benchmark, fitness_workloads):
    results = benchmark.pedantic(
        _run_all, args=(fitness_workloads,), rounds=1, iterations=1
    )

    rows = []
    for name, r in results.items():
        for variant in ("synapse", "packet", "argmax"):
            rows.append((name, variant, f"{r[variant]['fitness']:.0f}",
                         r[variant]["noc_packets"]))
        rows.append(("", "", "", ""))
    print()
    print("Ablation — fitness objective and binarization rule")
    print(format_table(
        ["workload", "variant", "objective value", "actual NoC packets"],
        rows,
    ))

    for name, r in results.items():
        # Optimizing the packet objective should not *hurt* real packets.
        assert (r["packet"]["noc_packets"]
                <= r["synapse"]["noc_packets"] * 1.10), name
        # Binarization choice is second-order: within 25% on objective.
        if r["synapse"]["fitness"] > 0:
            ratio = r["argmax"]["fitness"] / r["synapse"]["fitness"]
            assert 0.6 <= ratio <= 1.67, (
                f"{name}: binarization changed solution quality "
                f"unexpectedly (ratio {ratio:.2f})"
            )
