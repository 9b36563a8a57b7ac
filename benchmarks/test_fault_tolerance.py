"""Bench: fault injection and resilient runtime remapping end to end.

Maps hello_world onto a 3x3 single-chip mesh and exercises the fault
subsystem on a realistic workload:

- **degradation** — the same mapping simulated at rising link fault
  counts, one seeded draw per level
  (`repro.framework.pipeline.run_fault_campaign` with ``draws=1``);
  every packet must still deliver over the shortest-path detours, and
  latency/energy may only grow relative to the healthy fabric;
- **backend equivalence** — the most-degraded fabric produces
  bit-identical ``ScheduleSummary`` values on the reference and fast
  backends (the C-kernel mask path needs no special casing for
  degraded topologies);
- **live crossbar fault** — a ``FaultEvent`` marks one crossbar faulty
  mid-run and the ``RuntimeRemapper`` migrates every neuron off it
  under the migration budget, keeping the assignment feasible.

Set ``FAULT_REPORT_PATH`` to also write the one-draw campaign and the
evacuation audit as JSON (uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import os
import time

from repro.core.mapper import map_snn
from repro.core.partition import is_feasible
from repro.core.runtime import FaultEvent, RuntimeRemapper
from repro.framework.pipeline import run_fault_campaign
from repro.hardware.presets import custom
from repro.noc.fastsim import FastInterconnect
from repro.noc.faults import inject_random_faults
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.stats import summarize
from repro.noc.traffic import build_injections

FAULT_COUNTS = (0, 1, 2, 4)
FAULT_SEED = 2018
MIGRATION_BUDGET = 6


def _platform_for(graph):
    # One spare crossbar's worth of slack: 9 crossbars sized for 8, so
    # a single crossbar fault is always fully absorbable.
    per_xbar = max(16, -(-graph.n_neurons // 8))
    return custom(9, per_xbar, interconnect="mesh", name="fault-bench")


def test_fault_tolerance(benchmark, hello_world_graph):
    graph = hello_world_graph
    arch = _platform_for(graph)
    mapping = map_snn(graph, arch, method="pacman")

    # Degradation: one mapping, one fault draw per rising fault count.
    t0 = time.perf_counter()
    summary = run_fault_campaign(
        graph,
        arch,
        mappings={"pacman": mapping},
        fault_levels=FAULT_COUNTS,
        draws=1,
        campaign_seed=FAULT_SEED,
        noc_config=NocConfig(backend="fast"),
    )
    sweep_s = time.perf_counter() - t0
    healthy = summary.baseline("pacman")
    for point in summary.draws:
        assert point.undelivered_packets == 0, f"{point.level} faults dropped packets"
        assert point.mean_latency_cycles >= healthy.mean_latency_cycles
        assert point.global_energy_pj >= healthy.global_energy_pj
    worst = summary.level_stats("pacman", max(FAULT_COUNTS))

    # Cross-backend equivalence on the most-degraded fabric.
    topology = arch.build_topology()
    degraded, _ = inject_random_faults(topology, max(FAULT_COUNTS), seed=FAULT_SEED)
    schedule = build_injections(
        graph,
        mapping.assignment,
        degraded,
        cycles_per_ms=arch.cycles_per_ms,
    )
    fast_sim = FastInterconnect(degraded, config=NocConfig(backend="fast"))
    ref_summary = summarize(
        Interconnect(degraded).simulate(schedule.injections), degraded
    )
    fast_summary = summarize(fast_sim.simulate(schedule), degraded)
    assert ref_summary == fast_summary, "backends diverged on degraded fabric"

    # Live fault: one crossbar dies mid-run; the remapper evacuates it.
    remapper = RuntimeRemapper(
        graph,
        n_clusters=arch.n_crossbars,
        capacity=arch.neurons_per_crossbar,
        assignment=mapping.assignment,
        migration_budget=MIGRATION_BUDGET,
    )
    victim = max(range(arch.n_crossbars), key=lambda c: len(remapper.neurons_on(c)))
    stranded = len(remapper.neurons_on(victim))
    assert stranded > 0
    remapper.apply_fault(
        FaultEvent(crossbar=victim, time=0.0, description="bench fault")
    )
    epochs = 0
    while not remapper.evacuated(victim):
        epoch = remapper.remap_epoch()
        epochs += 1
        assert all(m.to_cluster != victim for m in epoch.moves)
        assert epochs <= 2 * arch.n_crossbars, "evacuation did not converge"
    assert remapper.neurons_on(victim) == []
    assert is_feasible(
        remapper.assignment, arch.n_crossbars, arch.neurons_per_crossbar
    )
    evacuation_migrations = remapper.total_migrations()

    print()
    print(summary.table())
    print(
        f"fault sweep {sweep_s * 1e3:.0f}ms; worst fabric "
        f"({worst.level} faults) latency x"
        f"{worst.mean_latency_overhead:.2f}; crossbar {victim} "
        f"evacuated {stranded} neurons in {epochs} epochs "
        f"({evacuation_migrations} migrations, budget "
        f"{MIGRATION_BUDGET}/epoch)"
    )

    report_path = os.environ.get("FAULT_REPORT_PATH")
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(
                {
                    "degradation_curve": summary.to_dict(),
                    "latency_overhead_worst": worst.mean_latency_overhead,
                    "bit_identical": ref_summary == fast_summary,
                    "kernel_active": fast_sim._ck is not None,
                    "sweep_s": sweep_s,
                    "evacuation": {
                        "crossbar": victim,
                        "neurons": stranded,
                        "epochs": epochs,
                        "migrations": evacuation_migrations,
                        "migration_budget": MIGRATION_BUDGET,
                        "evacuated": remapper.evacuated(victim),
                    },
                },
                fh,
                indent=2,
            )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["latency_overhead_worst"] = worst.mean_latency_overhead
    benchmark.extra_info["bit_identical"] = ref_summary == fast_summary
    benchmark.extra_info["evacuation_migrations"] = evacuation_migrations
