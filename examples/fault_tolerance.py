#!/usr/bin/env python
"""Fault injection, campaigns and resilient runtime remapping.

Crossbar fabrics in the field lose links and whole compute arrays to
defects and aging.  This example degrades a mapped fabric four ways:

1. **Dead links** — `run_fault_campaign` with one draw per level
   re-simulates one fixed mapping at rising link-fault counts; routing
   detours around the damage and the table shows what the detours cost
   in latency and energy.
2. **A faulty crossbar** — a `FaultEvent` marks one crossbar's compute
   array dead mid-run; the `RuntimeRemapper` evacuates its neurons onto
   healthy crossbars a few migrations per epoch.
3. **A transient fault** — a `FaultTimeline` schedules a crossbar fault
   that later *heals*; `run_fault_timeline` evacuates at the arrive
   edge and re-admits the crossbar at the clear edge, all under the
   same migration budget.
4. **A Monte-Carlo campaign** — `run_fault_campaign` replays many
   seeded fault draws against two mappings of the same PSO seed, with
   and without `spare_capacity` headroom, and shows what the
   fault-aware mapping buys in survival and tail latency.

Run:  python examples/fault_tolerance.py
"""

from repro.apps import build_application
from repro.core import map_snn
from repro.core.runtime import (
    FaultEvent,
    RuntimeRemapper,
    run_fault_timeline,
)
from repro.framework.pipeline import run_fault_campaign
from repro.hardware.presets import custom
from repro.noc.faults import FaultSet, FaultTimeline, FaultWindow
from repro.noc.interconnect import NocConfig

SEED = 2018


def main() -> None:
    graph = build_application("hello_world", seed=SEED, duration_ms=500.0)
    # One spare crossbar's worth of slack so a crossbar fault is absorbable.
    arch = custom(n_crossbars=9,
                  neurons_per_crossbar=max(16, -(-graph.n_neurons // 8)),
                  interconnect="mesh", name="field-unit")
    mapping = map_snn(graph, arch, method="pacman")

    print(f"Degrading the {arch.name} fabric link by link...")
    degraded = run_fault_campaign(
        graph, arch,
        mappings={"pacman": mapping},
        fault_levels=(0, 1, 2, 4),
        draws=1,
        campaign_seed=SEED,
        noc_config=NocConfig(backend="fast"),
    )
    print(degraded.table())
    worst = degraded.level_stats("pacman", 4)
    print(f"With {worst.level} dead links every packet still delivers; "
          f"mean latency is x{worst.mean_latency_overhead:.2f} the "
          f"healthy fabric's.")

    print()
    print("Now a whole crossbar's compute array fails mid-run...")
    remapper = RuntimeRemapper(
        graph,
        n_clusters=arch.n_crossbars,
        capacity=arch.neurons_per_crossbar,
        assignment=mapping.assignment,
        migration_budget=4,
    )
    victim = max(range(arch.n_crossbars),
                 key=lambda c: len(remapper.neurons_on(c)))
    stranded = len(remapper.neurons_on(victim))
    remapper.apply_fault(FaultEvent(crossbar=victim, time=120.0,
                                    description="compute array fault"))
    epochs = 0
    while not remapper.evacuated(victim):
        epoch = remapper.remap_epoch()
        epochs += 1
        print(f"  epoch {epochs}: {epoch.n_migrations} migrations, "
              f"{len(remapper.neurons_on(victim))} neurons still stranded")
    print(f"Crossbar {victim} evacuated: {stranded} neurons moved in "
          f"{epochs} epochs ({remapper.total_migrations()} migrations at "
          f"budget 4/epoch).")

    print()
    print("Now the fault is transient: it arrives at t=100 and heals "
          "at t=400...")
    timeline = FaultTimeline([
        FaultWindow(FaultSet(faulty_crossbars=[victim]),
                    arrive=100.0, clear=400.0),
    ])
    remapper = RuntimeRemapper(
        graph,
        n_clusters=arch.n_crossbars,
        capacity=arch.neurons_per_crossbar,
        assignment=mapping.assignment,
        migration_budget=8,
    )
    for step in run_fault_timeline(remapper, timeline, epochs_per_edge=2):
        what = (f"arrived on {list(step.arrived)}" if step.arrived
                else f"cleared on {list(step.cleared)}")
        moved = sum(e.n_migrations for e in step.epochs)
        print(f"  t={step.time:.0f}: fault {what}; {moved} migrations, "
              f"{len(remapper.neurons_on(victim))} neurons on crossbar "
              f"{victim}")
    print(f"Healed: crossbar {victim} is a first-class citizen again "
          f"({len(remapper.heal_log)} heal events audited).")

    print()
    print("Finally, a Monte-Carlo campaign: fault-aware vs. baseline "
          "mapping...")
    roomy = custom(12, 16, interconnect="mesh", name="roomy-unit")
    baseline = map_snn(graph, roomy, method="pso", seed=SEED)
    fault_aware = map_snn(graph, roomy, method="pso", seed=SEED,
                          spare_capacity=0.15)
    print(f"  baseline:    fitness {baseline.fitness:.0f} "
          f"(crossbars packed full)")
    print(f"  fault-aware: fitness {fault_aware.fitness:.0f} "
          f"(15% of every crossbar held in reserve)")
    summary = run_fault_campaign(
        graph, roomy,
        mappings={"baseline": baseline, "fault-aware": fault_aware},
        fault_levels=(0, 2, 4),
        draws=8,
        campaign_seed=SEED,
        noc_config=NocConfig(backend="fast"),
    )
    print(summary.table())
    deepest = max(summary.levels)
    base_stats = summary.level_stats("baseline", deepest)
    fa_stats = summary.level_stats("fault-aware", deepest)
    print(f"At {deepest} faults the fault-aware mapping's p95 latency "
          f"overhead is x{fa_stats.p95_latency_overhead:.3f} vs "
          f"x{base_stats.p95_latency_overhead:.3f} for the packed "
          f"baseline — headroom pays for itself once the fabric "
          f"degrades.")


if __name__ == "__main__":
    main()
