"""Bench: Monte-Carlo fault campaign and fault-aware mapping payoff.

Maps hello_world onto a 12x16 mesh twice with the same PSO seed — once
with ``spare_capacity=0`` (the paper's mapping) and once fault-aware —
then replays the *same* seeded fault draws against both through
``run_fault_campaign``:

- **fault-aware payoff** — at comparable healthy-fabric fitness
  (asserted within 10%), the fault-aware mapping must beat the
  baseline on survival rate or p95 latency overhead at the deepest
  fault level.

Set ``CAMPAIGN_REPORT_PATH`` to also write the campaign summary and
the comparison verdict as JSON (uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import os
import time

from repro.core.mapper import map_snn
from repro.core.pso import PSOConfig
from repro.framework.pipeline import run_fault_campaign
from repro.hardware.presets import custom
from repro.noc.interconnect import NocConfig

FAULT_LEVELS = (0, 2, 4)
DRAWS = 8
CAMPAIGN_SEED = 2018
SPARE_CAPACITY = 0.15
MAP_SEED = 1
FITNESS_SLACK = 1.10  # fault-aware may pay <= 10% healthy fitness


def test_fault_campaign(benchmark, hello_world_graph):
    graph = hello_world_graph
    # 12x16 = 192 slots for ~126 neurons: enough headroom that the
    # fault-aware reservation stays feasible while the baseline can
    # still pack crossbars full.
    arch = custom(12, 16, interconnect="mesh", name="campaign-bench")
    pso = PSOConfig(n_particles=20, n_iterations=30)
    noc = NocConfig(backend="fast")

    base = map_snn(graph, arch, method="pso", seed=MAP_SEED,
                   pso_config=pso)
    fa = map_snn(graph, arch, method="pso", seed=MAP_SEED,
                 pso_config=pso, spare_capacity=SPARE_CAPACITY)
    fitness_ratio = fa.fitness / base.fitness
    assert fitness_ratio <= FITNESS_SLACK, (
        f"fault-aware mapping paid {fitness_ratio:.3f}x healthy fitness; "
        f"comparison would be apples to oranges"
    )
    mappings = {"baseline": base, "fault-aware": fa}

    t0 = time.perf_counter()
    serial = run_fault_campaign(
        graph, arch, mappings=mappings, fault_levels=FAULT_LEVELS,
        draws=DRAWS, campaign_seed=CAMPAIGN_SEED, noc_config=noc,
    )
    serial_s = time.perf_counter() - t0

    deepest = max(FAULT_LEVELS)
    base_stats = serial.level_stats("baseline", deepest)
    fa_stats = serial.level_stats("fault-aware", deepest)
    survival_win = fa_stats.survival_rate > base_stats.survival_rate
    p95_win = fa_stats.p95_latency_overhead < base_stats.p95_latency_overhead
    assert survival_win or p95_win, (
        f"fault-aware mapping shows no resilience payoff at level "
        f"{deepest}: survival {fa_stats.survival_rate:.2f} vs "
        f"{base_stats.survival_rate:.2f}, p95 overhead "
        f"{fa_stats.p95_latency_overhead:.4f} vs "
        f"{base_stats.p95_latency_overhead:.4f}"
    )
    # Survival never regresses at any level.
    for level in FAULT_LEVELS:
        assert (serial.level_stats("fault-aware", level).survival_rate
                >= serial.level_stats("baseline", level).survival_rate)

    print()
    print(serial.table())
    print(
        f"campaign {len(serial.draws)} draws: {serial_s * 1e3:.0f}ms; "
        f"fault-aware paid {fitness_ratio:.3f}x fitness, level-{deepest} "
        f"p95 overhead {fa_stats.p95_latency_overhead:.4f} vs "
        f"{base_stats.p95_latency_overhead:.4f}"
    )

    report_path = os.environ.get("CAMPAIGN_REPORT_PATH")
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(
                {
                    "campaign": serial.to_dict(),
                    "fitness_ratio": fitness_ratio,
                    "serial_s": serial_s,
                    "deepest_level": deepest,
                    "survival_win": survival_win,
                    "p95_win": p95_win,
                    "baseline_p95": base_stats.p95_latency_overhead,
                    "fault_aware_p95": fa_stats.p95_latency_overhead,
                    "spare_capacity": SPARE_CAPACITY,
                },
                fh,
                indent=2,
            )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["fitness_ratio"] = fitness_ratio
    benchmark.extra_info["p95_win"] = p95_win
    benchmark.extra_info["survival_win"] = survival_win
