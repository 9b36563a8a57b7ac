"""Multi-chip interconnect smoke benchmark (`repro.noc.multichip`).

Maps hello_world onto a 2-chip mesh board and checks the three
multi-chip contracts end to end on a realistic workload:

- **backend equivalence** — fast and reference backends produce
  bit-identical ``ScheduleSummary`` values on the bridged fabric under
  deterministic routing (bridges are relay-router chains, so the fast
  tables and the C-kernel mask path need no special casing);
- **chip-aware placement** — the hierarchical pack-then-place pass
  yields no more simulated inter-chip hops than naive identity
  placement, and strictly fewer bridge crossings of traffic;
- **bridge accounting** — inter-chip hops equal bridge crossings times
  bridge latency, and the energy model's bridge term is charged.

Set ``MULTICHIP_REPORT_PATH`` to also write the measurements as JSON
(uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core.mapper import map_snn
from repro.core.placement import inter_chip_traffic
from repro.core.traffic_matrix import cluster_traffic
from repro.hardware.presets import custom
from repro.noc.fastsim import FastInterconnect
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.stats import summarize
from repro.noc.traffic import build_injections

N_CHIPS = 2
BRIDGE_LATENCY = 4


def _board_for(graph):
    per_xbar = max(16, -(-graph.n_neurons // 8))
    return custom(
        8,
        per_xbar,
        interconnect="mesh",
        name="bench-board",
        n_chips=N_CHIPS,
        bridge_latency=BRIDGE_LATENCY,
    )


def test_multichip_smoke(benchmark, hello_world_graph):
    graph = hello_world_graph
    arch = _board_for(graph)
    topology = arch.build_topology()

    # Chip-aware mapping (pacman + hierarchical placement) vs the same
    # partition placed naively (identity permutation).
    t0 = time.perf_counter()
    mapping = map_snn(graph, arch, method="pacman")
    map_s = time.perf_counter() - t0
    naive = map_snn(graph, arch, method="pacman", placement=False)

    traffic = cluster_traffic(graph, naive.assignment, arch.n_crossbars)
    perm = mapping.extras["placement"]
    crossing_placed = inter_chip_traffic(traffic, perm, topology)
    crossing_naive = inter_chip_traffic(traffic, np.arange(arch.n_crossbars), topology)
    assert crossing_placed <= crossing_naive

    def simulate(assignment, sim):
        schedule = build_injections(
            graph, assignment, topology, cycles_per_ms=arch.cycles_per_ms
        )
        stats = sim.simulate(schedule.injections)
        return stats, summarize(stats, topology)

    fast_sim = FastInterconnect(topology, config=NocConfig(backend="fast"))
    ref_sim = Interconnect(topology)

    t0 = time.perf_counter()
    placed_stats, placed = simulate(mapping.assignment, fast_sim)
    fast_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, placed_ref = simulate(mapping.assignment, ref_sim)
    ref_s = time.perf_counter() - t0
    _, naive_summary = simulate(naive.assignment, fast_sim)

    # Backend equivalence on the bridged fabric, summary-exact.
    assert placed == placed_ref, "backends diverged on the multi-chip fabric"
    # Chip-aware placement beats (or ties) naive placement where the
    # workload allows; hello_world has real community structure, so the
    # strict closed-form reduction above implies fewer simulated
    # crossings here too.
    assert placed.inter_chip_hops <= naive_summary.inter_chip_hops
    # Bridge bookkeeping is self-consistent, and every crossing is
    # charged the bridge energy term on top of the flat accounting.
    assert placed.inter_chip_hops == placed.bridge_crossings * BRIDGE_LATENCY
    energy_pj = arch.energy.global_energy_pj(placed_stats, topology)
    assert energy_pj == arch.energy.global_energy_pj(placed_stats) + (
        placed.bridge_crossings * arch.energy.e_bridge_pj
    )

    print()
    print(
        f"multichip smoke: {N_CHIPS} chips, bridge latency {BRIDGE_LATENCY}, "
        f"map {map_s * 1e3:.0f}ms, fast sim {fast_s * 1e3:.0f}ms, "
        f"ref sim {ref_s * 1e3:.0f}ms; inter-chip hops "
        f"{placed.inter_chip_hops} placed vs {naive_summary.inter_chip_hops} "
        f"naive ({placed.bridge_crossings} crossings)"
    )

    report_path = os.environ.get("MULTICHIP_REPORT_PATH")
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(
                {
                    "n_chips": N_CHIPS,
                    "bridge_latency": BRIDGE_LATENCY,
                    "kernel_active": fast_sim._ck is not None,
                    "map_s": map_s,
                    "fast_sim_s": fast_s,
                    "ref_sim_s": ref_s,
                    "bit_identical": placed == placed_ref,
                    "inter_chip_hops_placed": placed.inter_chip_hops,
                    "inter_chip_hops_naive": naive_summary.inter_chip_hops,
                    "bridge_crossings": placed.bridge_crossings,
                    "crossing_traffic_placed": crossing_placed,
                    "crossing_traffic_naive": crossing_naive,
                    "global_energy_pj": energy_pj,
                },
                fh,
                indent=2,
            )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["inter_chip_hops_placed"] = placed.inter_chip_hops
    benchmark.extra_info["inter_chip_hops_naive"] = naive_summary.inter_chip_hops
    benchmark.extra_info["bit_identical"] = placed == placed_ref
