"""Fast backend vs reference loop on the Fig. 5 workloads.

Builds the same AER injection schedules the Fig. 5 energy evaluation
flows through (the paper's plotted synthetic topologies plus the
hello_world app, mapped onto CxQuad-style tree platforms), simulates
each schedule with both backends, and checks:

- bit-identical delivery records, cycle counts and link loads (the
  deterministic-routing equivalence contract);
- the fast backend is >= 10x faster in aggregate.  The compiled kernel
  (built automatically when a C compiler is available; see
  ``repro/noc/_ckernel.py``) measures 30-50x here.  Without a compiler
  ``backend="fast"`` *is* the reference engine, so the speed floor only
  applies when the kernel is active; bit-identity is asserted always.

Set ``FASTSIM_REPORT_PATH`` to also write the measurements as JSON
(uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import os
import timeit
from typing import Dict

from repro.core.mapper import map_snn
from repro.hardware.presets import architecture_for
from repro.noc.fastsim import FastInterconnect
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.traffic import build_injections
from repro.utils.tables import format_table


def _schedule_for(graph):
    """The Fig. 5 platform sizing: every workload needs 4-8 crossbars."""
    per_xbar = max(16, -(-graph.n_neurons // 6))
    arch = architecture_for(
        graph.n_neurons, neurons_per_crossbar=per_xbar,
        interconnect="tree", name=graph.name,
    )
    mapping = map_snn(graph, arch, method="greedy", seed=7)
    topology = arch.build_topology()
    return topology, build_injections(
        graph, mapping.assignment, topology,
        cycles_per_ms=arch.cycles_per_ms,
    )


def _records(stats):
    return [
        (r.uid, r.src_neuron, r.src_node, r.dst_node, r.injected_cycle,
         r.delivered_cycle, r.hops)
        for r in stats.deliveries
    ]


def test_fastsim_speedup_on_fig5_workloads(benchmark, synthetic_graphs,
                                           hello_world_graph):
    workloads = dict(synthetic_graphs)
    workloads["HW"] = hello_world_graph

    results: Dict[str, Dict[str, float]] = {}
    kernel_active = True
    for name, graph in workloads.items():
        topology, schedule = _schedule_for(graph)
        fast = FastInterconnect(topology, config=NocConfig(backend="fast"))
        kernel_active = kernel_active and fast._ck is not None

        ref_stats = Interconnect(topology).simulate(schedule.injections)
        fast_stats = fast.simulate(schedule.injections)
        assert _records(ref_stats) == _records(fast_stats), (
            f"{name}: fast backend diverged from the reference oracle"
        )
        assert ref_stats.cycles_run == fast_stats.cycles_run
        assert ref_stats.link_loads == fast_stats.link_loads

        t_ref = min(timeit.repeat(
            lambda: Interconnect(topology).simulate(schedule.injections),
            number=1, repeat=2,
        ))
        t_fast = min(timeit.repeat(
            lambda: fast.simulate(schedule.injections),
            number=1, repeat=3,
        ))
        results[name] = {
            "ref_s": t_ref,
            "fast_s": t_fast,
            "speedup": t_ref / t_fast,
            "deliveries": ref_stats.delivered_count,
            "cycles": ref_stats.cycles_run,
        }

    total_ref = sum(r["ref_s"] for r in results.values())
    total_fast = sum(r["fast_s"] for r in results.values())
    aggregate = total_ref / total_fast

    print()
    print("Fast backend vs reference loop (Fig. 5 workloads)"
          + ("" if kernel_active else " — no C kernel: reference engine"))
    print(format_table(
        ["workload", "reference (ms)", "fast (ms)", "speedup"],
        [
            (name, f"{r['ref_s'] * 1e3:.1f}", f"{r['fast_s'] * 1e3:.2f}",
             f"{r['speedup']:.1f}x")
            for name, r in results.items()
        ] + [("TOTAL", f"{total_ref * 1e3:.1f}", f"{total_fast * 1e3:.2f}",
              f"{aggregate:.1f}x")],
    ))

    report_path = os.environ.get("FASTSIM_REPORT_PATH")
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(
                {
                    "kernel_active": kernel_active,
                    "aggregate_speedup": aggregate,
                    "workloads": results,
                },
                fh,
                indent=2,
            )

    if kernel_active:
        assert aggregate >= 10.0, (
            f"fast backend only {aggregate:.1f}x faster than the reference "
            "loop on the Fig. 5 workload (acceptance floor is 10x)"
        )

    # Record something in pytest-benchmark's output for trend tracking.
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["aggregate_speedup"] = aggregate
    benchmark.extra_info["kernel_active"] = kernel_active
