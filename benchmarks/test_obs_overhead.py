"""Observability overhead on the Fig. 5 workloads.

Runs the instrumented hot path — injection-schedule building plus the
fast NoC backend — bare and under a live ``repro.obs.observe()``
session (tracing *and* metrics on), and checks:

- bit-identical delivery records, cycle counts and link loads with
  observability on vs off (the neutrality contract, at bench scale);
- the observed run costs < 5% extra wall time in aggregate: the median,
  over interleaved bare/observed pairs that alternate which side runs
  first, of each pair's observed/bare ratio (host drift hits both sides
  of a pair alike, and the median ignores the pairs a burst landed in).

Set ``OBS_REPORT_PATH`` to also write the measurements as JSON
(uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import os
import statistics
import timeit
from typing import Dict

from repro.core.mapper import map_snn
from repro.hardware.presets import architecture_for
from repro.noc.fastsim import FastInterconnect
from repro.noc.interconnect import NocConfig
from repro.noc.traffic import build_injections
from repro.obs import observe
from repro.utils.tables import format_table

#: Acceptance ceiling: observability may cost at most this fraction.
MAX_OVERHEAD = 0.05

#: Interleaved bare/observed pairs timed (odd: the median is one pair's).
N_PAIRS = 31


def _workload_for(graph):
    """The Fig. 5 platform sizing (mirrors the fastsim bench)."""
    per_xbar = max(16, -(-graph.n_neurons // 6))
    arch = architecture_for(
        graph.n_neurons, neurons_per_crossbar=per_xbar,
        interconnect="tree", name=graph.name,
    )
    mapping = map_snn(graph, arch, method="greedy", seed=7)
    topology = arch.build_topology()
    return arch, mapping, topology


def _records(stats):
    return [
        (r.uid, r.src_neuron, r.src_node, r.dst_node, r.injected_cycle,
         r.delivered_cycle, r.hops)
        for r in stats.deliveries
    ]


def test_obs_overhead_under_5_percent(benchmark, synthetic_graphs,
                                      hello_world_graph):
    workloads = dict(synthetic_graphs)
    workloads["HW"] = hello_world_graph
    prepared = {
        name: _workload_for(graph) for name, graph in workloads.items()
    }
    graphs = workloads

    def run_all():
        """One rep of the instrumented hot path over every workload."""
        out = []
        for name, (arch, mapping, topology) in prepared.items():
            schedule = build_injections(
                graphs[name], mapping.assignment, topology,
                cycles_per_ms=arch.cycles_per_ms,
            )
            sim = FastInterconnect(topology, config=NocConfig(backend="fast"))
            out.append(sim.simulate(schedule))
        return out

    def run_all_observed():
        # A fresh observe() per rep: span/metric recording is inside the
        # measured region, exactly as a traced production run pays it.
        with observe():
            return run_all()

    # Neutrality at bench scale: every delivery record bit-identical.
    bare_stats = run_all()
    obs_stats = run_all_observed()
    for name, a, b in zip(prepared, bare_stats, obs_stats):
        assert _records(a) == _records(b), (
            f"{name}: results diverged with observability enabled"
        )
        assert a.cycles_run == b.cycles_run
        assert a.link_loads == b.link_loads

    # Back-to-back pairs, alternating which side runs first, so load and
    # frequency drift hit both sides of a pair alike (and neither side
    # always runs warm); the median ratio ignores the noisiest pairs.
    bare_times, obs_times = [], []
    for i in range(N_PAIRS):
        if i % 2:
            obs_times.append(timeit.timeit(run_all_observed, number=1))
            bare_times.append(timeit.timeit(run_all, number=1))
        else:
            bare_times.append(timeit.timeit(run_all, number=1))
            obs_times.append(timeit.timeit(run_all_observed, number=1))
    ratios = [o / b for o, b in zip(obs_times, bare_times)]
    overhead = statistics.median(ratios) - 1.0
    t_bare = statistics.median(bare_times)
    t_obs = statistics.median(obs_times)

    print()
    print("Observability overhead (Fig. 5 workloads, fast backend)")
    print(format_table(
        ["", "bare (ms)", "observed (ms)", "overhead"],
        [("TOTAL", f"{t_bare * 1e3:.2f}", f"{t_obs * 1e3:.2f}",
          f"{overhead * 100:+.2f}%")],
    ))

    results: Dict[str, float] = {
        "bare_s": t_bare,
        "observed_s": t_obs,
        "overhead_fraction": overhead,
        "max_overhead_fraction": MAX_OVERHEAD,
        "n_workloads": len(prepared),
        "n_pairs": N_PAIRS,
    }
    report_path = os.environ.get("OBS_REPORT_PATH")
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(results, fh, indent=2)

    assert overhead < MAX_OVERHEAD, (
        f"observability costs {overhead * 100:.1f}% on the Fig. 5 hot path "
        f"(acceptance ceiling is {MAX_OVERHEAD * 100:.0f}%)"
    )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["overhead_fraction"] = overhead
    benchmark.extra_info["bare_s"] = t_bare
    benchmark.extra_info["observed_s"] = t_obs
