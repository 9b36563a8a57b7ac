#!/usr/bin/env python
"""Tracing and metrics across the mapping/serving stack (repro.obs).

Observability is off by default and bit-neutral: nothing about a run
changes when it is on except that you can see inside it.  This example
tours the three surfaces:

1. a traced end-to-end ``run_pipeline`` — nested wall-clock spans down
   to PSO iterations and the NoC engine (including the threaded batch
   kernel's ``noc.simulate_batch`` span with its thread count, which
   the host caps with ``REPRO_NOC_THREADS``),
   summarized as a tree and exported as a JSONL trace;
2. the Prometheus-style metrics snapshot the same run accumulated
   (simulation counts per backend, packets, cache traffic, ...);
3. service and cache counters from a ``MappingService`` batch.

Run:  python examples/trace_and_metrics.py
"""

from repro.apps import build_application
from repro.core import PSOConfig
from repro.framework.pipeline import run_pipeline
from repro.framework.service import MapRequest, MappingService
from repro.hardware.presets import architecture_for
from repro.noc.interconnect import NocConfig
from repro.obs import (
    observe,
    prometheus_text,
    read_trace_jsonl,
    span_tree_summary,
    write_trace_jsonl,
)

TRACE_PATH = "trace.jsonl"
METRICS_PATH = "metrics.prom"


def main() -> None:
    graph = build_application("hello_world", seed=1)
    arch = architecture_for(graph.n_neurons, neurons_per_crossbar=16,
                            interconnect="mesh", name="obs-demo")
    pso = PSOConfig(n_particles=8, n_iterations=6)
    ncfg = NocConfig(backend="fast")

    # -- 1. a traced pipeline run -----------------------------------------
    # Swarm scoring is one GIL-free C call per generation; its
    # noc.simulate_batch spans (with the thread count the host allowed)
    # appear in the trace below.
    with observe() as obs:
        result = run_pipeline(graph, arch, method="pso", seed=1,
                              pso_config=pso, objective="noc",
                              noc_config=ncfg)
    print(result.mapping.describe())
    print()
    print("Span tree (wall-clock breakdown):")
    print(span_tree_summary(obs.tracer, max_depth=4))

    n_spans = write_trace_jsonl(obs.tracer, TRACE_PATH)
    rows = read_trace_jsonl(TRACE_PATH)
    deepest = max(rows, key=lambda r: r["id"])
    print(f"\nwrote {n_spans} spans -> {TRACE_PATH} "
          f"(last: {deepest['name']!r}, {deepest['duration_s'] * 1e3:.2f}ms)")

    # -- 2. the metrics the same run accumulated --------------------------
    print("\nCounters:")
    for flat, value in obs.metrics.counters().items():
        print(f"  {flat} = {value:g}")
    with open(METRICS_PATH, "w") as fh:
        fh.write(prometheus_text(obs.metrics))
    print(f"Prometheus snapshot -> {METRICS_PATH}")

    # -- 3. counters from a serving batch -----------------------------------
    service = MappingService()
    service.serve_batch([
        MapRequest(graph=graph, architecture=arch, seed=s, pso_config=pso,
                   objective="noc", noc_config=ncfg)
        for s in (1, 2)
    ])
    print(f"\nservice: requests_served={service.requests_served}")
    print(f"service: cache {dict(service.cache.stats)}")


if __name__ == "__main__":
    main()
