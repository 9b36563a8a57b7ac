"""Bench: the mapping service — cache-hit speedup and batch identity.

Serves hello_world mapping requests through ``MappingService`` and
measures the serving layer's two contracts:

- **cache-hit speedup** — a repeat of a deterministic request must be
  answered from the content-addressed artifact cache at least 3x faster
  than the cold computation, and bit-identically to it;
- **batch identity** — a ``serve_batch`` of NoC-in-the-loop requests on
  the same fabric returns, in request order, results bit-identical to
  one-shot ``run_pipeline`` calls.

Set ``SERVICE_REPORT_PATH`` to also write the measurements as JSON
(uploaded as a CI artifact and merged into ``BENCH_summary.json``).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core.pso import PSOConfig
from repro.framework.pipeline import run_pipeline
from repro.framework.service import MappingService, MapRequest
from repro.hardware.presets import architecture_for
from repro.noc.interconnect import NocConfig

#: Swarm sized so the cold request does real work (the cache-hit
#: speedup floor is meaningless against a trivial baseline).
PSO = PSOConfig(n_particles=20, n_iterations=15)
NOC_PSO = PSOConfig(n_particles=8, n_iterations=6)
MIN_CACHE_HIT_SPEEDUP = 3.0


def test_service(benchmark, hello_world_graph):
    graph = hello_world_graph
    arch = architecture_for(
        graph.n_neurons, neurons_per_crossbar=16,
        interconnect="mesh", name="service-bench",
    )
    noc_config = NocConfig(backend="fast")
    service = MappingService()

    # -- cache-hit speedup on a repeat request ------------------------------
    request = MapRequest(
        graph=graph, architecture=arch, seed=2018, pso_config=PSO,
        noc_config=noc_config,
    )
    t0 = time.perf_counter()
    cold = service.serve(request)
    t_cold = time.perf_counter() - t0
    t1 = time.perf_counter()
    warm = service.serve(request)
    t_warm = time.perf_counter() - t1
    cache_hit_speedup = t_cold / t_warm if t_warm > 0 else float("inf")

    assert np.array_equal(cold.mapping.assignment, warm.mapping.assignment)
    assert cold.schedule == warm.schedule
    assert cold.report.total_energy_pj == warm.report.total_energy_pj
    assert cache_hit_speedup >= MIN_CACHE_HIT_SPEEDUP, (
        f"cache-hit repeat only {cache_hit_speedup:.1f}x faster "
        f"({t_cold * 1e3:.0f}ms cold vs {t_warm * 1e3:.0f}ms warm); "
        f"floor is {MIN_CACHE_HIT_SPEEDUP}x"
    )

    # -- batch vs one-shot bit-identity -------------------------------------
    seeds = (1, 2, 3)
    one_shot = [
        run_pipeline(
            graph, arch, seed=s, pso_config=NOC_PSO,
            noc_config=noc_config, objective="noc",
        )
        for s in seeds
    ]
    # A fresh cache: no memo shortcuts.
    batch = MappingService().serve_batch(
        [
            MapRequest(
                graph=graph, architecture=arch, seed=s,
                pso_config=NOC_PSO, noc_config=noc_config, objective="noc",
            )
            for s in seeds
        ]
    )

    for a, b in zip(one_shot, batch):
        assert np.array_equal(a.mapping.assignment, b.mapping.assignment), (
            "served request diverged from the one-shot path"
        )
        assert a.schedule == b.schedule
        assert a.noc_stats.total_hops() == b.noc_stats.total_hops()
        assert a.report.total_energy_pj == b.report.total_energy_pj

    print()
    print(
        f"cache hit: {t_cold * 1e3:.0f}ms cold -> {t_warm * 1e3:.1f}ms warm "
        f"(x{cache_hit_speedup:.0f}); batch of {len(seeds)} noc-swarms "
        f"bit-identical to one-shot runs"
    )

    report_path = os.environ.get("SERVICE_REPORT_PATH")
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(
                {
                    "cache_hit_speedup": cache_hit_speedup,
                    "t_cold_s": t_cold,
                    "t_warm_s": t_warm,
                    "batch_bit_identical": True,
                    "cache": dict(service.cache.stats),
                },
                fh,
                indent=2,
            )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["cache_hit_speedup"] = cache_hit_speedup
    benchmark.extra_info["batch_bit_identical"] = True
