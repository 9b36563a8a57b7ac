"""Threaded batch kernel vs serial per-schedule kernel calls.

Scores one fig-5-scale swarm batch — hello_world mapped onto a
CxQuad-style tree with random assignments, each expanded to its AER
injection schedule — twice through the compiled kernel: once as a
Python loop of single-schedule ``simulate`` calls, once as a single
``simulate_many`` batch call running the schedules on an OpenMP team.
Checks:

- the batch results are **bit-identical** to the serial loop (same
  summaries, link loads and buffer high-water marks) — asserted
  unconditionally, on every runner;
- on a machine with 4+ cores and an OpenMP build, the one-C-call batch
  at 4 threads is at least 2x faster than the serial kernel loop.

Set ``THREADED_REPORT_PATH`` to also write the measurements as JSON
(uploaded as a CI artifact).  ``BATCH_THREADS`` overrides the thread
count (default: 4, clamped to the core count for the measurement).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.hardware.presets import architecture_for
from repro.noc._ckernel import has_batch, load_kernel, openmp_enabled
from repro.noc.fastsim import FastInterconnect
from repro.noc.interconnect import NocConfig
from repro.noc.stats import summarize
from repro.noc.traffic import build_injections

N_SCHEDULES = 48
#: Tight link buffers congest the fabric, so each schedule spends real
#: cycles in arbitration and backpressure — the regime swarm scoring
#: actually lives in, and where threading the batch pays.
NOC_CONFIG = NocConfig(backend="fast", buffer_capacity=2)


def _swarm_workload(graph):
    """A swarm of random feasible placements, expanded to schedules."""
    per_xbar = max(16, -(-graph.n_neurons // 6))
    arch = architecture_for(
        graph.n_neurons,
        neurons_per_crossbar=per_xbar,
        interconnect="tree",
        name=graph.name,
    )
    topology = arch.build_topology()
    rng = np.random.default_rng(2018)
    schedules = [
        build_injections(
            graph,
            rng.integers(0, topology.n_attach_points, size=graph.n_neurons),
            topology,
            cycles_per_ms=arch.cycles_per_ms,
        ).injections
        for _ in range(N_SCHEDULES)
    ]
    return topology, schedules


def _fingerprint(stats):
    return (
        summarize(stats),
        dict(stats.link_loads),
        stats.peak_buffer_occupancy,
        stats.cycles_run,
    )


def test_threaded_batch_speedup(benchmark, hello_world_graph):
    lib = load_kernel()
    if not has_batch(lib):
        pytest.skip("compiled batch kernel unavailable")
    topology, schedules = _swarm_workload(hello_world_graph)
    cpu_count = os.cpu_count() or 1
    openmp = openmp_enabled(lib)
    threads = int(os.environ.get("BATCH_THREADS", 4))

    sim = FastInterconnect(topology, config=NOC_CONFIG)

    # Serial baseline: the pre-batch hot path — one C call per schedule,
    # GIL held between calls.
    t0 = time.perf_counter()
    serial = [_fingerprint(sim.simulate(s)) for s in schedules]
    serial_s = time.perf_counter() - t0

    # One GIL-free C call for the whole batch (warm once so the first
    # call's lazy marshalling does not bill the steady-state number).
    warm = [
        _fingerprint(s) for s in sim.simulate_many(schedules[:4], threads=threads)
    ]
    t0 = time.perf_counter()
    batch = [_fingerprint(s) for s in sim.simulate_many(schedules, threads=threads)]
    batch_s = time.perf_counter() - t0

    assert warm == serial[:4]
    assert batch == serial, "threaded batch diverged from the serial kernel"
    speedup = serial_s / batch_s if batch_s else float("inf")

    suffix = "" if openmp else ", serial build (no OpenMP)"
    print()
    print(
        f"swarm batch, {N_SCHEDULES} schedules: "
        f"serial kernel loop {serial_s * 1e3:.0f}ms, "
        f"batch at {threads} threads {batch_s * 1e3:.0f}ms "
        f"({speedup:.2f}x, {cpu_count} CPUs{suffix})"
    )

    report_path = os.environ.get("THREADED_REPORT_PATH")
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(
                {
                    "n_schedules": N_SCHEDULES,
                    "threads": threads,
                    "cpu_count": cpu_count,
                    "openmp": openmp,
                    "serial_s": serial_s,
                    "batch_s": batch_s,
                    "speedup": speedup,
                    "bit_identical": batch == serial,
                },
                fh,
                indent=2,
            )

    # The scaling claim needs real cores and a parallel build; smaller
    # runners (and no-OpenMP builds) only check equivalence above.
    if openmp and cpu_count >= 4 and threads >= 4:
        assert speedup >= 2.0, (
            f"threaded batch only {speedup:.2f}x faster at {threads} "
            f"threads on {cpu_count} CPUs (acceptance floor is 2x)"
        )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["threads"] = threads
    benchmark.extra_info["cpu_count"] = cpu_count
    benchmark.extra_info["openmp"] = openmp
