"""TrueNorth-scale mesh: the multi-word compiled path + batched building.

The 30-70x compiled kernel used to stop at 63 routers (one uint64
destination mask); a 16x16 ``truenorth_like`` mesh silently fell off
the compiled path.  This bench pins the two acceptance contracts of the
columnar injection pipeline on a fig-5-style workload (the paper's
4x200 synthetic topology mapped onto a 256-crossbar NoC-mesh):

- the 256-router workload runs through the compiled **multi-word**
  kernel bit-identically to the reference backend, >= 10x faster (on
  a host with no C compiler ``backend="fast"`` *is* the reference
  engine, so only the bit-identity half is asserted there);
- ``build_injections_batch`` builds a 32-particle swarm's schedules
  >= 3x faster than the per-particle row-oriented loop it replaced
  (the oracle in ``tests/noc/test_columnar_schedule.py``, imported as a
  ``tests.*`` module: run the bench with ``python -m pytest`` from the
  repository root, which puts the root on ``sys.path``).

Set ``LARGE_MESH_REPORT_PATH`` to also write the measurements as JSON
(uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import os
import time
import timeit

import numpy as np
import pytest

from repro.apps import build_application
from repro.hardware.presets import truenorth_like
from repro.noc._ckernel import load_kernel
from repro.noc.fastsim import FastInterconnect
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.traffic import build_injections, build_injections_batch
from tests.noc.test_columnar_schedule import reference_injection_rows

BENCH_SEED = 2018
SWARM_SIZE = 32


@pytest.fixture(scope="module")
def large_mesh_case():
    """Fig-5-style workload on a 16x16 TrueNorth-like mesh.

    A seeded uniform assignment stands in for a full mapper run (a
    256-crossbar optimization would dominate the bench wall-clock) —
    spreading every layer across the whole mesh maximizes global
    traffic, which is exactly the regime the multi-word kernel exists
    for.
    """
    graph = build_application("synth_4x200", seed=BENCH_SEED, duration_ms=100.0)
    arch = truenorth_like(n_crossbars=256, neurons_per_crossbar=8)
    rng = np.random.default_rng(BENCH_SEED)
    assignment = rng.integers(0, arch.n_crossbars, graph.n_neurons)
    topology = arch.build_topology()
    return graph, arch, assignment, topology


def _records(stats):
    return [
        (
            r.uid,
            r.src_neuron,
            r.src_node,
            r.dst_node,
            r.injected_cycle,
            r.delivered_cycle,
            r.hops,
        )
        for r in stats.deliveries
    ]


def test_multiword_kernel_speedup_on_16x16_mesh(benchmark, large_mesh_case):
    graph, arch, assignment, topology = large_mesh_case
    assert topology.n_routers == 256

    schedule = build_injections(
        graph, assignment, topology, cycles_per_ms=arch.cycles_per_ms
    )
    fast = FastInterconnect(topology, config=NocConfig(backend="fast"))
    kernel_active = fast._ck is not None
    assert fast._n_words == 4  # 256 routers -> four uint64 words
    # The point of the multi-word variant: wherever a kernel loads,
    # TrueNorth-scale fabrics must engage it instead of silently
    # dropping to the reference engine.
    assert kernel_active == (load_kernel() is not None)

    t0 = time.perf_counter()
    ref_stats = Interconnect(topology).simulate(schedule.injections)
    t_ref = time.perf_counter() - t0
    t_fast = min(timeit.repeat(lambda: fast.simulate(schedule), number=1, repeat=3))

    assert _records(ref_stats) == _records(fast.simulate(schedule)), (
        "multi-word fast backend diverged from the reference oracle"
    )
    assert ref_stats.undelivered_count == 0
    speedup = t_ref / t_fast

    report_path = os.environ.get("LARGE_MESH_REPORT_PATH")
    if report_path:
        payload = {
            "kernel_active": kernel_active,
            "n_routers": topology.n_routers,
            "n_mask_words": fast._n_words,
            "n_packets": schedule.n_packets,
            "expected_deliveries": int(schedule.destination_counts().sum()),
            "reference_s": t_ref,
            "fast_s": t_fast,
            "speedup": speedup,
        }
        existing = {}
        if os.path.exists(report_path):
            with open(report_path) as fh:
                existing = json.load(fh)
        existing["simulation"] = payload
        with open(report_path, "w") as fh:
            json.dump(existing, fh, indent=2)

    print(
        f"\n16x16 mesh: reference {t_ref * 1e3:.0f} ms, "
        f"fast {t_fast * 1e3:.1f} ms -> {speedup:.1f}x "
        f"({'multi-word C kernel' if kernel_active else 'no kernel: reference engine'})"
    )
    if kernel_active:
        assert speedup >= 10.0, (
            f"multi-word kernel only {speedup:.1f}x faster than the "
            "reference loop (acceptance floor is 10x)"
        )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["kernel_active"] = kernel_active


def test_batched_schedule_building_speedup(benchmark, large_mesh_case):
    graph, arch, _, topology = large_mesh_case
    rng = np.random.default_rng(BENCH_SEED)
    swarm = rng.integers(0, topology.n_attach_points, (SWARM_SIZE, graph.n_neurons))
    cpm = arch.cycles_per_ms

    t0 = time.perf_counter()
    batch = build_injections_batch(graph, swarm, topology, cycles_per_ms=cpm)
    t_batch = time.perf_counter() - t0
    t0 = time.perf_counter()
    legacy = [
        reference_injection_rows(graph, row, topology, cycles_per_ms=cpm)[0]
        for row in swarm
    ]
    t_legacy = time.perf_counter() - t0

    # The batch is a drop-in replacement: identical injection streams.
    assert batch[0].injections == legacy[0]
    assert [s.n_packets for s in batch] == [len(rows) for rows in legacy]
    speedup = t_legacy / t_batch

    report_path = os.environ.get("LARGE_MESH_REPORT_PATH")
    if report_path:
        payload = {
            "swarm_size": SWARM_SIZE,
            "per_particle_s": t_legacy,
            "batched_s": t_batch,
            "speedup": speedup,
        }
        existing = {}
        if os.path.exists(report_path):
            with open(report_path) as fh:
                existing = json.load(fh)
        existing["schedule_building"] = payload
        with open(report_path, "w") as fh:
            json.dump(existing, fh, indent=2)

    print(
        f"\n{SWARM_SIZE}-particle swarm: per-particle {t_legacy * 1e3:.0f} ms, "
        f"batched {t_batch * 1e3:.0f} ms -> {speedup:.1f}x"
    )
    assert speedup >= 3.0, (
        f"batched schedule building only {speedup:.1f}x faster than the "
        "per-particle loop (acceptance floor is 3x)"
    )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["build_speedup"] = speedup
