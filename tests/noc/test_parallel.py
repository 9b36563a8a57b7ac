"""Process-parallel sharded ``simulate_many`` (repro.noc.parallel).

The contract under test: sharding a batch of injection schedules across
worker processes returns *exactly* the summaries the serial path
produces — same values, same order — for every worker count and chunk
size, and any failure to use a pool degrades to serial with one warning.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.noc.fastsim import FastInterconnect
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.parallel import (
    ParallelNocSimulator,
    ScheduleSummary,
    parallel_simulate_many,
    resolve_workers,
    summarize,
)
from repro.noc.topology import mesh, tree
from repro.noc.traffic import synthetic_injections


def _pool_available() -> bool:
    """Can this host start a process pool at all?

    Sandboxed runners may forbid fork/sem_open; there the sharded paths
    legitimately warn and fall back to serial, so the no-unexpected-
    warnings escalation below must not apply.
    """
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(os.getpid).result(timeout=30) > 0
    except Exception:
        return False


POOL_AVAILABLE = _pool_available()

# Where pools work, any RuntimeWarning (i.e. an unexpected serial
# fallback) is a hard failure; where they don't, the fallback is the
# designed behavior and the tests pass through the serial path.
pytestmark = (
    [pytest.mark.filterwarnings("error::RuntimeWarning")]
    if POOL_AVAILABLE
    else []
)


def _swarm_schedules(topology, n_schedules, seed0=0, duration=60, fanout=2):
    """A batch of distinct synthetic schedules over one topology."""
    rates = [0.3] * topology.n_attach_points
    return [
        synthetic_injections(
            rates, topology, duration, fanout=fanout, seed=seed0 + i
        ).injections
        for i in range(n_schedules)
    ]


@pytest.fixture(scope="module")
def mesh_topology():
    return mesh(3)


@pytest.fixture(scope="module")
def mesh_schedules(mesh_topology):
    return _swarm_schedules(mesh_topology, 10)


@pytest.fixture(scope="module")
def serial_summaries(mesh_topology, mesh_schedules):
    sim = FastInterconnect(mesh_topology, config=NocConfig(backend="fast"))
    return [summarize(s) for s in sim.simulate_many(mesh_schedules)]


class TestResolveWorkers:
    def test_auto_and_zero_mean_cpu_count(self):
        import os

        expected = max(1, os.cpu_count() or 1)
        assert resolve_workers("auto") == expected
        assert resolve_workers("AUTO") == expected
        assert resolve_workers(0) == expected
        assert resolve_workers(None) == expected

    def test_explicit_counts_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers("3") == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(-2)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers("many")


class TestSummarize:
    def test_matches_stats_queries(self, mesh_topology, mesh_schedules):
        sim = FastInterconnect(mesh_topology)
        stats = sim.simulate(mesh_schedules[0])
        s = summarize(stats)
        assert s.n_injected == stats.n_injected
        assert s.n_expected == stats.n_expected_deliveries
        assert s.delivered == stats.delivered_count
        assert s.total_hops == stats.total_hops()
        assert s.undelivered == stats.undelivered_count
        assert s.max_latency == stats.max_latency()
        assert s.mean_latency == pytest.approx(stats.mean_latency())
        assert s.cycles_run == stats.cycles_run
        assert s.peak_buffer_occupancy == stats.peak_buffer_occupancy

    def test_reference_backend_agrees(self, mesh_topology, mesh_schedules):
        ref = summarize(Interconnect(mesh_topology).simulate(mesh_schedules[0]))
        fast = summarize(FastInterconnect(mesh_topology).simulate(mesh_schedules[0]))
        assert ref == fast

    def test_empty_schedule(self, mesh_topology):
        s = summarize(FastInterconnect(mesh_topology).simulate([]))
        assert s == ScheduleSummary(0, 0, 0, 0, 0, 0, 0, 0)
        assert s.mean_latency == 0.0


class TestDeterminismMatrix:
    """Same swarm, any workers x chunk_size -> identical summaries."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", [None, 1, 3, 7])
    def test_bit_identical_to_serial(
        self, mesh_topology, mesh_schedules, serial_summaries, workers, chunk_size
    ):
        result = parallel_simulate_many(
            mesh_topology,
            mesh_schedules,
            workers=workers,
            chunk_size=chunk_size,
        )
        assert result == serial_summaries

    def test_tree_topology_and_unicast(self):
        topo = tree(4)
        schedules = _swarm_schedules(topo, 6, seed0=42)
        cfg = NocConfig(backend="fast", multicast=False)
        sim = FastInterconnect(topo, config=cfg)
        serial = [summarize(s) for s in sim.simulate_many(schedules)]
        sharded = parallel_simulate_many(topo, schedules, config=cfg, workers=3)
        assert sharded == serial

    def test_pool_reuse_across_batches(
        self, mesh_topology, mesh_schedules, serial_summaries
    ):
        with ParallelNocSimulator(mesh_topology, workers=2) as sim:
            assert sim.summarize_many(mesh_schedules) == serial_summaries
            assert sim.summarize_many(mesh_schedules) == serial_summaries

    def test_single_schedule_short_circuits(
        self, mesh_topology, mesh_schedules, serial_summaries
    ):
        with ParallelNocSimulator(mesh_topology, workers=4) as sim:
            assert sim.summarize_many(mesh_schedules[:1]) == serial_summaries[:1]
            assert sim._pool is None  # batch of one never starts a pool


class TestSerialFallback:
    """``threads=0`` pins the pool path these tests break: on an OpenMP
    host with 2+ cores the default would answer from the threaded
    kernel and never start a pool."""

    def test_pool_failure_warns_once_and_matches_serial(
        self, monkeypatch, mesh_topology, mesh_schedules, serial_summaries
    ):
        import repro.noc.parallel as parallel_mod

        def boom(*args, **kwargs):
            raise PermissionError("sem_open blocked by sandbox")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", boom)
        sim = ParallelNocSimulator(mesh_topology, workers=2, threads=0)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            assert sim.summarize_many(mesh_schedules) == serial_summaries
        # Once broken, stays serial — and silent — for later batches.
        assert sim.summarize_many(mesh_schedules) == serial_summaries

    def test_worker_crash_falls_back(
        self, mesh_topology, mesh_schedules, serial_summaries
    ):
        class Exploding:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, *args, **kwargs):
                raise OSError("fork failed")

            def shutdown(self, **kwargs):
                pass

        sim = ParallelNocSimulator(mesh_topology, workers=2, threads=0)
        sim._pool = Exploding()
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            assert sim.summarize_many(mesh_schedules) == serial_summaries


class TestPickling:
    def test_fastinterconnect_roundtrip(self, mesh_topology, mesh_schedules):
        sim = FastInterconnect(mesh_topology, config=NocConfig(backend="fast"))
        clone = pickle.loads(pickle.dumps(sim))
        original = [summarize(s) for s in sim.simulate_many(mesh_schedules)]
        rebuilt = [summarize(s) for s in clone.simulate_many(mesh_schedules)]
        assert original == rebuilt

    def test_roundtrip_keeps_config(self, mesh_topology):
        cfg = NocConfig(backend="fast", buffer_capacity=2, multicast=False)
        clone = pickle.loads(pickle.dumps(FastInterconnect(mesh_topology, config=cfg)))
        assert clone.config == cfg


class TestThreadsZeroKeepsThePool:
    """``REPRO_NOC_THREADS=0`` means "no in-process thread team", so a
    multi-worker simulator answers from its pool on any host."""

    def test_env_zero_routes_to_the_pool(
        self, monkeypatch, mesh_topology, mesh_schedules, serial_summaries
    ):
        monkeypatch.setenv("REPRO_NOC_THREADS", "0")
        with ParallelNocSimulator(mesh_topology, workers=2) as sim:
            assert sim._sim.batch_threads() == 0
            assert sim.summarize_many(mesh_schedules) == serial_summaries
            assert sim._pool is not None or sim._pool_broken


class TestValidation:
    def test_spec_and_instance_are_exclusive(self, mesh_topology):
        sim = FastInterconnect(mesh_topology)
        with pytest.raises(ValueError, match="not both"):
            ParallelNocSimulator(sim, config=NocConfig())

    def test_bad_chunk_size(self, mesh_topology):
        with pytest.raises(ValueError, match="chunk_size"):
            ParallelNocSimulator(mesh_topology, workers=2, chunk_size=0)
