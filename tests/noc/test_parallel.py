"""The benchmark's one-shot pool (repro.noc.parallel) and ``summarize``.

The contract under test: splitting a batch of injection schedules over
worker processes returns *exactly* the summaries the in-process call
produces — same values, same order — for every worker count and batch
size, and any failure to use a pool reruns in-process with one warning.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.noc.fastsim import FastInterconnect
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.parallel import parallel_simulate_many
from repro.noc.stats import ScheduleSummary, summarize
from repro.noc.topology import mesh, tree
from tests.noc.test_traffic import synthetic_injections


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
        assert s.latency_sum / s.delivered == pytest.approx(stats.mean_latency())
        assert s.cycles_run == stats.cycles_run
        assert s.peak_buffer_occupancy == stats.peak_buffer_occupancy

    def test_reference_backend_agrees(self, mesh_topology, mesh_schedules):
        ref = summarize(Interconnect(mesh_topology).simulate(mesh_schedules[0]))
        fast = summarize(FastInterconnect(mesh_topology).simulate(mesh_schedules[0]))
        assert ref == fast

    def test_empty_schedule(self, mesh_topology):
        s = summarize(FastInterconnect(mesh_topology).simulate([]))
        assert s == ScheduleSummary(0, 0, 0, 0, 0, 0, 0, 0)


class TestDeterminismMatrix:
    """Any batch size over any worker count -> the in-process summaries
    (fewer schedules than workers, uneven chunks, the whole swarm)."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("n_schedules", [None, 1, 3, 7])
    def test_bit_identical_to_serial(
        self, mesh_topology, mesh_schedules, serial_summaries, workers, n_schedules
    ):
        result = parallel_simulate_many(
            mesh_topology,
            mesh_schedules[:n_schedules],
            workers=workers,
        )
        assert result == serial_summaries[:n_schedules]

    def test_tree_topology_and_unicast(self):
        topo = tree(4)
        schedules = _swarm_schedules(topo, 6, seed0=42)
        cfg = NocConfig(backend="fast", multicast=False)
        sim = FastInterconnect(topo, config=cfg)
        serial = [summarize(s) for s in sim.simulate_many(schedules)]
        sharded = parallel_simulate_many(topo, schedules, config=cfg, workers=3)
        assert sharded == serial

    def test_empty_batch_and_bad_worker_count(self, mesh_topology):
        assert parallel_simulate_many(mesh_topology, [], workers=2) == []
        with pytest.raises(ValueError, match="workers"):
            parallel_simulate_many(mesh_topology, [], workers=0)


class TestSerialFallback:
    def test_pool_failure_warns_once_and_matches_serial(
        self, monkeypatch, mesh_topology, mesh_schedules, serial_summaries
    ):
        import repro.noc.parallel as parallel_mod

        def boom(*args, **kwargs):
            raise PermissionError("sem_open blocked by sandbox")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", boom)
        with pytest.warns(RuntimeWarning, match="falling back to serial") as caught:
            got = parallel_simulate_many(mesh_topology, mesh_schedules, workers=2)
        assert got == serial_summaries
        assert len(caught) == 1
        assert isinstance(caught[0].message.__cause__, PermissionError)

    def test_worker_crash_falls_back(
        self, monkeypatch, mesh_topology, mesh_schedules, serial_summaries
    ):
        import repro.noc.parallel as parallel_mod

        class Exploding:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, *args, **kwargs):
                raise OSError("fork failed")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", Exploding)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            got = parallel_simulate_many(mesh_topology, mesh_schedules, workers=2)
        assert got == serial_summaries


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
