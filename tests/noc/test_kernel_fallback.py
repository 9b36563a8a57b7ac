"""Failure paths of the fast backend: every way the compiled kernel can
be missing or fail must land on the reference engine, bit for bit.

``FastInterconnect`` has one engine (the C batch kernel) and one
fallback (the reference ``Interconnect``).  The kernel writes every
output into memory the host allocated, and returns nothing; the
fallback engages when (a) no kernel could be built or loaded, or
(b) a schedule's entry of the host's ``status`` array comes back
non-zero — an allocation failure inside the kernel, or a delivery
past the end of the schedule's slice of the delivery slabs.  Both are
forced here on a single-word mesh, a 100-router multi-word mesh, a
degraded fabric and a multichip board, for both schedule
representations, and compared field by field with the oracle; the
slice bound is also driven for real, by sizing the slice one slot
short.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.noc._ckernel as ckernel
import repro.noc.fastsim as fastsim
from repro.core.mapper import map_snn
from repro.core.pso import PSOConfig
from repro.hardware.presets import custom
from repro.noc.fastsim import FastInterconnect, FastNocStats
from repro.noc.faults import inject_random_faults
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.multichip import multichip
from repro.noc.packet import Injection
from repro.noc.topology import mesh, mesh_for
from repro.noc.traffic import ColumnarSchedule, build_injections
from repro.obs import observe
from repro.snn.graph import SpikeGraph

REAL_KERNEL = ckernel.load_kernel()


class _FailingKernel:
    """The real kernel behind batch entries whose first (``status``) or
    last (``last-status``) schedule reports a failure."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.calls = 0

    def _run(self, entry, args, n_schedules):
        self.calls += 1
        entry(*args)
        failed = 0 if self.mode == "status" else n_schedules - 1
        args[-1][failed] = 1  # what an allocation failure mid-run reports

    # The arguments open (fabrics, fabric_of, *per-call sizes, n_schedules).
    def nocsim_run_batch(self, *args):
        self._run(REAL_KERNEL.nocsim_run_batch, args, args[4])

    def nocsim_run_batch_mw(self, *args):
        self._run(REAL_KERNEL.nocsim_run_batch_mw, args, args[5])


def _break_kernel(monkeypatch, mode):
    """Make every FastInterconnect built from now on see ``mode``."""
    if mode == "missing":
        stub = None
    elif REAL_KERNEL is None:
        pytest.skip("needs the real kernel to wrap (no C compiler)")
    else:
        stub = _FailingKernel(mode)
    monkeypatch.setattr(fastsim, "load_kernel", lambda: stub)
    return stub


def _fabric(name):
    if name == "mesh-1word":
        return mesh(3)
    if name == "mesh-100":
        return mesh_for(100)
    if name == "degraded":
        return inject_random_faults(mesh(4), 2, seed=7)[0]
    return multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=2)


def _schedule(topology, seed=11):
    rng = np.random.default_rng(seed)
    n = 60
    graph = SpikeGraph.from_edges(
        n,
        rng.integers(0, n, 240),
        rng.integers(0, n, 240),
        np.ones(240),
        spike_times=[np.sort(rng.uniform(0.0, 30.0, 3)) for _ in range(n)],
    )
    assignment = rng.integers(0, topology.n_attach_points, n)
    return build_injections(graph, assignment, topology)


def _fields(stats):
    return (
        stats.deliveries,
        stats.n_injected,
        stats.n_expected_deliveries,
        stats.undelivered_count,
        stats.cycles_run,
        dict(stats.link_loads),
        stats.peak_buffer_occupancy,
        stats.latencies().tolist(),
        [column.tolist() for column in stats.delivery_columns()],
    )


FABRICS = ["mesh-1word", "mesh-100", "degraded", "multichip"]


@pytest.mark.parametrize("mode", ["missing", "status", "last-status"])
@pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "rows"])
@pytest.mark.parametrize("fabric", FABRICS)
def test_fallback_matches_reference(monkeypatch, fabric, columnar, mode):
    topology = _fabric(fabric)
    if fabric == "degraded":
        assert topology.kind.endswith("-degraded")
    schedule = _schedule(topology)
    feed = schedule if columnar else schedule.injections
    want = _fields(Interconnect(topology).simulate(schedule.injections))
    assert want[1] > 0 and want[3] == 0  # real traffic, fully drained

    stub = _break_kernel(monkeypatch, mode)
    fast = FastInterconnect(topology, config=NocConfig(backend="fast"))
    with observe(tracer=False) as obs:
        single = fast.simulate(feed)
        batch = fast.simulate_many([feed, [], feed], threads=2)
    assert _fields(single) == want
    assert [_fields(s) for s in (batch[0], batch[2])] == [want, want]
    assert batch[1].n_injected == 0 and batch[1].cycles_run == 0
    # Nothing the kernel half-produced leaks out: the reruns are the
    # oracle's own stats objects.
    assert not isinstance(single, FastNocStats)

    counters = obs.metrics.counters()
    assert counters['noc.engine_runs{engine="reference"}'] == 3
    assert not any('engine="c' in key for key in counters)
    if mode == "missing":
        assert "noc.kernel.fallbacks" not in counters
    else:
        assert stub.calls == 2  # one batch of one, one batch of two
        assert counters["noc.kernel.fallbacks"] == 2


@pytest.mark.parametrize("mode", ["status", "last-status"])
def test_failed_multi_fabric_call_reruns_every_schedule(monkeypatch, mode):
    """One failed call of a multi-fabric dispatch reruns all of its
    schedules, each on its own fabric's reference engine, whichever
    schedule failed; single- and multi-word fabrics are two calls, so
    two fallbacks."""
    topologies = [_fabric(name) for name in FABRICS]
    schedules = [_schedule(topology) for topology in topologies]
    want = [
        _fields(Interconnect(topology).simulate(schedule.injections))
        for topology, schedule in zip(topologies, schedules)
    ]
    stub = _break_kernel(monkeypatch, mode)
    config = NocConfig(backend="fast")
    jobs = [
        (FastInterconnect(topology, config=config), [schedule, [], schedule])
        for topology, schedule in zip(topologies, schedules)
    ]
    with observe(tracer=False) as obs:
        got = fastsim.simulate_fabrics(jobs, threads=2)
    pairs = [[_fields(job[0]), _fields(job[2])] for job in got]
    assert pairs == [[fields, fields] for fields in want]
    assert all(job[1].n_injected == 0 for job in got)
    assert not any(isinstance(job[0], FastNocStats) for job in got)
    counters = obs.metrics.counters()
    assert stub.calls == 2
    assert counters["noc.kernel.fallbacks"] == 2
    assert counters['noc.engine_runs{engine="reference"}'] == 2 * len(FABRICS)
    assert not any('engine="c' in key for key in counters)


@pytest.mark.parametrize("fabric", FABRICS)
def test_delivery_slice_one_slot_short_falls_back(monkeypatch, fabric):
    """The kernel's bound on the host's delivery slice, driven for real:
    a slice one slot shorter than the schedule's deliveries makes the
    last delivery fail the schedule, and the host reruns it on the
    reference engine."""
    if REAL_KERNEL is None:
        pytest.skip("compiled kernel unavailable (no C compiler)")
    topology = _fabric(fabric)
    schedule = _schedule(topology)
    want = _fields(Interconnect(topology).simulate(schedule.injections))
    assert want[2] > 0 and want[3] == 0  # every slot of the slice is used
    plan = FastInterconnect._columnar_plan

    def one_slot_short(self, columns, stats):
        planned = plan(self, columns, stats)
        return planned._replace(n_expected=planned.n_expected - 1)

    monkeypatch.setattr(FastInterconnect, "_columnar_plan", one_slot_short)
    fast = FastInterconnect(topology, config=NocConfig(backend="fast"))
    with observe(tracer=False) as obs:
        stats = fast.simulate(schedule)
    assert _fields(stats) == want
    assert not isinstance(stats, FastNocStats)
    counters = obs.metrics.counters()
    assert counters["noc.kernel.fallbacks"] == 1
    assert counters['noc.engine_runs{engine="reference"}'] == 1


def test_healthy_kernel_counts_its_own_engine():
    """The control: with a working kernel nothing above triggers."""
    if REAL_KERNEL is None:
        pytest.skip("compiled kernel unavailable (no C compiler)")
    for fabric, engine in (("mesh-1word", "c"), ("mesh-100", "c-mw")):
        topology = _fabric(fabric)
        schedule = _schedule(topology)
        fast = FastInterconnect(topology, config=NocConfig(backend="fast"))
        with observe(tracer=False) as obs:
            stats = fast.simulate_many([schedule, schedule.injections])
        assert all(isinstance(s, FastNocStats) for s in stats)
        assert obs.metrics.counters() == {
            f'noc.engine_runs{{engine="{engine}"}}': 2,
            'noc.simulations{backend="fast"}': 2,
            "noc.packets_injected": 2 * stats[0].n_injected,
            "noc.deliveries": 2 * stats[0].delivered_count,
            "noc.plans_built": 2,  # each schedule, the rows converted first
        }


def _one_packet(**edits):
    """A schedule for ``mesh(2, 2)``: one packet, router 0 to router 3."""
    columns = dict(
        cycle=[0],
        src_node=[0],
        src_neuron=[0],
        uid=[0],
        dst_words=np.array([[1 << 3]], dtype=np.uint64),
        node_ids=[0, 1, 2, 3],
        cycles_per_ms=1.0,
        n_source_neurons=1,
        n_spike_events=1,
    )
    return ColumnarSchedule(**{**columns, **edits})


#: Schedules the kernel would misread, each with the error it raises.
#: Built inside the test: a schedule may already fail to construct.
MALFORMED = {
    "negative-cycle-row": (
        lambda: [Injection(cycle=-3, src_node=0, dst_nodes=(3,), src_neuron=0)],
        "negative injection cycle -3",
    ),
    "unknown-source-router": (
        lambda: _one_packet(src_node=[-1]),
        "source router outside",
    ),
    "bit-past-last-router": (
        lambda: _one_packet(dst_words=np.array([[1 << 5]], dtype=np.uint64)),
        "destination bit past its 4 routers",
    ),
    "two-words-on-one-word-fabric": (
        lambda: _one_packet(
            cycle=[0, 0],
            src_node=[0, 0],
            src_neuron=[0, 1],
            uid=[0, 1],
            dst_words=np.array([[8, 0], [8, 0]], dtype=np.uint64),
        ),
        "need 1 word",
    ),
}


@pytest.mark.parametrize("mode", ["kernel", "missing"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_schedule_raises_with_or_without_kernel(monkeypatch, case, mode):
    """Planning is the one gate: what the kernel would read out of
    bounds or at the wrong stride raises there, before either engine."""
    if mode == "kernel" and REAL_KERNEL is None:
        pytest.skip("compiled kernel unavailable (no C compiler)")
    if mode == "missing":
        _break_kernel(monkeypatch, mode)
    make, message = MALFORMED[case]
    fast = FastInterconnect(mesh(2, 2), config=NocConfig(backend="fast"))
    with pytest.raises(ValueError, match=message):
        fast.simulate(make())


def test_map_snn_noc_objective_without_a_kernel(monkeypatch, tiny_graph):
    """The whole NoC-in-the-loop flow survives a host with no compiler.

    On a 4-chip board: its routing certificate refuses every row (the
    bridges close a channel dependency cycle), so the swarm is simulated
    rather than counted in closed form."""
    arch = custom(8, 8, interconnect="mesh", n_chips=4, name="no-kernel")
    kwargs = dict(
        method="pso",
        seed=5,
        objective="noc",
        pso_config=PSOConfig(n_particles=4, n_iterations=2),
    )
    with_kernel = map_snn(tiny_graph, arch, **kwargs)
    _break_kernel(monkeypatch, "missing")
    with observe(tracer=False) as obs:
        without = map_snn(tiny_graph, arch, **kwargs)
    assert obs.metrics.counter_value("noc.engine_runs", engine="reference") > 0
    assert obs.metrics.counter_value("fitness.noc_rows", path="closed") == 0
    np.testing.assert_array_equal(with_kernel.assignment, without.assignment)
    np.testing.assert_array_equal(
        with_kernel.extras["history"], without.extras["history"]
    )
    assert with_kernel.fitness == without.fitness


class TestLoudWhenMissing:
    def _fresh_load(self, monkeypatch, tmp_path):
        monkeypatch.setattr(ckernel, "_SO", str(tmp_path / "_fastsim_kernel.so"))
        monkeypatch.setattr(ckernel, "_cached", None)
        monkeypatch.setattr(ckernel, "_load_attempted", False)
        monkeypatch.setattr(ckernel, "_load_error", None)

    def test_build_failure_warns_once_with_cause(self, monkeypatch, tmp_path):
        self._fresh_load(monkeypatch, tmp_path)
        boom = FileNotFoundError("gcc: not on this host")

        def no_compiler(*args, **kwargs):
            raise boom

        monkeypatch.setattr(ckernel.subprocess, "run", no_compiler)
        with observe(tracer=False) as obs:
            with pytest.warns(RuntimeWarning, match="kernel unavailable") as seen:
                assert ckernel.load_kernel() is None
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # cached: silent from now on
                assert ckernel.load_kernel() is None
        assert len(seen) == 1
        assert seen[0].message.__cause__ is boom
        assert ckernel.load_error() is boom
        counters = obs.metrics.counters()
        assert counters['noc.kernel.unavailable{error="FileNotFoundError"}'] == 1
        assert not ckernel.has_batch(None) and not ckernel.openmp_enabled()

    def test_kernel_exports_only_the_batch_entry_points(self):
        if REAL_KERNEL is None:
            pytest.skip("compiled kernel unavailable (no C compiler)")
        for gone in ("nocsim_run", "nocsim_run_mw", "nocsim_free", "nocsim_free_batch"):
            assert not hasattr(REAL_KERNEL, gone)
        assert ckernel.load_error() is None
