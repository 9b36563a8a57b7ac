"""Threaded batch kernel (``nocsim_run_batch``) contract tests.

The contract: ``simulate_many`` (one kernel call for the batch) returns
results *bit-identical* to per-schedule ``simulate`` calls (batches of
one) — same delivery records, link loads and buffer high-water marks —
for every thread count, on single- and multi-word fabrics, healthy or
degraded, and no steering (``REPRO_NOC_THREADS=0``, no-OpenMP builds)
changes a single bit or the code path.
"""

from __future__ import annotations

import os

import pytest

import repro.noc._ckernel as ckernel
import repro.noc.fastsim as fastsim
from repro.noc._ckernel import (
    has_batch,
    load_kernel,
    openmp_enabled,
    resolve_threads,
)
from repro.noc.fastsim import FastInterconnect
from repro.noc.faults import inject_random_faults
from repro.noc.interconnect import NocConfig
from repro.noc.parallel import parallel_simulate_many
from repro.noc.stats import summarize
from repro.noc.topology import mesh, tree
from tests.noc.test_traffic import synthetic_injections

KERNEL = load_kernel()

pytestmark = pytest.mark.skipif(
    not has_batch(KERNEL),
    reason="compiled batch kernel unavailable (no C compiler)",
)

#: Low buffer capacity so the batch exercises backpressure, parking and
#: credit stalls — the paths where a racing implementation would diverge.
CONFIG = NocConfig(backend="fast", buffer_capacity=2)


def _schedules(topology, n_schedules, seed0=0, duration=50, fanout=2):
    rates = [0.3] * topology.n_attach_points
    return [
        synthetic_injections(
            rates, topology, duration, fanout=fanout, seed=seed0 + i
        ).injections
        for i in range(n_schedules)
    ]


def _fingerprint(stats):
    """Every observable bit of one simulation outcome."""
    return (
        stats.deliveries,
        stats.n_injected,
        stats.n_expected_deliveries,
        stats.cycles_run,
        dict(stats.link_loads),
        stats.peak_buffer_occupancy,
    )


def _spy_on_dispatch(monkeypatch):
    """Record ``(n_schedules, n_threads)`` of every kernel dispatch."""
    calls = []
    dispatch = fastsim._dispatch

    def spy(live, n_threads):
        calls.append((len(live), n_threads))
        return dispatch(live, n_threads)

    monkeypatch.setattr(fastsim, "_dispatch", spy)
    return calls


def _serial_fingerprints(sim, schedules):
    return [_fingerprint(sim.simulate(s)) for s in schedules]


@pytest.fixture(scope="module")
def fabrics():
    """(name, topology) pairs spanning the kernel's dispatch variants."""
    degraded, _ = inject_random_faults(mesh(4), 2, seed=7)
    return [
        ("mesh3", mesh(3)),  # single mask word
        ("tree", tree(2, 3)),  # single mask word, tree routing
        ("mesh9", mesh(9)),  # 81 routers: multi-word masks
        ("degraded", degraded),  # faulted fabric, rerouted tables
    ]


class TestBitIdentity:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_matches_serial_on_every_fabric(self, fabrics, threads):
        for name, topo in fabrics:
            n = 3 if name == "mesh9" else 6
            duration = 30 if name == "mesh9" else 50
            schedules = _schedules(topo, n, duration=duration)
            sim = FastInterconnect(topo, config=CONFIG)
            want = _serial_fingerprints(sim, schedules)
            got = [
                _fingerprint(s) for s in sim.simulate_many(schedules, threads=threads)
            ]
            assert got == want, f"{name} diverged at threads={threads}"

    def test_env_thread_cap_is_bit_identical(self, monkeypatch):
        topo = mesh(3)
        schedules = _schedules(topo, 5)
        sim = FastInterconnect(topo, config=CONFIG)
        want = _serial_fingerprints(sim, schedules)
        monkeypatch.setenv("REPRO_NOC_THREADS", "1")
        got = [_fingerprint(s) for s in sim.simulate_many(schedules)]
        assert got == want

    @pytest.mark.parametrize("via_env", [True, False])
    def test_threads_zero_is_one_call_on_one_thread(self, monkeypatch, via_env):
        """``threads=0`` / ``REPRO_NOC_THREADS=0`` mean "no thread team",
        not another code path: still one batch call, handed
        ``n_threads=1`` (the C side reads ``<= 0`` as "runtime
        default", i.e. every core)."""
        topo = mesh(3)
        schedules = _schedules(topo, 4)
        sim = FastInterconnect(topo, config=CONFIG)
        want = _serial_fingerprints(sim, schedules)
        calls = _spy_on_dispatch(monkeypatch)
        if via_env:
            monkeypatch.setenv("REPRO_NOC_THREADS", "0")
            got = sim.simulate_many(schedules)
        else:
            got = sim.simulate_many(schedules, threads=0)
        assert [_fingerprint(s) for s in got] == want
        assert calls == [(4, 1)]

    def test_auto_threads_take_the_same_single_call(self, monkeypatch):
        """No "only when the team can parallelize" heuristic: auto, an
        explicit cap and a batch of one all reach the one dispatcher."""
        topo = mesh(3)
        schedules = _schedules(topo, 3)
        sim = FastInterconnect(topo, config=CONFIG)
        calls = _spy_on_dispatch(monkeypatch)
        monkeypatch.delenv("REPRO_NOC_THREADS", raising=False)
        sim.simulate_many(schedules)
        sim.simulate_many(schedules, threads=3)
        sim.simulate(schedules[0])
        assert calls == [(3, os.cpu_count() or 1), (3, 3), (1, 1)]


class TestResolveThreads:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NOC_THREADS", "7")
        assert resolve_threads(2) == 2
        assert resolve_threads() == 7

    def test_auto_and_negative_mean_per_core(self, monkeypatch):
        cores = os.cpu_count() or 1
        monkeypatch.delenv("REPRO_NOC_THREADS", raising=False)
        assert resolve_threads() == cores
        assert resolve_threads(-1) == cores
        monkeypatch.setenv("REPRO_NOC_THREADS", "auto")
        assert resolve_threads() == cores

    def test_zero_and_garbage(self, monkeypatch):
        assert resolve_threads(0) == 0
        monkeypatch.setenv("REPRO_NOC_THREADS", "bogus")
        with pytest.warns(RuntimeWarning, match="REPRO_NOC_THREADS='bogus'"):
            assert resolve_threads() == (os.cpu_count() or 1)

    def test_readable_settings_do_not_warn(self, monkeypatch, recwarn):
        """Only a value that is neither a number nor 'auto' is a typo."""
        for value in ("", "auto", "AUTO", " 2 ", "0", "-1"):
            monkeypatch.setenv("REPRO_NOC_THREADS", value)
            resolve_threads()
        assert not recwarn.list


class TestPoolInteraction:
    def test_pool_workers_still_bit_identical(self):
        """The benchmark's two-process pool leg (``workers=2, threads=0``,
        after a threaded batch in the parent) stays identical."""
        topo = mesh(3)
        schedules = _schedules(topo, 6)
        sim = FastInterconnect(topo, config=CONFIG)
        want = [summarize(sim.simulate(s), topo) for s in schedules]
        assert [summarize(s, topo) for s in sim.simulate_many(schedules)] == want
        got = parallel_simulate_many(
            topo, schedules, config=CONFIG, workers=2, threads=0
        )
        assert got == want


class TestBuildFallbacks:
    def _fresh_build(self, monkeypatch, tmp_path, no_openmp: bool):
        so = str(tmp_path / "_fastsim_kernel.so")
        monkeypatch.setattr(ckernel, "_SO", so)
        monkeypatch.setattr(ckernel, "_cached", None)
        monkeypatch.setattr(ckernel, "_load_attempted", False)
        if no_openmp:
            monkeypatch.setenv("REPRO_NOC_NO_OPENMP", "1")
        else:
            monkeypatch.delenv("REPRO_NOC_NO_OPENMP", raising=False)
        return ckernel.load_kernel()

    def test_no_openmp_build_serves_batches_serially(self, monkeypatch, tmp_path):
        lib = self._fresh_build(monkeypatch, tmp_path, no_openmp=True)
        assert lib is not None
        assert has_batch(lib)
        assert not openmp_enabled(lib)
        stamp = ckernel._read_stamp()
        assert stamp is not None and "-fopenmp" not in stamp
        # The serial build still answers batch calls bit-identically.
        topo = mesh(3)
        schedules = _schedules(topo, 4)
        sim = FastInterconnect(topo, config=CONFIG)
        want = _serial_fingerprints(sim, schedules)
        got = [_fingerprint(s) for s in sim.simulate_many(schedules, threads=4)]
        assert got == want

    def test_flag_change_triggers_rebuild(self, monkeypatch, tmp_path):
        lib = self._fresh_build(monkeypatch, tmp_path, no_openmp=True)
        assert lib is not None
        assert not ckernel._stale()  # fresh build matches desired flags
        # Re-enabling OpenMP changes the desired flag set; the mtime
        # check alone would say "fresh", the stamp must say "stale".
        monkeypatch.delenv("REPRO_NOC_NO_OPENMP", raising=False)
        if ckernel._openmp_supported():
            assert ckernel._stale()
            # Rebuild without re-dlopening: glibc caches loaded objects
            # by pathname, so a second CDLL on the same path would hand
            # back the stale library regardless of the file contents.
            ckernel._build()
            stamp = ckernel._read_stamp()
            assert stamp is not None and "-fopenmp" in stamp
            assert not ckernel._stale()
