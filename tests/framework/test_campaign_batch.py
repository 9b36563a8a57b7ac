"""A fault level is one kernel call: differential and dispatch tests.

``run_fault_campaign`` draws every cell of a level first, simulates each
distinct fault set once, and runs every distinct fabric x mapping of the
level in one :func:`~repro.noc.fastsim.simulate_fabrics` dispatch.  The
generated differential below holds it to ``oracle_campaign``, the
rebuild-every-draw loop of ``test_campaign_oracle``, over platforms whose
draws repeat fault sets, delete relay routers or need multi-word masks,
one to three mappings, tight and unicast NoC configs, every cache state
(a resumed run included) and two thread settings.  The unit tests pin the
dispatch itself: one multi-fabric call equals per-fabric
``simulate_many`` field by field, and a level costs one kernel call.
"""

import functools
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.noc.fastsim as fastsim
import tests.framework.test_campaign_oracle as oracle
from repro.core.mapper import map_snn
from repro.framework.artifacts import ArtifactCache
from repro.framework.pipeline import run_fault_campaign
from repro.hardware.presets import custom
from repro.noc._ckernel import load_kernel
from repro.noc.fastsim import FastInterconnect, simulate_fabrics
from repro.noc.faults import inject_random_faults
from repro.noc.interconnect import NocConfig
from repro.noc.multichip import multichip
from repro.noc.topology import mesh, mesh_for, tree
from tests.noc.test_traffic import synthetic_injections
from repro.obs import observe
from repro.utils.rng import derive_seed

needs_kernel = pytest.mark.skipif(
    load_kernel() is None, reason="compiled kernel unavailable (no C compiler)"
)

PLATFORMS = {
    **oracle.PLATFORMS,
    "mesh100": lambda: custom(100, 2, interconnect="mesh", name="mesh-100"),
}
#: Fault levels each platform survives (a board of 4-router chips takes
#: two link faults at most).
LEVELS = {
    "mesh": (0, 1, 2, 3),
    "board2": (0, 1, 2),
    "board2x2": (0, 1, 2),
    "mesh100": (0, 1, 2, 3),
}
METHODS = ("pacman", "greedy", "random")
CONFIGS = {
    "fast": NocConfig(backend="fast"),
    "tight": NocConfig(backend="fast", buffer_capacity=2),
    "unicast": NocConfig(backend="fast", multicast=False),
    "reference": NocConfig(backend="reference"),
}


@functools.lru_cache(maxsize=None)
def _case(platform):
    graph = oracle._small_graph()
    arch = PLATFORMS[platform]()
    mappings = {
        method: map_snn(graph, arch, method=method, seed=1) for method in METHODS
    }
    return graph, arch, mappings


def _subsets(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True)


def _same_summary(got, want):
    assert got.healthy == want.healthy
    assert got.draws == want.draws
    assert got.table() == want.table()
    assert got.to_dict() == want.to_dict()


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_campaign_equals_rebuild_every_draw(data):
    platform = data.draw(st.sampled_from(sorted(PLATFORMS)), label="platform")
    levels = data.draw(_subsets(LEVELS[platform]), label="levels")
    draws = data.draw(st.integers(1, 6), label="draws")
    labels = data.draw(_subsets(METHODS), label="mappings")
    # The reference engine on 100 routers is too slow for a generated case.
    configs = sorted(CONFIGS) if platform != "mesh100" else ["fast", "tight"]
    config = CONFIGS[data.draw(st.sampled_from(configs), label="config")]
    cache_state = data.draw(
        st.sampled_from(["none", "memory", "disk", "resumed"]), label="cache"
    )
    threads = data.draw(st.sampled_from(["0", "2"]), label="REPRO_NOC_THREADS")
    seed = data.draw(st.integers(0, 99), label="campaign_seed")

    graph, arch, all_mappings = _case(platform)
    mappings = {label: all_mappings[label] for label in labels}
    with mock.patch.multiple(oracle, LEVELS=tuple(levels), DRAWS=draws, SEED=seed):
        want = oracle.oracle_campaign(graph, arch, mappings, noc_config=config)

    kwargs = dict(
        mappings=mappings,
        fault_levels=levels,
        draws=draws,
        campaign_seed=seed,
        noc_config=config,
    )
    env = {"REPRO_NOC_THREADS": threads}
    with tempfile.TemporaryDirectory() as cache_dir, mock.patch.dict(os.environ, env):
        kept = dropped = None
        if cache_state == "resumed":
            # A run killed part-way leaves some cells on disk, not
            # necessarily whole levels of them.
            run_fault_campaign(graph, arch, cache=ArtifactCache(cache_dir), **kwargs)
            entries = sorted(os.listdir(cache_dir))
            dropped = data.draw(st.sets(st.sampled_from(entries)), label="dropped")
            for name in dropped:
                os.remove(os.path.join(cache_dir, name))
            kept = len(entries) - len(dropped)
        cache = {
            "none": None,
            "memory": ArtifactCache(),
            "disk": ArtifactCache(cache_dir),
            "resumed": ArtifactCache(cache_dir),
        }[cache_state]
        got = run_fault_campaign(graph, arch, cache=cache, **kwargs)
        if cache_state == "resumed":
            assert cache.stats["disk_hits"] == kept
            assert cache.stats["stores"] == len(dropped)
            assert len(os.listdir(cache_dir)) == len(levels) * draws
    _same_summary(got, want)


def _fault_sets(healthy, level, seed, draws):
    """The distinct link sets drawn at ``level``, link orientation aside."""
    sets = set()
    for draw in range(draws):
        _, failed = inject_random_faults(
            healthy, level, seed=derive_seed(seed, level, draw)
        )
        sets.add(frozenset(map(frozenset, failed)))
    return sets


def _spy_on_dispatch(monkeypatch):
    """Record the number of schedules of every kernel call."""
    calls = []
    dispatch = fastsim._dispatch

    def spy(live, n_threads):
        calls.append(len(live))
        return dispatch(live, n_threads)

    monkeypatch.setattr(fastsim, "_dispatch", spy)
    return calls


@needs_kernel
@pytest.mark.parametrize("platform", ["mesh", "board2"])
def test_a_fault_level_is_one_kernel_call(monkeypatch, platform):
    graph, arch, mappings = _case(platform)
    levels, draws, seed = (0, 1, 2), 8, 3
    healthy = arch.build_topology()
    distinct = [_fault_sets(healthy, level, seed, draws) for level in levels[1:]]
    calls = _spy_on_dispatch(monkeypatch)
    with observe() as obs:
        run_fault_campaign(
            graph,
            arch,
            mappings=mappings,
            fault_levels=levels,
            draws=draws,
            campaign_seed=seed,
            noc_config=NocConfig(backend="fast"),
        )
    # The healthy fabric, then one call per faulted level holding every
    # distinct fabric x mapping of it; level 0 is the healthy result.
    n = len(mappings)
    assert calls == [n] + [n * len(sets) for sets in distinct]
    (span,) = [s for s in obs.tracer.iter_spans() if s.name == "run_fault_campaign"]
    assert span.attributes["fabrics_simulated"] == 1 + sum(map(len, distinct))
    reuses = obs.metrics.counter_value("campaign.fabric_reuses")
    assert reuses == 2 * draws - sum(map(len, distinct))
    assert obs.metrics.counter_value("campaign.healthy_reuses") == draws
    # Every draw still draws its own faults.
    assert obs.metrics.counter_value("faults.apply_calls") == 2 * draws
    if platform == "board2":
        assert reuses > 0  # a small board's draws do repeat


def _fabrics():
    degraded, _ = inject_random_faults(mesh(4), 2, seed=7)
    return {
        "mesh3": mesh(3),
        "tree": tree(2, 3),
        "degraded": degraded,
        "multichip": multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=2),
        "mesh81": mesh(9),
        "mesh100": mesh_for(100),
    }


def _fields(stats):
    return (
        stats.deliveries,
        stats.n_injected,
        stats.n_expected_deliveries,
        stats.undelivered_count,
        stats.cycles_run,
        dict(stats.link_loads),
        stats.peak_buffer_occupancy,
        [column.tolist() for column in stats.delivery_columns()],
    )


@needs_kernel
@pytest.mark.parametrize("threads", [0, 2])
def test_one_dispatch_equals_per_fabric_simulate_many(monkeypatch, threads):
    """Fabrics whose router, port and edge counts all differ share a
    call; a different buffer capacity or mask width takes its own."""
    tight = NocConfig(backend="fast", buffer_capacity=2)
    roomy = NocConfig(backend="fast", buffer_capacity=4)
    jobs = []
    for i, (name, topology) in enumerate(_fabrics().items()):
        config = roomy if name == "tree" else tight
        engine = FastInterconnect(topology, config=config)
        rates = [0.3] * topology.n_attach_points
        duration = 30 if topology.n_routers > 63 else 50
        schedules = [
            synthetic_injections(rates, topology, duration, fanout=2, seed=i + k)
            for k in range(3)
        ]
        jobs.append((engine, [schedules[0], [], *schedules[1:]]))
    want = [
        [_fields(stats) for stats in engine.simulate_many(schedules, threads=threads)]
        for engine, schedules in jobs
    ]
    calls = _spy_on_dispatch(monkeypatch)
    got = simulate_fabrics(jobs, threads=threads)
    assert [[_fields(stats) for stats in job] for job in got] == want
    # mesh3 / degraded / multichip, then tree alone, then the two
    # two-word meshes: three calls of three non-empty schedules a fabric.
    assert calls == [9, 3, 6]
