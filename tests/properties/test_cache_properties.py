"""Differential properties: cached equals recomputed, restarted equals run.

The cache has two memo boundaries for one request (``run_pipeline``'s in
memory, ``map_snn``'s in memory and on disk) and nothing in between, so
one generated comparison covers "cached == recomputed" for every request
shape: no cache, a fresh ``ArtifactCache(dir)`` (miss, then memory hit)
and a second cache on the same directory (disk hit on the mapping, the
rest recomputed) must agree field by field whenever the request is a
deterministic function of its arguments — and a request that is not
must run every time.

A long sweep's checkpoint is the same store: every finished point is a
``sweep-point`` entry.  The second half kills a generated fault campaign
at a generated draw and runs it again on the same directory — the
summary must equal an uninterrupted uncached run's and only the missing
draws may be computed — then pins, as plain cases, what the content key
must and must not distinguish.
"""

import dataclasses
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_application
from repro.core.mapper import map_snn
from repro.core.pso import PSOConfig
from repro.framework import pipeline
from repro.framework.artifacts import ArtifactCache
from repro.framework.pipeline import run_fault_campaign, run_pipeline
from repro.hardware.presets import custom, multichip_board
from repro.noc.faults import inject_random_faults
from repro.noc.interconnect import NocConfig
from repro.obs import observe
from repro.utils.rng import derive_seed

ROOT = Path(__file__).resolve().parents[2]

GRAPH = build_application("hello_world", seed=1)
# Roomy enough that spare_capacity=0.15 still fits every neuron.
ARCH = custom(8, 20, interconnect="mesh", name="cache-diff")
PSO = PSOConfig(n_particles=5, n_iterations=2)


def _fields(result):
    stats = result.noc_stats
    return (
        result.mapping.assignment.tobytes(),
        result.mapping.fitness,
        result.mapping.extras["packets"],
        result.schedule,  # ColumnarSchedule.__eq__: column by column
        [column.tobytes() for column in stats.delivery_columns()],
        stats.n_injected,
        stats.n_expected_deliveries,
        stats.cycles_run,
        dict(stats.link_loads),
        stats.peak_buffer_occupancy,
        dataclasses.asdict(result.report),
        result.failed_links,
    )


@st.composite
def requests(draw):
    method = draw(st.sampled_from(["pso", "pacman", "greedy", "random"]))
    objectives = ["packets", "spikes"] + ["noc"] * (method == "pso")
    faults = draw(st.sampled_from([0, 2]))
    return dict(
        method=method,
        objective=draw(st.sampled_from(objectives)),
        seed=draw(st.sampled_from([None, 4])),
        faults=faults,
        fault_seed=draw(st.sampled_from([None, 9])) if faults else None,
        spare_capacity=draw(st.sampled_from([0.0, 0.15])),
    )


@given(requests())
@settings(max_examples=40, deadline=None)
def test_cached_equals_recomputed(request):
    method = request["method"]
    kwargs = dict(request, pso_config=PSO, noc_config=NocConfig(backend="fast"))
    mapping_repeats = request["seed"] is not None or method in ("pacman", "greedy")
    repeats = mapping_repeats and (
        not request["faults"] or request["fault_seed"] is not None
    )
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ArtifactCache(cache_dir)
        with observe() as obs:
            miss = run_pipeline(GRAPH, ARCH, cache=cache, **kwargs)
            hit = run_pipeline(GRAPH, ARCH, cache=cache, **kwargs)
        runs = obs.metrics.counter_value("pipeline.runs", method=method)
        memo_hits = obs.metrics.counter_value("pipeline.memo_hits")
        assert (runs, memo_hits) == ((1, 1) if repeats else (2, 0))

        second = ArtifactCache(cache_dir)
        with observe() as obs:
            disk = run_pipeline(GRAPH, ARCH, cache=second, **kwargs)
        # Only the mapping is persisted: a new process on the same
        # directory reads it (when it repeats) and measures again.
        assert obs.metrics.counter_value("pipeline.runs", method=method) == 1
        mapped_from_disk = obs.metrics.counter_value("map.memo_hits", method=method)
        assert mapped_from_disk == int(mapping_repeats)

    if repeats:
        want = _fields(run_pipeline(GRAPH, ARCH, **kwargs))
        assert _fields(miss) == want
        assert _fields(hit) == want
        assert _fields(disk) == want


# -- a sweep checkpoint is a cache entry -------------------------------------

SEED = 5
PLATFORMS = {
    "mesh": custom(12, 16, interconnect="mesh", name="restart-mesh"),
    "board2": multichip_board(
        n_chips=2, crossbars_per_chip=6, neurons_per_crossbar=16
    ),
}
MAPPINGS = {
    name: {m: map_snn(GRAPH, arch, method=m) for m in ("pacman", "greedy")}
    for name, arch in PLATFORMS.items()
}


class _Killed(Exception):
    pass


def _campaign(platform="mesh", **kwargs):
    kwargs.setdefault("mappings", MAPPINGS[platform])
    kwargs.setdefault("campaign_seed", SEED)
    kwargs.setdefault("noc_config", NocConfig(backend="fast"))
    return run_fault_campaign(GRAPH, PLATFORMS[platform], **kwargs)


def _same_summary(got, want):
    assert got.healthy == want.healthy
    assert got.draws == want.draws
    assert got.table() == want.table()
    assert got.to_dict() == want.to_dict()


@given(
    platform=st.sampled_from(sorted(PLATFORMS)),
    backend=st.sampled_from(["reference", "fast"]),
    levels=st.lists(st.sampled_from([0, 1, 2]), min_size=1, unique=True),
    draws=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_killed_campaign_restarts_where_it_stopped(
    platform, backend, levels, draws, data
):
    grid = [(level, draw) for level in levels for draw in range(draws)]
    faulted = [cell for cell in grid if cell[0]]
    # The k-th fault draw dies; k == len(faulted) is a run nothing kills.
    kill = data.draw(st.integers(0, len(faulted)), label="kill")
    # A level's draws are simulated together and stored as the level
    # finishes: a kill loses the level in flight, never an earlier one.
    finished = grid
    if kill < len(faulted):
        in_flight = levels.index(faulted[kill][0])
        finished = [cell for cell in grid if levels.index(cell[0]) < in_flight]
    kwargs = dict(
        platform=platform, fault_levels=levels, draws=draws,
        noc_config=NocConfig(backend=backend),
    )
    want = _campaign(**kwargs)

    drawn = []

    def draw_faults(topology, n_faults, seed=None):
        if len(drawn) == kill:
            raise _Killed
        drawn.append(seed)
        return inject_random_faults(topology, n_faults, seed=seed)

    with tempfile.TemporaryDirectory() as cache_dir:
        with mock.patch.object(pipeline, "inject_random_faults", draw_faults):
            if kill < len(faulted):
                with pytest.raises(_Killed):
                    _campaign(cache=ArtifactCache(cache_dir), **kwargs)
            else:
                _same_summary(
                    _campaign(cache=ArtifactCache(cache_dir), **kwargs), want
                )
        assert len(drawn) == kill
        assert len(os.listdir(cache_dir)) == len(finished)

        kill, drawn[:] = -1, []
        second = ArtifactCache(cache_dir)
        with mock.patch.object(pipeline, "inject_random_faults", draw_faults):
            got = _campaign(cache=second, **kwargs)
        assert len(os.listdir(cache_dir)) == len(grid)

    _same_summary(got, want)
    # Faults are drawn exactly once per (level >= 1, draw) not on disk.
    assert drawn == [
        derive_seed(SEED, level, draw)
        for level, draw in grid[len(finished):] if level
    ]
    assert second.stats["disk_hits"] == len(finished)
    assert second.stats["stores"] == len(grid) - len(finished)
    assert second.stats["persist_failures"] == 0


def test_corrupt_sweep_point_is_counted_and_recomputed(tmp_path):
    kwargs = dict(fault_levels=(1, 2), draws=2)
    want = _campaign(**kwargs)
    _campaign(cache=ArtifactCache(str(tmp_path)), **kwargs)
    truncated, garbage, *whole = sorted(tmp_path.iterdir())
    truncated.write_bytes(truncated.read_bytes()[:25])
    garbage.write_bytes(b"not a pickle")
    cache = ArtifactCache(str(tmp_path))
    _same_summary(_campaign(cache=cache, **kwargs), want)
    assert cache.stats["corrupt_discarded"] == 2
    assert cache.stats["disk_hits"] == len(whole) == 2
    assert cache.stats["stores"] == 2
    again = ArtifactCache(str(tmp_path))
    _same_summary(_campaign(cache=again, **kwargs), want)
    assert again.stats["disk_hits"] == 4


def test_grown_grid_reuses_the_draws_it_shares(tmp_path):
    _campaign(cache=ArtifactCache(str(tmp_path)), fault_levels=(2,), draws=4)
    cache = ArtifactCache(str(tmp_path))
    grown = _campaign(cache=cache, fault_levels=(2,), draws=8)
    assert (cache.stats["disk_hits"], cache.stats["stores"]) == (4, 4)
    _same_summary(grown, _campaign(fault_levels=(2,), draws=8))
    # A level added in front shifts no entry either.
    cache = ArtifactCache(str(tmp_path))
    _campaign(cache=cache, fault_levels=(1, 2), draws=8)
    assert (cache.stats["disk_hits"], cache.stats["stores"]) == (8, 8)


CHANGES = {
    "noc_config": lambda: dict(noc_config=NocConfig(backend="fast", multicast=False)),
    "backend": lambda: dict(noc_config=NocConfig(backend="reference")),
    "campaign_seed": lambda: dict(campaign_seed=SEED + 1),
    # Same labels, one of them now carrying another assignment.
    "assignment": lambda: dict(
        mappings=dict(
            MAPPINGS["mesh"],
            pacman=map_snn(GRAPH, PLATFORMS["mesh"], method="random", seed=1),
        )
    ),
    "label": lambda: dict(
        mappings={"a": MAPPINGS["mesh"]["pacman"], "b": MAPPINGS["mesh"]["greedy"]}
    ),
}


@pytest.mark.parametrize("changed", [*CHANGES, "architecture_name"])
def test_changed_input_hits_nothing(tmp_path, changed):
    """Whatever shapes a draw's rows is in its key: nothing is served
    stale, and the unchanged call still finds all of its entries."""
    kwargs = dict(fault_levels=(0, 2), draws=2)
    _campaign(cache=ArtifactCache(str(tmp_path)), **kwargs)
    cache = ArtifactCache(str(tmp_path))
    if changed == "architecture_name":
        renamed = dataclasses.replace(PLATFORMS["mesh"], name="renamed")
        got = run_fault_campaign(
            GRAPH, renamed, mappings=MAPPINGS["mesh"], campaign_seed=SEED,
            noc_config=NocConfig(backend="fast"), cache=cache, **kwargs,
        )
        assert got.draws == _campaign(**kwargs).draws  # a label, not content
    else:
        change = CHANGES[changed]()
        _same_summary(
            _campaign(cache=cache, **kwargs, **change),
            _campaign(**kwargs, **change),
        )
    assert (cache.stats["hits"], cache.stats["misses"]) == (0, 4)
    _campaign(cache=cache, **kwargs)
    assert (cache.stats["hits"], cache.stats["misses"]) == (4, 4)


def test_unreplayable_campaign_seed_is_never_stored(tmp_path):
    for seed in (None, np.random.default_rng(3)):
        cache = ArtifactCache(str(tmp_path))
        cache.key = mock.Mock(side_effect=AssertionError("nothing to key"))
        summary = _campaign(cache=cache, campaign_seed=seed, fault_levels=(1,), draws=2)
        assert len(summary.draws) == 2 * 2
        assert not any(cache.stats.values())
    assert not list(tmp_path.iterdir())
    replay = _campaign(
        campaign_seed=np.random.default_rng(3), fault_levels=(1,), draws=2
    )
    assert replay.draws == summary.draws  # the cache changed no draw


def test_concurrent_campaigns_share_one_directory(tmp_path):
    """Two processes writing the same entries at once: both finish, both
    print the table, and every entry on disk is whole (tmp + rename)."""
    command = [
        sys.executable, "-m", "repro", "faults", "--app", "hello_world",
        "--crossbars", "12", "--capacity", "16", "--interconnect", "mesh",
        "--method", "greedy", "--levels", "0", "1", "2", "--draws", "6",
        "--noc-backend", "fast", "--cache-dir", str(tmp_path),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    procs = [
        subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=ROOT,
        )
        for _ in range(2)
    ]
    outs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outs
    tables = [
        [ln for ln in out.splitlines() if " | " in ln or "-+-" in ln]
        for out, _ in outs
    ]
    assert tables[0] == tables[1] and len(tables[0]) == 2 + 3
    assert all("persist_failures=0" in out for out, _ in outs)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 1 + 3 * 6 and all(n.endswith(".pkl") for n in names)
    third = ArtifactCache(str(tmp_path))
    for name in names:
        assert third.get(name[:-4])[0]
    assert third.stats["corrupt_discarded"] == 0
