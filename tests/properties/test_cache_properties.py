"""Differential property: a cached ``run_pipeline`` equals a recomputed one.

The cache has two memo boundaries (``run_pipeline``'s in memory,
``map_snn``'s in memory and on disk) and nothing in between, so one
generated comparison covers "cached == recomputed" for every request
shape: no cache, a fresh ``ArtifactCache(dir)`` (miss, then memory hit)
and a second cache on the same directory (disk hit on the mapping, the
rest recomputed) must agree field by field whenever the request is a
deterministic function of its arguments — and a request that is not
must run every time.
"""

import dataclasses
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_application
from repro.core.pso import PSOConfig
from repro.framework.artifacts import ArtifactCache
from repro.framework.pipeline import run_pipeline
from repro.hardware.presets import custom
from repro.noc.interconnect import NocConfig
from repro.obs import observe

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
        simulate_noc=draw(st.booleans()),
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
