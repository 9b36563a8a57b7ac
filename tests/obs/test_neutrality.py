"""Observation neutrality: results are bit-identical with obs on vs off.

Instrumentation must be read-only — it consumes no RNG draws, reorders
no work and rounds no numbers.  These tests run the same seeded
workloads under ``observe()`` and bare, then compare every deterministic
output exactly.  Wall-clock fields are excluded (they are real times and
legitimately differ run to run).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import build_application
from repro.core.pso import PSOConfig
from repro.framework.pipeline import run_pipeline
from repro.framework.service import MapRequest, MappingService
from repro.hardware.presets import architecture_for
from repro.noc.interconnect import NocConfig
from repro.obs import (
    get_observer,
    observe,
    read_trace_jsonl,
    write_trace_jsonl,
)
from repro.obs.tracer import Span


def load_trace_tree(path):
    """Rebuild the span forest (detached root spans) from a JSONL trace."""
    spans = {}
    roots = []
    for row in read_trace_jsonl(path):
        span = Span(row["name"], row.get("attributes") or {})
        span.t_start = row.get("t_start")
        span.t_end = row.get("t_end")
        spans[row["id"]] = span
        parent = row.get("parent")
        if parent is None:
            roots.append(span)
        else:
            spans[parent].children.append(span)
    return roots


SMALL_PSO = PSOConfig(n_particles=6, n_iterations=4)
_TIMING_KEYS = ("pso_wall_time_s", "particle_iterations_per_s")


@pytest.fixture
def graph():
    return build_application("hello_world", seed=1)


@pytest.fixture
def arch(graph):
    return architecture_for(
        graph.n_neurons, neurons_per_crossbar=16,
        interconnect="mesh", name="obs-test",
    )


def _deterministic_extras(mapping):
    return {k: v for k, v in mapping.extras.items() if k not in _TIMING_KEYS}


def _assert_pipeline_results_equal(a, b):
    assert np.array_equal(a.mapping.assignment, b.mapping.assignment)
    assert a.mapping.fitness == b.mapping.fitness
    assert a.mapping.local_spikes == b.mapping.local_spikes
    assert a.mapping.global_spikes == b.mapping.global_spikes
    ea, eb = _deterministic_extras(a.mapping), _deterministic_extras(b.mapping)
    assert set(ea) == set(eb)
    for key in ea:
        va, vb = ea[key], eb[key]
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), key
        else:
            assert va == vb, key
    assert a.schedule == b.schedule
    assert a.noc_stats.total_hops() == b.noc_stats.total_hops()
    assert a.noc_stats.delivered_count == b.noc_stats.delivered_count
    assert a.noc_stats.cycles_run == b.noc_stats.cycles_run
    assert a.report.disorder_fraction == b.report.disorder_fraction


class TestPipelineNeutrality:
    def test_pso_noc_objective_bit_identical(self, graph, arch):
        kwargs = dict(
            method="pso", seed=3, pso_config=SMALL_PSO,
            objective="noc", noc_config=NocConfig(backend="fast"),
        )
        bare = run_pipeline(graph, arch, **kwargs)
        with observe() as obs:
            traced = run_pipeline(graph, arch, **kwargs)
        _assert_pipeline_results_equal(bare, traced)
        # The traced run actually recorded something.
        assert obs.metrics.counter_value("pipeline.runs", method="pso") == 1
        names = {s.name for s in obs.tracer.iter_spans()}
        assert {"run_pipeline", "map_snn", "pso.iteration"} <= names

    def test_greedy_reference_backend_bit_identical(self, graph, arch):
        kwargs = dict(method="greedy", noc_config=NocConfig(backend="reference"))
        bare = run_pipeline(graph, arch, **kwargs)
        with observe():
            traced = run_pipeline(graph, arch, **kwargs)
        _assert_pipeline_results_equal(bare, traced)

    def test_fault_path_bit_identical(self, graph, arch):
        kwargs = dict(method="greedy", faults=2, fault_seed=5)
        bare = run_pipeline(graph, arch, **kwargs)
        with observe() as obs:
            traced = run_pipeline(graph, arch, **kwargs)
        assert bare.failed_links == traced.failed_links
        _assert_pipeline_results_equal(bare, traced)
        # Counts injected faults, not calls.
        assert obs.metrics.counter_value("faults.random_injections") == 2


class TestServiceNeutrality:
    def test_coalesced_serve_batch_bit_identical(self, graph, arch):
        def batch():
            return [
                MapRequest(
                    graph=graph, architecture=arch, seed=s,
                    pso_config=SMALL_PSO, objective="noc",
                    noc_config=NocConfig(backend="fast"),
                )
                for s in (1, 2)
            ]

        bare = MappingService().serve_batch(batch())
        with observe() as obs:
            traced = MappingService().serve_batch(batch())
        for request, a, b in zip(batch(), bare, traced):
            _assert_pipeline_results_equal(a, b)
            one_shot = run_pipeline(
                graph, arch, seed=request.seed, pso_config=SMALL_PSO,
                objective="noc", noc_config=request.noc_config,
            )
            _assert_pipeline_results_equal(one_shot, b)
        # Both requests really ran under the observer, on the plain
        # pipeline path: nothing coalesces any more.
        assert obs.metrics.counter_value("pipeline.runs", method="pso") == 2
        assert not any(
            name.startswith("coalescer.") for name in obs.metrics.counters()
        )


class TestTraceWellFormedness:
    def test_jsonl_round_trip_and_nesting(self, graph, arch, tmp_path):
        with observe() as obs:
            run_pipeline(graph, arch, method="greedy")
        path = str(tmp_path / "trace.jsonl")
        n = write_trace_jsonl(obs.tracer, path)
        rows = read_trace_jsonl(path)
        assert len(rows) == n == sum(1 for _ in obs.tracer.iter_spans())

        # Depth-first ids: every parent precedes its children.
        by_id = {row["id"]: row for row in rows}
        for row in rows:
            assert row["t_end"] >= row["t_start"]
            parent = row["parent"]
            if parent is not None:
                assert parent < row["id"]
                # Children are contained in their parent's interval.
                assert by_id[parent]["t_start"] <= row["t_start"]
                assert row["t_end"] <= by_id[parent]["t_end"]

        # The rebuilt forest matches the live one shape-for-shape.
        roots = load_trace_tree(path)

        def shape(span):
            return (span.name, span.attributes, [shape(c) for c in span.children])

        assert [shape(r) for r in roots] == [shape(r) for r in obs.tracer.roots]

    def test_observer_restored_after_exception(self, graph, arch):
        with pytest.raises(RuntimeError):
            with observe():
                raise RuntimeError("boom")
        assert not get_observer().enabled
