"""Serving layer: cache keys, in-order serving, the disk layer."""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.apps import build_application
from repro.core.mapper import map_snn
from repro.core.pso import PSOConfig
from repro.framework.artifacts import (
    ArtifactCache,
    architecture_token,
    graph_token,
    mapping_token,
    pipeline_token,
    stable_hash,
)
from repro.framework.pipeline import run_pipeline
from repro.framework.service import MapRequest, MappingService
from repro.hardware.presets import architecture_for, custom
from repro.noc.interconnect import NocConfig


SMALL_PSO = PSOConfig(n_particles=6, n_iterations=4)

#: The checkout under test, wherever it lives: subprocess tests run in it
#: and import its ``src``, not whatever tree sits at a hard-coded path.
ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def graph():
    return build_application("hello_world", seed=1)


@pytest.fixture
def arch(graph):
    return architecture_for(
        graph.n_neurons, neurons_per_crossbar=16,
        interconnect="mesh", name="svc-test",
    )


# -- cache-key stability -----------------------------------------------------


class TestKeyStability:
    def test_memo_key_stable_across_processes(self, graph, arch):
        """A persisted entry's key must not depend on PYTHONHASHSEED."""
        script = (
            "from repro.apps import build_application\n"
            "from repro.hardware.presets import architecture_for\n"
            "from repro.framework.artifacts import ArtifactCache, mapping_token\n"
            "g = build_application('hello_world', seed=1)\n"
            "a = architecture_for(g.n_neurons, "
            f"neurons_per_crossbar={arch.neurons_per_crossbar}, "
            "interconnect='mesh', name='svc-test')\n"
            "token = mapping_token(g, a, method='pso', seed=3)\n"
            "print(ArtifactCache().key('mapping-result', token))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        keys = set()
        for hash_seed in ("0", "12345"):
            env["PYTHONHASHSEED"] = hash_seed
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, cwd=ROOT,
                check=True,
            )
            keys.add(out.stdout.strip())
        token = mapping_token(graph, arch, method="pso", seed=3)
        keys.add(ArtifactCache().key("mapping-result", token))
        assert len(keys) == 1, f"keys diverged: {keys}"

    def test_key_ignores_name_but_not_structure(self, arch):
        """Warm-start pools (``include_name=False``) ignore the report
        label; memoized results, which print it, do not."""
        import dataclasses

        def key(architecture, **kwargs):
            return stable_hash(architecture_token(architecture, **kwargs))

        renamed = dataclasses.replace(arch, name="other-label")
        assert key(renamed) == key(arch)
        assert key(renamed, include_name=True) != key(arch, include_name=True)
        resized = dataclasses.replace(
            arch, neurons_per_crossbar=arch.neurons_per_crossbar * 2
        )
        assert key(resized) != key(arch)
        rewired = dataclasses.replace(arch, interconnect="tree")
        assert key(rewired) != key(arch)

    def test_pipeline_token_tracks_faults_seed_and_method(self, graph, arch):
        base = dict(method="pso", seed=3, pso_config=SMALL_PSO)
        t0 = stable_hash(pipeline_token(graph, arch, **base))
        assert t0 == stable_hash(pipeline_token(graph, arch, **base))
        assert t0 != stable_hash(
            pipeline_token(graph, arch, **dict(base, seed=4))
        )
        assert t0 != stable_hash(
            pipeline_token(graph, arch, **dict(base, method="pacman"))
        )
        assert t0 != stable_hash(
            pipeline_token(graph, arch, **base, faults=2, fault_seed=1)
        )
        assert t0 != stable_hash(
            pipeline_token(graph, arch, **base, objective="spikes")
        )

    def test_every_request_parameter_reaches_its_memo_token(self, graph, arch):
        """A request says *what* to compute: every parameter of
        ``map_snn`` / ``run_pipeline`` except the ``cache`` handle (and
        ``map_snn``'s memo-disabling ``**kwargs``) is a component of the
        memo token, and so is every ``MapRequest`` field but ``label`` —
        read off the signatures, so a parameter added to one side only
        fails here instead of serving stale results."""
        import dataclasses
        import inspect

        from repro.framework.artifacts import mapping_token

        def names(fn):
            return set(inspect.signature(fn).parameters)

        assert names(map_snn) - {"cache", "kwargs"} == names(mapping_token)
        assert names(run_pipeline) - {"cache"} == names(pipeline_token)
        fields = {f.name for f in dataclasses.fields(MapRequest)}
        # ``warm`` is how a request asks the service for ``warm_seeds``.
        assert (fields - {"label", "warm"}) | {"warm_seeds"} == names(
            pipeline_token
        )

        # ... and each one moves the token.
        other = dict(
            method="pacman", seed=4, pso_config=SMALL_PSO,
            noc_config=NocConfig(backend="fast"), objective="spikes",
            faults=2, fault_seed=1, spare_capacity=0.25,
            warm_seeds=np.zeros((1, graph.n_neurons), dtype=np.int64),
            warm_start=False, placement=False,
        )
        base = dict(method="pso", seed=3)
        for token in (mapping_token, pipeline_token):
            t0 = stable_hash(token(graph, arch, **base))
            for name in names(token) - {"graph", "architecture"}:
                changed = token(graph, arch, **{**base, name: other[name]})
                assert stable_hash(changed) != t0, (token.__name__, name)

    @pytest.mark.parametrize("kwarg", ["workers", "threads"])
    def test_execution_kwargs_are_not_request_parameters(self, graph, arch, kwarg):
        with pytest.raises(TypeError):
            run_pipeline(graph, arch, method="greedy", **{kwarg: 2})
        with pytest.raises(TypeError):
            MapRequest(graph, arch, **{kwarg: 2})

    def test_graph_token_tracks_content(self, graph):
        other = build_application("hello_world", seed=2)
        assert stable_hash(graph_token(graph)) == stable_hash(graph_token(graph))
        assert stable_hash(graph_token(graph)) != stable_hash(graph_token(other))


# -- the disk layer ----------------------------------------------------------


class TestArtifactSharing:
    def test_disk_holds_one_entry_per_mapping_and_warm_problem(self, tmp_path):
        """What a served batch persists, on perfbench ``serve_mixed``'s
        request mix: deterministic mappings and warm-start states, and
        no part (topology, schedule, fault draw) of either."""
        noc = dict(
            pso_config=PSOConfig(n_particles=4, n_iterations=2),
            objective="noc",
            noc_config=NocConfig(backend="fast"),
        )
        requests = []
        for app in ("hello_world", "heartbeat"):
            g = build_application(app, seed=1)
            mesh, tree = (
                custom(6, math.ceil(g.n_neurons / 6), interconnect=kind)
                for kind in ("mesh", "tree")
            )
            requests += [
                MapRequest(g, mesh, seed=1, pso_config=SMALL_PSO),
                MapRequest(g, mesh, seed=2, pso_config=SMALL_PSO),
                MapRequest(g, mesh, seed=3, **noc),
                MapRequest(g, tree, seed=4, **noc),
            ]
        with MappingService(cache_dir=str(tmp_path)) as service:
            service.serve_batch(requests)
            key = service.cache.key
            mappings = {
                key(
                    "mapping-result",
                    mapping_token(
                        r.graph, r.architecture, method=r.method, seed=r.seed,
                        pso_config=r.pso_config, objective=r.objective,
                        noc_config=r.noc_config,
                    ),
                )
                for r in requests
            }
            warm_states = {
                key(
                    "warm-state",
                    service.cache.warm_token(r.graph, r.architecture, r.objective),
                )
                for r in requests
            }
        assert len(mappings) == 8 and len(warm_states) == 6
        assert {p.stem for p in tmp_path.iterdir()} == mappings | warm_states

    def test_disk_roundtrip_and_corrupt_entry_discarded(
        self, graph, arch, tmp_path
    ):
        cache = ArtifactCache(str(tmp_path))
        key = cache.key("thing", ("token", 1))
        cache.put(key, np.arange(5), persist=True)

        fresh = ArtifactCache(str(tmp_path))
        found, value = fresh.get(key)
        assert found and np.array_equal(value, np.arange(5))
        assert fresh.stats["disk_hits"] == 1

        # Corrupt the entry on disk: the next cold lookup must discard
        # it and report a miss, never crash.
        path = os.path.join(str(tmp_path), f"{key}.pkl")
        with open(path, "wb") as fh:
            fh.write(b"junk that is not a pickle")
        cold = ArtifactCache(str(tmp_path))
        found, _ = cold.get(key)
        assert not found
        assert cold.stats["corrupt_discarded"] == 1
        assert not os.path.exists(path)

        # An entry whose payload is a valid pickle of the wrong shape is
        # equally discarded.
        with open(path, "wb") as fh:
            pickle.dump({"not": "a pair"}, fh)
        cold2 = ArtifactCache(str(tmp_path))
        found, _ = cold2.get(key)
        assert not found
        assert cold2.stats["corrupt_discarded"] == 1

        # A real mapping entry cut short mid-write: the next process
        # discards it, maps again and leaves a whole entry behind.
        real = tmp_path / "real"
        want = map_snn(graph, arch, method="greedy", cache=ArtifactCache(str(real)))
        (entry,) = real.iterdir()
        entry.write_bytes(entry.read_bytes()[:40])
        cold3 = ArtifactCache(str(real))
        got = map_snn(graph, arch, method="greedy", cache=cold3)
        assert cold3.stats["corrupt_discarded"] == 1
        assert cold3.stats["disk_hits"] == 0
        assert np.array_equal(got.assignment, want.assignment)
        found, rebuilt = ArtifactCache(str(real)).get(entry.stem)
        assert found and np.array_equal(rebuilt.assignment, want.assignment)

    def test_failed_disk_write_is_counted_not_raised(self, tmp_path):
        """Sweep checkpoints ride on the disk layer, so a write that
        fails must show (it used to leave ``stores=1`` and say nothing):
        the value is still served from memory, ``persist_failures`` and
        the obs counter say it never reached the disk."""
        from repro.obs import observe

        blocker = tmp_path / "a-regular-file"
        blocker.write_text("not a directory")
        causes = {
            "unwritable directory": (str(blocker / "sub"), np.arange(3)),
            "unpicklable value": (str(tmp_path / "ok"), lambda: None),
        }
        for cause, (cache_dir, value) in causes.items():
            cache = ArtifactCache(cache_dir)
            key = cache.key("thing", cause)
            with observe() as obs:
                cache.put(key, value, persist=True)
            assert cache.stats["persist_failures"] == 1, cause
            assert cache.stats["stores"] == 1, cause
            assert obs.metrics.counter_value("cache.persist_failures") == 1, cause
            assert cache.get(key) == (True, value), cause
            assert ArtifactCache(cache_dir).get(key) == (False, None), cause
        assert not list((tmp_path / "ok").glob("*"))  # no stray *.tmp either

        fine = ArtifactCache(str(tmp_path / "ok"))
        fine.put(fine.key("thing", 1), np.arange(3), persist=True)
        assert fine.stats["persist_failures"] == 0

    def test_the_cache_holds_exactly_four_kinds(self, graph, arch, tmp_path):
        """A served batch, an ``explore`` sweep and a fault campaign on
        one cache: results and whole sweep points, never a part."""
        from repro.framework.exploration import explore_architecture
        from repro.framework.pipeline import run_fault_campaign

        service = MappingService(cache_dir=str(tmp_path))
        cache = service.cache
        kinds = []
        key = cache.key
        cache.key = lambda kind, token: kinds.append(kind) or key(kind, token)
        fast = NocConfig(backend="fast")
        service.serve_batch([
            MapRequest(graph, arch, seed=1, pso_config=SMALL_PSO,
                       noc_config=fast, faults=1, fault_seed=2),
            MapRequest(graph, arch, seed=2, pso_config=SMALL_PSO,
                       noc_config=fast, warm=True),
        ])
        explore_architecture(
            graph, arch, [16, 32], seed=1, pso_config=SMALL_PSO,
            noc_config=fast, cache=cache,
        )
        mapping = map_snn(graph, arch, method="greedy", cache=cache)
        run_fault_campaign(
            graph,
            arch,
            {"greedy": mapping},
            fault_levels=(0, 1),
            draws=2,
            noc_config=fast,
            cache=cache,
        )
        assert set(kinds) == {
            "mapping-result", "pipeline-result", "warm-state", "sweep-point",
        }
        assert kinds.count("sweep-point") == 2 + 2 * 2


# -- bounded in-memory layer -------------------------------------------------


class TestBoundedMemory:
    def test_unbounded_by_default(self):
        cache = ArtifactCache()
        for i in range(100):
            cache.put(f"k{i}", i)
        assert cache.get("k0") == (True, 0)


# -- result memoization ------------------------------------------------------


class TestResultMemo:
    def test_cached_pipeline_is_bit_identical(self, graph, arch):
        baseline = run_pipeline(graph, arch, seed=5, pso_config=SMALL_PSO)
        cache = ArtifactCache()
        first = run_pipeline(
            graph, arch, seed=5, pso_config=SMALL_PSO, cache=cache
        )
        repeat = run_pipeline(
            graph, arch, seed=5, pso_config=SMALL_PSO, cache=cache
        )
        for other in (first, repeat):
            assert np.array_equal(
                baseline.mapping.assignment, other.mapping.assignment
            )
            assert baseline.schedule == other.schedule
            assert baseline.mapping.fitness == other.mapping.fitness
            assert (
                baseline.report.total_energy_pj == other.report.total_energy_pj
            )

    def test_cached_result_is_a_defensive_copy(self, graph, arch):
        cache = ArtifactCache()
        first = run_pipeline(
            graph, arch, seed=5, pso_config=SMALL_PSO, cache=cache
        )
        first.mapping.assignment[:] = -1  # caller misbehaves
        repeat = run_pipeline(
            graph, arch, seed=5, pso_config=SMALL_PSO, cache=cache
        )
        assert int(repeat.mapping.assignment.min()) >= 0

    def test_unseeded_requests_are_not_memoized(self, graph, arch):
        # A memoized repeat would return the stored result, whose
        # wall_time_s is a bit-exact copy; independent runs never share
        # the exact perf_counter delta.
        cache = ArtifactCache()
        a = run_pipeline(graph, arch, seed=None, method="random", cache=cache)
        b = run_pipeline(graph, arch, seed=None, method="random", cache=cache)
        assert a.mapping.wall_time_s != b.mapping.wall_time_s

    def test_generator_seeds_run_and_are_never_memoized(self, graph, arch):
        """A ``Generator`` is a position in a stream, not content: the
        call runs exactly as without a cache and leaves no memo entry
        (it used to raise ``unhashable token node of type Generator``)."""
        rng = np.random.default_rng

        def outcome(result):
            mapping = getattr(result, "mapping", result)
            return (
                mapping.assignment.tobytes(),
                getattr(result, "failed_links", None),
            )

        pso = dict(pso_config=SMALL_PSO)
        # (call taking a generator, the memo kinds it must not store)
        cases = [
            (
                lambda g, **kw: run_pipeline(graph, arch, seed=g, **pso, **kw),
                {"mapping-result", "pipeline-result"},
            ),
            (
                lambda g, **kw: map_snn(graph, arch, seed=g, **pso, **kw),
                {"mapping-result", "pipeline-result"},
            ),
            (
                lambda g, **kw: run_pipeline(
                    graph, arch, seed=1, faults=1, fault_seed=g, **pso, **kw
                ),
                {"pipeline-result"},  # the int-seeded mapping does memoize
            ),
        ]
        for call, forbidden in cases:
            cache = ArtifactCache()
            kinds = []
            key = cache.key
            cache.key = lambda kind, token: kinds.append(kind) or key(kind, token)
            stream = rng(7)
            first = call(stream, cache=cache)
            assert outcome(first) == outcome(call(rng(7)))
            assert not forbidden & set(kinds)
            # The same generator object again is the next draw, not a replay.
            state = stream.bit_generator.state
            call(stream, cache=cache)
            assert stream.bit_generator.state != state
            assert not forbidden & set(kinds)

    def test_map_snn_memo_respects_kwargs(self, graph, arch):
        cache = ArtifactCache()
        # Seeded, no kwargs: the repeat is served from the memo, so the
        # recorded wall time is bit-identical.
        a = map_snn(graph, arch, method="annealing", seed=1, cache=cache)
        b = map_snn(graph, arch, method="annealing", seed=1, cache=cache)
        assert a.wall_time_s == b.wall_time_s
        assert np.array_equal(a.assignment, b.assignment)
        # Free-form kwargs opt the call out of memoization entirely
        # (repr-keyed kwargs could collide), so both calls really run.
        from repro.core.baselines.annealing import AnnealingConfig

        fast = AnnealingConfig(n_steps=50)
        c = map_snn(
            graph, arch, method="annealing", seed=1, cache=cache, config=fast
        )
        d = map_snn(
            graph, arch, method="annealing", seed=1, cache=cache, config=fast
        )
        assert c.wall_time_s != d.wall_time_s


# -- the service -------------------------------------------------------------


class TestMappingService:
    def test_serve_batch_matches_one_shot(self, graph, arch):
        ncfg = NocConfig(backend="fast")
        seeds = (1, 2)
        solo = [
            run_pipeline(
                graph, arch, seed=s, pso_config=SMALL_PSO,
                noc_config=ncfg, objective="noc",
            )
            for s in seeds
        ]
        service = MappingService()
        served = service.serve_batch(
            [
                MapRequest(
                    graph=graph, architecture=arch, seed=s,
                    pso_config=SMALL_PSO, noc_config=ncfg, objective="noc",
                )
                for s in seeds
            ]
        )
        for a, b in zip(solo, served):
            assert np.array_equal(a.mapping.assignment, b.mapping.assignment)
            assert a.schedule == b.schedule
            assert a.noc_stats.total_hops() == b.noc_stats.total_hops()
        assert service.coalescer_stats == {}

    def test_mixed_batch_coalesces_only_matching_requests(self, graph, arch):
        ncfg = NocConfig(backend="fast")
        service = MappingService()
        requests = [
            MapRequest(
                graph=graph, architecture=arch, seed=1,
                pso_config=SMALL_PSO, noc_config=ncfg, objective="noc",
            ),
            MapRequest(graph=graph, architecture=arch, method="pacman"),
            MapRequest(
                graph=graph, architecture=arch, seed=2,
                pso_config=SMALL_PSO, noc_config=ncfg, objective="noc",
            ),
        ]
        served = service.serve_batch(requests)
        assert served[1].mapping.method == "pacman"
        ref = run_pipeline(graph, arch, method="pacman")
        assert np.array_equal(
            served[1].mapping.assignment, ref.mapping.assignment
        )
        for i, s in ((0, 1), (2, 2)):
            solo = run_pipeline(
                graph, arch, seed=s, pso_config=SMALL_PSO,
                noc_config=ncfg, objective="noc",
            )
            assert np.array_equal(
                served[i].mapping.assignment, solo.mapping.assignment
            )
            assert served[i].noc_stats.total_hops() == solo.noc_stats.total_hops()

    def test_serve_batch_survives_a_failing_request(self, graph, arch):
        """Three same-fabric noc requests, the middle one cannot fit:
        the other two are still answered (bit-identically to one-shot
        runs), the error is re-raised naming the failing request's index,
        and no thread is started."""
        ncfg = NocConfig(backend="fast")
        bad_arch = custom(2, 4, interconnect="mesh", name="too-small")

        def request(architecture, seed):
            return MapRequest(
                graph=graph, architecture=architecture, seed=seed,
                pso_config=SMALL_PSO, noc_config=ncfg, objective="noc",
            )

        good = [request(arch, 1), request(arch, 2)]
        service = MappingService()
        threads_before = threading.active_count()
        with pytest.raises(ValueError, match=r"^request #1: "):
            service.serve_batch([good[0], request(bad_arch, 3), good[1]])
        assert threading.active_count() == threads_before
        assert service.requests_served == 3
        # Both survivors were computed and stored: serving them again
        # misses nothing, and the answer equals a one-shot run.
        for req in good:
            misses_before = service.cache.stats["misses"]
            served = service.serve(req)
            assert service.cache.stats["misses"] == misses_before
            solo = run_pipeline(
                graph, arch, seed=req.seed, pso_config=SMALL_PSO,
                noc_config=ncfg, objective="noc",
            )
            assert np.array_equal(
                served.mapping.assignment, solo.mapping.assignment
            )
            assert served.mapping.fitness == solo.mapping.fitness
            assert served.schedule == solo.schedule
            assert served.report == solo.report

    def test_repeat_request_served_from_cache(self, graph, arch):
        service = MappingService()
        first = service.serve(
            MapRequest(
                graph=graph, architecture=arch, seed=9, pso_config=SMALL_PSO
            )
        )
        hits_before = service.cache.stats["hits"]
        repeat = service.serve(
            MapRequest(
                graph=graph, architecture=arch, seed=9, pso_config=SMALL_PSO
            )
        )
        assert service.cache.stats["hits"] > hits_before
        assert np.array_equal(
            first.mapping.assignment, repeat.mapping.assignment
        )

    def test_warm_request_uses_recorded_state(self, graph, arch):
        service = MappingService()
        cold = service.serve(
            MapRequest(
                graph=graph, architecture=arch, seed=11, pso_config=SMALL_PSO
            )
        )
        assert (
            service.cache.warm_assignment(graph, arch, "packets") is not None
        )
        warm = service.serve(
            MapRequest(
                graph=graph, architecture=arch, seed=12,
                pso_config=SMALL_PSO, warm=True,
            )
        )
        # Warm seeds are evaluated exactly, so the warmed swarm can never
        # end worse than the recorded optimum it started from.
        assert warm.mapping.extras["packets"] <= cold.mapping.extras["packets"]


# -- benchmark aggregation ---------------------------------------------------


class TestAggregate:
    def test_aggregate_merges_leg_reports(self, tmp_path):
        import json

        legs = {
            "fastsim_speedup.json": {"speedup": 12.0},
            "fault_tolerance.json": {"delivery": 1.0},
            "service_bench.json": {"cache_hit_speedup": 5.0},
        }
        for sub, (name, data) in zip(("a", "b", "c"), legs.items()):
            d = tmp_path / sub
            d.mkdir()
            with open(d / name, "w") as fh:
                json.dump(data, fh)
        out = tmp_path / "BENCH_summary.json"
        subprocess.run(
            [
                sys.executable, "benchmarks/aggregate.py",
                "--input-dir", str(tmp_path),
                "--output", str(out),
            ],
            check=True, cwd=ROOT,
        )
        with open(out) as fh:
            summary = json.load(fh)
        assert summary["legs"]["fastsim_speedup"]["runs"][0]["data"] == {
            "speedup": 12.0
        }
        assert summary["legs"]["service_bench"]["runs"][0]["data"] == {
            "cache_hit_speedup": 5.0
        }
        assert "multichip_smoke" in summary["missing"]
        assert summary["n_legs_found"] == 3
