"""The four benchmark workloads.

A workload is a fixed list of short *ops*.  ``setup`` builds the
applications (SNN simulation + spike graph) and architectures — exactly
what a fresh-process probe pays and what ``setup_s`` measures;
``prepare`` does any further untimed work (the fault campaign's
mappings); ``ops`` returns the timed callables, seeded from the
benchmark seed.

The program under test only ever sees generated inputs (graphs,
architectures, configs, seeds) — never a workload name.

Op sizes are constants, identical on every commit.  They are sized so
that 30 rounds plus the interleaved set-up probes fit the measuring
window ``BENCHMARK.json`` fixes (a round is roughly 0.4-0.5 s on the
2-core reference host); digit_recognition is left out of the timed ops
because its greedy warm start alone costs 0.5 s per op.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from perfbench import checks
from repro.apps import build_application
from repro.core.partition import random_assignment
from repro.core.pso import PSOConfig
from repro.core.runtime import RuntimeRemapper, run_fault_timeline
from repro.framework.pipeline import (
    PipelineResult,
    run_fault_campaign,
    run_pipeline,
)
from repro.framework.service import MappingService, MapRequest
from repro.hardware.presets import custom, multichip_board
from repro.noc.faults import FaultSet, FaultTimeline, FaultWindow
from repro.noc.fastsim import FastInterconnect
from repro.noc.interconnect import NocConfig
from repro.noc.parallel import parallel_simulate_many, summarize
from repro.noc.traffic import build_injections_batch

FAST = NocConfig(backend="fast")


def sub_seed(seed: int, stream: int) -> int:
    """Independent child seed for one consumer (PSO, faults, campaign)."""
    return int(np.random.SeedSequence([int(seed), stream]).generate_state(1)[0])


# Applications are simulated from fixed seeds: spike counts drive the NoC
# and report cost, and with seed-dependent spike trains the host time of a
# run moved by up to 30 % between benchmark seeds (measured) - more than
# any bound could resolve.  The benchmark seed feeds every PSO, fault-draw
# and campaign seed instead, so mappings, swarms and fault sets still
# differ from seed to seed while the work per run stays the same.
APP_SEED = 2018


# Simulated biological time per application, chosen so the metric report
# and the NoC (both linear in spikes) stay in the proportion to PSO work
# (linear in particles x iterations) that the full-size flow shows, at op
# sizes a 30-round run can afford.
APP_KWARGS = {
    "heartbeat": {"duration_ms": 1500.0},
    "synth_2x200": {"duration_ms": 150.0},
}


def build(app: str):
    """Simulate one application and return its spike graph."""
    return build_application(app, seed=APP_SEED, **APP_KWARGS.get(app, {}))


def fitted(graph, n_crossbars: int, interconnect: str, name: str):
    """An architecture of ``n_crossbars`` tiles that exactly fits ``graph``."""
    return custom(
        n_crossbars,
        math.ceil(graph.n_neurons / n_crossbars),
        interconnect=interconnect,
        name=name,
    )


# -- what one op contributes to the modelled-hardware metrics ----------------


@dataclass
class Outcome:
    """Simulated (modelled-hardware) results of one op, plus its digest.

    ``digest`` covers everything the op returned that a user would read,
    so two rounds agree exactly when their digests do.
    """

    digest: str
    global_spikes: float = 0.0
    isi_cycles: List[float] = field(default_factory=list)
    disorder_pct: List[float] = field(default_factory=list)
    max_latency_cycles: float = 0.0
    global_energy_pj: float = 0.0
    delivered: int = 0
    undelivered: int = 0


def _sha(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def pipeline_digest(result: PipelineResult) -> str:
    stats = result.noc_stats
    return _sha(
        result.mapping.assignment,
        result.mapping.global_spikes,
        result.mapping.local_spikes,
        sorted(result.report.to_dict().items()),
        stats.cycles_run,
        stats.n_injected,
        stats.delivered_count,
        sorted(stats.link_loads.items()),
    )


def pipelines_outcome(results: Sequence[PipelineResult]) -> Outcome:
    reports = [r.report for r in results]
    return Outcome(
        digest=_sha(*[pipeline_digest(r) for r in results]),
        global_spikes=float(sum(r.mapping.global_spikes for r in results)),
        isi_cycles=[rep.isi_distortion_cycles for rep in reports],
        disorder_pct=[rep.disorder_percent for rep in reports],
        max_latency_cycles=float(max(rep.max_latency_cycles for rep in reports)),
        global_energy_pj=float(sum(rep.global_energy_pj for rep in reports)),
        delivered=sum(rep.delivered_packets for rep in reports),
        undelivered=sum(rep.undelivered_packets for rep in reports),
    )


def campaign_outcome(summary, mappings) -> Outcome:
    draws = list(summary.draws)
    return Outcome(
        digest=_sha(sorted(summary.to_dict().items(), key=lambda kv: kv[0])),
        global_spikes=float(sum(m.global_spikes for m in mappings.values())),
        max_latency_cycles=float(np.mean([d.max_latency_cycles for d in draws])),
        global_energy_pj=float(sum(d.global_energy_pj for d in draws)),
        delivered=sum(d.delivered_packets for d in draws),
        undelivered=sum(d.undelivered_packets for d in draws),
    )


# -- workload protocol -------------------------------------------------------


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    outcome: Callable[[Any], Outcome]


class Workload:
    """Base: subclasses fill in ``setup``/``ops`` (and optionally the rest)."""

    name = ""
    why = ""

    def setup(self) -> Dict[str, Any]:
        """Applications + architectures: the work a set-up probe times."""
        raise NotImplementedError

    def prepare(self, state: Dict[str, Any], seed: int, scratch: str) -> None:
        """Further untimed preparation (in neither timed metric)."""

    def ops(self, state: Dict[str, Any], seed: int) -> List[Op]:
        raise NotImplementedError

    def round_begin(self, state: Dict[str, Any]) -> None:
        """Untimed hook before each round's ops."""

    def round_end(self, state: Dict[str, Any]) -> None:
        """Untimed hook after each round's ops."""

    def reference_pipelines(
        self, state: Dict[str, Any], raw: Dict[str, Any]
    ) -> List[PipelineResult]:
        """Pipeline results the generic oracles (spikes, capacity,
        fast-vs-reference NoC) are run on, given the last round's raw op
        results."""
        return [v for v in raw.values() if isinstance(v, PipelineResult)]

    def extra_checks(self, state, raw, seed) -> List:
        """Workload-specific oracles: ``[(name, ok, detail), ...]``."""
        return []

    def layer_extras(self, state, seed, raw):
        """Traced runs only: per-layer numbers measured on the workload's
        own inputs rather than read off spans, and the oracles that go
        with them: ``(values, checks)``."""
        return {}, []


def _pipeline_op(name, graph, arch, objective, particles, iterations, seed) -> Op:
    pso = PSOConfig(n_particles=particles, n_iterations=iterations)

    def run() -> PipelineResult:
        return run_pipeline(
            graph, arch, method="pso", seed=seed, pso_config=pso,
            noc_config=FAST, objective=objective,
        )

    return Op(name, run, lambda result: pipelines_outcome([result]))


class MapPackets(Workload):
    name = "map_packets"
    why = (
        "the paper's Fig. 4 flow with the closed-form packets objective: "
        "PSO loop, greedy warm start and metric report dominate, NoC idle"
    )

    # (application, interconnect, crossbars, particles, iterations)
    CASES = (
        ("heartbeat", "tree", 6, 100, 16),
        ("image_smoothing", "mesh", 6, 50, 2),
        ("hello_world", "tree", 6, 100, 16),
        ("synth_2x200", "mesh", 6, 100, 4),
    )

    def setup(self):
        graphs, archs = {}, {}
        for app, kind, crossbars, _, _ in self.CASES:
            graphs[app] = build(app)
            archs[app] = fitted(graphs[app], crossbars, kind, f"{app}-{kind}")
        return {"graphs": graphs, "archs": archs}

    def ops(self, state, seed):
        return [
            _pipeline_op(
                app, state["graphs"][app], state["archs"][app], "packets",
                particles, iterations, sub_seed(seed, 100 + i),
            )
            for i, (app, _, _, particles, iterations) in enumerate(self.CASES)
        ]


class SwarmNoc(Workload):
    name = "swarm_noc"
    why = (
        "NoC-in-the-loop objective: every PSO iteration builds and simulates "
        "a swarm of schedules, so traffic build + C kernel + summarize "
        "dominate and PSO is small - the mirror image of map_packets"
    )

    # (label, application, crossbars, capacity or None=fitted, P, I)
    CASES = (
        ("heartbeat", "heartbeat", 6, None, 24, 5),
        ("synth_2x200", "synth_2x200", 9, None, 12, 2),
        # 100 routers > 63: the multi-word kernel variant.
        ("hello_world_mw", "hello_world", 100, 16, 8, 2),
    )

    def setup(self):
        graphs, archs = {}, {}
        for label, app, crossbars, capacity, _, _ in self.CASES:
            graph = build(app)
            graphs[label] = graph
            if capacity is None:
                archs[label] = fitted(graph, crossbars, "mesh", f"{label}-mesh")
            else:
                archs[label] = custom(
                    crossbars, capacity, interconnect="mesh", name=f"{label}-mesh"
                )
        return {"graphs": graphs, "archs": archs}

    def ops(self, state, seed):
        return [
            _pipeline_op(
                label, state["graphs"][label], state["archs"][label], "noc",
                particles, iterations, sub_seed(seed, 100 + i),
            )
            for i, (label, _, _, _, particles, iterations) in enumerate(self.CASES)
        ]

    def layer_extras(self, state, seed, raw):
        """The heartbeat case's swarm as one 32-schedule batch, rescored
        under 2 kernel threads and under a 2-process pool (start-up
        included).  Info for the backend-collapse item only: two busy
        threads on two shared cores do not repeat."""
        graph, arch = state["graphs"]["heartbeat"], state["archs"]["heartbeat"]
        rng = np.random.default_rng(sub_seed(seed, 400))
        swarm = np.stack([
            random_assignment(
                graph.n_neurons, arch.n_crossbars, arch.neurons_per_crossbar, rng)
            for _ in range(32)
        ])
        topology = arch.build_topology()
        schedules = build_injections_batch(
            graph, swarm, topology, cycles_per_ms=arch.cycles_per_ms)

        def summaries(**kwargs):
            engine = FastInterconnect(topology, config=FAST)
            return [
                summarize(stats, topology)
                for stats in engine.simulate_many(schedules, **kwargs)
            ]

        serial = summaries()
        t0 = time.perf_counter()
        threaded = summaries(threads=2)
        threads2_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        pooled = parallel_simulate_many(
            topology, schedules, config=FAST, workers=2, threads=0)
        pool2_s = time.perf_counter() - t0
        same = serial == threaded == pooled
        return (
            {"noc.parallel.threads2_s": threads2_s, "noc.parallel.pool2_s": pool2_s},
            [("threads_and_pool_equal_serial", same,
              "" if same else "threaded / pooled swarm scores differ from serial")],
        )


class ServeMixed(Workload):
    name = "serve_mixed"
    why = (
        "one MappingService cache used three ways per round - miss (compute "
        "+ store), hit (memory reads), disk (a new service on the same dir) "
        "- so a gain on one path that costs another shows"
    )

    HIT_REPEATS = 20
    PACKETS_PSO = PSOConfig(n_particles=30, n_iterations=5)
    NOC_PSO = PSOConfig(n_particles=8, n_iterations=2)
    APPS = ("hello_world", "heartbeat")

    def setup(self):
        graphs = {app: build(app) for app in self.APPS}
        archs = {
            (app, kind): fitted(graph, 6, kind, f"{app}-{kind}")
            for app, graph in graphs.items()
            for kind in ("mesh", "tree")
        }
        return {"graphs": graphs, "archs": archs}

    def _noc_request(self, state, app, kind, seed, label):
        return MapRequest(
            state["graphs"][app], state["archs"][app, kind], seed=seed,
            pso_config=self.NOC_PSO, noc_config=FAST, objective="noc", label=label,
        )

    def prepare(self, state, seed, scratch):
        state["scratch"] = scratch
        requests = []
        for a, app in enumerate(self.APPS):
            for k in range(2):
                requests.append(MapRequest(
                    state["graphs"][app], state["archs"][app, "mesh"],
                    seed=sub_seed(seed, 100 + 10 * a + k),
                    pso_config=self.PACKETS_PSO, noc_config=FAST,
                    objective="packets", label=f"{app}-packets-{k}",
                ))
            # One noc-objective request per fabric: no two share a graph +
            # architecture, so none coalesce and the timed ops stay on one
            # thread (two GIL-sharing member threads on two shared vCPUs
            # ran 50 % slower whenever the host was busy; the coalesced
            # path is measured in the traced run instead).
            for k, kind in enumerate(("mesh", "tree")):
                requests.append(self._noc_request(
                    state, app, kind, sub_seed(seed, 200 + 10 * a + k),
                    f"{app}-noc-{kind}",
                ))
        state["requests"] = requests

    def round_begin(self, state):
        state["cache_dir"] = tempfile.mkdtemp(prefix="serve-", dir=state["scratch"])
        state["services"] = []

    def round_end(self, state):
        for service in state.pop("services", []):
            service.close()
        shutil.rmtree(state.pop("cache_dir"), ignore_errors=True)

    def _service(self, state) -> MappingService:
        service = MappingService(cache_dir=state["cache_dir"])
        state["services"].append(service)
        return service

    def ops(self, state, seed):
        def answers(results):
            return pipelines_outcome(results["answers"])

        def miss():
            service = self._service(state)
            state["warm_service"] = service
            return {"answers": service.serve_batch(state["requests"])}

        def miss_outcome(results):
            # Untimed, and before round_end removes the directory.
            results["disk_bytes"] = _dir_bytes(state["cache_dir"])
            return answers(results)

        def hit():
            service = state["warm_service"]
            for _ in range(self.HIT_REPEATS):
                out = service.serve_batch(state["requests"])
            return {"answers": out}

        def disk():
            return {"answers": self._service(state).serve_batch(state["requests"])}

        return [Op("miss", miss, miss_outcome), Op("hit", hit, answers),
                Op("disk", disk, answers)]

    def reference_pipelines(self, state, raw):
        return list(raw["miss"]["answers"])

    def extra_checks(self, state, raw, seed):
        return [
            (f"{op}_equals_miss",) + checks.answers_equal(
                raw["miss"]["answers"], raw[op]["answers"]
            )
            for op in ("hit", "disk")
        ]

    def layer_extras(self, state, seed, raw):
        """The coalesced path: two noc-objective seeds per application on
        one fabric, served as one batch (two groups of two member threads),
        against the same requests served one at a time."""
        requests = [
            self._noc_request(state, app, "mesh", sub_seed(seed, 500 + 10 * a + k),
                              f"{app}-coalesced-{k}")
            for a, app in enumerate(self.APPS) for k in range(2)
        ]
        with MappingService() as together:
            t0 = time.perf_counter()
            coalesced = together.serve_batch(requests)
            elapsed = time.perf_counter() - t0
            stats = together.coalescer_stats
        with MappingService() as alone:
            solo = [alone.serve(request) for request in requests]
        flushes = stats.get("flushes", 0)
        values = {
            "framework.artifacts.disk_bytes": raw["miss"]["disk_bytes"],
            "framework.service.coalesced_s": elapsed,
            "framework.service.flushes": flushes,
            "framework.service.rows_per_flush": (
                stats.get("rows", 0) / flushes if flushes else 0.0
            ),
        }
        return values, [
            ("coalesced_equals_solo",) + checks.answers_equal(solo, coalesced)
        ]


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


class FaultCampaign(Workload):
    name = "fault_campaign"
    why = (
        "Monte-Carlo fault draws on precomputed mappings: fault injection, "
        "degraded routing tables, per-draw engine builds and campaign "
        "aggregation dominate; PSO never runs, so a PSO change must not move it"
    )

    DRAWS = 12
    SPARE_CAPACITY = 0.15
    MAP_PSO = PSOConfig(n_particles=20, n_iterations=20)

    def setup(self):
        graphs = {
            "hello_world": build("hello_world"),
            "heartbeat": build("heartbeat"),
        }
        archs = {
            "hello_world": custom(12, 16, interconnect="mesh", name="mesh-12x16"),
            "heartbeat": multichip_board(
                n_chips=2, crossbars_per_chip=4, neurons_per_crossbar=16,
            ),
        }
        return {"graphs": graphs, "archs": archs}

    def prepare(self, state, seed, scratch):
        mapped = {}
        for a, app in enumerate(("hello_world", "heartbeat")):
            graph, arch = state["graphs"][app], state["archs"][app]
            mapped[app] = {
                label: run_pipeline(
                    graph, arch, method="pso", seed=sub_seed(seed, 100 + a),
                    pso_config=self.MAP_PSO, noc_config=FAST,
                    spare_capacity=spare,
                )
                for label, spare in (
                    ("baseline", 0.0), ("fault-aware", self.SPARE_CAPACITY),
                )
            }
        state["mapped"] = mapped

    def _mappings(self, state, app):
        return {
            label: result.mapping for label, result in state["mapped"][app].items()
        }

    def _campaign(self, state, app, levels, campaign_seed):
        summary = run_fault_campaign(
            state["graphs"][app], state["archs"][app],
            mappings=self._mappings(state, app),
            fault_levels=levels, draws=self.DRAWS, campaign_seed=campaign_seed,
            noc_config=FAST,
        )
        summary.stats()  # the aggregation `repro faults` prints
        return summary

    def ops(self, state, seed):
        mesh_seed, board_seed = sub_seed(seed, 300), sub_seed(seed, 301)

        def timeline():
            graph, arch = state["graphs"]["heartbeat"], state["archs"]["heartbeat"]
            mapping = state["mapped"]["heartbeat"]["baseline"].mapping
            remapper = RuntimeRemapper(
                graph, n_clusters=arch.n_crossbars,
                capacity=arch.neurons_per_crossbar,
                assignment=mapping.assignment, migration_budget=8,
            )
            victim = int(np.bincount(
                mapping.assignment, minlength=arch.n_crossbars
            ).argmax())
            steps = run_fault_timeline(
                remapper,
                FaultTimeline([FaultWindow(
                    FaultSet(faulty_crossbars=[victim]), arrive=100.0, clear=400.0,
                )]),
                epochs_per_edge=1,
            )
            return {"steps": steps, "assignment": remapper.assignment.copy(),
                    "fitness": remapper.fitness()}

        def timeline_outcome(result):
            moves = [
                (s.time, s.arrived, s.cleared, [e.n_migrations for e in s.epochs])
                for s in result["steps"]
            ]
            return Outcome(digest=_sha(moves, result["assignment"], result["fitness"]))

        return [
            Op("campaign_mesh",
               lambda: self._campaign(state, "hello_world", (0, 2, 4, 6), mesh_seed),
               lambda s: campaign_outcome(s, self._mappings(state, "hello_world"))),
            Op("campaign_board",
               lambda: self._campaign(state, "heartbeat", (0, 1, 2), board_seed),
               lambda s: campaign_outcome(s, self._mappings(state, "heartbeat"))),
            Op("timeline", timeline, timeline_outcome),
        ]

    def reference_pipelines(self, state, raw):
        return [
            result
            for by_label in state["mapped"].values()
            for result in by_label.values()
        ]

    def extra_checks(self, state, raw, seed):
        # The campaign must regenerate the same draws from the same seed.
        again = self.ops(state, seed)[0].run()
        first = raw["campaign_mesh"]
        same = again.draws == first.draws and again.healthy == first.healthy
        return [("campaign_draws_repeat", same,
                 "" if same else "second call produced a different draw list")]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (MapPackets(), SwarmNoc(), ServeMixed(), FaultCampaign())
}
