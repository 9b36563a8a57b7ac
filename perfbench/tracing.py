"""Harness-side span recorder around the program's layer boundaries.

Nothing under ``src/`` is edited: ``install`` wraps the public functions
named in ``PATCHES`` from outside (every ``repro.*`` / ``perfbench.*``
module that imported the function by name gets the wrapper too) and
``uninstall`` puts the originals back.  Spans are kept in memory and
written out once, when the traced run ends.

A span records name, start, end, the span that caused it (same thread),
the op it belongs to and any counts taken at that boundary.  A layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread", "counts",
                 "child_time")

    def __init__(self, name: str, parent: Optional["Span"], op, thread: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = thread
        self.counts: Dict[str, float] = {}
        self.child_time = 0.0
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Recorder:
    """In-memory span store with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Optional[Tuple[int, str]] = None  # (round, op name)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1].name if stack else None

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, self.op,
                    threading.get_ident())
        stack.append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_time += span.duration

    # -- aggregation ---------------------------------------------------------

    def per_round(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """``{round: {span name: {"self", "total", count keys...}}}``.

        ``total`` sums the durations of the outermost spans of a name
        only, so recursion and same-name nesting never double count.
        """
        rounds: Dict[int, Dict[str, Dict[str, float]]] = {}
        for span in self.spans:
            if span.op is None:
                continue
            layer = rounds.setdefault(span.op[0], {}).setdefault(
                span.name, {"self": 0.0, "total": 0.0}
            )
            layer["self"] += span.self_time
            if span.parent is None or span.parent.name != span.name:
                layer["total"] += span.duration
            for key, value in span.counts.items():
                layer[key] = layer.get(key, 0.0) + value
        return rounds

    def write_jsonl(self, path: str) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": ids[id(span.parent)] if span.parent else None,
                    "round": span.op[0] if span.op else None,
                    "op": span.op[1] if span.op else None,
                    "thread": span.thread,
                    "self": span.self_time,
                    "counts": span.counts,
                }) + "\n")


# -- wrappers ----------------------------------------------------------------

Tally = Callable[[Dict[str, float], tuple, dict, Any], None]


def _plain(recorder: Recorder, orig, name: str, tally: Optional[Tally],
           skip_under: Optional[str]):
    def wrapper(*args, **kwargs):
        if skip_under is not None and recorder.current_name() == skip_under:
            return orig(*args, **kwargs)
        span = recorder.begin(name)
        try:
            result = orig(*args, **kwargs)
        finally:
            recorder.end(span)
        if tally is not None:
            tally(span.counts, args, kwargs, result)
        return result

    wrapper.__wrapped__ = orig
    return wrapper


def _cache_get(recorder: Recorder, orig, *_):
    """``ArtifactCache.get``: a memory lookup, or a disk load when the
    cache's own ``disk_hits`` stat moved during the call."""

    def get(self, key):
        before = self.stats["disk_hits"]
        span = recorder.begin("framework.artifacts.lookup")
        try:
            found, value = orig(self, key)
        finally:
            recorder.end(span)
        if self.stats["disk_hits"] != before:
            span.name = "framework.artifacts.disk_load"
        span.counts["hits" if found else "misses"] = 1
        return found, value

    return get


def _cache_put(recorder: Recorder, orig, *_):
    def put(self, key, value, persist=False):
        to_disk = persist and self.cache_dir is not None
        span = recorder.begin(
            "framework.artifacts.disk_store" if to_disk
            else "framework.artifacts.lookup"
        )
        try:
            return orig(self, key, value, persist=persist)
        finally:
            recorder.end(span)

    return put


def _tally_pso(counts, args, kwargs, result):
    counts["particle_iters"] = result.n_evaluations


def _tally_repair(counts, args, kwargs, result):
    before = np.asarray(args[0])
    counts["decoded"] = before.shape[0]
    counts["repaired"] = int(np.any(before != result, axis=1).sum())


def _tally_evals(counts, args, kwargs, result):
    counts["evals"] = len(result)


def _tally_schedules(counts, args, kwargs, result):
    counts["packets"] = sum(s.n_packets for s in result)


def _tally_schedule(counts, args, kwargs, result):
    counts["packets"] = result.n_packets


def _tally_stats(counts, args, kwargs, result):
    counts["packets"] = result.n_injected
    counts["sim_cycles"] = result.cycles_run
    counts["hops"] = result.total_hops()


def _tally_stats_many(counts, args, kwargs, result):
    counts["packets"] = sum(s.n_injected for s in result)
    counts["sim_cycles"] = sum(s.cycles_run for s in result)
    counts["hops"] = sum(s.total_hops() for s in result)


def _tally_draw(counts, args, kwargs, result):
    counts["draws"] = 1


def _tally_timeline(counts, args, kwargs, result):
    counts["moves"] = sum(e.n_migrations for step in result for e in step.epochs)


def _tally_snn(counts, args, kwargs, result):
    counts["spikes"] = result.total_spikes()


class Patch(NamedTuple):
    """One wrapped function: ``target`` is "module:function" or
    "module:Class.method"; ``skip_under`` names a parent span under which
    the call passes through unrecorded; ``factory`` builds a custom wrapper."""

    target: str
    span: str = ""
    tally: Optional[Tally] = None
    skip_under: Optional[str] = None
    factory: Optional[Callable] = None


PATCHES = (
    Patch("repro.snn.simulator:Simulation.run", "snn.simulate", _tally_snn),
    Patch("repro.snn.graph:SpikeGraph.from_simulation", "snn.graph_build"),
    Patch("repro.core.pso:BinaryPSO.optimize", "core.pso.optimize", _tally_pso),
    Patch("repro.core.partition:repair_batch", "core.partition.repair_batch",
          _tally_repair),
    Patch("repro.core.fitness:InterconnectFitness.evaluate_batch",
          "core.fitness.evaluate_batch", _tally_evals),
    Patch("repro.core.baselines.greedy:greedy_partition", "core.baselines.greedy"),
    Patch("repro.core.placement:place_clusters", "core.placement.place"),
    Patch("repro.core.mapper:map_snn", "core.mapper.map_snn"),
    Patch("repro.noc.traffic:build_injections", "noc.traffic.build_single",
          _tally_schedule),
    # build_injections delegates to the batch builder: count that work once.
    Patch("repro.noc.traffic:build_injections_batch", "noc.traffic.build_batch",
          _tally_schedules, skip_under="noc.traffic.build_single"),
    Patch("repro.noc.fastsim:FastInterconnect.simulate_many",
          "noc.fastsim.simulate_many", _tally_stats_many),
    # With one kernel thread simulate_many loops over simulate.
    Patch("repro.noc.fastsim:FastInterconnect.simulate", "noc.fastsim.simulate",
          _tally_stats, skip_under="noc.fastsim.simulate_many"),
    Patch("repro.noc.fastsim:FastInterconnect.__init__", "noc.fastsim.engine_build"),
    Patch("repro.noc.parallel:summarize", "noc.parallel.summarize"),
    Patch("repro.noc.faults:inject_random_faults", "noc.faults.apply", _tally_draw),
    Patch("repro.noc.routing:routing_for", "noc.routing.table_build"),
    Patch("repro.core.runtime:run_fault_timeline", "core.runtime.timeline",
          _tally_timeline),
    Patch("repro.metrics.report:build_report", "metrics.report.build"),
    Patch("repro.metrics.report:CampaignSummary.stats", "metrics.report.build"),
    Patch("repro.framework.artifacts:stable_hash", "framework.artifacts.hash"),
    Patch("repro.framework.artifacts:ArtifactCache.get", factory=_cache_get),
    Patch("repro.framework.artifacts:ArtifactCache.put", factory=_cache_put),
    Patch("repro.framework.service:MappingService.serve_batch",
          "framework.service.serve_batch"),
    Patch("repro.framework.pipeline:run_pipeline", "framework.pipeline.run"),
    Patch("repro.framework.pipeline:run_fault_campaign", "framework.pipeline.campaign"),
)


def _patched_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and name.split(".")[0] in ("repro", "perfbench")
    ]


def install(recorder: Recorder, only_prefix: str = "") -> List[Tuple[Any, str, Any]]:
    """Wrap every ``PATCHES`` target; return the undo list for ``uninstall``."""
    undo: List[Tuple[Any, str, Any]] = []
    for target, name, tally, skip_under, factory in PATCHES:
        if not target.startswith(only_prefix):
            continue
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        make = factory or _plain
        if "." in path:
            owner_name, _, attr = path.partition(".")
            owner = getattr(module, owner_name)
            # Read through __dict__: a classmethod must be rewrapped as one.
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    make(recorder, raw.__func__, name, tally, skip_under)
                )
            else:
                wrapped = make(recorder, raw, name, tally, skip_under)
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        orig = getattr(module, path)
        wrapped = make(recorder, orig, name, tally, skip_under)
        for holder in _patched_modules():
            for attr, value in list(vars(holder).items()):
                if value is orig:
                    undo.append((holder, attr, orig))
                    setattr(holder, attr, wrapped)
    return undo


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    for holder, attr, orig in reversed(undo):
        setattr(holder, attr, orig)
