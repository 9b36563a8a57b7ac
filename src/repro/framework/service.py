"""Mapping-as-a-service: cache-backed request serving.

Every entry point of the framework is one-shot: a repeated
``map_snn`` / ``run_pipeline`` call runs the optimizer and the NoC
simulation again.  This module is the long-lived serving layer on top:

- :class:`MappingService` — answers map requests one after another on
  the calling thread (:meth:`~MappingService.serve_batch`), or queues
  them behind thread-safe :meth:`~MappingService.submit` futures that
  one background worker drains in arrival order, backed by one shared
  content-addressed :class:`~repro.framework.artifacts.ArtifactCache`.
  Every answer is bit-identical to a one-shot ``run_pipeline`` call;
  what requests share is the cache, not threads.

Long sweeps (``explore_architecture``, ``run_fault_campaign``) are
restartable through the same cache: each finished point is an entry
(kind ``sweep-point``), so a killed sweep run again on the same
``cache_dir`` computes only the unfinished points.

The CLI surfaces this as ``repro serve`` and ``--cache-dir``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pso import PSOConfig
from repro.framework.artifacts import ArtifactCache
from repro.framework.pipeline import PipelineResult, run_pipeline
from repro.hardware.architecture import Architecture
from repro.noc.interconnect import NocConfig
from repro.obs import get_observer
from repro.snn.graph import SpikeGraph
from repro.utils.rng import SeedLike

__all__ = [
    "ArtifactCache",
    "MapRequest",
    "MappingService",
]


# -- requests ----------------------------------------------------------------


@dataclass
class MapRequest:
    """One unit of service traffic: map ``graph`` onto ``architecture``.

    Mirrors :func:`~repro.framework.pipeline.run_pipeline`'s surface:
    every field but ``label`` decides the answer, none how it is run.
    ``warm=True`` additionally seeds a PSO swarm from the cache's best
    recorded assignment for this (graph, architecture, objective) —
    an opt-in, because it changes results (never for the worse: warm
    seeds are evaluated exactly, so the swarm starts no worse than the
    recorded state).
    """

    graph: SpikeGraph
    architecture: Architecture
    method: str = "pso"
    seed: SeedLike = None
    pso_config: Optional[PSOConfig] = None
    noc_config: Optional[NocConfig] = None
    objective: str = "packets"
    simulate_noc: bool = True
    faults: int = 0
    fault_seed: SeedLike = None
    spare_capacity: float = 0.0
    warm: bool = False
    label: Optional[str] = None


# -- the service -------------------------------------------------------------


class MappingService:
    """Long-lived mapping service over one shared artifact cache.

    Two serving modes:

    - :meth:`serve_batch` — synchronous and deterministic: requests are
      answered one after another, in order, on the calling thread.
      This is the mode tests pin.
    - :meth:`submit` — thread-safe fire-and-forget returning a
      :class:`~concurrent.futures.Future`.  One background worker drains
      the queue in arrival order, serving everything queued at each
      wake-up exactly as :meth:`serve_batch` would.

    Either way the answers are bit-identical to one-shot
    :func:`~repro.framework.pipeline.run_pipeline` calls, and repeat
    requests are answered from the cache.  Requests share the cache
    (memoized mappings and results, warm-start states), never threads —
    one thread per same-fabric request measured slower than this loop
    (CHANGES.md, PR 15).
    """

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        cache_dir: Optional[str] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either a cache or a cache_dir, not both")
        if cache is not None and max_entries is not None:
            raise ValueError(
                "max_entries only applies to a service-owned cache; "
                "bound the passed cache at construction instead"
            )
        self.cache = (
            cache
            if cache is not None
            else ArtifactCache(cache_dir, max_entries=max_entries)
        )
        self.requests_served = 0
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: List[Tuple[MapRequest, Future]] = []
        self._worker: Optional[threading.Thread] = None
        self._closed = False

    @property
    def coalescer_stats(self) -> Dict[str, int]:
        """Always ``{}``: nothing coalesces any more.

        Kept only because the repo benchmark (``perfbench``, read-only
        for ordinary PRs) still reads it; it goes with the next
        benchmark PR.
        """
        return {}

    # -- synchronous serving -------------------------------------------------

    def serve(self, request: MapRequest) -> PipelineResult:
        """Answer one request (cache-backed)."""
        return self.serve_batch([request])[0]

    def serve_batch(self, requests: Sequence[MapRequest]) -> List[PipelineResult]:
        """Answer a batch of requests, in order, deterministically."""
        results, errors = self._serve_many(list(requests))
        for error in errors:
            if error is not None:
                raise error
        return results

    # -- asynchronous serving ------------------------------------------------

    def submit(self, request: MapRequest) -> "Future[PipelineResult]":
        """Enqueue one request; the returned future resolves off-thread."""
        future: "Future[PipelineResult]" = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("MappingService is closed")
            self._queue.append((request, future))
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(
                    target=self._drain, name="mapping-service", daemon=True
                )
                self._worker.start()
            self._wakeup.notify_all()
        return future

    def _drain(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if not self._queue and self._closed:
                    return
                batch, self._queue = self._queue, []
            requests = [request for request, _ in batch]
            results, errors = self._serve_many(requests)
            for (_, future), result, error in zip(batch, results, errors):
                if error is not None:
                    future.set_exception(error)
                else:
                    future.set_result(result)

    def close(self) -> None:
        """Stop the background worker after the queue drains."""
        with self._lock:
            self._closed = True
            worker = self._worker
            self._wakeup.notify_all()
        if worker is not None and worker.is_alive():
            worker.join()

    def __enter__(self) -> "MappingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _serve_many(
        self, requests: List[MapRequest]
    ) -> Tuple[List[Optional[PipelineResult]], List[Optional[Exception]]]:
        """Answer every request in order; a failure never stops the rest."""
        results: List[Optional[PipelineResult]] = [None] * len(requests)
        errors: List[Optional[Exception]] = [None] * len(requests)
        with get_observer().span("service.serve_batch", n_requests=len(requests)):
            for i, request in enumerate(requests):
                try:
                    results[i] = self._serve_one(request)
                except Exception as exc:
                    errors[i] = exc
        self.requests_served += len(requests)
        return results, errors

    def _serve_one(self, request: MapRequest) -> PipelineResult:
        warm_seeds = None
        if request.warm and request.method == "pso":
            warm = self.cache.warm_assignment(
                request.graph, request.architecture, request.objective
            )
            if warm is not None:
                warm_seeds = warm[None, :]
        return run_pipeline(
            request.graph,
            request.architecture,
            method=request.method,
            seed=request.seed,
            pso_config=request.pso_config,
            noc_config=request.noc_config,
            simulate_noc=request.simulate_noc,
            objective=request.objective,
            faults=request.faults,
            fault_seed=request.fault_seed,
            spare_capacity=request.spare_capacity,
            cache=self.cache,
            warm_seeds=warm_seeds,
        )
