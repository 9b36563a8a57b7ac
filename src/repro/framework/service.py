"""Mapping-as-a-service: cache-backed request serving.

Every entry point of the framework is one-shot: a repeated
``map_snn`` / ``run_pipeline`` call runs the optimizer and the NoC
simulation again.  This module is the long-lived serving layer on top:

- :class:`MappingService` — answers map requests one after another, in
  order, on the calling thread (:meth:`~MappingService.serve_batch`),
  backed by one content-addressed
  :class:`~repro.framework.artifacts.ArtifactCache`.  Every answer is
  bit-identical to a one-shot ``run_pipeline`` call; what requests
  share is the cache, not threads.

Long sweeps (``explore_architecture``, ``run_fault_campaign``) are
restartable through the same cache: each finished point is an entry
(kind ``sweep-point``), so a killed sweep run again on the same
``cache_dir`` computes only the unfinished points.

The CLI surfaces this as ``repro serve`` and ``--cache-dir``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

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
    faults: int = 0
    fault_seed: SeedLike = None
    spare_capacity: float = 0.0
    warm: bool = False
    label: Optional[str] = None


# -- the service -------------------------------------------------------------


class MappingService:
    """Long-lived mapping service over one artifact cache.

    :meth:`serve_batch` answers requests one after another, in order, on
    the calling thread; each answer is bit-identical to a one-shot
    :func:`~repro.framework.pipeline.run_pipeline` call, and repeat
    requests are answered from the cache.  Requests share the cache
    (memoized mappings and results, warm-start states), never threads —
    one thread per same-fabric request measured slower than this loop
    (CHANGES.md, PR 15).

    ``cache_dir`` is the cache's disk layer (``None``: memory only).
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache = ArtifactCache(cache_dir)
        self.requests_served = 0

    @property
    def coalescer_stats(self) -> Dict[str, int]:
        """Always ``{}``: nothing coalesces any more.

        Kept only because the repo benchmark (``perfbench``, read-only
        for ordinary PRs) still reads it; it goes with the next
        benchmark PR.
        """
        return {}

    def close(self) -> None:
        """Nothing to release: the service owns no thread or handle.

        Kept, with the context manager, only because the repo benchmark
        still calls them; they go with the next benchmark PR.
        """

    def __enter__(self) -> "MappingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- serving -------------------------------------------------------------

    def serve(self, request: MapRequest) -> PipelineResult:
        """Answer one request (cache-backed)."""
        return self.serve_batch([request])[0]

    def serve_batch(self, requests: Sequence[MapRequest]) -> List[PipelineResult]:
        """Answer a batch of requests, in order, deterministically.

        A request that fails never stops the rest: every request is
        answered (and its result cached) before the first error is
        raised, its message prefixed with ``request #i:`` (the failing
        request's index) and its type unchanged.
        """
        requests = list(requests)
        results: List[Optional[PipelineResult]] = [None] * len(requests)
        first_error: Optional[Exception] = None
        with get_observer().span("service.serve_batch", n_requests=len(requests)):
            for i, request in enumerate(requests):
                try:
                    results[i] = self._serve_one(request)
                except Exception as exc:
                    if first_error is None:
                        exc.args = (f"request #{i}: {exc}",)
                        first_error = exc
        self.requests_served += len(requests)
        if first_error is not None:
            raise first_error
        return results

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
            objective=request.objective,
            faults=request.faults,
            fault_seed=request.fault_seed,
            spare_capacity=request.spare_capacity,
            cache=self.cache,
            warm_seeds=warm_seeds,
        )
