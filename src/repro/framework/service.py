"""Mapping-as-a-service: cache-backed request serving, resumable sweeps.

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
- :func:`run_sweep_resumable` — a processed-index manifest runner: a
  killed ``explore_architecture`` / ``run_fault_sweep`` campaign
  restarted mid-way recomputes only the unfinished points.

The CLI surfaces both (``repro serve``, ``--cache-dir``, ``--resume``).
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.pso import PSOConfig
from repro.framework.artifacts import ArtifactCache, stable_hash
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
    "SweepRun",
    "run_sweep_resumable",
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


# -- resumable sweep runner --------------------------------------------------


@dataclass
class SweepRun:
    """Outcome of one :func:`run_sweep_resumable` pass.

    ``results[i]`` is the point value (``None`` if it failed),
    ``skipped`` the indices answered from the manifest, ``computed``
    the indices computed this pass, ``failures`` the per-index error
    report (``on_error="continue"`` only).
    """

    campaign: str
    results: List[Optional[Any]]
    computed: List[int] = field(default_factory=list)
    skipped: List[int] = field(default_factory=list)
    failures: Dict[int, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.failures and all(
            i in self.computed or i in self.skipped
            for i in range(len(self.results))
        )


def _atomic_write(path: str, payload: bytes) -> None:
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path), prefix=os.path.basename(path), suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run_sweep_resumable(
    items: Sequence[Any],
    point_fn: Callable[[int, Any], Any],
    state_dir: str,
    campaign: str = "sweep",
    fingerprint: Any = None,
    resume: bool = True,
    on_error: str = "raise",
) -> SweepRun:
    """Run ``point_fn(i, item)`` per item with a processed-index manifest.

    Each completed point is pickled to ``state_dir`` and recorded in
    ``<campaign>.manifest.json`` *before* the next point starts, so a
    killed campaign restarted with the same arguments recomputes only
    the unfinished indices.  The manifest carries a fingerprint of
    (campaign, item count, caller-provided token): resuming with a
    different fingerprint raises instead of silently mixing campaigns.

    Parameters
    ----------
    resume:
        ``False`` discards any existing state for this campaign first.
    on_error:
        ``"raise"`` (default) propagates a point failure after the
        completed points are persisted — the crash-equivalent path;
        ``"continue"`` records the failure per index and keeps going.
    """
    if on_error not in ("raise", "continue"):
        raise ValueError(f"unknown on_error {on_error!r}; use 'raise' or 'continue'")
    os.makedirs(state_dir, exist_ok=True)
    manifest_path = os.path.join(state_dir, f"{campaign}.manifest.json")
    fp = stable_hash(("sweep-fingerprint", campaign, len(items), fingerprint))

    processed: Dict[int, str] = {}
    if os.path.exists(manifest_path) and not resume:
        _discard_campaign(state_dir, campaign, manifest_path)
    elif os.path.exists(manifest_path):
        try:
            with open(manifest_path) as fh:
                manifest = json.load(fh)
            stored_fp = manifest["fingerprint"]
            entries = {int(k): str(v) for k, v in manifest["processed"].items()}
        except Exception:
            # A corrupt manifest is discarded, never crashed on.
            _discard_campaign(state_dir, campaign, manifest_path)
        else:
            if stored_fp != fp:
                raise ValueError(
                    f"campaign {campaign!r} in {state_dir} was started with "
                    "different items/fingerprint; pass resume=False to "
                    "discard it"
                )
            processed = entries

    run = SweepRun(campaign=campaign, results=[None] * len(items))

    def save_manifest() -> None:
        payload = json.dumps(
            {
                "campaign": campaign,
                "fingerprint": fp,
                "n_items": len(items),
                "processed": {str(i): name for i, name in processed.items()},
            },
            indent=2,
        ).encode()
        _atomic_write(manifest_path, payload)

    for i, item in enumerate(items):
        name = processed.get(i)
        if name is not None:
            try:
                with open(os.path.join(state_dir, name), "rb") as fh:
                    run.results[i] = pickle.load(fh)
            except Exception:
                # Corrupt point artifact: recompute it below.
                del processed[i]
            else:
                run.skipped.append(i)
                continue
        try:
            value = point_fn(i, item)
        except Exception as exc:
            if on_error == "raise":
                raise
            run.failures[i] = f"{type(exc).__name__}: {exc}"
            continue
        run.results[i] = value
        run.computed.append(i)
        name = f"{campaign}.point{i:04d}.pkl"
        _atomic_write(os.path.join(state_dir, name), pickle.dumps(value))
        processed[i] = name
        save_manifest()
    return run


def _discard_campaign(state_dir: str, campaign: str, manifest_path: str) -> None:
    try:
        os.unlink(manifest_path)
    except OSError:
        pass
    for entry in os.listdir(state_dir):
        if entry.startswith(f"{campaign}.point") and entry.endswith(".pkl"):
            try:
                os.unlink(os.path.join(state_dir, entry))
            except OSError:
                pass
