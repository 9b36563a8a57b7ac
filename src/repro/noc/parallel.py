"""Process-parallel sharded execution of ``simulate_many``.

PR 1 made swarm-scale NoC-in-the-loop fitness *possible* by batching
schedule simulation through
:meth:`~repro.noc.fastsim.FastInterconnect.simulate_many`; this module
makes it use the whole machine.  A
:class:`ParallelNocSimulator` shards a batch of injection schedules
across a :class:`concurrent.futures.ProcessPoolExecutor`:

- **workers are seeded once** — the pool initializer receives the
  pickled :class:`~repro.noc.fastsim.FastInterconnect` (which pickles as
  its ``(topology, routing, config)`` spec and rebuilds its routing/port
  tables, and the per-process ctypes C kernel, on arrival) and stores it
  in a process-global, so every chunk reuses the same tables;
- **chunks carry their batch offset** — each work item is ``(start,
  schedules, collect_metrics)`` and each result is ``(start, summaries,
  counter_deltas)``, so results are reassembled by index and the output
  is invariant to worker count, chunk size and completion order (the
  deltas only feed the observability registry, never the summaries);
- **results are columnar summaries** — workers return one compact
  :class:`~repro.noc.stats.ScheduleSummary` per schedule (hop totals,
  latency sums, delivery counts, ...) instead of full delivery records,
  keeping the inter-process payload tiny.  The serial path produces
  summaries with the same :func:`~repro.noc.stats.summarize` function,
  so ``workers=N`` is bit-identical to ``workers=1`` by construction;
- **graceful serial fallback** — sandboxed CI runners routinely forbid
  the primitives process pools need (``fork``, ``sem_open``, ``/dev/shm``).
  Any failure to start or use the pool emits one :class:`RuntimeWarning`
  and permanently reroutes this simulator to the in-process serial path,
  which produces the same results.

``workers=1`` is the serial path (no pool is ever created); ``workers=0``
or ``"auto"`` means one worker per CPU (:func:`resolve_workers`).

For tiny swarms serial usually wins: a fork/spawn plus per-worker table
rebuild costs milliseconds-to-tens-of-milliseconds, so the pool only
pays off once the batch simulates for longer than that (hundreds of
schedules, or few-but-long ones).  :class:`ParallelNocSimulator` keeps
its pool alive across calls, so iterative callers (PSO scoring a swarm
every generation) pay the startup cost once.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Iterator, List, Optional, Sequence, Tuple, Union

# ScheduleLike: a row-oriented injection list or a columnar schedule.
# Columnar items ship to workers as numpy array shards (compact to
# pickle) instead of per-packet ``Injection`` objects.
from repro.noc.fastsim import FastInterconnect, ScheduleLike
from repro.noc.interconnect import NocConfig
from repro.noc.routing import RoutingTable
from repro.noc.stats import NocStats, ScheduleSummary, summarize
from repro.noc.topology import Topology
from repro.noc.traffic import ColumnarSchedule
from repro.obs import get_observer, observe
from repro.obs.metrics import MetricsRegistry

WorkersSpec = Union[int, str, None]


def resolve_workers(workers: WorkersSpec) -> int:
    """Normalize a worker-count spec to a concrete positive integer.

    ``0``, ``None`` and ``"auto"`` mean one worker per CPU; any other
    value must parse as a non-negative integer.  ``1`` is the serial
    path.
    """
    if workers is None:
        return max(1, os.cpu_count() or 1)
    if isinstance(workers, str):
        if workers.strip().lower() == "auto":
            return max(1, os.cpu_count() or 1)
        workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return max(1, os.cpu_count() or 1)
    return workers


# -- worker side -------------------------------------------------------------

_WORKER_SIM: Optional[FastInterconnect] = None


def _init_worker(sim: FastInterconnect) -> None:
    """Pool initializer: adopt the simulator for this worker process.

    Under ``spawn`` (the macOS/Windows default) the argument arrives
    pickled, which rebuilds the routing/port tables and reloads the
    per-process C kernel (see ``FastInterconnect.__reduce__``); under
    ``fork`` (the Linux default) the parent's fully built instance is
    inherited directly.
    """
    global _WORKER_SIM
    _WORKER_SIM = sim


def _run_chunk(
    task: Tuple[int, List[ScheduleLike], bool],
) -> Tuple[int, List[ScheduleSummary], Optional[list]]:
    """Simulate one chunk of schedules; tag results with the batch offset.

    When the parent asked for metrics (``collect``), the chunk runs
    under a fresh worker-local registry and its counter deltas ship back
    with the summaries, so parallel runs aggregate exactly like serial
    ones.  Either way the parent's observer never leaks in: a forked
    worker would otherwise record spans nobody can collect.
    """
    start, schedules, collect = task
    sim = _WORKER_SIM
    registry: Union[MetricsRegistry, bool] = MetricsRegistry() if collect else False
    with observe(tracer=False, metrics=registry):
        # No thread team inside workers: the pool already owns the
        # machine's cores, so nested OpenMP teams would only thrash.
        summaries = [
            summarize(s, sim.topology)
            for s in sim.simulate_many(schedules, threads=0)
        ]
    deltas = registry.counter_deltas() if collect else None
    return start, summaries, deltas


# -- parent side -------------------------------------------------------------


class ParallelNocSimulator:
    """Shard ``simulate_many`` batches across worker processes.

    Wraps a :class:`~repro.noc.fastsim.FastInterconnect` (or builds one
    from a topology/routing/config spec) and scores batches of injection
    schedules on a persistent process pool.  Results are bit-identical
    to serial execution regardless of worker count or chunk order; see
    the module docstring for how.

    Parameters
    ----------
    workers:
        Worker processes (``1`` = serial in-process, ``0``/``"auto"`` =
        one per CPU).
    chunk_size:
        Schedules per work item.  Default splits the batch into about
        four chunks per worker, which balances load without drowning the
        queue in tiny messages.
    threads:
        Thread cap for the compiled batch kernel (``None`` defers to
        ``REPRO_NOC_THREADS``, ``0`` = no in-process thread team).
        When the kernel can parallelize in-process (OpenMP build, more
        than one effective thread), batches run through it instead of
        the process pool — same results, none of the pickling/dispatch
        overhead.  The pool is the parallel path everywhere else:
        no-OpenMP builds, ``threads=0``, and hosts without a kernel
        (where it shards the reference engine).
    """

    def __init__(
        self,
        topology: Union[Topology, FastInterconnect],
        routing: Optional[RoutingTable] = None,
        config: Optional[NocConfig] = None,
        workers: WorkersSpec = 0,
        chunk_size: Optional[int] = None,
        threads: Optional[int] = None,
    ) -> None:
        # Pool state first: __del__ must work even if validation below
        # raises mid-construction.
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_broken = False
        if isinstance(topology, FastInterconnect):
            if routing is not None or config is not None:
                raise ValueError(
                    "pass either a FastInterconnect or a "
                    "topology/routing/config spec, not both"
                )
            self._sim = topology
        else:
            self._sim = FastInterconnect(topology, routing, config)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = resolve_workers(workers)
        self.chunk_size = chunk_size
        self.threads = threads

    # -- pool management -----------------------------------------------------

    def _start_pool(self) -> Optional[ProcessPoolExecutor]:
        import multiprocessing

        # The platform-default start method: fork on Linux (workers
        # inherit the parent's built tables and loaded C kernel for
        # free), spawn where fork is unsafe (macOS, Windows — workers
        # rebuild from the pickled spec via FastInterconnect.__reduce__).
        ctx = multiprocessing.get_context()
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(self._sim,),
        )

    def _mark_broken(self, exc: BaseException) -> None:
        # Warn with an *instance* whose __cause__ is the pool failure:
        # daemon logs (and warning filters capturing the message) see
        # why the pool degraded, not just that it did.
        warning = RuntimeWarning(
            f"parallel NoC scoring unavailable ({exc!r}); "
            "falling back to serial simulation"
        )
        warning.__cause__ = exc
        warnings.warn(warning, stacklevel=4)
        get_observer().inc("noc.parallel.fallbacks", error=type(exc).__name__)
        self._pool_broken = True
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def __enter__(self) -> "ParallelNocSimulator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        if getattr(self, "_pool", None) is not None:
            self.close()

    # -- execution -----------------------------------------------------------

    def _chunks(
        self, schedules: Sequence[ScheduleLike], collect: bool
    ) -> Iterator[Tuple[int, List[ScheduleLike], bool]]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(schedules) // (4 * self.workers)))
        for start in range(0, len(schedules), size):
            yield start, [
                s if isinstance(s, ColumnarSchedule) else list(s)
                for s in schedules[start : start + size]
            ], collect

    def _summarize_serial(
        self, schedules: Sequence[ScheduleLike]
    ) -> List[ScheduleSummary]:
        return [
            summarize(s, self._sim.topology)
            for s in self._sim.simulate_many(schedules, threads=self.threads)
        ]

    def summarize_many(
        self, schedules: Sequence[ScheduleLike]
    ) -> List[ScheduleSummary]:
        """Simulate every schedule; return one summary per schedule.

        The parallel path, the threaded-kernel path and the serial path
        all run the same engine and the same :func:`summarize`, so the
        returned list is identical whichever path executed.
        """
        schedules = list(schedules)
        obs = get_observer()
        if self.workers <= 1 or self._pool_broken or len(schedules) <= 1:
            return self._summarize_serial(schedules)
        if self._sim.batch_threads(self.threads) > 1:
            # The OpenMP batch kernel parallelizes in-process with zero
            # pickling/dispatch cost; prefer it over the pool whenever
            # it can actually use more than one core.
            obs.inc("noc.parallel.threaded_batches")
            return self._summarize_serial(schedules)
        try:
            if self._pool is None:
                self._pool = self._start_pool()
            collect = obs.metrics.enabled
            with obs.span(
                "noc.parallel.batch",
                workers=self.workers,
                n_schedules=len(schedules),
            ):
                futures = [
                    self._pool.submit(_run_chunk, task)
                    for task in self._chunks(schedules, collect)
                ]
                out: List[Optional[ScheduleSummary]] = [None] * len(schedules)
                # Drain in completion order on purpose: reassembly must
                # not depend on which worker finished first.
                for future in as_completed(futures):
                    start, summaries, deltas = future.result()
                    out[start : start + len(summaries)] = summaries
                    if deltas:
                        obs.metrics.merge_counters(deltas)
            obs.inc("noc.parallel.batches")
            return out
        except Exception as exc:
            # Pools fail in creative ways under sandboxes (PermissionError
            # on sem_open, OSError on fork, BrokenProcessPool on killed
            # workers); a genuine simulation bug re-raises identically on
            # the serial rerun below, so nothing is masked.
            self._mark_broken(exc)
            return self._summarize_serial(schedules)

    def simulate_many(
        self, schedules: Sequence[ScheduleLike]
    ) -> List[NocStats]:
        """Full-stats batch API (always in-process; summaries are the
        cheap cross-process currency — use :meth:`summarize_many` for
        swarm scoring)."""
        return self._sim.simulate_many(schedules, threads=self.threads)


def parallel_simulate_many(
    topology: Topology,
    schedules: Sequence[ScheduleLike],
    routing: Optional[RoutingTable] = None,
    config: Optional[NocConfig] = None,
    workers: WorkersSpec = 0,
    chunk_size: Optional[int] = None,
    threads: Optional[int] = None,
) -> List[ScheduleSummary]:
    """One-shot helper: shard a batch once and tear the pool down.

    Mirrors :func:`repro.noc.fastsim.simulate_many` but returns
    :class:`ScheduleSummary` columns.  Iterative callers should hold a
    :class:`ParallelNocSimulator` instead to amortize pool startup.
    """
    cfg = config if config is not None else NocConfig()
    if cfg.backend != "fast":
        import dataclasses

        cfg = dataclasses.replace(cfg, backend="fast")
    with ParallelNocSimulator(
        topology,
        routing,
        cfg,
        workers=workers,
        chunk_size=chunk_size,
        threads=threads,
    ) as sim:
        return sim.summarize_many(schedules)
