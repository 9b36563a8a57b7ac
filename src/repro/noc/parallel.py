"""One-shot process pool over ``simulate_many`` — for the benchmark only.

Nothing in ``src/`` imports this module: the product scores a batch in
one in-process C call (README, "How a batch runs"; the pool's last
measurement is in CHANGES.md, PR 18).  It remains because the repo
benchmark (``perfbench``, read-only outside ``[benchmark]`` PRs) times
:func:`parallel_simulate_many` as ``noc.parallel.pool2_s`` and patches
``summarize`` here; like ``MappingService.coalescer_stats`` it goes with
the next ``[benchmark]`` PR, and ``FastInterconnect.__reduce__`` with it.
"""

from __future__ import annotations

import dataclasses
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

from repro.noc.fastsim import FastInterconnect, ScheduleLike
from repro.noc.interconnect import NocConfig
from repro.noc.stats import ScheduleSummary, summarize
from repro.noc.topology import Topology


def _summaries(engine, schedules, threads) -> List[ScheduleSummary]:
    return [
        summarize(stats, engine.topology)
        for stats in engine.simulate_many(schedules, threads=threads)
    ]


def parallel_simulate_many(
    topology: Topology,
    schedules: Sequence[ScheduleLike],
    config: Optional[NocConfig] = None,
    workers: int = 2,
    threads: Optional[int] = None,
) -> List[ScheduleSummary]:
    """Summaries of ``schedules``, one contiguous chunk per worker process.

    The pool (platform-default start method) is started and torn down
    inside the call.  The answer equals the in-process one; if the pool
    cannot be used, one :class:`RuntimeWarning` says so and the batch
    reruns in-process under ``threads``, the only thing that reads it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cfg = dataclasses.replace(config or NocConfig(), backend="fast")
    engine = FastInterconnect(topology, config=cfg)
    schedules = list(schedules)
    size = max(1, -(-len(schedules) // workers))
    try:
        # Each worker receives the engine pickled as its (topology,
        # routing, config) spec and rebuilds the tables on arrival.
        # threads=0 inside workers: a forked child must not start an
        # OpenMP team (libgomp hangs there once the parent has run one).
        with ProcessPoolExecutor(workers) as pool:
            futures = [
                pool.submit(_summaries, engine, schedules[i : i + size], 0)
                for i in range(0, len(schedules), size)
            ]
            return [summary for f in futures for summary in f.result()]
    except Exception as exc:
        # Sandboxes forbid what pools need in creative ways (PermissionError
        # on sem_open, OSError on fork, BrokenProcessPool); a genuine
        # simulation bug raises again, identically, on the rerun below.
        warning = RuntimeWarning(
            f"parallel NoC scoring unavailable ({exc!r}); "
            "falling back to serial simulation"
        )
        warning.__cause__ = exc
        warnings.warn(warning, stacklevel=2)
        return _summaries(engine, schedules, threads)
