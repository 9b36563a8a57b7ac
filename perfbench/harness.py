"""The noise protocol: warm-up, timed rounds, interleaved set-up probes.

The estimator, not the code, is what makes a 2-core shared host
repeatable (see README "Noise protocol"): every op keeps all its round
times and contributes its *minimum* to ``op_wall_s``; set-up is the
minimum over fresh-process probes spread across the same window.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench import PINNED_ENV

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUN_PY = os.path.join(HERE, "run.py")

# Protocol constants: identical on every commit.
WARMUP_S = 4.0          # busy warm-up before anything is timed
PROBES = 8              # fresh-process set-up probes per run
TRACE_PROBES = 3        # reporting probes / cold CLI runs in a traced run
TRACED_SHARE = 0.6      # traced run: share of the window spent on rounds


# -- host fingerprint and noise probe ----------------------------------------


def spin() -> float:
    """Fixed pure-Python + numpy work (~10 ms): the host's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += (i * i) % 7
    a = np.arange(400_000, dtype=np.float64)
    for _ in range(4):
        acc += float((a * a).sum())
    return time.perf_counter() - t0


def _gcc_version() -> str:
    try:
        out = subprocess.run(
            ["gcc", "--version"], capture_output=True, text=True, timeout=20
        ).stdout
        return out.splitlines()[0] if out else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "absent"


def fingerprint(engine_labels: Optional[Dict[str, float]]) -> Dict[str, Any]:
    """What this host is and which execution path actually ran."""
    from repro.noc import _ckernel

    lib = _ckernel.load_kernel()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gcc": _gcc_version(),
        "ckernel_present": lib is not None,
        "ckernel_openmp": bool(_ckernel.openmp_enabled(lib)),
        "ckernel_batch": bool(_ckernel.has_batch(lib)),
        "kernel_threads": _ckernel.resolve_threads(None),
        "pinned_env": {key: os.environ.get(key) for key in PINNED_ENV},
        "workers": 1,
        "engine_runs": engine_labels if engine_labels is not None else "not sampled",
    }


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up probes -----------------------------------------------------------


def _probe(workload: str, *flags: str) -> Tuple[float, str]:
    """One fresh interpreter: import, kernel load, applications,
    architectures, exit.  Returns its wall seconds and standard output."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, RUN_PY, "--probe", workload, *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, cwd=ROOT,
    )
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    return wall, done.stdout


def probe(workload: str) -> float:
    """Wall seconds of one set-up probe."""
    return _probe(workload)[0]


def probe_report(workload: str) -> Dict[str, float]:
    """The probe child's own split of its set-up time by layer."""
    return json.loads(_probe(workload, "--probe-report")[1].strip().splitlines()[-1])


# -- rounds ------------------------------------------------------------------


class RoundLog:
    """Everything the timed rounds produced."""

    def __init__(self, op_names: List[str]) -> None:
        self.times: Dict[str, List[float]] = {name: [] for name in op_names}
        self.digests: Dict[str, set] = {name: set() for name in op_names}
        self.errors: List[str] = []
        self.raw: Dict[str, Any] = {}
        self.outcomes: Dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.spins: List[float] = []

    def wall_min(self) -> float:
        return sum(min(ts) for ts in self.times.values() if ts)

    def wall_p50(self) -> float:
        return sum(statistics.median(ts) for ts in self.times.values() if ts)


def run_rounds(
    workload,
    state,
    ops,
    log: RoundLog,
    stop: Callable[[RoundLog], bool],
    recorder=None,
    between: Optional[Callable[[RoundLog], None]] = None,
) -> RoundLog:
    """Run whole rounds of ``ops`` until ``stop(log)``; never sleeps."""
    while not stop(log):
        workload.round_begin(state)
        try:
            for op in ops:
                log.attempted += 1
                if recorder is not None:
                    recorder.op = (log.rounds, op.name)
                    root = recorder.begin("op")
                t0 = time.perf_counter()
                try:
                    raw = op.run()
                except Exception as exc:  # an op that raises is a failed op
                    log.failed += 1
                    log.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    elapsed = time.perf_counter() - t0
                    if recorder is not None:
                        recorder.end(root)
                        recorder.op = None
                outcome = op.outcome(raw)
                log.times[op.name].append(elapsed)
                log.digests[op.name].add(outcome.digest)
                log.raw[op.name] = raw
                log.outcomes[op.name] = outcome
        finally:
            workload.round_end(state)
        log.rounds += 1
        log.spins.append(spin())
        if between is not None:
            between(log)
    return log


def elapsed_stop(seconds: float, min_rounds: int = 1):
    """Stop once ``seconds`` have passed (and ``min_rounds`` have run)."""
    start = time.perf_counter()

    def stop(log: RoundLog) -> bool:
        return (
            log.rounds >= min_rounds
            and time.perf_counter() - start >= seconds
        )

    stop.start = start
    return stop


def rounds_stop(n: int):
    return lambda log: log.rounds >= n


def probe_schedule(
    n_probes: int, progress: Callable[[RoundLog], float],
    run_probe: Callable[[], float], sink: List[float],
):
    """A ``between`` hook that spreads ``n_probes`` evenly over the run:
    probe k is due once progress passes (k + 0.5) / n."""

    def between(log: RoundLog) -> None:
        due = min(n_probes, int(progress(log) * n_probes + 0.5))
        if len(sink) < due:
            sink.append(run_probe())

    return between


# -- quality (modelled-hardware) metrics -------------------------------------


def quality(outcomes: Dict[str, Any]) -> Dict[str, float]:
    """Fold the last round's op outcomes into the simulated metrics."""
    values = list(outcomes.values())
    isi = [v for o in values for v in o.isi_cycles]
    disorder = [v for o in values for v in o.disorder_pct]
    delivered = sum(o.delivered for o in values)
    undelivered = sum(o.undelivered for o in values)
    return {
        "global_spikes": float(sum(o.global_spikes for o in values)),
        "max_latency_cycles": float(max(o.max_latency_cycles for o in values)),
        "global_energy_uj": float(sum(o.global_energy_pj for o in values)) * 1e-6,
        "delivered_pct": (
            100.0 * delivered / (delivered + undelivered)
            if delivered + undelivered else 0.0
        ),
        # Only pipeline ops produce a MetricReport with these two.
        "quality.isi_distortion_cycles": float(np.mean(isi)) if isi else 0.0,
        "quality.disorder_pct": float(np.mean(disorder)) if disorder else 0.0,
    }
