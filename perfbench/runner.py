"""One workload run: prepare, warm up, measure, check, report.

Imported only after ``run.py`` has pinned the environment, because numpy
and ``repro`` read the thread pins when they load.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from perfbench import checks, harness, metrics, tracing
from perfbench.harness import OUT, ROOT
from perfbench.workloads import WORKLOADS
from repro.noc import _ckernel
from repro.obs import observe

SRC = os.path.join(ROOT, "src")


def run_workload(name: str, args, seconds: float) -> dict:
    workload = WORKLOADS[name]
    seed = args.seed
    scratch = os.path.join(OUT, "tmp", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)

    # Untimed prepare: the kernel exists before any probe runs, so set-up
    # never mixes a compiling first run with loading later ones.
    _ckernel.load_kernel()
    state = workload.setup()
    workload.prepare(state, seed, scratch)
    ops = workload.ops(state, seed)
    engine_labels = None
    if not args.no_warmup:
        harness.probe(name)  # throw-away: warms the page cache
        engine_labels = warm_up(workload, state, ops)

    run = Run(workload, state, ops, seed, args, seconds, scratch)
    if args.trace:
        values, info, extra_checks = measure_traced(run)
    else:
        values, info, extra_checks = measure_untraced(run)
    log = run.log
    n_checks = run_oracles(run, values, extra_checks)
    shutil.rmtree(scratch, ignore_errors=True)

    spins = log.spins or [harness.spin()]
    values.update({
        "op_wall_s": log.wall_min(),
        "peak_rss_mb": harness.peak_rss_mb(),
        "harness.rounds": log.rounds,
        "host.spin_min_s": min(spins),
        "host.spin_p50_over_min": statistics.median(spins) / min(spins),
    })
    values.update(harness.quality(log.outcomes) if log.outcomes else {})
    info.update({
        "op_wall_p50_s": log.wall_p50(),
        "spread_pct": (
            100.0 * (log.wall_p50() - log.wall_min()) / log.wall_min()
            if log.wall_min() else 0.0
        ),
        "failed_ops_pct": 100.0 * log.failed / max(log.attempted, 1),
        "ops": {
            op_name: {
                "n": len(ts), "min_s": min(ts), "p50_s": statistics.median(ts),
                "times_s": ts,
            }
            for op_name, ts in log.times.items() if ts
        },
        "spin_s": spins,
        "checks": n_checks,
        "errors": log.errors,
    })

    declared = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    record = {
        "workload": name,
        "seed": seed,
        "trace": bool(args.trace),
        "host": harness.fingerprint(engine_labels),
        "metrics": {
            m[0]: {"value": float(values.get(m[0], 0.0)), "unit": m[1]}
            for m in declared
        },
        "info": info,
        "correct": log.failed == 0 and log.rounds > 0,
        "attempted": log.attempted,
        "failed": log.failed,
    }
    with open(os.path.join(OUT, f"last_{name}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=_plain)
    report(record)
    return record


class Run:
    """One workload run's inputs and its log of timed (untraced) rounds."""

    def __init__(self, workload, state, ops, seed, args, seconds, scratch):
        self.workload, self.state, self.ops = workload, state, ops
        self.seed, self.args, self.seconds, self.scratch = seed, args, seconds, scratch
        self.op_names = [op.name for op in ops]
        self.log = harness.RoundLog(self.op_names)

    def rounds(self, log, stop, **kwargs):
        return harness.run_rounds(self.workload, self.state, self.ops, log, stop,
                                  **kwargs)

    def window(self, share: float, min_rounds: int):
        """``(stop, progress)`` for a share of the measuring window, or for
        ``--rounds`` rounds when that was asked for."""
        fixed = self.args.rounds
        if fixed is not None:
            return harness.rounds_stop(fixed), lambda log: log.rounds / fixed
        span = self.seconds * share
        stop = harness.elapsed_stop(span, min_rounds)
        return stop, lambda log: (time.perf_counter() - stop.start) / span


def warm_up(workload, state, ops) -> dict:
    """Busy warm-up: whole rounds, untimed, never sleeping.  The first one
    runs with the program's own counters on, to learn which NoC engine
    the ops really use."""
    names = [op.name for op in ops]
    stop = harness.elapsed_stop(harness.WARMUP_S)
    with observe(tracer=False) as obs:
        harness.run_rounds(workload, state, ops, harness.RoundLog(names),
                           harness.rounds_stop(1))
    harness.run_rounds(workload, state, ops, harness.RoundLog(names), stop)
    return {
        key: value for key, value in obs.metrics.counters().items()
        if key.startswith("noc.engine_runs")
    }


def measure_untraced(run: Run):
    """Timed rounds for the whole window, set-up probes spread across it."""
    args = run.args
    n_probes = harness.PROBES if args.probes is None else max(1, args.probes)
    probes: list = []

    def one_probe() -> float:
        return harness.probe(run.workload.name)

    stop, progress = run.window(1.0, 3)
    run.rounds(run.log, stop,
               between=harness.probe_schedule(n_probes, progress, one_probe, probes))
    # A window never ends with more than a probe or two outstanding; a
    # fixed-rounds run (smoke test) makes up all of them.
    while len(probes) < n_probes and (args.rounds is not None or not probes):
        probes.append(one_probe())
    info = {"probe_s": probes, "setup_p50_s": statistics.median(probes)}
    return {"setup_s": min(probes)}, info, []


def measure_traced(run: Run):
    """Alternate untraced and traced rounds over the same stretch of time
    (so their difference is the tracing overhead, not host drift), then
    measure the set-up and cold paths layer by layer."""
    args, name = run.args, run.workload.name
    traced = harness.RoundLog(run.op_names)
    recorder = tracing.Recorder()
    stop, _ = run.window(harness.TRACED_SHARE, 2)
    while not stop(traced):
        run.rounds(run.log, harness.rounds_stop(run.log.rounds + 1))
        undo = tracing.install(recorder)
        try:
            run.rounds(traced, harness.rounds_stop(traced.rounds + 1),
                       recorder=recorder)
        finally:
            tracing.uninstall(undo)
    trace_path = os.path.join(OUT, f"trace_{name}.jsonl")
    recorder.write_jsonl(trace_path)

    values = metrics.from_trace(recorder)
    base = run.log.wall_min()
    values["trace.overhead_pct"] = (
        100.0 * (traced.wall_min() / base - 1.0) if base else 0.0
    )
    # Traced rounds are ops too: they must neither fail nor disagree.
    run.log.attempted += traced.attempted
    run.log.failed += traced.failed
    run.log.errors += traced.errors
    for op_name in run.op_names:
        run.log.digests[op_name] |= traced.digests[op_name]

    n_extra = harness.TRACE_PROBES if args.probes is None else max(1, args.probes)
    values.update(setup_layers(name, n_extra))
    values.update(cold_path(n_extra, run.scratch))
    extra_values, extra_checks = run.workload.layer_extras(
        run.state, run.seed, run.log.raw)
    values.update(extra_values)
    info = {
        "trace_file": os.path.relpath(trace_path, ROOT),
        "traced_rounds": traced.rounds,
    }
    return values, info, extra_checks


def run_oracles(run: Run, values: dict, extra_checks: list) -> int:
    """Check outputs after timing; every check is one more attempted op."""
    log, workload = run.log, run.workload
    results = []
    for op_name in run.op_names:
        distinct = len(log.digests[op_name])
        results.append((
            f"{op_name}.identical_across_rounds", distinct == 1,
            "" if distinct == 1 else f"{distinct} distinct results",
        ))
    complete = len(log.raw) == len(run.ops)
    pipelines = workload.reference_pipelines(run.state, log.raw) if complete else []
    for i, result in enumerate(pipelines):
        results += checks.check_mapping(f"{result.graph.name}[{i}]", result)
    if pipelines:
        reference_check, reference_s = checks.check_reference_noc(pipelines)
        results.append(reference_check)
        values["noc.interconnect.reference_s"] = reference_s
    if complete:
        results += workload.extra_checks(run.state, log.raw, run.seed)
    results += extra_checks
    for check_name, ok, detail in results:
        log.attempted += 1
        if not ok:
            log.failed += 1
            log.errors.append(f"check {check_name}: {detail}")
    return len(results)


def _plain(value):
    """JSON fallback for numpy scalars."""
    return value.item() if hasattr(value, "item") else str(value)


def setup_layers(name: str, n: int) -> dict:
    """Set-up split by layer: best of ``n`` reporting probes."""
    reports = [harness.probe_report(name) for _ in range(n)]
    return {key: min(r[key] for r in reports) for key in reports[0]}


def cold_path(n: int, scratch: str) -> dict:
    """The cold path ROADMAP names: a kernel compile, and a whole
    ``repro map`` from a fresh interpreter (best of ``n``)."""
    kernel_dir = os.path.dirname(os.path.abspath(_ckernel.__file__))
    source = os.path.join(kernel_dir, "_fastsim_kernel.c")
    try:
        with open(os.path.join(kernel_dir, "_fastsim_kernel.so.flags")) as fh:
            flags = fh.read().split()
    except OSError:
        flags = []
    out = {"ckernel.build_s": 0.0, "cli.map_cold_s": 0.0}
    if flags:  # the flags the loaded kernel was really built with
        t0 = time.perf_counter()
        built = subprocess.run(
            ["gcc", *flags, "-o", os.path.join(scratch, "kernel.so"), source],
            capture_output=True, timeout=120,
        )
        if built.returncode == 0:
            out["ckernel.build_s"] = time.perf_counter() - t0
    env = dict(os.environ, PYTHONPATH=SRC)
    walls = []
    for _ in range(n):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "repro", "map", "--app", "heartbeat"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
            timeout=170, cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"cold `repro map` failed: {done.stderr[-300:]!r}")
        walls.append(time.perf_counter() - t0)
    out["cli.map_cold_s"] = min(walls)
    return out


# -- output ------------------------------------------------------------------


def report(record: dict) -> None:
    name = record["workload"]
    info = record["info"]
    print(f"== {name} (seed {record['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'}) ==")
    print("host: " + json.dumps(record["host"], sort_keys=True))
    for metric, entry in record["metrics"].items():
        print(f"{name}/{metric} = {entry['value']:.6g} {entry['unit']}")
    for key in ("op_wall_p50_s", "spread_pct", "setup_p50_s", "failed_ops_pct",
                "traced_rounds", "trace_file"):
        if key in info:
            value = info[key]
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"{name}/info.{key} = {shown}")
    for op_name, op in info["ops"].items():
        print(f"{name}/op.{op_name}: n={op['n']} min={op['min_s']:.4f}s "
              f"p50={op['p50_s']:.4f}s")
    for error in info["errors"]:
        print(f"{name}/FAILED {error}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    sys.stdout.flush()
