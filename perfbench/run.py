#!/usr/bin/env python3
"""perfbench: the repository's benchmark.

    python3 perfbench/run.py [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
    python3 perfbench/run.py --aa [N]

Prints every metric by name with its unit, checks outputs against
independent oracles and ends with one JSON result line per workload.
Exits non-zero when an op fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Spelled out here (not read from workloads.py) because argument parsing
# happens before the environment is pinned and anything heavy is imported.
WORKLOAD_NAMES = ("map_packets", "swarm_noc", "serve_mixed", "fault_campaign")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring window (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   help="1: traced run that reports the per-layer metrics")
    p.add_argument("--rounds", type=int, default=None,
                   help="run exactly this many timed rounds instead of a window")
    p.add_argument("--probes", type=int, default=None,
                   help="set-up probes per run")
    p.add_argument("--no-warmup", action="store_true")
    p.add_argument("--aa", nargs="?", type=int, const=2, default=None,
                   help="run N full sets back to back and compare them")
    p.add_argument("--list-metrics", action="store_true",
                   help="print the declared workloads and metrics as JSON")
    p.add_argument("--probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    p.add_argument("--probe-report", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_environment() -> None:
    """Thread pins and a scratch TMPDIR inside the checkout, set before
    numpy or repro are imported (BLAS/OpenMP read them at load)."""
    from perfbench import PINNED_ENV

    os.environ.update(PINNED_ENV)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp


def import_program() -> None:
    """Make the checkout's own ``repro`` importable."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            f"perfbench: no program to measure: {SRC}/repro is missing\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, SRC)


# -- probe child -------------------------------------------------------------


def probe_main(args) -> int:
    """What every fresh ``repro map`` pays before mapping starts."""
    t0 = time.perf_counter()
    import repro  # noqa: F401
    from repro.noc._ckernel import load_kernel

    t1 = time.perf_counter()
    load_kernel()
    t2 = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    if not args.probe_report:
        WORKLOADS[args.probe].setup()
        return 0
    from perfbench import tracing

    recorder = tracing.Recorder()
    undo = tracing.install(recorder, only_prefix="repro.snn")
    recorder.op = (0, "setup")
    try:
        WORKLOADS[args.probe].setup()
    finally:
        tracing.uninstall(undo)
    layers = recorder.per_round().get(0, {})
    print(json.dumps({
        "cli.import_s": t1 - t0,
        "ckernel.load_s": t2 - t1,
        "snn.simulate_s": layers.get("snn.simulate", {}).get("self", 0.0),
        "snn.spikes": layers.get("snn.simulate", {}).get("spikes", 0.0),
        "snn.graph_build_s": layers.get("snn.graph_build", {}).get("self", 0.0),
    }))
    return 0


def list_metrics() -> int:
    from perfbench import metrics

    print(json.dumps({
        "workloads": list(WORKLOAD_NAMES),
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in metrics.END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in metrics.PER_LAYER
        ],
    }))
    return 0


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- A/A ---------------------------------------------------------------------


def _baseline_entry(record: dict) -> dict:
    """What BASELINE.json keeps of one run: its metrics and the per-op
    summary, without every round's time."""
    info = record["info"]
    return {
        "metrics": record["metrics"],
        "info": {
            "op_wall_p50_s": info["op_wall_p50_s"],
            "spread_pct": info["spread_pct"],
            "setup_p50_s": info["setup_p50_s"],
            "ops": {
                op: {k: v for k, v in numbers.items() if k != "times_s"}
                for op, numbers in info["ops"].items()
            },
        },
    }


def aa_main(args) -> int:
    """Run N full sets back to back; the same code must agree with itself
    within the bounds ``BENCHMARK.json`` sets."""
    spec = benchmark_json()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sets = []
    for index in range(args.aa):
        one = {}
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                                  timeout=900)
            if done.returncode != 0:
                print(done.stdout)
                print(f"set {index}: {name} exited {done.returncode}")
                return 1
            with open(os.path.join(OUT, f"last_{name}.json")) as fh:
                one[name] = json.load(fh)
            print(f"set {index}: {name} done")
        sets.append(one)
    ok = True
    for name in WORKLOAD_NAMES:
        for metric, entry in bounds.items():
            series = [s[name]["metrics"][metric]["value"] for s in sets]
            middle = statistics.median(series)
            spread = (max(series) - min(series)) / middle if middle else 0.0
            passed = spread <= entry["bound"]
            ok &= passed
            shown = ", ".join(f"{v:.6g}" for v in series)
            print(f"{name}/{metric}: [{shown}] {entry['unit']} "
                  f"spread {100 * spread:.2f}% bound {100 * entry['bound']:.0f}% "
                  f"{'pass' if passed else 'FAIL'}")
    baseline = {
        "seed": args.seed,
        "run_seconds": seconds,
        "host": sets[0][WORKLOAD_NAMES[0]]["host"],
        "workloads": {name: _baseline_entry(sets[0][name]) for name in WORKLOAD_NAMES},
    }
    with open(os.path.join(HERE, "BASELINE.json"), "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("A/A " + ("passed" if ok else "FAILED") + "; first set -> perfbench/BASELINE.json")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, ROOT)  # the perfbench package itself
    if args.list_metrics:
        return list_metrics()
    pin_environment()
    if args.aa is not None:
        return aa_main(args)
    import_program()
    if args.probe:
        return probe_main(args)
    seconds = args.seconds
    if seconds is None:
        seconds = benchmark_json()["run_seconds"]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    from perfbench.runner import run_workload

    failed = 0
    for name in names:
        failed += run_workload(name, args, seconds)["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
