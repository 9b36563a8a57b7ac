"""Merge per-leg benchmark JSON reports into one ``BENCH_summary.json``.

CI's tier-1 matrix uploads one artifact per (python, kernel) leg, each
holding the JSON reports its bench steps wrote (``FASTSIM_REPORT_PATH``
and friends).  The ``bench-aggregate`` job downloads them all and runs::

    python benchmarks/aggregate.py --input-dir bench-artifacts \
        --output BENCH_summary.json

The summary groups every report by leg name, keeps each run alongside
its source path (so per-leg regressions stay attributable), and lists
the legs that produced no report at all — a missing leg is a pipeline
problem worth seeing, not something to silently drop.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Report files every full CI run is expected to produce, one per bench
#: leg (the file names are fixed by the workflow's *_REPORT_PATH envs).
EXPECTED_LEGS = (
    "fastsim_speedup",
    "multichip_smoke",
    "large_mesh",
    "frontend_speedup",
    "fault_tolerance",
    "fault_campaign",
    "service_bench",
    "obs_overhead",
    "threaded_batch",
)


def find_reports(input_dirs):
    """Yield (leg, source_path) for every expected report file found."""
    wanted = {f"{leg}.json": leg for leg in EXPECTED_LEGS}
    for root_dir in input_dirs:
        for dirpath, _dirnames, filenames in sorted(os.walk(root_dir)):
            for name in sorted(filenames):
                leg = wanted.get(name)
                if leg is not None:
                    yield leg, os.path.join(dirpath, name)


def aggregate(input_dirs, output_path):
    legs = {}
    unreadable = []
    for leg, path in find_reports(input_dirs):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            unreadable.append({"source": path, "error": str(exc)})
            continue
        legs.setdefault(leg, {"runs": []})["runs"].append(
            {"source": path, "data": data}
        )
    missing = [leg for leg in EXPECTED_LEGS if leg not in legs]
    summary = {
        "legs": legs,
        "missing": missing,
        "unreadable": unreadable,
        "n_legs_found": len(legs),
        "n_runs": sum(len(v["runs"]) for v in legs.values()),
    }
    with open(output_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--input-dir", action="append", required=True,
        help="directory to scan recursively for leg reports (repeatable)",
    )
    parser.add_argument(
        "--output", default="BENCH_summary.json",
        help="where to write the merged summary",
    )
    args = parser.parse_args(argv)
    summary = aggregate(args.input_dir, args.output)
    print(
        f"aggregated {summary['n_runs']} runs across "
        f"{summary['n_legs_found']}/{len(EXPECTED_LEGS)} legs "
        f"-> {args.output}"
    )
    if summary["missing"]:
        print(f"missing legs: {', '.join(summary['missing'])}")
    if summary["unreadable"]:
        print(f"unreadable reports: {len(summary['unreadable'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
