"""Smoke test of the benchmark itself: one round of every workload.

Checks the contract a later PR relies on — every declared metric prints
with its unit, ``BENCHMARK.json`` and the runner declare the same names,
and the counts and name alphabet stay inside the driver's limits — not
any timing.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def run(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True,
        timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_lines(stdout: str):
    return [
        json.loads(line) for line in stdout.splitlines()
        if line.startswith('{"correct"')
    ]


def assert_metrics_printed(stdout: str, workload: str, declared) -> None:
    for metric in declared:
        pattern = (
            rf"^{re.escape(workload)}/{re.escape(metric['name'])} = \S+ "
            rf"{re.escape(metric['unit'])}$"
        )
        assert re.search(pattern, stdout, re.M), f"{workload}/{metric['name']} not printed"


def test_benchmark_json_matches_runner():
    declared = json.loads(run("--list-metrics"))
    bench = spec()
    assert [w["name"] for w in bench["workloads"]] == declared["workloads"]
    assert bench["end_to_end"] == declared["end_to_end"]
    assert bench["per_layer"] == declared["per_layer"]
    assert bench["paths"] == ["perfbench"]
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = (
        [w["name"] for w in bench["workloads"]]
        + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    )
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 <= m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_every_workload_prints_every_end_to_end_metric():
    bench = spec()
    stdout = run("--rounds", "1", "--probes", "1", "--no-warmup", "--trace", "0")
    results = result_lines(stdout)
    assert len(results) == len(bench["workloads"])
    expected = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for workload, result in zip(bench["workloads"], results):
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert_metrics_printed(stdout, workload["name"], bench["end_to_end"])


def test_traced_run_prints_every_per_layer_metric():
    bench = spec()
    stdout = run("--workload", "swarm_noc", "--rounds", "1", "--probes", "1",
                 "--no-warmup", "--trace", "1")
    (result,) = result_lines(stdout)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert_metrics_printed(stdout, "swarm_noc", bench["per_layer"])
    assert os.path.isfile(os.path.join(HERE, "out", "trace_swarm_noc.jsonl"))
