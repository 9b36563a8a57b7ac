"""Programmatic reproduction of the paper's tables and figures.

Each ``reproduce_*`` function is the one implementation of its artifact:
it maps the bench graphs, prints the paper's table and returns the
numbers behind it.  The CLI exposes them as ``python -m repro reproduce
{fig5,table2,fig6,fig7}``; ``benchmarks/test_fig5_energy.py``,
``test_table2_metrics.py``, ``test_fig6_exploration.py`` and
``test_fig7_swarm.py`` call them, assert the paper's shape on the
returned numbers and pin the printed table.  Budgets are scaled by
``effort`` so a laptop can get the shape in seconds (``effort=0.5``) or
grind closer to the paper's swarm settings (``effort=2.0``).
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.apps import build_application
from repro.core import PSOConfig, map_snn
from repro.framework.exploration import (
    ArchitecturePoint,
    SwarmPoint,
    estimate_synapse_energy_pj,
    explore_architecture,
    explore_swarm_size,
    normalized_energies,
)
from repro.framework.pipeline import run_pipeline
from repro.hardware.architecture import Architecture
from repro.hardware.presets import architecture_for, custom
from repro.metrics.report import MetricReport
from repro.snn.graph import SpikeGraph
from repro.utils.tables import format_table

BENCH_SEED = 2018  # the paper's year; fixed for reproducibility

#: Every graph the paper's artifacts map: application name ->
#: ``build_application`` arguments.  Durations are bench-tuned (shorter
#: than the examples) so the artifacts finish in minutes while keeping
#: enough spikes for stable statistics.
BENCH_GRAPHS: Dict[str, dict] = {
    "hello_world": dict(duration_ms=500.0),
    "image_smoothing": dict(duration_ms=150.0),
    "digit_recognition": dict(
        duration_ms=150.0, n_training_samples=2, train_ms_per_sample=80.0
    ),
    "heartbeat": dict(duration_ms=3000.0),
    "synth_1x200": dict(duration_ms=400.0),
    "synth_1x600": dict(duration_ms=400.0),
    "synth_3x200": dict(duration_ms=400.0),
    "synth_4x200": dict(duration_ms=400.0),
    "synth_1x800": dict(duration_ms=300.0),
    "synth_2x200": dict(duration_ms=300.0),
}

#: The synthetic topologies Fig. 5 plots.
FIG5_SYNTHETIC = ("synth_1x200", "synth_1x600", "synth_3x200", "synth_4x200")


def bench_graph(app: str) -> SpikeGraph:
    """One of :data:`BENCH_GRAPHS`, simulated at :data:`BENCH_SEED`."""
    return build_application(app, seed=BENCH_SEED, **BENCH_GRAPHS[app])


def bench_architecture(graph: SpikeGraph) -> Architecture:
    """A tree of tiles each holding a sixth of the graph (at least 16
    neurons), so every workload needs 4-8 crossbars as on CxQuad."""
    return architecture_for(
        graph.n_neurons,
        neurons_per_crossbar=max(16, -(-graph.n_neurons // 6)),
        interconnect="tree",
        name=graph.name,
    )


def _budget(effort: float, full: int, floor: int) -> int:
    """``full`` scaled by ``effort``, never below ``floor``."""
    if not (math.isfinite(effort) and effort > 0):
        raise ValueError(f"effort must be positive and finite, got {effort}")
    return max(floor, int(full * effort))


def _scaled_pso(effort: float, particles: int, iterations: int) -> PSOConfig:
    return PSOConfig(
        n_particles=_budget(effort, particles, 8),
        n_iterations=_budget(effort, iterations, 5),
    )


def _print_table(title: str, headers: List[str], rows: List[tuple]) -> None:
    print(title)
    print(format_table(headers, rows))


def reproduce_fig5(effort: float = 1.0) -> Dict[str, Dict[str, float]]:
    """Fig. 5: interconnect energy (pJ) per workload and partitioner,
    printed normalized to NEUTRAMS."""
    cfg = _scaled_pso(effort, 80, 40)
    workloads = {app: app for app in FIG5_SYNTHETIC}
    workloads.update(
        HW="hello_world", IS="image_smoothing", HD="digit_recognition", HE="heartbeat"
    )
    energies: Dict[str, Dict[str, float]] = {}
    for name, app in workloads.items():
        graph = bench_graph(app)
        arch = bench_architecture(graph)
        energies[name] = {}
        for method in ("neutrams", "pacman", "pso"):
            result = map_snn(
                graph, arch, method=method, seed=7, pso_config=cfg, objective="spikes"
            )
            energies[name][method] = estimate_synapse_energy_pj(
                graph, result.assignment, arch
            )
    rows = []
    for name, e in energies.items():
        ref = e["neutrams"] or 1.0
        rows.append(
            (name, *(f"{e[m] / ref:.3f}" for m in ("neutrams", "pacman", "pso")))
        )
    _print_table(
        "Fig. 5 — normalized energy on the global synapse interconnect",
        ["workload", "NEUTRAMS", "PACMAN", "Proposed PSO"],
        rows,
    )
    return energies


#: Table II's rows: label, ``MetricReport`` field, printed precision.
_TABLE2_METRICS = (
    ("ISI Distortion (cycles)", "isi_distortion_cycles", "{:.2f}"),
    ("Disorder count (%)", "disorder_percent", "{:.3f}"),
    ("Throughput (AER/ms)", "throughput_aer_per_ms", "{:.2f}"),
    ("Latency (cycles)", "max_latency_cycles", "{:.0f}"),
)


def reproduce_table2(effort: float = 1.0) -> Dict[str, Dict[str, MetricReport]]:
    """Table II: the NoC metric report per application, PACMAN vs PSO."""
    cfg = _scaled_pso(effort, 80, 40)
    apps = {
        "hello_world": "hello_world",
        "image_smoothing": "image_smoothing",
        "digit_recog.": "digit_recognition",
        "heartbeat_est.": "heartbeat",
    }
    reports: Dict[str, Dict[str, MetricReport]] = {}
    for name, app in apps.items():
        graph = bench_graph(app)
        arch = bench_architecture(graph)
        reports[name] = {
            method: run_pipeline(
                graph, arch, method=method, seed=7, pso_config=cfg
            ).report
            for method in ("pacman", "pso")
        }
    rows = [
        (name, label, *(fmt.format(getattr(r[m], field)) for m in ("pacman", "pso")))
        for name, r in reports.items()
        for label, field, fmt in _TABLE2_METRICS
    ]
    _print_table(
        "Table II — metric evaluation for realistic applications",
        ["application", "metric", "PACMAN", "Proposed"],
        rows,
    )
    return reports


def reproduce_fig6(effort: float = 1.0) -> List[ArchitecturePoint]:
    """Fig. 6: crossbar-size exploration on digit recognition."""
    cfg = _scaled_pso(effort, 50, 30)
    points = explore_architecture(
        bench_graph("digit_recognition"),
        custom(4, 256, interconnect="tree", name="fig6"),
        crossbar_sizes=[90, 180, 360, 720, 1080, 1440],
        method="pso",
        seed=7,
        pso_config=cfg,
    )
    rows = [
        (
            p.neurons_per_crossbar,
            p.n_crossbars,
            f"{p.local_energy_uj:.3f}",
            f"{p.global_energy_uj:.3f}",
            f"{p.total_energy_uj:.3f}",
            p.max_latency_cycles,
        )
        for p in points
    ]
    _print_table(
        "Fig. 6 — architecture exploration (digit recognition)",
        [
            "neurons/xbar",
            "crossbars",
            "local uJ",
            "global uJ",
            "total uJ",
            "latency (cy)",
        ],
        rows,
    )
    return points


def reproduce_fig7(effort: float = 1.0) -> Dict[str, List[SwarmPoint]]:
    """Fig. 7: interconnect energy vs swarm size for four applications,
    printed normalized to each application's sweep minimum."""
    n_iterations = _budget(effort, 30, 5)
    sweeps: Dict[str, List[SwarmPoint]] = {}
    for app in ("hello_world", "heartbeat", "synth_1x800", "synth_2x200"):
        graph = bench_graph(app)
        sweeps[app] = explore_swarm_size(
            graph,
            bench_architecture(graph),
            swarm_sizes=[10, 50, 200, 1000],
            n_iterations=n_iterations,
            seed=7,
        )
    rows = [
        (app, p.swarm_size, f"{e:.3f}")
        for app, points in sweeps.items()
        for p, e in zip(points, normalized_energies(points))
    ]
    _print_table(
        f"Fig. 7 — normalized energy vs swarm size ({n_iterations} iters)",
        ["application", "swarm size", "normalized energy"],
        rows,
    )
    return sweeps


ARTIFACTS = {
    "fig5": reproduce_fig5,
    "table2": reproduce_table2,
    "fig6": reproduce_fig6,
    "fig7": reproduce_fig7,
}


def reproduce(artifact: str, effort: float = 1.0) -> object:
    """Regenerate one paper artifact by name; returns what that
    artifact's ``reproduce_*`` function returns."""
    if artifact not in ARTIFACTS:
        raise KeyError(f"unknown artifact {artifact!r}; options: {sorted(ARTIFACTS)}")
    return ARTIFACTS[artifact](effort=effort)
