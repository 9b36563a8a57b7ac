"""Declared metric names, and how the per-layer ones come out of a trace.

``BENCHMARK.json`` lists the same names (the smoke test compares them).
End-to-end metrics always come from an untraced run; per-layer metrics
from a traced one.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Tuple

# (name, unit, better, bound): bound = share of the parent's median by
# which the metric may worsen.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("op_wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("global_spikes", "spikes", "lower", 0.02),
    ("max_latency_cycles", "cycles", "lower", 0.05),
    ("global_energy_uj", "uJ", "lower", 0.05),
    ("delivered_pct", "%", "higher", 0.01),
)

# metric -> span whose self time (seconds per round) it reports.
SPAN_SELF = {
    "core.pso.optimize_s": "core.pso.optimize",
    "core.partition.repair_batch_s": "core.partition.repair_batch",
    "core.fitness.evaluate_batch_s": "core.fitness.evaluate_batch",
    "core.baselines.greedy_s": "core.baselines.greedy",
    "core.placement.place_s": "core.placement.place",
    "core.mapper.map_snn_s": "core.mapper.map_snn",
    "noc.traffic.build_batch_s": "noc.traffic.build_batch",
    "noc.traffic.build_single_s": "noc.traffic.build_single",
    "noc.fastsim.simulate_many_s": "noc.fastsim.simulate_many",
    "noc.fastsim.simulate_s": "noc.fastsim.simulate",
    "noc.fastsim.engine_build_s": "noc.fastsim.engine_build",
    "noc.parallel.summarize_s": "noc.parallel.summarize",
    "noc.faults.apply_s": "noc.faults.apply",
    "noc.routing.table_build_s": "noc.routing.table_build",
    "core.runtime.timeline_s": "core.runtime.timeline",
    "metrics.report.build_s": "metrics.report.build",
    "framework.artifacts.hash_s": "framework.artifacts.hash",
    "framework.artifacts.lookup_s": "framework.artifacts.lookup",
    "framework.artifacts.disk_store_s": "framework.artifacts.disk_store",
    "framework.artifacts.disk_load_s": "framework.artifacts.disk_load",
    "framework.service.serve_batch_s": "framework.service.serve_batch",
    "framework.pipeline.run_s": "framework.pipeline.run",
    "framework.pipeline.campaign_s": "framework.pipeline.campaign",
}

# metric -> (spans, count key): counts per round taken at those boundaries.
SPAN_COUNT = {
    "core.pso.particle_iters": (("core.pso.optimize",), "particle_iters"),
    "core.fitness.evals": (("core.fitness.evaluate_batch",), "evals"),
    "noc.traffic.packets": (
        ("noc.traffic.build_batch", "noc.traffic.build_single"), "packets"),
    "noc.fastsim.packets": (
        ("noc.fastsim.simulate_many", "noc.fastsim.simulate"), "packets"),
    "noc.fastsim.sim_cycles": (
        ("noc.fastsim.simulate_many", "noc.fastsim.simulate"), "sim_cycles"),
    "noc.faults.draws": (("noc.faults.apply",), "draws"),
    "core.runtime.moves": (("core.runtime.timeline",), "moves"),
    "framework.artifacts.hits": (
        ("framework.artifacts.lookup", "framework.artifacts.disk_load"), "hits"),
    "framework.artifacts.misses": (("framework.artifacts.lookup",), "misses"),
}

_S = [(name, "s", "lower") for name in SPAN_SELF]
_COUNTS = [(name, "count", "higher") for name in SPAN_COUNT]

PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    _S
    + _COUNTS
    + [
        # set-up path, from reporting probes and cold runs
        ("snn.simulate_s", "s", "lower"),
        ("snn.spikes", "count", "higher"),
        ("snn.graph_build_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("ckernel.load_s", "s", "lower"),
        ("ckernel.build_s", "s", "lower"),
        ("cli.map_cold_s", "s", "lower"),
        # ratios measured where the work happens
        ("core.pso.particle_iters_per_s", "1/s", "higher"),
        ("core.partition.repaired_frac", "ratio", "lower"),
        ("noc.fastsim.host_ns_per_packet_hop", "ns", "lower"),
        ("framework.artifacts.hit_ratio", "ratio", "higher"),
        ("framework.artifacts.disk_bytes", "bytes", "lower"),
        ("framework.service.coalesced_s", "s", "lower"),
        ("framework.service.flushes", "count", "lower"),
        ("framework.service.rows_per_flush", "count", "higher"),
        # backend-collapse info, accuracy oracle, tracing cost
        ("noc.parallel.threads2_s", "s", "lower"),
        ("noc.parallel.pool2_s", "s", "lower"),
        ("noc.interconnect.reference_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.coverage_pct", "%", "higher"),
        # the two modelled-hardware metrics not every workload produces
        ("quality.isi_distortion_cycles", "cycles", "lower"),
        ("quality.disorder_pct", "%", "lower"),
        # the run itself: how much was measured, how loaded the host was
        ("harness.rounds", "count", "higher"),
        ("host.spin_min_s", "s", "lower"),
        ("host.spin_p50_over_min", "ratio", "lower"),
    ]
)

def _median_over_rounds(rounds, spans: Iterable[str], key: str) -> float:
    per_round = [
        sum(layers.get(span, {}).get(key, 0.0) for span in spans)
        for layers in rounds.values()
    ]
    return statistics.median(per_round) if per_round else 0.0


def from_trace(recorder) -> Dict[str, float]:
    """Per-round layer times, counts and ratios from the recorded spans.

    Times are medians over the traced rounds of the per-round self-time
    sum; counts repeat exactly, so the median is the value.
    """
    rounds = recorder.per_round()
    out: Dict[str, float] = {}
    for metric, span in SPAN_SELF.items():
        out[metric] = _median_over_rounds(rounds, (span,), "self")
    for metric, (spans, key) in SPAN_COUNT.items():
        out[metric] = _median_over_rounds(rounds, spans, key)

    pso_total = _median_over_rounds(rounds, ("core.pso.optimize",), "total")
    out["core.pso.particle_iters_per_s"] = _ratio(
        out["core.pso.particle_iters"], pso_total)
    out["core.partition.repaired_frac"] = _ratio(
        _median_over_rounds(rounds, ("core.partition.repair_batch",), "repaired"),
        _median_over_rounds(rounds, ("core.partition.repair_batch",), "decoded"),
    )
    engines = ("noc.fastsim.simulate_many", "noc.fastsim.simulate")
    out["noc.fastsim.host_ns_per_packet_hop"] = _ratio(
        1e9 * _median_over_rounds(rounds, engines, "self"),
        _median_over_rounds(rounds, engines, "hops"),
    )
    lookups = out["framework.artifacts.hits"] + out["framework.artifacts.misses"]
    out["framework.artifacts.hit_ratio"] = _ratio(
        out["framework.artifacts.hits"], lookups)

    # Share of the op wall time that lies inside a named layer (member
    # threads of a coalesced group can push it past 100).
    covered: List[float] = []
    for layers in rounds.values():
        op_total = layers.get("op", {}).get("total", 0.0)
        named = sum(v["self"] for name, v in layers.items() if name != "op")
        if op_total > 0:
            covered.append(100.0 * named / op_total)
    out["trace.coverage_pct"] = statistics.median(covered) if covered else 0.0
    return out


def _ratio(value: float, base: float) -> float:
    return value / base if base else 0.0
