"""The Fig. 4 flow: spike graph → partitioner → NoC → metrics.

The SNN-simulation stage happens upstream (applications produce
:class:`~repro.snn.graph.SpikeGraph` objects); the pipeline takes the
graph through mapping, interconnect simulation and metric aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.mapper import SEED_FREE_METHODS, MappingResult, map_snn
from repro.core.pso import PSOConfig
from repro.hardware.architecture import Architecture
from repro.metrics.report import (
    DegradationCurve,
    MetricReport,
    build_report,
    degradation_point,
)
from repro.noc.fastsim import build_interconnect
from repro.noc.faults import inject_random_faults
from repro.noc.interconnect import NocConfig
from repro.noc.stats import NocStats
from repro.noc.topology import Topology
from repro.noc.traffic import ColumnarSchedule, build_injections, schedule_addressing
from repro.obs import get_observer
from repro.snn.graph import SpikeGraph
from repro.utils.rng import SeedLike, replayable


@dataclass
class PipelineResult:
    """Everything one end-to-end run produced."""

    graph: SpikeGraph
    architecture: Architecture
    mapping: MappingResult
    schedule: ColumnarSchedule
    noc_stats: NocStats
    report: MetricReport
    topology: Optional[Topology] = None
    failed_links: List[Tuple[int, int]] = field(default_factory=list)

    def describe(self) -> str:
        return "\n".join(
            [
                self.graph.describe(),
                self.architecture.describe(),
                self.mapping.describe(),
                self.noc_stats.describe(),
                self.report.table(),
            ]
        )


def run_pipeline(
    graph: SpikeGraph,
    architecture: Architecture,
    method: str = "pso",
    seed: SeedLike = None,
    pso_config: Optional[PSOConfig] = None,
    noc_config: Optional[NocConfig] = None,
    simulate_noc: bool = True,
    objective: str = "packets",
    faults: int = 0,
    fault_seed: SeedLike = None,
    cache=None,
    warm_seeds=None,
    spare_capacity: float = 0.0,
) -> PipelineResult:
    """Map ``graph`` onto ``architecture`` and measure the result.

    Parameters
    ----------
    method:
        Partitioner: "pso", "pacman", "neutrams", "random", "greedy" or
        "annealing".
    simulate_noc:
        When false, skip the cycle-accurate interconnect simulation and
        return empty NoC statistics (useful for mapping-only sweeps where
        the fitness value is the quantity of interest).
    noc_config:
        Interconnect parameters, including ``backend="reference"|"fast"``
        to pick the simulation engine (see :mod:`repro.noc.fastsim`).
        Also forwarded to the ``"noc"`` objective's fitness (backend
        forced to "fast" there), so the swarm optimizes the same fabric
        the final mapping is measured on.
    objective:
        PSO objective — "packets", "spikes", or "noc" for
        NoC-in-the-loop swarm scoring (see :func:`~repro.core.mapper.map_snn`).
    faults:
        Random survivable link faults to inject into the built
        topology (:func:`~repro.noc.faults.inject_random_faults`)
        before simulating — the mapping is still optimized for the
        healthy fabric, so the report measures degradation headroom.
        Degraded multi-chip fabrics keep their chip/bridge accounting.
    fault_seed:
        RNG seed of the fault draw (``faults > 0`` only).
    cache:
        An :class:`~repro.framework.artifacts.ArtifactCache`.  Memoizes
        the full :class:`PipelineResult` (in memory) and the mapping (in
        memory and on disk) of deterministic runs — int-seeded mapping,
        int-seeded or absent faults — so a repeat request is answered
        from the cache, bit-identical to recomputing it.  Nothing else
        differs: a miss runs exactly what ``cache=None`` runs.
    warm_seeds:
        Serving-layer hook, forwarded to
        :func:`~repro.core.mapper.map_snn` (see
        :class:`~repro.framework.service.MappingService`).
    spare_capacity:
        Fault-aware headroom fraction forwarded to
        :func:`~repro.core.mapper.map_snn`: every crossbar keeps that
        fraction of its slots free and the mapping spreads load so
        runtime evacuation stays cheap.
    """
    memo_key = None
    if cache is not None:
        deterministic_mapping = replayable(seed, unused=method in SEED_FREE_METHODS)
        deterministic_faults = replayable(fault_seed, unused=faults == 0)
        if deterministic_mapping and deterministic_faults:
            from repro.framework.artifacts import pipeline_token

            memo_key = cache.key(
                "pipeline-result",
                pipeline_token(
                    graph,
                    architecture,
                    method=method,
                    seed=seed,
                    pso_config=pso_config,
                    noc_config=noc_config,
                    simulate_noc=simulate_noc,
                    objective=objective,
                    faults=faults,
                    fault_seed=fault_seed,
                    warm_seeds=warm_seeds,
                    spare_capacity=spare_capacity,
                ),
            )
            found, cached = cache.get(memo_key)
            if found:
                obs = get_observer()
                if obs.enabled:
                    obs.inc("pipeline.memo_hits")
                return _copy_pipeline_result(cached)

    obs = get_observer()
    pipeline_span = obs.span(
        "run_pipeline",
        graph=graph.name,
        method=method,
        objective=objective,
        faults=faults,
    )
    with pipeline_span:
        if obs.enabled:
            obs.inc("pipeline.runs", method=method)
        mapping = map_snn(
            graph, architecture, method=method, seed=seed,
            pso_config=pso_config, objective=objective,
            noc_config=noc_config, cache=cache, warm_seeds=warm_seeds,
            spare_capacity=spare_capacity,
        )
        with obs.span("pipeline.build_topology"):
            topology, failed_links = _draw_faults(
                architecture.build_topology(), faults, fault_seed
            )
        with obs.span("pipeline.build_schedule"):
            schedule = build_injections(
                graph, mapping.assignment, topology,
                cycles_per_ms=architecture.cycles_per_ms,
            )
        if simulate_noc:
            with obs.span("pipeline.simulate_noc"):
                stats = build_interconnect(
                    topology, config=noc_config
                ).simulate(schedule)
        else:
            stats = NocStats()
        with obs.span("pipeline.report"):
            report = build_report(
                graph.name, mapping, stats, architecture, topology
            )
    result = PipelineResult(
        graph=graph,
        architecture=architecture,
        mapping=mapping,
        schedule=schedule,
        noc_stats=stats,
        report=report,
        topology=topology,
        failed_links=failed_links,
    )
    if memo_key is not None:
        cache.put(memo_key, _copy_pipeline_result(result), persist=False)
    return result


def _draw_faults(healthy, n_faults, seed):
    """``(topology, failed links)`` of one random draw; none = ``healthy``."""
    if not n_faults:
        return healthy, []
    return inject_random_faults(healthy, n_faults, seed=seed)


class _Schedules:
    """One run's schedules: one per (mapping label, fabric addressing)."""

    def __init__(self, graph, architecture) -> None:
        self._args = (graph, architecture.cycles_per_ms)
        self.built: dict = {}

    def on(self, topology, assignment, label=None) -> ColumnarSchedule:
        graph, cycles_per_ms = self._args
        key = (label, schedule_addressing(topology))
        if key not in self.built:
            self.built[key] = build_injections(
                graph, assignment, topology, cycles_per_ms=cycles_per_ms
            )
        return self.built[key]


def _copy_pipeline_result(result: PipelineResult) -> PipelineResult:
    """Shallow-copy a cached result so callers cannot mutate the cache."""
    import dataclasses

    from repro.core.mapper import _copy_mapping_result

    return dataclasses.replace(
        result,
        mapping=_copy_mapping_result(result.mapping),
        failed_links=list(result.failed_links),
    )


def run_fault_sweep(
    graph: SpikeGraph,
    architecture: Architecture,
    fault_counts: Sequence[int] = (0, 1, 2, 4),
    method: str = "pso",
    seed: SeedLike = None,
    fault_seed: SeedLike = None,
    pso_config: Optional[PSOConfig] = None,
    noc_config: Optional[NocConfig] = None,
    mapping: Optional[MappingResult] = None,
    cache=None,
) -> DegradationCurve:
    """Measure one mapping across rising link-fault counts.

    The graph is mapped once (on the healthy fabric, or reuse a
    precomputed ``mapping``), then simulated on each degraded topology
    drawn with :func:`~repro.noc.faults.inject_random_faults` under
    ``fault_seed``.  Traffic reroutes over shortest-path detours; the
    returned :class:`~repro.metrics.report.DegradationCurve` records
    latency, energy and spike disorder per fault level.

    ``cache`` memoizes the mapping (deterministic requests only); the
    fault draws never consult it — a handful of levels, one draw each.
    The restartable form of this study is :func:`run_fault_campaign`.
    """
    if mapping is None:
        mapping = map_snn(
            graph, architecture, method=method, seed=seed,
            pso_config=pso_config, noc_config=noc_config, cache=cache,
        )
    healthy = architecture.build_topology()
    healthy_links = healthy.graph.number_of_edges()
    curve = DegradationCurve(
        app=graph.name, method=mapping.method, topology_kind=healthy.kind
    )
    schedules = _Schedules(graph, architecture)
    for n_faults in fault_counts:
        topology, failed = _draw_faults(healthy, n_faults, fault_seed)
        schedule = schedules.on(topology, mapping.assignment)
        stats = build_interconnect(topology, config=noc_config).simulate(schedule)
        curve.points.append(
            degradation_point(
                n_faults, failed, stats, architecture, topology, healthy_links
            )
        )
    return curve


def run_fault_campaign(
    graph: SpikeGraph,
    architecture: Architecture,
    mappings: Optional[dict] = None,
    fault_levels: Sequence[int] = (1, 2, 4),
    draws: int = 8,
    campaign_seed: int = 0,
    method: str = "pso",
    seed: SeedLike = None,
    pso_config: Optional[PSOConfig] = None,
    noc_config: Optional[NocConfig] = None,
    spare_capacity: float = 0.0,
    cache=None,
) -> "CampaignSummary":
    """Monte-Carlo fault campaign: N seeded draws per fault level.

    Where :func:`run_fault_sweep` rests a resilience claim on a single
    seeded fault draw per level, a campaign samples the fault
    *distribution*: every ``(level, draw)`` cell gets its own child
    seed via :func:`~repro.utils.rng.derive_seed`, so draws are
    independent yet individually reproducible — the same
    ``campaign_seed`` always regenerates the same fault sets,
    regardless of execution order.

    Each piece of work is done once: a mapping's schedule is reused on
    every draw that keeps the healthy fabric's addressing
    (:func:`~repro.noc.traffic.schedule_addressing`: link faults do; a
    dead bridge deletes relay routers, and those draws build their own),
    and level-0 draws take the healthy result instead of simulating it
    again.  The span's ``schedules_built`` / ``fabrics_simulated`` and
    the ``campaign.schedules_built`` / ``campaign.healthy_reuses``
    counters report what was shared.

    Parameters
    ----------
    mappings:
        ``{label: MappingResult}`` mappings to measure under identical
        fault draws (e.g. a fault-aware vs. a baseline mapping).
        ``None`` maps the graph once with ``method``/``seed``/
        ``spare_capacity`` and labels it ``method``.
    fault_levels / draws:
        Link-fault counts to sweep, and seeded draws per level.
    cache:
        An :class:`~repro.framework.artifacts.ArtifactCache`.  Memoizes
        the ``mappings=None`` mapping, and every finished ``(level,
        draw)`` whole (kind ``sweep-point``, on disk when the cache has
        a directory), keyed by what shapes it: graph and architecture
        content, every mapping's label and assignment, the NoC config,
        the level, the draw and its child seed.  A killed campaign run
        again on the same directory therefore computes only the missing
        draws, a grown grid only the new ones, and a changed seed,
        mapping or config hits nothing.
    """
    from repro.framework.artifacts import (
        _sweep_point,
        architecture_token,
        config_token,
        graph_token,
        stable_hash,
    )
    from repro.metrics.report import CampaignDraw, CampaignSummary
    from repro.utils.rng import derive_seed

    if draws <= 0:
        raise ValueError(f"draws must be positive, got {draws}")
    if mappings is None:
        mappings = {
            method: map_snn(
                graph, architecture, method=method, seed=seed,
                pso_config=pso_config, noc_config=noc_config, cache=cache,
                spare_capacity=spare_capacity,
            )
        }
    if not mappings:
        raise ValueError("campaign needs at least one mapping to measure")
    labels = tuple(mappings)

    healthy = architecture.build_topology()
    schedules = _Schedules(graph, architecture)
    fabrics_simulated = 0

    def simulate_all(topology: Topology) -> List[NocStats]:
        """One engine per fabric; all labels' schedules in one batch."""
        nonlocal fabrics_simulated
        fabrics_simulated += 1
        batch = [
            schedules.on(topology, mappings[label].assignment, label)
            for label in labels
        ]
        engine = build_interconnect(topology, config=noc_config)
        if hasattr(engine, "simulate_many"):
            return list(engine.simulate_many(batch))
        # backend="reference": one engine reused across the mappings,
        # which relies on Interconnect starting every run empty.
        return [engine.simulate(s) for s in batch]

    def make_draw(
        label: str, level: int, draw: int, fault_seed, failed,
        stats: NocStats, topology: Topology,
    ) -> CampaignDraw:
        # One read of the latency column for both figures, computed as
        # NocStats.mean_latency() / max_latency() compute them.
        latency = stats.latencies()
        return CampaignDraw(
            mapping=label,
            level=level,
            draw=draw,
            fault_seed=fault_seed,
            failed_links=tuple(tuple(link) for link in failed),
            mean_latency_cycles=float(latency.mean()) if latency.size else 0.0,
            max_latency_cycles=int(latency.max()) if latency.size else 0,
            global_energy_pj=architecture.energy.global_energy_pj(
                stats, topology
            ),
            delivered_packets=stats.delivered_count,
            undelivered_packets=stats.undelivered_count,
        )

    obs = get_observer()
    campaign_span = obs.span(
        "run_fault_campaign",
        graph=graph.name,
        levels=len(tuple(fault_levels)),
        draws=draws,
        mappings=len(labels),
    )
    with campaign_span:
        if obs.enabled:
            obs.inc("campaign.runs")

        summary = CampaignSummary(
            app=graph.name,
            topology_kind=healthy.kind,
            levels=tuple(int(v) for v in fault_levels),
            draws_per_level=draws,
            labels=labels,
        )
        healthy_stats = simulate_all(healthy)
        for label, stats in zip(labels, healthy_stats):
            summary.healthy[label] = make_draw(
                label, 0, -1, None, (), stats, healthy
            )

        # What every draw of this campaign shares, hashed once.
        replays = cache is not None and replayable(campaign_seed)
        problem = None
        if replays:
            problem = stable_hash((
                graph_token(graph),
                architecture_token(architecture, include_name=True),
                tuple((label, mappings[label].assignment) for label in labels),
                config_token(noc_config),
            ))

        def draw_point(
            level: int, draw: int, child
        ) -> Tuple["CampaignDraw", ...]:
            with obs.span("campaign.draw", level=level, draw=draw):
                topology, failed = _draw_faults(healthy, level, child)
                # No fault drawn: this is the healthy fabric, whose
                # result the campaign already has.
                all_stats = simulate_all(topology) if level else healthy_stats
                results = tuple(
                    make_draw(label, level, draw, child, failed, stats,
                              topology)
                    for label, stats in zip(labels, all_stats)
                )
            if obs.enabled:
                obs.inc("campaign.draws")
                if not level:
                    obs.inc("campaign.healthy_reuses")
                obs.inc(
                    "campaign.survivals",
                    sum(1 for r in results if r.survived),
                )
            return results

        for level in summary.levels:
            for draw in range(draws):
                child = derive_seed(campaign_seed, level, draw)
                summary.draws.extend(_sweep_point(
                    cache,
                    replays,
                    lambda: (problem, level, draw, child),
                    lambda: draw_point(level, draw, child),
                ))
        if obs.enabled:
            obs.inc("campaign.schedules_built", len(schedules.built))
            campaign_span.set(
                total_draws=len(summary.levels) * draws,
                schedules_built=len(schedules.built),
                fabrics_simulated=fabrics_simulated,
            )
    return summary
