"""The Fig. 4 flow: spike graph → partitioner → NoC → metrics.

The SNN-simulation stage happens upstream (applications produce
:class:`~repro.snn.graph.SpikeGraph` objects); the pipeline takes the
graph through mapping, interconnect simulation and metric aggregation.
:func:`run_fault_campaign` measures mappings on randomly degraded
fabrics, level by level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.mapper import SEED_FREE_METHODS, MappingResult, _map_snn
from repro.core.pso import PSOConfig
from repro.hardware.architecture import Architecture
from repro.metrics.report import MetricReport, build_report
from repro.noc.fastsim import FastInterconnect, build_interconnect, simulate_fabrics
from repro.noc.faults import inject_random_faults
from repro.noc.interconnect import NocConfig
from repro.noc.stats import NocStats
from repro.noc.topology import Topology
from repro.noc.traffic import (
    ColumnarSchedule,
    SpikeEvents,
    build_injections,
    schedule_addressing,
)
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
    noc_config:
        Interconnect parameters, including ``backend="reference"|"fast"``
        to pick the simulation engine (see :mod:`repro.noc.fastsim`).
        Also forwarded to the ``"noc"`` objective's fitness (backend
        forced to "fast" there), so the swarm optimizes the same fabric
        the final mapping is measured on.  The swarm's engine is the
        final run's engine when that run would build an equal one: no
        ``faults`` (the same healthy fabric) and a ``backend="fast"``
        config (the same fields).  Otherwise the final run builds its
        own engine, of the kind ``noc_config`` names.
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
        # What the mapping built of the graph and the healthy fabric
        # serves every stage below; a memo hit built nothing.
        mapping, derived = _map_snn(
            graph, architecture, method=method, seed=seed,
            pso_config=pso_config, warm_start=True, placement=True,
            objective=objective, noc_config=noc_config, cache=cache,
            warm_seeds=warm_seeds, spare_capacity=spare_capacity,
        )
        with obs.span("pipeline.build_topology"):
            healthy = derived.topology or architecture.build_topology()
            topology, failed_links = _draw_faults(healthy, faults, fault_seed)
        with obs.span("pipeline.build_schedule"):
            events = derived.events or SpikeEvents(
                graph, architecture.cycles_per_ms, matrix=derived.matrix
            )
            schedule = build_injections(
                graph, mapping.assignment, topology,
                cycles_per_ms=architecture.cycles_per_ms, events=events,
            )
        with obs.span("pipeline.simulate"):
            # The swarm's engine, where the run would build an equal one;
            # otherwise a new engine, on the mapping's routing table when
            # it simulates the healthy fabric.
            engine = derived.engine
            if (
                engine is None
                or topology is not healthy
                or engine.config != noc_config
            ):
                routing = derived.routing if topology is healthy else None
                engine = build_interconnect(topology, routing, config=noc_config)
            stats = engine.simulate(schedule)
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
    """One run's schedules: one per (mapping label, fabric addressing),
    all cut from the run's one :class:`~repro.noc.traffic.SpikeEvents`."""

    def __init__(self, graph, architecture) -> None:
        self._events = SpikeEvents(graph, architecture.cycles_per_ms)
        self.built: dict = {}

    def on(self, topology, assignment, label=None) -> ColumnarSchedule:
        key = (label, schedule_addressing(topology))
        if key not in self.built:
            events = self._events
            self.built[key] = build_injections(
                events.graph, assignment, topology,
                cycles_per_ms=events.cycles_per_ms, events=events,
            )
        return self.built[key]


def _copy_pipeline_result(result: PipelineResult) -> PipelineResult:
    """Shallow-copy a cached result so callers cannot mutate the cache."""
    from repro.core.mapper import _copy_mapping_result

    return replace(
        result,
        mapping=_copy_mapping_result(result.mapping),
        failed_links=list(result.failed_links),
    )


def _fault_levels(levels: Sequence[int]) -> Tuple[int, ...]:
    """``levels`` as ints; a campaign sweeps each non-negative level once."""
    levels = tuple(int(v) for v in levels)
    negative = [v for v in levels if v < 0]
    if negative:
        raise ValueError(f"fault levels must be non-negative, got {negative[0]}")
    repeated = sorted({v for v in levels if levels.count(v) > 1})
    if repeated:
        raise ValueError(f"fault levels must be distinct, got {repeated} twice")
    return levels


def run_fault_campaign(
    graph: SpikeGraph,
    architecture: Architecture,
    mappings: Dict[str, MappingResult],
    fault_levels: Sequence[int] = (1, 2, 4),
    draws: int = 8,
    campaign_seed: int = 0,
    noc_config: Optional[NocConfig] = None,
    cache=None,
) -> "CampaignSummary":
    """Monte-Carlo fault campaign: N seeded draws per fault level.

    A campaign samples the fault *distribution*: every ``(level,
    draw)`` cell gets its own child seed via
    :func:`~repro.utils.rng.derive_seed`, so draws are independent yet
    individually reproducible — the same ``campaign_seed`` always
    regenerates the same fault sets, regardless of execution order.
    ``draws=1`` measures one fault draw per level.

    A level is drawn first and simulated after: every cell of the level
    draws its faults (one :func:`~repro.noc.faults.inject_random_faults`
    call each), cells whose failed-link sets are equal share one
    fabric, and every distinct fabric × mapping of the level is one
    :func:`~repro.noc.fastsim.simulate_fabrics` dispatch — one kernel
    call on the fast backend; the reference backend runs one engine per
    distinct fabric.  Each cell then gets its own rows (its draw, seed
    and failed links) in ``(level, draw, mapping)`` order.  Each other
    piece of work is done once too: a mapping's schedule is reused on
    every draw that keeps the healthy fabric's addressing
    (:func:`~repro.noc.traffic.schedule_addressing`: link faults do; a
    dead bridge deletes relay routers, and those draws build their own),
    and level-0 draws take the healthy result instead of simulating it
    again.  The span's ``schedules_built`` / ``fabrics_simulated``
    (the healthy fabric plus each distinct fault set) and the
    ``campaign.schedules_built`` / ``campaign.healthy_reuses`` /
    ``campaign.fabric_reuses`` counters report what was shared.

    Parameters
    ----------
    mappings:
        ``{label: MappingResult}`` mappings to measure under identical
        fault draws (e.g. a fault-aware vs. a baseline mapping), at
        least one; the campaign maps nothing itself.
    fault_levels / draws:
        Link-fault counts to sweep, and seeded draws per level.  A
        negative or repeated level raises ``ValueError`` before
        anything is mapped or simulated.
    cache:
        An :class:`~repro.framework.artifacts.ArtifactCache`.  Memoizes
        every finished ``(level, draw)`` whole (kind ``sweep-point``, on
        disk when the cache has a directory), keyed by what shapes it:
        graph and architecture content, every mapping's label and
        assignment, the NoC config, the level, the draw and its child
        seed.  A level's missing draws are computed together and stored
        one entry each as the level finishes, so a killed run loses at
        most the level in flight; run again on the same directory it
        computes only the missing draws (a grown grid only the new ones),
        and a changed seed, mapping or config hits nothing.
    """
    from repro.framework.artifacts import (
        _sweep_points,
        architecture_token,
        config_token,
        graph_token,
        stable_hash,
    )
    from repro.metrics.report import CampaignDraw, CampaignSummary
    from repro.utils.rng import derive_seed

    if draws <= 0:
        raise ValueError(f"draws must be positive, got {draws}")
    levels = _fault_levels(fault_levels)
    if not mappings:
        raise ValueError("campaign needs at least one mapping to measure")
    labels = tuple(mappings)

    healthy = architecture.build_topology()
    schedules = _Schedules(graph, architecture)
    fabrics_simulated = 0

    def measure(topologies: List[Topology]) -> List[Tuple[CampaignDraw, ...]]:
        """One row per mapping on each fabric, as a healthy-form
        ``CampaignDraw`` (its cells fill in their own identity): one
        engine per fabric, every fabric's schedules in one dispatch."""
        nonlocal fabrics_simulated
        fabrics_simulated += len(topologies)
        jobs = [
            (
                build_interconnect(topology, config=noc_config),
                [
                    schedules.on(topology, mappings[label].assignment, label)
                    for label in labels
                ],
            )
            for topology in topologies
        ]
        if isinstance(jobs[0][0], FastInterconnect):
            all_stats = simulate_fabrics(jobs)
        else:
            # backend="reference": one engine per fabric reused across
            # the mappings, which relies on Interconnect starting every
            # run empty.
            all_stats = [[engine.simulate(s) for s in batch] for engine, batch in jobs]
        return [
            tuple(
                row(label, stats, topology)
                for label, stats in zip(labels, fabric_stats)
            )
            for topology, fabric_stats in zip(topologies, all_stats)
        ]

    def row(label: str, stats: NocStats, topology: Topology) -> CampaignDraw:
        # One read of the latency column for both figures, computed as
        # NocStats.mean_latency() / max_latency() compute them.
        latency = stats.latencies()
        return CampaignDraw(
            mapping=label,
            level=0,
            draw=-1,
            fault_seed=None,
            failed_links=(),
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
        levels=len(levels),
        draws=draws,
        mappings=len(labels),
    )
    with campaign_span:
        if obs.enabled:
            obs.inc("campaign.runs")

        summary = CampaignSummary(
            app=graph.name,
            topology_kind=healthy.kind,
            levels=levels,
            draws_per_level=draws,
            labels=labels,
        )
        (healthy_rows,) = measure([healthy])
        for point in healthy_rows:
            summary.healthy[point.mapping] = point

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

        def measure_level(
            level: int, cells: List[Tuple[int, int]]
        ) -> List[Tuple[CampaignDraw, ...]]:
            """Draw every cell, simulate each distinct fault set once,
            and give each cell its own rows."""
            with obs.span("campaign.level", level=level, draws=len(cells)) as span:
                drawn = []
                fabric_of: dict = {}  # normalized failed-link set -> index
                topologies: List[Topology] = []
                for draw, child in cells:
                    topology, failed = _draw_faults(healthy, level, child)
                    fault_set = frozenset((min(u, v), max(u, v)) for u, v in failed)
                    if fault_set and fault_set not in fabric_of:
                        fabric_of[fault_set] = len(topologies)
                        topologies.append(topology)
                    drawn.append((draw, child, failed, fault_set))
                # No fault drawn: that is the healthy fabric, whose rows
                # the campaign already has.
                rows = measure(topologies) if topologies else []
                points = [
                    tuple(
                        replace(
                            base, level=level, draw=draw, fault_seed=child,
                            failed_links=tuple(tuple(link) for link in failed),
                        )
                        for base in (
                            rows[fabric_of[fault_set]] if fault_set else healthy_rows
                        )
                    )
                    for draw, child, failed, fault_set in drawn
                ]
                span.set(fabrics=len(topologies))
            if obs.enabled:
                faulted = sum(1 for *_, fault_set in drawn if fault_set)
                obs.inc("campaign.draws", len(cells))
                obs.inc("campaign.healthy_reuses", len(cells) - faulted)
                obs.inc("campaign.fabric_reuses", faulted - len(topologies))
                obs.inc(
                    "campaign.survivals",
                    sum(1 for point in points for r in point if r.survived),
                )
            return points

        for level in levels:
            cells = [
                (draw, derive_seed(campaign_seed, level, draw))
                for draw in range(draws)
            ]
            for point in _sweep_points(
                cache,
                replays,
                [lambda cell=cell: (problem, level, *cell) for cell in cells],
                lambda missing: measure_level(level, [cells[i] for i in missing]),
            ):
                summary.draws.extend(point)
        if obs.enabled:
            obs.inc("campaign.schedules_built", len(schedules.built))
            campaign_span.set(
                total_draws=len(levels) * draws,
                schedules_built=len(schedules.built),
                fabrics_simulated=fabrics_simulated,
            )
    return summary
