"""Aggregated metric report — one row of the paper's Table II.

:func:`build_report` combines a mapping result, the NoC statistics of its
global traffic, and the architecture's energy model into the full metric
set the paper evaluates: ISI distortion, disorder count, throughput,
latency, and local/global/total energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.mapper import MappingResult
from repro.hardware.architecture import Architecture
from repro.metrics.disorder import disorder_fraction
from repro.metrics.isi import isi_distortion_summary
from repro.noc.stats import NocStats
from repro.utils.tables import format_table


@dataclass(frozen=True)
class MetricReport:
    """All paper metrics for one (application, architecture, method) run."""

    app: str
    method: str
    # SNN-specific metrics (paper's introduced metrics)
    isi_distortion_cycles: float
    isi_distortion_worst_cycles: float
    disorder_fraction: float
    # Conventional interconnect metrics
    throughput_aer_per_ms: float
    max_latency_cycles: int
    mean_latency_cycles: float
    # Energy
    local_energy_pj: float
    global_energy_pj: float
    # Mapping profile
    global_spikes: float
    local_spikes: float
    global_synapses: int
    local_synapses: int
    delivered_packets: int
    undelivered_packets: int
    # Multi-chip breakdown (all zero / one on single-chip fabrics)
    n_chips: int = 1
    inter_chip_hops: int = 0
    bridge_crossings: int = 0
    mean_inter_chip_latency_cycles: float = 0.0

    @property
    def total_energy_pj(self) -> float:
        return self.local_energy_pj + self.global_energy_pj

    @property
    def disorder_percent(self) -> float:
        return self.disorder_fraction * 100.0

    def to_dict(self) -> Dict[str, float]:
        d = {
            "app": self.app,
            "method": self.method,
            "isi_distortion_cycles": self.isi_distortion_cycles,
            "isi_distortion_worst_cycles": self.isi_distortion_worst_cycles,
            "disorder_percent": self.disorder_percent,
            "throughput_aer_per_ms": self.throughput_aer_per_ms,
            "max_latency_cycles": self.max_latency_cycles,
            "mean_latency_cycles": self.mean_latency_cycles,
            "local_energy_pj": self.local_energy_pj,
            "global_energy_pj": self.global_energy_pj,
            "total_energy_pj": self.total_energy_pj,
            "global_spikes": self.global_spikes,
            "local_spikes": self.local_spikes,
            "global_synapses": self.global_synapses,
            "local_synapses": self.local_synapses,
            "delivered_packets": self.delivered_packets,
            "undelivered_packets": self.undelivered_packets,
            "n_chips": self.n_chips,
            "inter_chip_hops": self.inter_chip_hops,
            "bridge_crossings": self.bridge_crossings,
            "mean_inter_chip_latency_cycles": (
                self.mean_inter_chip_latency_cycles
            ),
        }
        return d

    def table(self) -> str:
        """Render as the paper's Table II row block."""
        rows = [
            ("ISI distortion (cycles)", f"{self.isi_distortion_cycles:.1f}"),
            ("Disorder count (%)", f"{self.disorder_percent:.2f}"),
            ("Throughput (AER/ms)", f"{self.throughput_aer_per_ms:.2f}"),
            ("Latency (cycles)", str(self.max_latency_cycles)),
            ("Global energy (uJ)", f"{self.global_energy_pj * 1e-6:.3f}"),
            ("Local energy (uJ)", f"{self.local_energy_pj * 1e-6:.3f}"),
        ]
        if self.n_chips > 1:
            rows.extend(
                [
                    ("Chips", str(self.n_chips)),
                    ("Inter-chip hops", str(self.inter_chip_hops)),
                    ("Bridge crossings", str(self.bridge_crossings)),
                    (
                        "Inter-chip latency (cycles)",
                        f"{self.mean_inter_chip_latency_cycles:.1f}",
                    ),
                ]
            )
        return format_table(
            [f"{self.app} / {self.method}", "value"], rows
        )


@dataclass(frozen=True)
class CampaignDraw:
    """One Monte-Carlo fault draw's metrics for one mapping.

    ``fault_seed`` is the child seed the draw's faults were drawn with
    (``None`` for the healthy baseline measurement, which has no
    faults to draw).
    """

    mapping: str
    level: int  # number of injected link faults
    draw: int  # draw index within the level (-1 for the healthy baseline)
    fault_seed: Optional[int]
    failed_links: Tuple[Tuple[int, int], ...]
    mean_latency_cycles: float
    max_latency_cycles: int
    global_energy_pj: float
    delivered_packets: int
    undelivered_packets: int

    @property
    def survived(self) -> bool:
        """Full delivery: every injected packet reached its sink."""
        return self.undelivered_packets == 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "mapping": self.mapping,
            "level": self.level,
            "draw": self.draw,
            "fault_seed": self.fault_seed,
            "failed_links": [list(link) for link in self.failed_links],
            "mean_latency_cycles": self.mean_latency_cycles,
            "max_latency_cycles": self.max_latency_cycles,
            "global_energy_pj": self.global_energy_pj,
            "delivered_packets": self.delivered_packets,
            "undelivered_packets": self.undelivered_packets,
            "survived": self.survived,
        }


@dataclass(frozen=True)
class CampaignLevelStats:
    """Aggregate of one mapping's draws at one fault level."""

    mapping: str
    level: int
    draws: int
    survival_rate: float  # fraction of draws with full delivery
    mean_latency_overhead: float  # mean latency multiplier vs healthy
    p95_latency_overhead: float
    mean_energy_overhead: float
    mean_undelivered: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "mapping": self.mapping,
            "level": self.level,
            "draws": self.draws,
            "survival_rate": self.survival_rate,
            "mean_latency_overhead": self.mean_latency_overhead,
            "p95_latency_overhead": self.p95_latency_overhead,
            "mean_energy_overhead": self.mean_energy_overhead,
            "mean_undelivered": self.mean_undelivered,
        }


def _ratio(value: float, base: float) -> float:
    return value / base if base else 1.0


@dataclass
class CampaignSummary:
    """Monte-Carlo fault campaign results (see ``run_fault_campaign``).

    Holds the per-draw records of every ``(mapping, level, draw)``
    triple plus one healthy (0-fault) baseline per mapping, and
    aggregates them into survival rates and latency/energy overhead
    distributions — robustness measured over a fault *distribution*
    instead of a single seeded draw.
    """

    app: str
    topology_kind: str
    levels: Tuple[int, ...]
    draws_per_level: int
    labels: Tuple[str, ...]
    # Filled in by the campaign as it measures.
    healthy: Dict[str, CampaignDraw] = field(default_factory=dict, init=False)
    draws: List[CampaignDraw] = field(default_factory=list, init=False)

    def draws_for(self, mapping: str, level: int) -> List[CampaignDraw]:
        return [
            d for d in self.draws if d.mapping == mapping and d.level == level
        ]

    def baseline(self, mapping: str) -> CampaignDraw:
        try:
            return self.healthy[mapping]
        except KeyError:
            raise ValueError(
                f"campaign has no healthy baseline for mapping "
                f"{mapping!r} (have {sorted(self.healthy)})"
            ) from None

    def survival_rate(self, mapping: str, level: int) -> float:
        draws = self.draws_for(mapping, level)
        if not draws:
            raise ValueError(
                f"campaign has no draws for mapping {mapping!r} "
                f"at level {level}"
            )
        return sum(1 for d in draws if d.survived) / len(draws)

    def latency_overheads(self, mapping: str, level: int) -> List[float]:
        base = self.baseline(mapping).mean_latency_cycles
        return [
            _ratio(d.mean_latency_cycles, base)
            for d in self.draws_for(mapping, level)
        ]

    def level_stats(self, mapping: str, level: int) -> CampaignLevelStats:
        draws = self.draws_for(mapping, level)
        if not draws:
            raise ValueError(
                f"campaign has no draws for mapping {mapping!r} "
                f"at level {level}"
            )
        base = self.baseline(mapping)
        overheads = np.asarray(self.latency_overheads(mapping, level))
        energy = [
            _ratio(d.global_energy_pj, base.global_energy_pj) for d in draws
        ]
        return CampaignLevelStats(
            mapping=mapping,
            level=level,
            draws=len(draws),
            survival_rate=self.survival_rate(mapping, level),
            mean_latency_overhead=float(overheads.mean()),
            p95_latency_overhead=float(np.percentile(overheads, 95.0)),
            mean_energy_overhead=float(np.mean(energy)),
            mean_undelivered=float(
                np.mean([d.undelivered_packets for d in draws])
            ),
        )

    def stats(self) -> List[CampaignLevelStats]:
        return [
            self.level_stats(label, level)
            for label in self.labels
            for level in self.levels
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            "app": self.app,
            "topology_kind": self.topology_kind,
            "levels": list(self.levels),
            "draws_per_level": self.draws_per_level,
            "labels": list(self.labels),
            "healthy": {k: v.to_dict() for k, v in self.healthy.items()},
            "draws": [d.to_dict() for d in self.draws],
            "stats": [s.to_dict() for s in self.stats()],
        }

    def table(self) -> str:
        rows = [
            (
                s.mapping,
                str(s.level),
                str(s.draws),
                f"{s.survival_rate * 100.0:.0f}%",
                f"{s.mean_latency_overhead:.3f}x",
                f"{s.p95_latency_overhead:.3f}x",
                f"{s.mean_energy_overhead:.3f}x",
                f"{s.mean_undelivered:.1f}",
            )
            for s in self.stats()
        ]
        return format_table(
            [
                "mapping",
                "faults",
                "draws",
                "survival",
                "mean latency",
                "p95 latency",
                "mean energy",
                "undelivered",
            ],
            rows,
        )


def build_report(
    app: str,
    mapping: MappingResult,
    stats: NocStats,
    architecture: Architecture,
    topology=None,
) -> MetricReport:
    """Assemble a :class:`MetricReport` from one pipeline run's artifacts.

    ``topology`` is the fabric the stats were simulated on; when omitted
    it is rebuilt from the architecture.  On a multi-chip fabric it
    feeds the bridge energy term and the inter-chip breakdown fields.
    """
    from repro.noc.multichip import MultiChipTopology, chip_breakdown

    if topology is None:
        topology = architecture.build_topology()
    n_chips = 1
    inter_hops = crossings = 0
    mean_inter_latency = 0.0
    if isinstance(topology, MultiChipTopology) and topology.n_chips > 1:
        breakdown = chip_breakdown(stats, topology)
        n_chips = topology.n_chips
        inter_hops = breakdown.inter_chip_hops
        crossings = breakdown.bridge_crossings
        mean_inter_latency = breakdown.mean_inter_latency
    energy = architecture.energy
    isi_mean, isi_worst = isi_distortion_summary(stats)
    return MetricReport(
        app=app,
        method=mapping.method,
        isi_distortion_cycles=isi_mean,
        isi_distortion_worst_cycles=isi_worst,
        disorder_fraction=disorder_fraction(stats),
        throughput_aer_per_ms=stats.throughput_aer_per_ms(
            architecture.cycles_per_ms
        ),
        max_latency_cycles=stats.max_latency(),
        mean_latency_cycles=stats.mean_latency(),
        local_energy_pj=energy.local_energy_pj(
            mapping.local_spikes, architecture.neurons_per_crossbar
        ),
        global_energy_pj=energy.global_energy_pj(stats, topology),
        global_spikes=mapping.global_spikes,
        local_spikes=mapping.local_spikes,
        global_synapses=mapping.global_synapses,
        local_synapses=mapping.local_synapses,
        delivered_packets=stats.delivered_count,
        undelivered_packets=stats.undelivered_count,
        n_chips=n_chips,
        inter_chip_hops=inter_hops,
        bridge_crossings=crossings,
        mean_inter_chip_latency_cycles=mean_inter_latency,
    )
