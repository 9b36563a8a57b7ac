"""Interconnect congestion analysis.

Latency averages hide *where* an interconnect hurts.  These helpers turn
the per-link load counters of a :class:`~repro.noc.stats.NocStats` into
congestion diagnostics: utilization distribution, imbalance (Gini
coefficient), and hotspot identification — the quantities a platform
designer inspects when a mapping's worst-case latency looks wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.noc.stats import NocStats
from repro.noc.topology import Topology


@dataclass(frozen=True)
class CongestionReport:
    """Link-level congestion summary for one simulation."""

    n_links_used: int
    n_links_total: int
    max_link_load: int
    mean_link_load: float
    gini: float
    hotspots: Tuple[Tuple[Tuple[int, int], int], ...]


def gini_coefficient(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative load distribution.

    0 = perfectly even load, ->1 = all traffic on one link.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    # Checked before the zero-sum shortcut: [-1, 1] sums to zero too.
    if (v < 0).any():
        raise ValueError("loads must be non-negative")
    if v.size == 0 or v.sum() == 0:
        return 0.0
    n = v.size
    index = np.arange(1, n + 1)
    return float((2 * (index * v).sum()) / (n * v.sum()) - (n + 1) / n)


def congestion_report(
    stats: NocStats,
    topology: Topology,
) -> CongestionReport:
    """Summarize link utilization of a finished NoC simulation.

    Loads are per *directed* link; the denominator counts both directions
    of every physical link in the topology.
    """
    n_total = 2 * topology.graph.number_of_edges()
    loads = np.asarray(list(stats.link_loads.values()), dtype=np.int64)
    # Include idle links in the distribution so imbalance reflects the
    # whole fabric, not just the used subset.
    padded = np.zeros(max(n_total, loads.size), dtype=np.float64)
    padded[: loads.size] = loads
    return CongestionReport(
        n_links_used=int(loads.size),
        n_links_total=n_total,
        max_link_load=int(loads.max()) if loads.size else 0,
        mean_link_load=float(loads.mean()) if loads.size else 0.0,
        gini=gini_coefficient(padded),
        hotspots=tuple(stats.hottest_links()),
    )

