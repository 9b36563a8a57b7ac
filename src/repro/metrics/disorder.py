"""Spike disorder count (paper Section II).

A spike is *disordered* at its destination when some spike injected
strictly later overtakes it — the receiver observes information in the
wrong order, which the paper identifies as a source of information loss
(its A/B/C example: crossbar B wins arbitration over crossbar A, so B's
later spike lands at C first).

Each destination's deliveries are taken in arrival order and every spike
whose injection time is strictly earlier than the latest injection time
already delivered is flagged: such a spike was overtaken by at least one
later-injected spike.

Computed from ``stats.delivery_columns()`` with whole-array numpy: one
sort by ``(dst_node, delivered_cycle, uid)`` — ``uid`` breaks ties
between spikes arriving at one destination in the same cycle, the order
the record form always used — then a running maximum of the injection
cycle that restarts at every destination.  The restart is done by
numbering the destinations and ranking the injection cycles (both dense,
below the delivery count ``n``) and accumulating ``destination * n +
rank``: a later destination's keys exceed every earlier one's, and the
key stays under ``n ** 2`` however large the cycle values are.  Equal
injection cycles share a rank, so the comparison stays strict.
Injection cycles are non-negative (a packet with a negative one is
rejected at construction), so the first arrival is never overtaken.
"""

from __future__ import annotations

import numpy as np

from repro.noc.stats import NocStats


def _overtaken(stats: NocStats) -> np.ndarray:
    """Per delivery (in the sorted order), whether it was overtaken."""
    columns = stats.delivery_columns()
    dst_index = np.unique(columns.dst_node, return_inverse=True)[1]
    order = np.lexsort((columns.uid, columns.delivered_cycle, dst_index))
    dst_index = dst_index[order]
    rank = np.unique(columns.injected_cycle[order], return_inverse=True)[1]
    key = dst_index * dst_index.size + rank
    return key < np.maximum.accumulate(key)


def disorder_count(stats: NocStats) -> int:
    """Number of delivered spikes that were overtaken by later injections."""
    return int(_overtaken(stats).sum())


def disorder_fraction(stats: NocStats) -> float:
    """Paper Table II row: disordered spikes / total delivered spikes."""
    total = stats.delivered_count
    if total == 0:
        return 0.0
    return disorder_count(stats) / total

