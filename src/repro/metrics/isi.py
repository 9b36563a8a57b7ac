"""Inter-spike-interval distortion (paper Section II).

Temporally coded SNNs carry information in the *gaps* between spikes.
When the interconnect delays some packets more than others (congestion,
arbitration), the ISIs observed by the receiving neuron differ from those
the sender emitted.  Per (source neuron, destination) flow we compare the
sender's consecutive injection intervals against the receiver's
consecutive delivery intervals; the flow's distortion is the maximum
absolute difference (the paper computes "the maximum difference between
the inter-spike interval of source and destination neurons"), and the
application-level number reported in Table II is the average over flows,
in interconnect cycles.

Computed from ``stats.delivery_columns()`` with whole-array numpy.  The
deliveries are sorted twice, by ``(src_neuron, dst_node, injected_cycle)``
and by ``(src_neuron, dst_node, delivered_cycle)``: a flow's injection and
delivery times are each sorted on their own (the k-th interval sent is
compared with the k-th interval received, whichever spikes bound it), so
ties within a column need no tie-break — equal values sort to equal
values.  Both orders lay the flows out in the same segments, so one
``np.diff`` per column plus a same-flow mask gives every interval pair,
and a segmented maximum gives the per-flow distortion.  Those maxima are
integers, so their mean and maximum do not depend on flow order.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.noc.stats import NocStats


def _flow_maxima(stats: NocStats) -> np.ndarray:
    """The distortion of each flow with >= 2 deliveries."""
    columns = stats.delivery_columns()
    neuron, dst = columns.src_neuron, columns.dst_node
    by_injection = np.lexsort((columns.injected_cycle, dst, neuron))
    by_delivery = np.lexsort((columns.delivered_cycle, dst, neuron))
    neuron, dst = neuron[by_injection], dst[by_injection]
    same_flow = (neuron[1:] == neuron[:-1]) & (dst[1:] == dst[:-1])
    # Interval k of a flow, sent vs received; zero across flow boundaries
    # so a segment's maximum only sees its own flow.
    distortion = np.abs(
        np.diff(columns.injected_cycle[by_injection])
        - np.diff(columns.delivered_cycle[by_delivery])
    )
    distortion[~same_flow] = 0
    starts = np.concatenate(([0], np.flatnonzero(~same_flow) + 1))
    sizes = np.diff(np.concatenate((starts, [neuron.size])))
    # Flows with one delivery have no ISI; every start kept here has a
    # same-flow successor, so it indexes into the (n - 1)-long diffs.
    starts = starts[sizes >= 2]
    return np.maximum.reduceat(distortion, starts).astype(np.float64)


def isi_distortion_summary(stats: NocStats) -> Tuple[float, float]:
    """``(mean, worst)`` per-flow ISI distortion from one pass (cycles)."""
    maxima = _flow_maxima(stats)
    if maxima.size == 0:
        return 0.0, 0.0
    return float(maxima.mean()), float(maxima.max())

