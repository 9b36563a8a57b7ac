"""Fig. 6: architecture exploration on digit recognition.

Sweep the crossbar size from 90 to 1440 neurons (as the paper does),
mapping with PSO at each point and measuring on the NoC.  Expected shape
(paper Section V-C):

- global synapse energy *decreases* with crossbar size (more synapses fit
  locally);
- local synapse energy *increases* (wordlines get longer and more events
  stay on-tile);
- worst-case global latency decreases (less congestion);
- total energy has its minimum at an intermediate size.
"""

from __future__ import annotations

from repro.framework.reproduce import reproduce_fig6

PINNED = "ee291fd488759856"


def test_fig6_architecture_exploration(benchmark, assert_pinned):
    points = benchmark.pedantic(reproduce_fig6, rounds=1, iterations=1)
    assert_pinned(PINNED)

    first, last = points[0], points[-1]

    # Global energy falls as crossbars grow.
    assert last.global_energy_uj < first.global_energy_uj

    # Local energy rises as crossbars grow.
    assert last.local_energy_uj > first.local_energy_uj

    # Worst-case interconnect latency falls (less congestion).
    assert last.max_latency_cycles <= first.max_latency_cycles

    # Global spike count is monotone non-increasing across the sweep
    # (each size step only adds mapping freedom).
    globals_ = [p.global_spikes for p in points]
    for a, b in zip(globals_, globals_[1:]):
        assert b <= a * 1.10, "global traffic should trend down with size"

    # The largest crossbar hosts everything: traffic goes to zero.
    assert last.global_spikes == 0.0
