"""Spike-source populations.

Sources occupy neuron ids like ordinary populations but have no membrane
dynamics; they emit spikes according to a schedule or a stochastic process.
The paper's synthetic workloads drive the first layer from "10 neurons
creating spike trains whose inter-spike interval follows a Poisson process
with mean firing rates between 10 Hz and 100 Hz" — that is
:class:`PoissonSource`.  Temporal-coded inputs (heartbeat) use
:class:`ScheduledSource` with level-crossing-encoded spike times.

Sources hold no run state: the simulator plans a whole run's source
spikes before its first tick, so one source serves any number of runs.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.utils.validation import check_finite, check_positive


class PoissonSource:
    """Independent Poisson spike trains, one per source neuron.

    ``rates_hz`` may be a scalar (shared rate) or one rate per neuron.  At
    most one spike per neuron per tick is emitted, which is exact for
    ``rate * dt << 1`` (the regime of all paper workloads: <= 100 Hz at
    dt = 1 ms gives p <= 0.1).  The simulator draws every Poisson
    source's spikes for a whole run in one batch.
    """

    def __init__(self, size: int, rates_hz) -> None:
        check_positive("size", size)
        self.size = int(size)
        rates = np.broadcast_to(np.asarray(rates_hz, dtype=np.float64), (self.size,))
        check_finite("rates_hz", rates)
        if (rates < 0).any():
            raise ValueError("firing rates must be non-negative")
        self.rates_hz = rates.copy()


class ScheduledSource:
    """Explicit spike schedule: one array of spike times (ms) per neuron.

    Used for temporal (latency) coding, replaying recorded trains, and unit
    tests that need exact spike placement.
    """

    def __init__(self, spike_times_ms: Sequence[Sequence[float]]) -> None:
        self.size = len(spike_times_ms)
        check_positive("size", self.size)
        self._times: List[np.ndarray] = []
        for i, times in enumerate(spike_times_ms):
            arr = np.sort(np.asarray(times, dtype=np.float64))
            check_finite(f"spike_times_ms[{i}]", arr)
            if arr.size and arr[0] < 0:
                raise ValueError(f"neuron {i} has a negative spike time")
            self._times.append(arr)

    def sample_ticks(
        self, n_steps: int, dt: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """All spikes of ``n_steps`` ticks, as ``(ids, ticks)``.

        A spike at time ``s`` fires on the first tick whose end
        ``(step + 1) * dt`` exceeds ``s``; spikes sharing a tick fire
        once, and spikes at or past the last tick's end do not fire.
        Entries are sorted by (tick, neuron id).
        """
        t_end_grid = np.arange(1, n_steps + 1, dtype=np.int64) * dt
        ids: List[np.ndarray] = []
        ticks: List[np.ndarray] = []
        for i, times in enumerate(self._times):
            fire_ticks = np.unique(np.searchsorted(t_end_grid, times, side="right"))
            fire_ticks = fire_ticks[fire_ticks < n_steps]
            ids.append(np.full(fire_ticks.size, i, dtype=np.int64))
            ticks.append(fire_ticks)
        ids_all = np.concatenate(ids)
        ticks_all = np.concatenate(ticks)
        order = np.lexsort((ids_all, ticks_all))
        return ids_all[order], ticks_all[order]

    @property
    def spike_times(self) -> List[np.ndarray]:
        return [t.copy() for t in self._times]
