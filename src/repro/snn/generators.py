"""Spike-source populations.

Sources occupy neuron ids like ordinary populations but have no membrane
dynamics; they emit spikes according to a schedule or a stochastic process.
The paper's synthetic workloads drive the first layer from "10 neurons
creating spike trains whose inter-spike interval follows a Poisson process
with mean firing rates between 10 Hz and 100 Hz" — that is
:class:`PoissonSource`.  Temporal-coded inputs (heartbeat) use
:class:`ScheduledSource` with level-crossing-encoded spike times.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.utils.validation import check_positive


class SpikeSource:
    """Interface for stimulus populations.

    ``sample(step, dt, rng)`` returns the indices (within the source
    population) that spike during simulation tick ``step``.
    """

    size: int

    def sample(self, step: int, dt: float, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def reset(self) -> None:
        """Reset any internal schedule state before a fresh run."""


class PoissonSource(SpikeSource):
    """Independent Poisson spike trains, one per source neuron.

    ``rates_hz`` may be a scalar (shared rate) or one rate per neuron.  At
    most one spike per neuron per tick is emitted, which is exact for
    ``rate * dt << 1`` (the regime of all paper workloads: <= 100 Hz at
    dt = 1 ms gives p <= 0.1).
    """

    def __init__(self, size: int, rates_hz) -> None:
        check_positive("size", size)
        self.size = int(size)
        rates = np.broadcast_to(np.asarray(rates_hz, dtype=np.float64), (self.size,))
        if (rates < 0).any():
            raise ValueError("firing rates must be non-negative")
        self.rates_hz = rates.copy()

    def sample(self, step: int, dt: float, rng: np.random.Generator) -> np.ndarray:
        p = self.rates_hz * (dt / 1000.0)
        return np.nonzero(rng.random(self.size) < p)[0]


class RegularSource(SpikeSource):
    """Deterministic periodic spike trains with per-neuron phase offsets."""

    _TICK_CHUNK = 65536  # elements per vectorized block in sample_ticks

    def __init__(self, size: int, period_ms: float, phase_ms=0.0) -> None:
        check_positive("size", size)
        check_positive("period_ms", period_ms)
        self.size = int(size)
        self.period_ms = float(period_ms)
        self.phase_ms = np.broadcast_to(
            np.asarray(phase_ms, dtype=np.float64), (self.size,)
        ).copy()
        if (self.phase_ms < 0).any():
            raise ValueError("phase offsets must be non-negative")

    def sample(self, step: int, dt: float, rng: np.random.Generator) -> np.ndarray:
        t = step * dt
        since_phase = t - self.phase_ms
        eligible = since_phase >= 0
        # A neuron fires on the tick where its local time crosses a period
        # multiple: floor(t/T) advances between the previous tick and now.
        prev = np.floor((since_phase - dt) / self.period_ms)
        curr = np.floor(since_phase / self.period_ms)
        fired = eligible & (curr > prev) | (eligible & np.isclose(since_phase, 0.0))
        return np.nonzero(fired)[0]

    def sample_ticks(
        self, n_steps: int, dt: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """All spikes for ``n_steps`` ticks at once, as ``(ids, ticks)``.

        Evaluates the exact per-tick :meth:`sample` expressions on a
        (ticks, neurons) grid — same floats, same comparisons — so the
        emitted (neuron, tick) pairs match tick-by-tick sampling
        bit-for-bit.  Entries are sorted by (tick, neuron id).
        """
        ids: List[np.ndarray] = []
        ticks: List[np.ndarray] = []
        chunk = max(1, self._TICK_CHUNK // max(1, self.size))
        for start in range(0, n_steps, chunk):
            steps = np.arange(start, min(start + chunk, n_steps))
            t = (steps * dt)[:, None]
            since_phase = t - self.phase_ms[None, :]
            eligible = since_phase >= 0
            prev = np.floor((since_phase - dt) / self.period_ms)
            curr = np.floor(since_phase / self.period_ms)
            fired = (
                eligible & (curr > prev)
                | (eligible & np.isclose(since_phase, 0.0))
            )
            rows, cols = np.nonzero(fired)
            ticks.append(rows + start)
            ids.append(cols)
        if not ids:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        return np.concatenate(ids), np.concatenate(ticks)


class ScheduledSource(SpikeSource):
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
            if arr.size and arr[0] < 0:
                raise ValueError(f"neuron {i} has a negative spike time")
            self._times.append(arr)
        self._cursors = np.zeros(self.size, dtype=np.int64)

    def reset(self) -> None:
        self._cursors[:] = 0

    def sample(self, step: int, dt: float, rng: np.random.Generator) -> np.ndarray:
        t_end = (step + 1) * dt
        fired = []
        for i, times in enumerate(self._times):
            c = self._cursors[i]
            n = c
            while n < times.size and times[n] < t_end:
                n += 1
            if n > c:
                fired.append(i)
                self._cursors[i] = n
        return np.asarray(fired, dtype=np.int64)

    def sample_ticks(
        self, n_steps: int, dt: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """All spikes for ``n_steps`` ticks at once, as ``(ids, ticks)``.

        A spike at time ``s`` fires on the first tick whose end
        ``(step + 1) * dt`` exceeds ``s`` — located by searchsorted over
        the same tick-end grid the per-tick cursor walk compares against,
        so results (and the advanced cursors) match :meth:`sample`
        bit-for-bit.  Entries are sorted by (tick, neuron id).
        """
        t_end_grid = np.arange(1, n_steps + 1, dtype=np.int64) * dt
        horizon = t_end_grid[-1] if n_steps else 0.0
        ids: List[np.ndarray] = []
        ticks: List[np.ndarray] = []
        for i, times in enumerate(self._times):
            start = int(self._cursors[i])
            if n_steps == 0:
                continue
            consumed = int(np.searchsorted(times, horizon, side="left"))
            if consumed <= start:
                continue
            fire_ticks = np.unique(
                np.searchsorted(t_end_grid, times[start:consumed], side="right")
            )
            self._cursors[i] = consumed
            ids.append(np.full(fire_ticks.size, i, dtype=np.int64))
            ticks.append(fire_ticks)
        if not ids:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        ids_all = np.concatenate(ids)
        ticks_all = np.concatenate(ticks)
        order = np.lexsort((ids_all, ticks_all))
        return ids_all[order], ticks_all[order]

    @property
    def spike_times(self) -> List[np.ndarray]:
        return [t.copy() for t in self._times]

