"""Clock-driven SNN simulation engine.

The simulator advances all populations on a fixed tick of :data:`DT`
(1 ms, CARLsim's resolution).  Each tick:

1. stimulus populations draw spikes from their sources;
2. spikes scheduled to arrive this tick (projection delays) are converted
   into synaptic input currents on their target populations;
3. dynamical populations integrate one step and emit spikes;
4. emitted spikes are recorded and enqueued on outgoing projections;
5. plastic projections apply their STDP rule.

Spikes are recorded into growable (neuron id, tick) column buffers and
materialized by one sort/split at the end; source spikes are
precomputed for the whole run (one batched RNG draw for all Poisson
sources, a searchsorted over the tick grid for scheduled trains); every
``LIFModel`` population steps through one fused, allocation-free update
with per-neuron parameter columns; and projection currents flow through
precomputed CSR or dense dispatch with ring-buffer delay lines.  Other
:class:`NeuronModel` subclasses (``AdaptiveLIFModel``) step per
population.  Each of those transformations keeps
the float operations of the original per-tick/per-spike loop, so spike
trains (and learned STDP weights) are bit-identical to it under a fixed
seed; that loop is the equivalence oracle in
``tests/snn/test_columnar_engine.py``.

The result object exposes per-neuron spike time arrays — the raw material
for :class:`repro.snn.graph.SpikeGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.snn.generators import PoissonSource
from repro.snn.network import Network
from repro.snn.neuron import V_REST, V_RESET, LIFModel
from repro.snn.stdp import STDPRule, STDPState
from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_positive

#: Tick length in milliseconds.
DT = 1.0

# Projections at or below this non-zero density deliver through a CSR
# scatter instead of a dense row gather, once the dense gather is big
# enough for sparsity to pay for the extra indexing.
CSR_DENSITY_THRESHOLD = 0.25
CSR_MIN_DENSE_SIZE = 16384

# Poisson precompute draws at most this many uniforms per chunk.
_POISSON_CHUNK = 262144


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    ``spike_times[g]`` is a sorted float array of spike times (ms) for the
    neuron with global id ``g``; sources and dynamical neurons alike.
    ``counts`` optionally caches per-neuron spike counts
    (:meth:`Simulation.run` computes them as a byproduct of its final
    sort/split).
    """

    network_name: str
    duration_ms: float
    dt: float
    spike_times: List[np.ndarray]
    counts: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_neurons(self) -> int:
        return len(self.spike_times)

    def spike_counts(self) -> np.ndarray:
        """Number of spikes emitted by each neuron."""
        if self.counts is not None:
            return self.counts
        return np.asarray([t.size for t in self.spike_times], dtype=np.int64)

    def total_spikes(self) -> int:
        return int(self.spike_counts().sum())


class _SpikeColumns:
    """Growable (neuron id, tick) column store with amortized doubling."""

    def __init__(self, capacity: int = 1024) -> None:
        self.gid = np.empty(capacity, dtype=np.int64)
        self.tick = np.empty(capacity, dtype=np.int64)
        self.n = 0

    def _grow(self, needed: int) -> None:
        capacity = max(2 * self.gid.size, self.n + needed)
        self.gid = np.concatenate([self.gid[: self.n], np.empty(capacity - self.n, np.int64)])
        self.tick = np.concatenate([self.tick[: self.n], np.empty(capacity - self.n, np.int64)])

    def append(self, gids: np.ndarray, tick: int) -> None:
        k = gids.size
        if self.n + k > self.gid.size:
            self._grow(k)
        self.gid[self.n : self.n + k] = gids
        self.tick[self.n : self.n + k] = tick
        self.n += k

    def append_columns(self, gids: np.ndarray, ticks: np.ndarray) -> None:
        k = gids.size
        if self.n + k > self.gid.size:
            self._grow(k)
        self.gid[self.n : self.n + k] = gids
        self.tick[self.n : self.n + k] = ticks
        self.n += k

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.gid[: self.n], self.tick[: self.n]


class _FusedLIF:
    """All ``LIFModel`` populations stepped as one state vector.

    Per-neuron parameter columns broadcast each population's scalars, so
    every elementwise operation produces exactly the floats the per-pop
    :meth:`LIFModel.step` would — one fused call replaces P small ones.
    """

    def __init__(self, pops: List) -> None:
        self.pops = pops
        sizes = [pop.size for pop in pops]
        self.n = int(sum(sizes))
        self.starts = np.cumsum([0] + sizes)[:-1]
        self.gids = np.concatenate(
            [np.arange(pop.id_offset, pop.id_offset + pop.size) for pop in pops]
        )

        def col(attr: str) -> np.ndarray:
            return np.concatenate(
                [np.full(pop.size, getattr(pop.model, attr)) for pop in pops]
            )

        self.v = np.full(self.n, V_REST)
        self.refractory = np.zeros(self.n, dtype=np.float64)
        self.v_thresh = col("v_thresh")
        self.t_ref = col("t_ref")
        self.tau_m = col("tau_m")
        self._coeff: Optional[np.ndarray] = None
        self._max_ref_ticks = 0
        self._refr_left = 0  # ticks until every refractory window has lapsed
        self._t1 = np.empty(self.n, dtype=np.float64)
        self._active = np.empty(self.n, dtype=bool)
        self._spiked = np.empty(self.n, dtype=bool)

    def step(self, currents: np.ndarray, dt: float) -> np.ndarray:
        """One fused LIF update; mirrors :meth:`LIFModel.step` op-for-op.

        Returns the indices (within the fused group) that spiked.  When no
        neuron can still be refractory (``_refr_left`` counts ticks since
        the last spike against the longest ``t_ref``) the refractory
        columns are exact zeros, so the masking and countdown ops are
        skipped — their results are the identities they would compute.
        """
        if self._coeff is None:
            self._coeff = dt / self.tau_m
            self._max_ref_ticks = int(np.ceil(self.t_ref.max() / dt))
        v, refr = self.v, self.refractory
        t1 = self._t1
        spiked = self._spiked
        quiescent = self._refr_left <= 0
        np.subtract(V_REST, v, out=t1)
        t1 += currents  # RESISTANCE is 1.0: R * I is I bit for bit
        t1 *= self._coeff
        t1 += v
        if quiescent:
            # All neurons active: v <- v + dv wholesale (buffer swap).
            self.v, self._t1 = t1, v
            v = t1
            np.greater_equal(v, self.v_thresh, out=spiked)
            hits = np.nonzero(spiked)[0]
            if hits.size:
                np.copyto(v, V_RESET, where=spiked)
                np.copyto(refr, self.t_ref, where=spiked)
                self._refr_left = self._max_ref_ticks
            return hits
        active = self._active
        np.less_equal(refr, 0.0, out=active)
        np.copyto(v, t1, where=active)
        np.greater_equal(v, self.v_thresh, out=spiked)
        spiked &= active
        hits = np.nonzero(spiked)[0]
        np.subtract(refr, dt, out=t1)
        np.maximum(t1, 0.0, out=t1)
        if hits.size:
            np.copyto(v, V_RESET, where=spiked)
            np.copyto(t1, self.t_ref, where=spiked)
            self._refr_left = self._max_ref_ticks
        else:
            # Counting down from t_ref by DT = 1.0 is exact (r - 1.0 is
            # representable for every float r >= 1), so the columns are
            # exact zeros after ceil(t_ref) ticks.
            self._refr_left -= 1
        self.refractory, self._t1 = t1, refr
        return hits


class Simulation:
    """Run a :class:`Network` for a fixed duration.

    Parameters
    ----------
    network:
        The SNN to simulate.  The network object is not mutated except for
        plastic projection weights (when ``learning`` is on).  It runs
        on ticks of :data:`DT` milliseconds.
    seed:
        Seed or generator for all stochastic sources.
    stdp:
        Optional STDP rule applied to every projection marked ``plastic``.
    """

    def __init__(
        self,
        network: Network,
        seed: SeedLike = None,
        stdp: Optional[STDPRule] = None,
    ) -> None:
        self.network = network
        self.dt = DT
        self.rng = default_rng(seed)
        self.stdp = stdp
        self._validate_delays()

    def _validate_delays(self) -> None:
        for proj in self.network.projections:
            ticks = proj.delay_ms / self.dt
            if abs(ticks - round(ticks)) > 1e-9:
                raise ValueError(
                    f"projection {proj.describe()}: delay {proj.delay_ms} ms is not "
                    f"a whole number of ticks at dt={self.dt} ms"
                )

    def _precompute_source_spikes(
        self, n_steps: int
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Per source population: (indptr, local ids) spike plan.

        ``locals[indptr[t]:indptr[t + 1]]`` are the neurons firing on tick
        ``t``.  RNG consumption matches the reference loop's per-tick
        sampling exactly: scheduled sources draw nothing, and all
        Poisson sources' per-tick draws are contiguous in population
        order, so one (ticks, total) matrix consumes the same stream.
        """
        net, dt = self.network, self.dt
        raw: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        poisson = []
        for pi, pop in enumerate(net.populations):
            if isinstance(pop.source, PoissonSource):
                poisson.append((pi, pop))
            elif pop.is_source:
                raw[pi] = pop.source.sample_ticks(n_steps, dt)
        if poisson:
            p = np.concatenate(
                [pop.source.rates_hz * (dt / 1000.0) for _, pop in poisson]
            )
            bounds = np.cumsum([0] + [pop.size for _, pop in poisson])
            total = int(bounds[-1])
            parts: Dict[int, Tuple[List[np.ndarray], List[np.ndarray]]] = {
                pi: ([], []) for pi, _ in poisson
            }
            chunk = max(1, _POISSON_CHUNK // max(1, total))
            for start in range(0, n_steps, chunk):
                rows = min(chunk, n_steps - start)
                u = self.rng.random(size=(rows, total))
                hit_t, hit_i = np.nonzero(u < p[None, :])
                for k, (pi, _) in enumerate(poisson):
                    lo, hi = bounds[k], bounds[k + 1]
                    mask = (hit_i >= lo) & (hit_i < hi)
                    parts[pi][0].append(hit_i[mask] - lo)
                    parts[pi][1].append(hit_t[mask] + start)
            for pi, (ids, ticks) in parts.items():
                raw[pi] = (
                    np.concatenate(ids) if ids else np.empty(0, np.int64),
                    np.concatenate(ticks) if ticks else np.empty(0, np.int64),
                )
        columns: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for pi, (ids, ticks) in raw.items():
            counts = np.bincount(ticks, minlength=n_steps)
            indptr = np.concatenate([[0], np.cumsum(counts)])
            columns[pi] = (indptr, ids.astype(np.int64, copy=False))
        return columns

    def run(self, duration_ms: float, learning: bool = True) -> SimulationResult:
        """Simulate for ``duration_ms`` and return recorded spikes."""
        check_positive("duration_ms", duration_ms)
        n_steps = int(round(duration_ms / self.dt))
        net, dt = self.network, self.dt
        n_pops = len(net.populations)

        source_plan = self._precompute_source_spikes(n_steps)

        dyn_pops = [(pi, pop) for pi, pop in enumerate(net.populations) if not pop.is_source]
        lif = [(pi, pop) for pi, pop in dyn_pops if type(pop.model) is LIFModel]
        fallback = [(pi, pop) for pi, pop in dyn_pops if type(pop.model) is not LIFModel]

        # Fused currents layout: LIF populations first (so the fused group
        # reads one contiguous view), then fallback populations.
        layout = lif + fallback
        cur_lo: Dict[int, int] = {}
        offset = 0
        for pi, pop in layout:
            cur_lo[pi] = offset
            offset += pop.size
        n_dyn = offset
        currents = np.empty(n_dyn, dtype=np.float64)

        fused = _FusedLIF([pop for _, pop in lif]) if lif else None
        n_fused = fused.n if fused is not None else 0
        fused_view = currents[:n_fused]
        fallback_states = [
            (pi, pop, pop.model.allocate_state(pop.size),
             currents[cur_lo[pi] : cur_lo[pi] + pop.size])
            for pi, pop in fallback
        ]

        # Per-projection delivery plans and ring-buffer delay lines.
        empty_i64 = np.empty(0, dtype=np.int64)
        pop_index = {id(pop): pi for pi, pop in enumerate(net.populations)}
        plans = []
        for proj in net.projections:
            ticks = max(1, int(round(proj.delay_ms / self.dt)))
            ring = [empty_i64] * ticks
            post_idx = pop_index[id(proj.post)]
            deliver = not proj.post.is_source
            lo = cur_lo[post_idx] if deliver else 0
            weights = proj.weights
            n_syn = int(np.count_nonzero(weights))
            size = weights.size
            # Plastic projections mutate their weights mid-run, so the
            # cached CSR values would go stale: they always stay dense.
            use_csr = (
                deliver
                and not (proj.plastic and self.stdp is not None)
                and size >= CSR_MIN_DENSE_SIZE
                and n_syn <= CSR_DENSITY_THRESHOLD * size
            )
            if use_csr:
                pre_nz, post_nz = np.nonzero(weights)
                indptr = np.concatenate(
                    [[0], np.cumsum(np.bincount(pre_nz, minlength=weights.shape[0]))]
                ).astype(np.int64)
                csr = (indptr, post_nz.astype(np.int64), weights[pre_nz, post_nz])
            else:
                csr = None
            # Positional plan record (indexed in the hot loop):
            # [ring, head, deliver, lo, hi, weights, csr, pre_idx, post_idx]
            plans.append(
                [ring, 0, deliver, lo, lo + proj.post.size, weights, csr,
                 pop_index[id(proj.pre)], post_idx]
            )

        stdp_states: Dict[int, STDPState] = {}
        if self.stdp is not None:
            for pi, proj in enumerate(net.projections):
                if proj.plastic:
                    stdp_states[pi] = self.stdp.allocate_state(
                        proj.pre.size, proj.post.size
                    )

        record = _SpikeColumns(capacity=max(1024, 4 * n_steps))
        # Source spikes are fully known up front: record them in one shot.
        for pi, (indptr, locals_) in source_plan.items():
            pop = net.populations[pi]
            if locals_.size:
                ticks_col = np.repeat(np.arange(n_steps), np.diff(indptr))
                record.append_columns(locals_ + pop.id_offset, ticks_col)

        fired_locals: List[Optional[np.ndarray]] = [None] * n_pops
        fused_starts = fused.starts if fused is not None else None
        lif_indices = [pi for pi, _ in lif]
        single_lif = lif_indices[0] if len(lif_indices) == 1 else None
        run_stdp = self.stdp is not None and learning
        source_items = [
            (pi, indptr, locals_) for pi, (indptr, locals_) in source_plan.items()
        ]
        stdp_items = [
            (state, net.projections[pi].weights, plans[pi][7], plans[pi][8])
            for pi, state in stdp_states.items()
        ]

        for step in range(n_steps):
            # 1. Deliver delayed spikes into input currents (projection
            #    order — the reference loop's accumulation order).
            currents.fill(0.0)
            for plan in plans:
                arriving = plan[0][plan[1]]
                if arriving.size and plan[2]:
                    view = currents[plan[3] : plan[4]]
                    csr = plan[6]
                    if csr is None:
                        # add.reduce is what ndarray.sum(axis=0) dispatches
                        # to — called directly to skip the wrapper layers.
                        view += np.add.reduce(plan[5][arriving], axis=0)
                    else:
                        indptr, cols, vals = csr
                        starts = indptr[arriving]
                        counts = indptr[arriving + 1] - starts
                        total = int(counts.sum())
                        if total:
                            shift = np.cumsum(counts) - counts
                            flat = np.repeat(starts - shift, counts) + np.arange(total)
                            view += np.bincount(
                                cols[flat], weights=vals[flat], minlength=view.size
                            )

            # 2. Sources fire from the precomputed plan; dynamics advance.
            for pi, indptr, locals_ in source_items:
                fired_locals[pi] = locals_[indptr[step] : indptr[step + 1]]
            if fused is not None:
                hits = fused.step(fused_view, dt)
                if hits.size:
                    record.append(fused.gids[hits], step)
                    if single_lif is not None:
                        fired_locals[single_lif] = hits
                    else:
                        cuts = hits.searchsorted(fused_starts[1:])
                        prev = 0
                        for k, pi in enumerate(lif_indices):
                            cut = cuts[k] if k < cuts.size else hits.size
                            piece = hits[prev:cut]
                            fired_locals[pi] = (
                                piece - fused_starts[k] if piece.size else empty_i64
                            )
                            prev = cut
                else:
                    for pi in lif_indices:
                        fired_locals[pi] = empty_i64
            for pi, pop, state, view in fallback_states:
                mask = pop.model.step(state, view, dt)
                hit = np.nonzero(mask)[0]
                fired_locals[pi] = hit
                if hit.size:
                    record.append(hit + pop.id_offset, step)

            # 3. STDP on plastic projections (pre arrivals vs post spikes).
            if run_stdp:
                for state, weights, pre_idx, post_idx in stdp_items:
                    self.stdp.step(
                        state,
                        weights,
                        pre_spikes=fired_locals[pre_idx],
                        post_spikes=fired_locals[post_idx],
                        dt=self.dt,
                    )

            # 4. Enqueue emitted spikes on outgoing ring delay lines.
            for plan in plans:
                head = plan[1]
                plan[0][head] = fired_locals[plan[7]]
                plan[1] = (head + 1) % len(plan[0])

        # One sort/split materializes every neuron's train.
        gids, ticks = record.columns()
        counts = np.bincount(gids, minlength=net.n_neurons)
        order = np.lexsort((ticks, gids))
        times = ticks[order] * dt
        spike_arrays = np.split(times, np.cumsum(counts)[:-1])
        return SimulationResult(
            network_name=net.name,
            duration_ms=n_steps * self.dt,
            dt=self.dt,
            spike_times=spike_arrays,
            counts=counts,
        )
