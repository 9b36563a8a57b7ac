"""Run-time incremental remapping (the paper's stated future work).

The DATE'18 paper closes with "Run-time SNN mapping will be addressed in
future": a deployed SNN's spike statistics drift (new stimuli, plasticity,
sensor changes), so the partition chosen at design time slowly stops being
optimal.  Recomputing a full PSO at run time is too expensive on-device;
what a runtime needs is *incremental* repair under a migration budget,
because moving a neuron between crossbars costs reprogramming its
memristor rows.

:class:`RuntimeRemapper` maintains the current assignment, accepts updated
per-synapse traffic observations, and performs bounded greedy epochs: each
epoch applies up to ``migration_budget`` single-neuron moves, always the
move with the largest traffic reduction, stopping early when no improving
move exists.  Every epoch is recorded so callers can audit what moved and
why.

The remapper also reacts to hardware faults: feeding it a
:class:`FaultEvent` marks a crossbar's cluster faulty, and subsequent
epochs *evacuate* that cluster — forced migrations that run before any
optimizing move, still under the same migration budget, and may carry
negative gains (survival beats traffic).  Faulty clusters are never the
target of an optimizing move or swap afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.partition import Partition, is_feasible
from repro.core.traffic_matrix import TrafficMatrix
from repro.obs import get_observer
from repro.snn.graph import SpikeGraph
from repro.utils.validation import check_nonnegative, check_positive

#: Strongest desired moves per side that the swap search pairs.
SWAP_CANDIDATES = 8


@dataclass(frozen=True)
class FaultEvent:
    """A hardware element failing while the application runs.

    ``crossbar`` is the cluster index of the failed compute array (the
    router keeps switching traffic — only the neurons must leave).
    ``time`` is an optional caller-defined timestamp (cycle, epoch,
    wall-clock tick) recorded for audit trails.
    """

    crossbar: int
    time: float = 0.0
    description: str = ""


@dataclass(frozen=True)
class Move:
    """One neuron migration applied by a remap epoch.

    ``forced`` marks evacuation moves off a faulty crossbar, which may
    carry negative gains; optimizing moves always gain.
    """

    neuron: int
    from_cluster: int
    to_cluster: int
    gain: float  # traffic removed from the interconnect (positive = good)
    forced: bool = False


@dataclass
class RemapEpoch:
    """Outcome of one bounded remapping epoch."""

    fitness_before: float
    fitness_after: float
    moves: List[Move] = field(default_factory=list, init=False)  # appended as applied

    @property
    def improvement(self) -> float:
        return self.fitness_before - self.fitness_after

    @property
    def n_migrations(self) -> int:
        return len(self.moves)


class RuntimeRemapper:
    """Incremental mapping maintenance under a migration budget.

    Scans read one gain matrix ``G[n, c] = W[n, c] - W[n, a[n]]``, with
    ``W[n, c]`` the traffic between neuron ``n`` and cluster ``c``; a
    swap gains ``G[i, a[j]] + G[j, a[i]] - 2 s_ij``.  Ties go to the
    lowest neuron, then cluster.  Integer-valued traffic (spike counts,
    what every simulated graph carries) sums exactly, so moves and gains
    equal an edge-by-edge evaluation bit for bit; arbitrary floats agree
    to summation-order rounding.
    """

    def __init__(
        self,
        graph: SpikeGraph,
        n_clusters: int,
        capacity: int,
        assignment: np.ndarray,
        migration_budget: int = 8,
    ) -> None:
        check_positive("n_clusters", n_clusters)
        check_positive("capacity", capacity)
        # A zero budget is legal: the epoch observes and audits but may
        # not move anything (useful for dry-run monitoring).
        check_nonnegative("migration_budget", migration_budget)
        if np.shape(assignment) != (graph.n_neurons,):
            raise ValueError(
                f"assignment has shape {np.shape(assignment)}, graph has "
                f"{graph.n_neurons} neurons"
            )
        if not is_feasible(np.asarray(assignment), n_clusters, capacity):
            raise ValueError("initial assignment is not feasible")
        self.graph = graph
        self.n_clusters = n_clusters
        self.capacity = capacity
        self.migration_budget = migration_budget
        self.assignment = np.asarray(assignment, dtype=np.int64).copy()
        self.history: List[RemapEpoch] = []
        self.faulty_clusters: Set[int] = set()
        self.fault_log: List[FaultEvent] = []
        self.heal_log: List[FaultEvent] = []
        self._load_matrix(TrafficMatrix(self.graph))

    def _load_matrix(self, matrix: TrafficMatrix) -> None:
        self._matrix = matrix
        # Each aggregated pair seen from both of its endpoints.
        self._end = np.concatenate((matrix.src, matrix.dst))
        self._other = np.concatenate((matrix.dst, matrix.src))
        self._end_traffic = np.concatenate((matrix.traffic, matrix.traffic))
        self._pair_traffic: Dict[Tuple[int, int], float] = {}
        for i, j, t in zip(
            matrix.src.tolist(), matrix.dst.tolist(), matrix.traffic.tolist()
        ):
            key = (min(i, j), max(i, j))
            self._pair_traffic[key] = self._pair_traffic.get(key, 0.0) + t

    # -- observation -------------------------------------------------------------

    def observe_traffic(self, traffic: np.ndarray) -> None:
        """Replace the per-synapse traffic with fresh observations.

        ``traffic`` must align with ``graph.src/dst`` (one value per
        synapse of the original graph).  Negative and non-finite values
        are rejected.  ``self.graph`` becomes an edited copy
        (``dataclasses.replace``); the graph passed in is never touched.
        """
        traffic = np.asarray(traffic, dtype=np.float64)
        if traffic.shape != self.graph.traffic.shape:
            raise ValueError(
                f"traffic has shape {traffic.shape}, expected "
                f"{self.graph.traffic.shape}"
            )
        if not (np.isfinite(traffic) & (traffic >= 0)).all():
            raise ValueError("observed traffic must be finite and non-negative")
        self.graph = replace(self.graph, traffic=traffic)
        self._load_matrix(TrafficMatrix(self.graph))

    # -- fault feed --------------------------------------------------------------

    def apply_fault(self, event: FaultEvent) -> None:
        """Mark ``event.crossbar``'s cluster faulty; epochs evacuate it.

        Rejects out-of-range clusters and fault sets that leave less
        healthy capacity than the application has neurons — such a
        fabric cannot host the SNN at all, and pretending to remap onto
        it would only thrash the budget.
        """
        cluster = int(event.crossbar)
        if not 0 <= cluster < self.n_clusters:
            raise ValueError(
                f"crossbar {cluster} out of range [0, {self.n_clusters})"
            )
        healthy_after = self.n_clusters - len(
            self.faulty_clusters | {cluster}
        )
        if healthy_after * self.capacity < self.graph.n_neurons:
            raise ValueError(
                f"marking crossbar {cluster} faulty leaves "
                f"{healthy_after} healthy crossbars x {self.capacity} "
                f"slots for {self.graph.n_neurons} neurons"
            )
        self.faulty_clusters.add(cluster)
        self.fault_log.append(event)
        obs = get_observer()
        if obs.enabled:
            obs.inc("runtime.fault_events")
            obs.event(
                "fault.crossbar",
                crossbar=cluster,
                time=event.time,
                description=event.description,
            )

    def clear_fault(self, event: FaultEvent) -> None:
        """Re-admit ``event.crossbar``'s cluster after a transient fault.

        The cluster leaves :attr:`faulty_clusters`, so subsequent epochs
        may migrate load back onto it through ordinary optimizing moves
        and swaps — under the same migration budget, no special-cased
        "restore" pass.  Rejects clusters that are not currently faulty
        (a double clear is a bookkeeping bug worth surfacing).
        """
        cluster = int(event.crossbar)
        if cluster not in self.faulty_clusters:
            raise ValueError(
                f"crossbar {cluster} is not marked faulty; cannot clear"
            )
        self.faulty_clusters.discard(cluster)
        self.heal_log.append(event)
        obs = get_observer()
        if obs.enabled:
            obs.inc("runtime.heal_events")
            obs.event(
                "fault.crossbar_healed",
                crossbar=cluster,
                time=event.time,
                description=event.description,
            )

    def sync_faults(
        self, crossbars: Iterable[int], time: float = 0.0
    ) -> Tuple[List[int], List[int]]:
        """Reconcile :attr:`faulty_clusters` with an external fault view.

        ``crossbars`` is the complete set of crossbars faulty *now*
        (e.g. :meth:`~repro.noc.faults.FaultTimeline.crossbars_at`);
        newly faulty ones get an :meth:`apply_fault`, healed ones a
        :meth:`clear_fault`, both stamped with ``time``.  Returns the
        ``(arrived, cleared)`` cluster lists, ascending.
        """
        target = {int(k) for k in crossbars}
        arrived = sorted(target - self.faulty_clusters)
        cleared = sorted(self.faulty_clusters - target)
        # Clears first: a fault migrating from one crossbar to another
        # in a single edge must not trip the healthy-capacity check on
        # the arrival while the healed cluster still counts as faulty.
        for cluster in cleared:
            self.clear_fault(
                FaultEvent(crossbar=cluster, time=time,
                           description="timeline clear")
            )
        for cluster in arrived:
            self.apply_fault(
                FaultEvent(crossbar=cluster, time=time,
                           description="timeline arrive")
            )
        return arrived, cleared

    def neurons_on(self, cluster: int) -> List[int]:
        """Neurons currently assigned to ``cluster``, ascending."""
        return [int(n) for n in np.flatnonzero(self.assignment == cluster)]

    def evacuated(self, cluster: int) -> bool:
        """Whether no neuron remains on ``cluster``."""
        return not (self.assignment == cluster).any()

    # -- queries ---------------------------------------------------------------------

    def fitness(self) -> float:
        """Current interconnect spike traffic (Eq. 8) of the live mapping."""
        return self._matrix.global_traffic(self.assignment)

    def partition(self) -> Partition:
        return Partition(
            assignment=self.assignment.copy(),
            n_clusters=self.n_clusters,
            capacity=self.capacity,
        )

    def _gains(self) -> np.ndarray:
        """``G[n, c]``: traffic reduction if neuron ``n`` moves to ``c``."""
        a = self.assignment
        n, c = self.graph.n_neurons, self.n_clusters
        toward = np.bincount(
            self._end * c + a[self._other],
            weights=self._end_traffic,
            minlength=n * c,
        ).reshape(n, c)
        return toward - toward[np.arange(n), a][:, None]

    def _admitting(self, sizes: Optional[np.ndarray] = None) -> np.ndarray:
        """Mask of healthy clusters (with a free slot, given ``sizes``)."""
        admitting = np.ones(self.n_clusters, dtype=bool)
        admitting[list(self.faulty_clusters)] = False
        if sizes is not None:
            admitting &= sizes < self.capacity
        return admitting

    @staticmethod
    def _argmax(gains: np.ndarray, rows: np.ndarray, columns: np.ndarray):
        """First largest ``gains[rows][:, columns]`` entry, row-major."""
        if not columns.any():
            return None
        masked = np.where(columns, gains[rows], -np.inf)
        flat = int(masked.argmax())
        row, cluster = divmod(flat, masked.shape[1])
        return int(rows[row]), cluster, float(masked[row, cluster])

    def _best_move(
        self, gains: np.ndarray, sizes: np.ndarray
    ) -> Optional[Tuple[int, int, float]]:
        best = self._argmax(
            gains, np.arange(self.graph.n_neurons), self._admitting(sizes)
        )
        return best if best is not None and best[2] > 1e-12 else None

    def _evacuation_move(
        self, sizes: np.ndarray
    ) -> Optional[Tuple[int, int, float]]:
        """Best forced move off a faulty cluster; gain may be negative.

        Among every stranded neuron and healthy cluster with a free
        slot, pick the pair losing the least traffic (or gaining the
        most), scanning faulty clusters in ascending order.  ``None``
        when nothing is stranded or no healthy slot remains — the caller
        reports the stranded neurons honestly rather than violating
        capacity.
        """
        stranded = np.flatnonzero(~self._admitting()[self.assignment])
        if not stranded.size:
            return None
        by_cluster = np.argsort(self.assignment[stranded], kind="stable")
        return self._argmax(
            self._gains(), stranded[by_cluster], self._admitting(sizes)
        )

    def _best_swap(self, gains: np.ndarray) -> Optional[Tuple[int, int, float]]:
        """Best pairwise exchange, found via per-neuron desired moves.

        Capacity-blocked improvements manifest as *desires*: neuron i
        wants cluster b, neuron j in b wants i's cluster a.  Pairing the
        strongest opposite desires and scoring the exact swap gain finds
        the improving exchange without an O(N^2) scan: the
        :data:`SWAP_CANDIDATES` strongest desires of each side are paired.
        """
        a = self.assignment
        neurons, clusters = np.nonzero((gains > 1e-12) & self._admitting())
        desires: dict = {}
        for neuron, own, cluster, gain in zip(
            neurons.tolist(),
            a[neurons].tolist(),
            clusters.tolist(),
            gains[neurons, clusters].tolist(),
        ):
            desires.setdefault((own, cluster), []).append((gain, neuron))
        best: Optional[Tuple[int, int, float]] = None
        for (ca, cb), forward in desires.items():
            reverse = desires.get((cb, ca))
            if not reverse or ca > cb:
                continue  # unordered pairs once
            for gain_i, i in sorted(forward, reverse=True)[:SWAP_CANDIDATES]:
                for gain_j, j in sorted(reverse, reverse=True)[:SWAP_CANDIDATES]:
                    # j's gain once i has moved: their shared traffic
                    # changes sides twice.
                    shared = self._pair_traffic.get((min(i, j), max(i, j)), 0.0)
                    gain = gain_i + (gain_j - 2.0 * shared)
                    if gain > 1e-12 and (best is None or gain > best[2]):
                        best = (i, j, gain)
        return best

    # -- the epoch ------------------------------------------------------------------

    def remap_epoch(self) -> RemapEpoch:
        """Apply the best moves/swaps, up to ``migration_budget`` migrations.

        Evacuation runs first: while any neuron sits on a faulty
        cluster, the least-costly forced move off it is applied (its
        gain recorded even when negative).  Remaining budget then goes
        to optimization: a swap migrates two neurons and therefore
        consumes two units of budget; it is only considered when single
        moves are exhausted or the swap's gain beats the best single
        move.
        """
        obs = get_observer()
        with obs.span(
            "runtime.remap_epoch", budget=self.migration_budget
        ) as span:
            epoch = self._remap_epoch_impl()
        if obs.enabled:
            forced_moves = sum(1 for m in epoch.moves if m.forced)
            span.set(
                migrations=epoch.n_migrations,
                forced=forced_moves,
                improvement=epoch.improvement,
            )
            obs.inc("runtime.remap_epochs")
            obs.inc("runtime.migrations", epoch.n_migrations)
            obs.inc("runtime.evacuations", forced_moves)
        return epoch

    def _remap_epoch_impl(self) -> RemapEpoch:
        epoch = RemapEpoch(fitness_before=self.fitness(),
                           fitness_after=0.0)
        sizes = np.bincount(self.assignment, minlength=self.n_clusters)
        budget = self.migration_budget

        def migrate(neuron: int, cluster: int, gain: float, forced=False):
            old = int(self.assignment[neuron])
            self.assignment[neuron] = cluster
            sizes[old] -= 1
            sizes[cluster] += 1
            epoch.moves.append(
                Move(neuron=neuron, from_cluster=old,
                     to_cluster=cluster, gain=gain, forced=forced)
            )

        while budget > 0:
            forced = self._evacuation_move(sizes)
            if forced is None:
                break  # evacuated, or stranded with no healthy slot left
            migrate(*forced, forced=True)
            budget -= 1
        while budget > 0:
            gains = self._gains()
            move = self._best_move(gains, sizes)
            swap = self._best_swap(gains) if budget >= 2 else None
            if move is None and swap is None:
                break
            if swap is not None and swap[2] > (move[2] if move else 0.0):
                i, j, gain = swap
                ci, cj = int(self.assignment[i]), int(self.assignment[j])
                # Attribute the exact sequential gains: i's move scored
                # against the current assignment, j's as the remainder
                # (= its gain once i has moved).  The two always sum to
                # the swap's total, so per-move gains add up to the
                # epoch improvement.
                gain_i = float(gains[i, cj])
                migrate(i, cj, gain_i)
                migrate(j, ci, gain - gain_i)
                budget -= 2
            else:
                migrate(*move)
                budget -= 1
        epoch.fitness_after = self.fitness()
        self.history.append(epoch)
        return epoch

    def total_migrations(self) -> int:
        return sum(e.n_migrations for e in self.history)


@dataclass(frozen=True)
class TimelineStep:
    """Audit record of one :func:`run_fault_timeline` edge.

    ``arrived``/``cleared`` are the crossbar clusters whose faults
    appeared or healed at ``time``; ``epochs`` are the remap epochs run
    in response (in order), already appended to the remapper's history.
    """

    time: float
    arrived: Tuple[int, ...]
    cleared: Tuple[int, ...]
    epochs: Tuple[RemapEpoch, ...]


def run_fault_timeline(
    remapper: RuntimeRemapper,
    timeline: "FaultTimeline",
    epochs_per_edge: int = 1,
) -> List[TimelineStep]:
    """Drive a remapper through a transient-fault timeline.

    At every edge of ``timeline`` (each instant where the active fault
    set changes) the remapper's fault view is synchronized via
    :meth:`RuntimeRemapper.sync_faults` — arrivals trigger evacuation,
    clears re-admit the healed cluster — and ``epochs_per_edge`` remap
    epochs run under the remapper's ordinary migration budget, letting
    load drain off dying crossbars and flow back onto healed ones.
    Returns one :class:`TimelineStep` per edge.

    The remapper moves neurons off crossbars; it has no fabric to route
    around.  A window holding dead links, dead routers or degraded
    bridges raises ``ValueError`` before the first step rather than
    have those faults dropped.
    """
    check_positive("epochs_per_edge", epochs_per_edge)
    for i, window in enumerate(timeline.windows):
        faults = window.faults
        if faults.dead_links or faults.dead_routers or faults.degraded_bridges:
            raise ValueError(
                f"fault timeline window {i} holds fabric faults "
                f"({faults.describe()}); run_fault_timeline applies "
                "faulty crossbars only"
            )
    obs = get_observer()
    steps: List[TimelineStep] = []
    for time in timeline.edges():
        arrived, cleared = remapper.sync_faults(
            timeline.crossbars_at(time), time=time
        )
        epochs = tuple(
            remapper.remap_epoch() for _ in range(epochs_per_edge)
        )
        steps.append(
            TimelineStep(
                time=time,
                arrived=tuple(arrived),
                cleared=tuple(cleared),
                epochs=epochs,
            )
        )
        if obs.enabled:
            obs.inc("runtime.timeline_steps")
    return steps


if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.noc.faults import FaultTimeline
