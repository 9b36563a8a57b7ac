"""High-level mapping entry point.

``map_snn(graph, architecture, method=...)`` runs the chosen partitioner
and returns a :class:`MappingResult`: the partition itself plus the
local/global traffic split the paper's evaluation revolves around.  The
PSO path warm-starts one particle from the PACMAN solution — a standard
swarm-seeding practice that guarantees PSO never loses to the structural
baseline it is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.baselines import (
    annealing_partition,
    genetic_partition,
    greedy_partition,
    neutrams_partition,
    pacman_partition,
    random_partition,
)
from repro.core.fitness import OBJECTIVES, InterconnectFitness
from repro.core.partition import Partition
from repro.core.placement import apply_placement, place_clusters
from repro.core.pso import BinaryPSO, PSOConfig
from repro.core.traffic_matrix import (
    TrafficMatrix,
    cluster_traffic,
    local_global_split,
    synapse_split_counts,
)
from repro.hardware.architecture import Architecture
from repro.noc.routing import RoutingTable, routing_for
from repro.obs import get_observer
from repro.snn.graph import SpikeGraph
from repro.utils.rng import SeedLike, replayable

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.noc.fastsim import FastInterconnect
    from repro.noc.topology import Topology
    from repro.noc.traffic import SpikeEvents

METHODS = (
    "pso", "pacman", "neutrams", "random", "greedy", "annealing", "genetic",
)

#: Methods that draw no randomness: their result is the same for any seed.
SEED_FREE_METHODS = frozenset({"pacman", "greedy"})


@dataclass
class MappingResult:
    """A partition plus its communication profile."""

    method: str
    partition: Partition
    fitness: float              # Eq. 8: spikes on the interconnect
    local_spikes: float         # spike events kept inside crossbars
    global_spikes: float        # spike events crossing crossbars
    local_synapses: int
    global_synapses: int
    wall_time_s: float
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def assignment(self) -> np.ndarray:
        return self.partition.assignment

    def describe(self) -> str:
        return (
            f"MappingResult[{self.method}]: fitness={self.fitness:.0f} "
            f"(global {self.global_spikes:.0f} / local {self.local_spikes:.0f} "
            f"spikes; {self.global_synapses}/{self.global_synapses + self.local_synapses} "
            f"synapses global) in {self.wall_time_s:.2f}s"
        )


def map_snn(
    graph: SpikeGraph,
    architecture: Architecture,
    method: str = "pso",
    seed: SeedLike = None,
    pso_config: Optional[PSOConfig] = None,
    warm_start: bool = True,
    placement: bool = True,
    objective: str = "packets",
    noc_config=None,
    cache=None,
    warm_seeds=None,
    spare_capacity: float = 0.0,
    **kwargs,
) -> MappingResult:
    """Partition ``graph`` onto ``architecture`` with the chosen method.

    Parameters
    ----------
    method:
        One of ``"pso"`` (the paper's contribution), ``"pacman"``,
        ``"neutrams"``, ``"random"``, ``"greedy"``, ``"annealing"``.
    pso_config:
        Swarm hyper-parameters for the PSO path (ignored otherwise).
    warm_start:
        Seed PSO particles from the PACMAN and greedy solutions, so the
        swarm starts no worse than the structural baselines.
    placement:
        After partitioning, arrange clusters on the interconnect's attach
        points to minimize hop-weighted traffic (applied identically to
        every method; it relabels clusters and cannot change Eq. 8
        fitness).
    objective:
        PSO objective: ``"packets"`` (default) minimizes AER packets on
        the multicast interconnect — the energy-proportional quantity on
        the modeled hardware; ``"spikes"`` is the paper's literal Eq. 8
        per-synapse count.  The two coincide when each neuron has at most
        one remote target crossbar; the fitness-ablation bench compares
        them.  ``"noc"`` scores every particle by its link traversals on
        the fabric, undelivered traffic penalized: counted in closed
        form where the routing proves every packet arrives, by
        cycle-accurate NoC simulation (fast backend) elsewhere — see
        :class:`~repro.core.fitness.InterconnectFitness`.
    noc_config:
        Interconnect parameters the ``"noc"`` objective simulates under
        (backend forced to "fast").  Pass the same config the final
        mapping will be measured with, so the swarm optimizes the fabric
        it is judged on; ``run_pipeline`` forwards its own.
    cache:
        An :class:`~repro.framework.artifacts.ArtifactCache`.  Memoizes
        the full :class:`MappingResult` (memory and disk) for
        deterministic requests (int-seeded, or a seed-free method, and
        no extra ``kwargs``) — a repeat request returns the cached
        result, which is bit-identical to recomputing it — and records
        each PSO optimum as a warm-start seed.  A miss runs exactly what
        ``cache=None`` runs.
    warm_seeds:
        Extra (K, N) assignments stacked into the PSO warm-start pool
        (e.g. the cache's best recorded swarm state for this problem);
        seeds are evaluated exactly, so the swarm starts no worse than
        the best seed.  PSO only.
    spare_capacity:
        Fault-aware headroom fraction in ``[0, 1)``.  Every crossbar
        keeps ``ceil(capacity * spare_capacity)`` slots free (a hard
        reservation enforced on every method's partitioner), the PSO
        objective gains a balance penalty spreading neurons below the
        watermark, and the placement pass keeps loaded clusters near
        spare slots (cheap evacuation targets).  ``0`` (default) is the
        paper's behavior, bit-identical to before.
    kwargs:
        Forwarded to the ``"annealing"`` / ``"genetic"`` baseline (e.g.
        annealing config); a ``TypeError`` for every other method.
    """
    return _map_snn(
        graph, architecture, method=method, seed=seed, pso_config=pso_config,
        warm_start=warm_start, placement=placement, objective=objective,
        noc_config=noc_config, cache=cache, warm_seeds=warm_seeds,
        spare_capacity=spare_capacity, **kwargs,
    )[0]


class _Derived(NamedTuple):
    """What one mapping run built of its graph and fabric, for its caller
    to use instead of building it again; all ``None`` after a memo hit.
    ``topology`` is the healthy fabric of the fitness or the placement
    pass, ``routing`` that pass's (or the ``noc`` engine's) routing
    table on it; ``events`` and ``engine`` are the ``noc`` fitness's."""

    matrix: Optional[TrafficMatrix] = None
    topology: Optional["Topology"] = None
    routing: Optional[RoutingTable] = None
    events: Optional["SpikeEvents"] = None
    engine: Optional["FastInterconnect"] = None


def _map_snn(
    graph: SpikeGraph, architecture: Architecture, method, seed, pso_config,
    warm_start, placement, objective, noc_config, cache, warm_seeds,
    spare_capacity, **kwargs,
) -> Tuple[MappingResult, _Derived]:
    """:func:`map_snn`, plus what it built on the way."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; options: {METHODS}")
    if kwargs and method not in ("annealing", "genetic"):
        # Nothing would read them: say so instead of dropping them.
        raise TypeError(
            f"map_snn(method={method!r}) got unexpected keyword arguments "
            f"{sorted(kwargs)}"
        )
    architecture.require_fits(graph.n_neurons)
    c, nc = architecture.n_crossbars, architecture.neurons_per_crossbar

    if not 0.0 <= spare_capacity < 1.0:
        raise ValueError(
            f"spare_capacity must be in [0, 1), got {spare_capacity}"
        )
    reserve = int(np.ceil(nc * spare_capacity))
    nc_eff = nc - reserve
    if nc_eff * c < graph.n_neurons:
        raise ValueError(
            f"spare_capacity={spare_capacity} reserves {reserve} of {nc} "
            f"slots per crossbar, leaving {nc_eff * c} usable slots for "
            f"{graph.n_neurons} neurons"
        )

    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; use one of {OBJECTIVES}"
        )
    if objective == "noc" and method != "pso":
        # The structural baselines have no objective to swap in; letting
        # them run would label heuristic results as NoC-in-the-loop ones.
        raise ValueError(
            "objective='noc' is only supported by method='pso' "
            f"(got method={method!r})"
        )

    # Full-result memoization: only for calls that are deterministic
    # functions of the token (int-seeded, or a seed-free deterministic
    # method) with no free-form kwargs, so a cache hit is bit-identical
    # to recomputing.  Every other parameter is part of the token.
    memo_key = None
    if cache is not None and not kwargs:
        if replayable(seed, unused=method in SEED_FREE_METHODS):
            from repro.framework.artifacts import mapping_token

            memo_key = cache.key(
                "mapping-result",
                mapping_token(
                    graph,
                    architecture,
                    method=method,
                    seed=seed,
                    pso_config=pso_config,
                    warm_start=warm_start,
                    placement=placement,
                    objective=objective,
                    noc_config=noc_config,
                    warm_seeds=warm_seeds,
                    spare_capacity=spare_capacity,
                ),
            )
            found, cached = cache.get(memo_key)
            if found:
                obs = get_observer()
                if obs.enabled:
                    obs.inc("map.memo_hits", method=method)
                    obs.event("map.memo_hit", method=method, objective=objective)
                return _copy_mapping_result(cached), _Derived()

    obs = get_observer()
    if obs.enabled:
        obs.inc("map.requests", method=method, objective=objective)
    extras: Dict[str, object] = {}
    # Always-timed span (real wall clock with tracing off too):
    # wall_time_s derives from its duration, and the per-stage spans
    # below nest under it in a trace.
    map_span = obs.timed_span(
        "map_snn",
        method=method,
        objective=objective,
        n_neurons=graph.n_neurons,
        n_crossbars=c,
    )
    # Fault-aware spreading: a balance watermark at the even-fill level
    # with a weight scaled to the graph's traffic, so the penalty acts as
    # a spread-toward-balance tie-breaker in the objective's own units.
    balance_kwargs: Dict[str, object] = {}
    if spare_capacity > 0:
        balance_kwargs = dict(
            balance_watermark=max(
                1, int(np.ceil(graph.n_neurons / max(c, 1)))
            ),
            balance_weight=(
                spare_capacity
                * float(graph.traffic.sum())
                / max(graph.n_neurons, 1)
            ),
        )

    matrix = topology = routing = fitness = None
    with map_span:
        if method == "pso":
            if objective == "noc":
                topology = architecture.build_topology()
            fitness = InterconnectFitness(
                graph,
                objective=objective,
                topology=topology,
                cycles_per_ms=architecture.cycles_per_ms,
                noc_config=noc_config,
                **balance_kwargs,
            )
            matrix = fitness.matrix
            move_cost = graph.neuron_out_traffic()
            in_traffic = np.bincount(
                graph.dst, weights=graph.traffic, minlength=graph.n_neurons
            )
            pso = BinaryPSO(
                fitness,
                n_neurons=graph.n_neurons,
                n_clusters=c,
                capacity=nc_eff,
                config=pso_config,
                move_cost=move_cost + in_traffic,
                seed=seed,
            )
            initial = None
            if warm_start:
                with obs.span("map.warm_start"):
                    seeds = [pacman_partition(graph, c, nc_eff).assignment]
                    try:
                        seeds.append(greedy_partition(matrix, c, nc_eff).assignment)
                    except ValueError:
                        pass  # greedy can be skipped if packing is degenerate
                    initial = np.stack(seeds)
            if warm_seeds is not None:
                warm = np.atleast_2d(np.asarray(warm_seeds, dtype=np.int64))
                initial = warm if initial is None else np.vstack([initial, warm])
            # Always-timed like the parent: the throughput extras below
            # must report real durations whether or not tracing is on.
            swarm_span = obs.timed_span("map.pso_optimize")
            with swarm_span:
                result = pso.optimize(initial_assignments=initial)
            swarm_wall = swarm_span.duration_s
            swarm_span.set(
                n_evaluations=result.n_evaluations,
                best_fitness=result.best_fitness,
            )
            partition = result.partition(c, nc_eff)
            extras["history"] = result.history
            extras["n_evaluations"] = result.n_evaluations
            # Swarm throughput (particle-iterations per second): the
            # figure the Fig. 7 bench and quickstart report so front-end
            # regressions show up directly in bench output.
            extras["pso_wall_time_s"] = swarm_wall
            extras["particle_iterations_per_s"] = (
                result.n_evaluations / swarm_wall
                if swarm_wall > 0
                else float("inf")
            )
        elif method == "pacman":
            partition = pacman_partition(graph, c, nc_eff)
        elif method == "neutrams":
            partition = neutrams_partition(graph, c, nc_eff, seed=seed)
        elif method == "random":
            partition = random_partition(graph, c, nc_eff, seed=seed)
        elif method == "greedy":
            matrix = TrafficMatrix(graph)
            partition = greedy_partition(matrix, c, nc_eff)
        elif method == "genetic":
            partition = genetic_partition(
                graph, c, nc_eff, seed=seed, objective=objective, **kwargs
            )
        else:  # annealing
            partition = annealing_partition(graph, c, nc_eff, seed=seed, **kwargs)

        # The "noc" objective already optimizes against real attach-point
        # positions, so the closed-form placement pass would permute (and
        # potentially undo) the simulated optimum; skip it there.
        if placement and c > 1 and not (method == "pso" and objective == "noc"):
            with obs.span("map.placement"):
                traffic = cluster_traffic(graph, partition.assignment, c)
                topology = architecture.build_topology()
                routing = routing_for(topology)
                spare_kwargs: Dict[str, object] = {}
                if spare_capacity > 0:
                    # Keep loaded clusters near free slots: evacuation
                    # distance is weighed against hop-weighted traffic
                    # at the mean per-cluster traffic scale.
                    spare_kwargs = dict(
                        loads=np.bincount(
                            partition.assignment, minlength=c
                        ),
                        capacity=nc,
                        spare_weight=(
                            spare_capacity * float(traffic.sum()) / max(c, 1)
                        ),
                    )
                perm = place_clusters(
                    traffic, topology, routing=routing, **spare_kwargs
                )
                partition = Partition(
                    assignment=apply_placement(partition.assignment, perm),
                    n_clusters=c,
                    capacity=nc,
                )
                extras["placement"] = perm
        if partition.capacity != nc:
            # Report the hardware's true capacity outward; the spare
            # reservation only constrains how full the partitioners may
            # pack, not what the crossbars can physically hold.
            partition = Partition(
                assignment=partition.assignment,
                n_clusters=c,
                capacity=nc,
            )
    elapsed = map_span.duration_s

    local_spikes, global_spikes = local_global_split(graph, partition.assignment)
    local_syn, global_syn = synapse_split_counts(graph, partition.assignment)
    # The PSO's fitness and the greedy method already aggregated this
    # graph; the other structural methods never did.
    if matrix is None:
        matrix = TrafficMatrix(graph)
    extras["packets"] = matrix.packet_traffic(partition.assignment)
    extras["objective"] = objective
    if spare_capacity > 0:
        extras["spare_capacity"] = spare_capacity
    mapping = MappingResult(
        method=method,
        partition=partition,
        fitness=global_spikes,
        local_spikes=local_spikes,
        global_spikes=global_spikes,
        local_synapses=local_syn,
        global_synapses=global_syn,
        wall_time_s=elapsed,
        extras=extras,
    )
    if cache is not None and method == "pso":
        # Remember the converged swarm optimum so later requests can
        # opt in to warm-start from it (the objective value is invariant
        # under the placement pass's cluster relabeling).
        cache.record_warm_state(
            graph, architecture, objective,
            partition.assignment, result.best_fitness,
        )
    if memo_key is not None:
        cache.put(memo_key, _copy_mapping_result(mapping), persist=True)
    if objective != "noc":
        return mapping, _Derived(matrix, topology, routing)
    engine = fitness._noc
    return mapping, _Derived(
        matrix, topology, engine.routing, fitness._events, engine
    )


def _copy_mapping_result(mapping: MappingResult) -> MappingResult:
    """Shallow-copy a cached result so callers cannot mutate the cache.

    The assignment array and extras dict are the mutable surfaces a
    caller touches; everything else is value-like.
    """
    import dataclasses

    return dataclasses.replace(
        mapping,
        partition=Partition(
            assignment=mapping.partition.assignment.copy(),
            n_clusters=mapping.partition.n_clusters,
            capacity=mapping.partition.capacity,
        ),
        extras=dict(mapping.extras),
    )


def compare_methods(
    graph: SpikeGraph,
    architecture: Architecture,
    methods: tuple = ("neutrams", "pacman", "pso"),
    seed: SeedLike = None,
    pso_config: Optional[PSOConfig] = None,
    objective: str = "packets",
    cache=None,
) -> Dict[str, MappingResult]:
    """Run several partitioners on the same problem (Fig. 5 style).

    The ``"noc"`` objective only applies to PSO, so it restricts
    ``methods`` to ``("pso",)`` — mixing NoC-scored and structural
    results in one table would be apples-to-oranges.  A ``"noc"``
    swarm scores on the default :class:`~repro.noc.interconnect.NocConfig`.
    """
    if objective == "noc":
        rejected = [m for m in methods if m != "pso"]
        if rejected:
            raise ValueError(
                "objective='noc' is only supported by method='pso'; "
                f"drop {rejected} from methods or use objective='packets'"
            )
    return {
        m: map_snn(
            graph, architecture, method=m, seed=seed, pso_config=pso_config,
            objective=objective, cache=cache,
        )
        for m in methods
    }
