"""Fitness functions for the partitioning optimizers.

The paper's objective (Eq. 8) is the total spike count on the global
synapse interconnect.  :class:`InterconnectFitness` evaluates it for
single assignments and swarm batches.  Its ``objective`` is one of
:data:`OBJECTIVES`:

- ``"spikes"`` (the default, the paper's Eq. 8) — per-synapse spikes
  that cross crossbars, a blocked sum over the synapse pairs.
- ``"packets"`` — count unique (neuron, destination-crossbar) packets
  instead of per-synapse spikes.  With in-network multicast a neuron
  reaching many neurons on one remote crossbar sends one AER packet, so
  this variant matches the hardware cost more closely; the ablation bench
  compares both.  A swarm costs one
  :meth:`~repro.core.traffic_matrix.TrafficMatrix.reach_masks` pass (a
  grouped OR per distinct target set, gathered to the sources) plus a
  popcount, and is exact for integer spike counts, as is ``"spikes"``.
- ``"noc"`` — score an assignment by the link traversals its AER
  traffic makes on the interconnect (total hops, the energy-proportional
  event count), plus :data:`UNDELIVERED_PENALTY` for each delivery the
  interconnect misses before its drain deadline.  Neither number depends
  on timing once every packet is known to arrive, so a row is scored in
  closed form when the fabric's routing proves it
  (:class:`~repro.noc.routing.DeliveryCertificate`: every route arrives,
  the channel dependency graph is acyclic, multicast routes form trees,
  and the row's hops + deliveries fit in ``max_extra_cycles``) — counted
  off the swarm's reach masks and the certificate's per-source route
  masks.  Only the other rows run the cycle loop of the fast backend
  (:mod:`repro.noc.fastsim`), and the same two numbers are read off its
  :class:`~repro.noc.stats.NocStats`.  The
  instance builds the graph's :class:`~repro.core.traffic_matrix.TrafficMatrix`,
  sorts its spike events (:class:`~repro.noc.traffic.SpikeEvents`) and
  builds its engine once; every schedule it simulates is a filtered view
  of that event list with the same reach masks as destination words.
  Within one :func:`~repro.framework.pipeline.run_pipeline` the mapper
  passes these on by argument: the matrix to the greedy warm start and
  ``extras["packets"]``, the events to the final schedule, and the
  engine (with its routing table and certificate) to the final run
  where that run's fabric and config are the swarm's.  Those rows run
  through
  :meth:`~repro.noc.fastsim.FastInterconnect.simulate_many`: one
  GIL-free C call per swarm, spread over an OpenMP thread team where the
  kernel was built with one (``REPRO_NOC_THREADS`` caps it),
  bit-identical for any thread count.  Under ``observe()`` the counter
  ``fitness.noc_rows{path="closed"|"simulated"}`` says which path scored
  how many rows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.traffic_matrix import TrafficMatrix
from repro.noc.topology import Topology, dense_node_ids
from repro.obs import get_observer
from repro.snn.graph import SpikeGraph

#: The objectives a fitness scores, the paper's Eq. 8 first.
OBJECTIVES = ("spikes", "packets", "noc")

#: Penalty per undelivered (packet, destination) pair under the "noc"
#: objective: a mapping that deadlocks or cannot drain must always lose to
#: any mapping that delivers everything.
UNDELIVERED_PENALTY = 1e9


class InterconnectFitness:
    """Spike-communication objective over a fixed spike graph.

    Lower is better.  ``evaluate`` takes one assignment; ``evaluate_batch``
    takes a (P, N) swarm and returns (P,) fitness values.

    Parameters
    ----------
    objective:
        One of :data:`OBJECTIVES`.  ``"noc"`` scores assignments by their
        traffic on the interconnect instead of closed-form traffic
        counts, and requires ``topology``.  Its score is the total link
        traversals (the energy-proportional event count); undelivered
        packets add :data:`UNDELIVERED_PENALTY` each.  Rows the routing
        proves deliverable are counted, the rest simulated (fast
        backend).
    noc_config:
        Interconnect parameters for the ``"noc"`` objective; the backend
        is forced to "fast".
    cycles_per_ms:
        Spike-time to NoC-cycle conversion for the ``"noc"`` objective.
    balance_watermark / balance_weight:
        Fault-aware spreading term: each cluster packing more than
        ``balance_watermark`` neurons adds
        ``balance_weight * overflow**2`` to the objective, steering the
        optimizer toward spread-out mappings whose crossbars keep spare
        slots — the headroom that makes runtime evacuation cheap when a
        crossbar dies.  Off by default (``balance_weight == 0``); see
        ``map_snn(..., spare_capacity=)`` for the user-facing knob.
    """

    def __init__(
        self,
        graph: SpikeGraph,
        objective: str = "spikes",
        topology: Optional[Topology] = None,
        noc_config=None,
        cycles_per_ms: float = 10.0,
        balance_watermark: Optional[int] = None,
        balance_weight: float = 0.0,
    ) -> None:
        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}; use one of {OBJECTIVES}"
            )
        if objective == "noc" and topology is None:
            raise ValueError("the 'noc' objective needs a topology")
        self.graph = graph
        self.matrix = TrafficMatrix(graph)
        self.objective = objective
        if balance_weight < 0:
            raise ValueError(
                f"balance_weight must be non-negative, got {balance_weight}"
            )
        if balance_weight > 0 and (
            balance_watermark is None or balance_watermark <= 0
        ):
            raise ValueError(
                "balance_weight needs a positive balance_watermark, got "
                f"{balance_watermark}"
            )
        self.balance_watermark = balance_watermark
        self.balance_weight = float(balance_weight)
        self.topology = topology
        self.cycles_per_ms = cycles_per_ms
        self._noc = None
        if objective == "noc":
            import dataclasses

            from repro.noc.fastsim import FastInterconnect
            from repro.noc.interconnect import NocConfig
            from repro.noc.traffic import SpikeEvents

            base = noc_config if noc_config is not None else NocConfig()
            cfg = dataclasses.replace(base, backend="fast")
            self._noc = FastInterconnect(topology, config=cfg)
            # Everything the schedules share: this instance's synapse
            # pairs (deduplicated once, above) and the graph's spike
            # events, sorted once for every swarm it will ever score.
            self._events = SpikeEvents(graph, cycles_per_ms, matrix=self.matrix)
            self._certificate = self._noc.routing.certificate()
            node_ids = dense_node_ids(topology)
            self._n_routers = node_ids.shape[0]
            self._attach_bit = np.searchsorted(
                node_ids, np.asarray(topology.attach_points, dtype=np.int64)
            )

    # -- single assignment ------------------------------------------------------

    def evaluate(self, assignment: np.ndarray) -> float:
        """Objective value of one assignment (lower is better)."""
        a = np.asarray(assignment, dtype=np.int64)
        if self.objective == "noc":
            base = self._simulate_batch(a[None, :])[0]
        elif self.objective == "packets":
            base = self.matrix.packet_traffic(a)
        else:
            base = self.matrix.global_traffic(a)
        if self.balance_weight > 0:
            base += self._balance_penalty(a[None, :])[0]
        return base

    def evaluate_batch(self, assignments: np.ndarray) -> np.ndarray:
        """Objective values for a (P, N) batch of assignments."""
        a = np.asarray(assignments, dtype=np.int64)
        if a.ndim == 1:
            a = a[None, :]
        if self.objective == "noc":
            base = self._simulate_batch(a)
        elif self.objective == "packets":
            base = self.matrix.packet_traffic_batch(a)
        else:
            base = self.matrix.global_traffic_batch(a)
        if self.balance_weight > 0:
            base = base + self._balance_penalty(a)
        return base

    def _balance_penalty(self, assignments: np.ndarray) -> np.ndarray:
        """Quadratic overflow past the watermark, per swarm row.

        ``sum_c max(0, count_c - watermark)**2`` scaled by
        ``balance_weight`` — zero for any row whose clusters all stay at
        or under the watermark, growing quadratically as neurons pile
        onto one crossbar.  Vectorized over the whole (P, N) batch with
        one scatter-add.
        """
        p, _ = assignments.shape
        n_clusters = int(assignments.max()) + 1 if assignments.size else 1
        counts = np.zeros((p, n_clusters), dtype=np.int64)
        np.add.at(
            counts,
            (np.repeat(np.arange(p), assignments.shape[1]),
             assignments.ravel()),
            1,
        )
        overflow = np.clip(counts - self.balance_watermark, 0, None)
        return self.balance_weight * (
            (overflow.astype(np.float64) ** 2).sum(axis=1)
        )

    # -- the noc objective ------------------------------------------------------

    def _score(self, stats) -> float:
        """Objective from a simulated schedule's
        :class:`~repro.noc.stats.NocStats`: two counters, no per-delivery
        column is read.

        Integer-exact inputs (hop totals, delivery counts) make this
        bit-identical whichever engine simulated the schedule.
        """
        return float(stats.total_hops()) + UNDELIVERED_PENALTY * stats.undelivered_count

    def _simulate_batch(self, assignments: np.ndarray) -> np.ndarray:
        from repro.noc.traffic import check_assignments

        scores = np.empty(assignments.shape[0], dtype=np.float64)
        rest = np.arange(assignments.shape[0])
        if self._certificate.deadlock_free:
            a = check_assignments(self.graph, assignments, self.topology)
            reach = self.matrix.reach_masks(
                a, index=self._attach_bit, n_bits=self._n_routers
            )
            self._events.check_emitting(reach.any(axis=2))
            config = self._noc.config
            hops, proven = self._certificate.closed_form(
                reach, self._attach_bit[a], self._events.counts,
                config.multicast, config.max_extra_cycles,
            )
            scores[proven] = hops[proven]
            rest = rest[~proven]
        obs = get_observer()
        if obs.enabled:
            closed = scores.shape[0] - rest.shape[0]
            obs.inc("fitness.noc_rows", closed, path="closed")
            obs.inc("fitness.noc_rows", rest.shape[0], path="simulated")
        if rest.size:
            scores[rest] = self._simulate_rows(assignments[rest])
        return scores

    def _simulate_rows(self, assignments: np.ndarray) -> np.ndarray:
        from repro.noc.traffic import build_injections_batch

        # One columnar batch: every schedule is a filtered view of the
        # shared event list with the swarm's reach masks as destination
        # words; the schedules flow to the simulator as arrays, never as
        # per-packet Injection objects.
        schedules = build_injections_batch(
            self.graph, assignments, self.topology,
            cycles_per_ms=self.cycles_per_ms, events=self._events,
        )
        return np.asarray(
            [self._score(stats) for stats in self._noc.simulate_many(schedules)],
            dtype=np.float64,
        )
