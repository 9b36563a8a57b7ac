"""Tests for run-time incremental remapping."""

import numpy as np
import pytest

from repro.core.partition import is_feasible
from repro.core.runtime import FaultEvent, RuntimeRemapper
from repro.snn.graph import SpikeGraph


def _remapper(graph, assignment, **kwargs):
    return RuntimeRemapper(
        graph, n_clusters=2, capacity=4,
        assignment=np.asarray(assignment), **kwargs,
    )


class TestConstruction:
    def test_infeasible_initial_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="feasible"):
            _remapper(tiny_graph, [0] * 8)

    def test_fitness_matches_matrix(self, tiny_graph):
        rm = _remapper(tiny_graph, [0, 0, 0, 0, 1, 1, 1, 1])
        assert rm.fitness() == 5.0


class TestRemapEpoch:
    def test_improves_bad_mapping(self, tiny_graph):
        rm = _remapper(tiny_graph, [0, 1, 0, 1, 0, 1, 0, 1],
                       migration_budget=8)
        epoch = rm.remap_epoch()
        assert epoch.fitness_after < epoch.fitness_before
        assert is_feasible(rm.assignment, 2, 4)

    def test_reaches_optimum_with_budget(self, tiny_graph):
        rm = _remapper(tiny_graph, [0, 1, 0, 1, 0, 1, 0, 1],
                       migration_budget=8)
        for _ in range(4):
            rm.remap_epoch()
        assert rm.fitness() == 5.0

    def test_budget_limits_moves(self, tiny_graph):
        rm = _remapper(tiny_graph, [0, 1, 0, 1, 0, 1, 0, 1],
                       migration_budget=1)
        epoch = rm.remap_epoch()
        assert epoch.n_migrations <= 1

    def test_optimal_mapping_stays_put(self, tiny_graph):
        rm = _remapper(tiny_graph, [0, 0, 0, 0, 1, 1, 1, 1])
        epoch = rm.remap_epoch()
        assert epoch.n_migrations == 0
        assert epoch.improvement == 0.0

    def test_moves_recorded_with_gains(self, tiny_graph):
        rm = _remapper(tiny_graph, [0, 1, 0, 1, 0, 1, 0, 1],
                       migration_budget=8)
        epoch = rm.remap_epoch()
        # A swap's gain is split across its two moves: the first carries
        # its sequential move gain, the second the remainder, so
        # per-move gains always sum to the epoch's total improvement
        # (individual halves may be negative when one side only pays
        # off because of its partner).
        assert any(m.gain > 0 for m in epoch.moves)
        assert epoch.improvement == pytest.approx(
            sum(m.gain for m in epoch.moves)
        )

    def test_history_accumulates(self, tiny_graph):
        rm = _remapper(tiny_graph, [0, 1, 0, 1, 0, 1, 0, 1],
                       migration_budget=2)
        rm.remap_epoch()
        rm.remap_epoch()
        assert len(rm.history) == 2
        assert rm.total_migrations() == sum(
            e.n_migrations for e in rm.history
        )


class TestEdgeCases:
    def test_zero_budget_is_noop_epoch(self, tiny_graph):
        """budget=0 observes and audits but may not move anything."""
        bad = [0, 1, 0, 1, 0, 1, 0, 1]
        rm = _remapper(tiny_graph, bad, migration_budget=0)
        before = rm.fitness()
        epoch = rm.remap_epoch()
        assert epoch.n_migrations == 0
        assert epoch.moves == []
        assert epoch.fitness_before == before
        assert epoch.fitness_after == before
        assert epoch.improvement == 0.0
        assert np.array_equal(rm.assignment, np.asarray(bad))
        assert len(rm.history) == 1  # the dry-run epoch is still audited

    def test_moves_into_full_crossbars_rejected(self):
        """With every crossbar full, single moves are infeasible.

        Neurons 0 and 2 want to swap sides (heavy 0<->2 traffic) but
        both clusters sit at capacity, so a budget of 1 — too small for
        a swap — must yield a no-move epoch and an unchanged, feasible
        assignment.
        """
        src = [0, 2, 1, 3]
        dst = [2, 0, 3, 1]
        traffic = np.array([80.0, 80.0, 1.0, 1.0])
        g = SpikeGraph.from_edges(4, src, dst, traffic)
        rm = RuntimeRemapper(
            g, n_clusters=2, capacity=2,
            assignment=np.array([0, 0, 1, 1]),
            migration_budget=1,
        )
        epoch = rm.remap_epoch()
        assert epoch.n_migrations == 0
        assert np.array_equal(rm.assignment, np.array([0, 0, 1, 1]))
        assert is_feasible(rm.assignment, 2, 2)

    def test_budget_two_allows_the_blocked_swap(self):
        """The same blocked exchange goes through once a swap fits."""
        src = [0, 2, 1, 3]
        dst = [2, 0, 3, 1]
        traffic = np.array([80.0, 80.0, 1.0, 1.0])
        g = SpikeGraph.from_edges(4, src, dst, traffic)
        rm = RuntimeRemapper(
            g, n_clusters=2, capacity=2,
            assignment=np.array([0, 0, 1, 1]),
            migration_budget=2,
        )
        epoch = rm.remap_epoch()
        assert epoch.n_migrations == 2
        assert epoch.improvement > 0
        assert is_feasible(rm.assignment, 2, 2)
        # The swap's gain is attributed across both of its moves.
        assert epoch.improvement == pytest.approx(
            sum(m.gain for m in epoch.moves)
        )

    def test_epoch_gains_sum_to_fitness_delta(self, tiny_graph):
        """Audit invariant: per-epoch gains add up to the fitness drop."""
        rm = _remapper(tiny_graph, [0, 1, 0, 1, 0, 1, 0, 1],
                       migration_budget=3)
        initial = rm.fitness()
        for _ in range(4):
            epoch = rm.remap_epoch()
            assert epoch.improvement == pytest.approx(
                sum(m.gain for m in epoch.moves)
            )
            assert epoch.fitness_after == pytest.approx(
                epoch.fitness_before - epoch.improvement
            )
        total_gain = sum(
            m.gain for e in rm.history for m in e.moves
        )
        assert initial - rm.fitness() == pytest.approx(total_gain)

    def test_negative_budget_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="non-negative"):
            _remapper(tiny_graph, [0, 0, 0, 0, 1, 1, 1, 1],
                      migration_budget=-1)


class TestTrafficDrift:
    def test_observe_traffic_changes_optimum(self):
        """When traffic shifts, the remapper follows it.

        Initially neurons {0,1} {2,3} talk; mapping is optimal.  Then the
        traffic shifts so {0,2} {1,3} talk instead: remapping must swap.
        """
        src = [0, 1, 2, 3, 0, 2]
        dst = [1, 0, 3, 2, 2, 0]
        traffic_before = np.array([50.0, 50.0, 50.0, 50.0, 1.0, 1.0])
        g = SpikeGraph.from_edges(4, src, dst, traffic_before)
        rm = RuntimeRemapper(g, n_clusters=2, capacity=2,
                             assignment=np.array([0, 0, 1, 1]),
                             migration_budget=4)
        assert rm.remap_epoch().n_migrations == 0  # already optimal

        traffic_after = np.array([1.0, 1.0, 1.0, 1.0, 80.0, 80.0])
        rm.observe_traffic(traffic_after)
        before = rm.fitness()
        # Capacity is tight (2 per cluster): single moves are blocked, but
        # two epochs of budget-2 move-chains cannot fix a swap; verify the
        # remapper at least never regresses and reports honestly.
        epoch = rm.remap_epoch()
        assert epoch.fitness_after <= before

    def test_observe_rejects_bad_shape(self, tiny_graph):
        rm = _remapper(tiny_graph, [0, 0, 0, 0, 1, 1, 1, 1])
        with pytest.raises(ValueError, match="shape"):
            rm.observe_traffic(np.ones(3))

    def test_observe_rejects_negative(self, tiny_graph):
        rm = _remapper(tiny_graph, [0, 0, 0, 0, 1, 1, 1, 1])
        with pytest.raises(ValueError, match="non-negative"):
            rm.observe_traffic(-tiny_graph.traffic)

    def test_observe_traffic_leaves_caller_graph_untouched(self, tiny_graph):
        """Observations update the remapper's copy, never the shared graph."""
        original = tiny_graph.traffic.copy()
        rm = _remapper(tiny_graph, [0, 0, 0, 0, 1, 1, 1, 1])
        rm.observe_traffic(np.ones_like(tiny_graph.traffic))
        assert np.array_equal(tiny_graph.traffic, original)
        # The remapper itself did pick up the new observations.
        assert np.array_equal(
            rm.graph.traffic, np.ones_like(original)
        )

    def test_construction_does_not_alias_traffic(self, tiny_graph):
        """The remapper keeps the caller's graph, which nobody can write:
        the caller's write raises and the remapper scores as before."""
        rm = _remapper(tiny_graph, [0, 0, 0, 0, 1, 1, 1, 1])
        before = rm.fitness()
        with pytest.raises(ValueError, match="read-only"):
            tiny_graph.traffic[:] = 0.0
        assert rm.graph is tiny_graph
        assert rm.fitness() == before

    def test_drift_with_slack_capacity_recovers_optimum(self):
        """With one free slot per cluster, drift is fully repairable."""
        src = [0, 1, 2, 3, 0, 2]
        dst = [1, 0, 3, 2, 2, 0]
        g = SpikeGraph.from_edges(
            4, src, dst, np.array([50.0, 50.0, 50.0, 50.0, 1.0, 1.0])
        )
        rm = RuntimeRemapper(g, n_clusters=2, capacity=3,
                             assignment=np.array([0, 0, 1, 1]),
                             migration_budget=4)
        rm.observe_traffic(np.array([1.0, 1.0, 1.0, 1.0, 80.0, 80.0]))
        for _ in range(3):
            rm.remap_epoch()
        # Optimal now: {0, 1, 2} share a cluster (capacity 3), leaving
        # only the light 2<->3 edges (traffic 1 + 1) on the interconnect.
        assert rm.fitness() == 2.0


class TestFaultEvents:
    """Live crossbar faults: the remapper evacuates under its budget."""

    def _three_cluster_remapper(self, tiny_graph, **kwargs):
        # 8 neurons over 3 clusters of 4: one spare cluster's worth of
        # slack, so any single crossbar fault is fully absorbable.
        return RuntimeRemapper(
            tiny_graph, n_clusters=3, capacity=4,
            assignment=np.array([0, 0, 0, 0, 1, 1, 1, 1]), **kwargs,
        )

    def test_fault_evacuates_all_neurons(self, tiny_graph):
        rm = self._three_cluster_remapper(tiny_graph, migration_budget=4)
        rm.apply_fault(FaultEvent(crossbar=0, time=3.0))
        epoch = rm.remap_epoch()
        assert rm.evacuated(0)
        assert rm.neurons_on(0) == []
        assert epoch.n_migrations == 4
        assert all(m.forced for m in epoch.moves)
        assert all(m.from_cluster == 0 for m in epoch.moves)
        assert is_feasible(rm.assignment, 3, 4)

    def test_forced_gains_sum_to_improvement(self, tiny_graph):
        """The audit invariant holds even with negative forced gains."""
        rm = self._three_cluster_remapper(tiny_graph, migration_budget=8)
        rm.apply_fault(FaultEvent(crossbar=0))
        epoch = rm.remap_epoch()
        assert epoch.improvement == pytest.approx(
            sum(m.gain for m in epoch.moves)
        )
        assert epoch.fitness_after == pytest.approx(
            epoch.fitness_before - epoch.improvement
        )

    def test_budget_limits_evacuation(self, tiny_graph):
        rm = self._three_cluster_remapper(tiny_graph, migration_budget=2)
        rm.apply_fault(FaultEvent(crossbar=0))
        epoch = rm.remap_epoch()
        assert epoch.n_migrations == 2
        assert not rm.evacuated(0)
        assert len(rm.neurons_on(0)) == 2
        # A second epoch finishes the evacuation.
        rm.remap_epoch()
        assert rm.evacuated(0)

    def test_no_moves_back_onto_faulty_cluster(self, tiny_graph):
        rm = self._three_cluster_remapper(tiny_graph, migration_budget=8)
        rm.apply_fault(FaultEvent(crossbar=0))
        for _ in range(4):
            epoch = rm.remap_epoch()
            assert all(m.to_cluster != 0 for m in epoch.moves)
        assert rm.evacuated(0)

    def test_insufficient_healthy_capacity_rejected(self, tiny_graph):
        rm = _remapper(tiny_graph, [0, 0, 0, 0, 1, 1, 1, 1])
        with pytest.raises(ValueError, match="healthy"):
            rm.apply_fault(FaultEvent(crossbar=1))
        assert rm.faulty_clusters == set()

    def test_out_of_range_crossbar_rejected(self, tiny_graph):
        rm = self._three_cluster_remapper(tiny_graph)
        with pytest.raises(ValueError, match="out of range"):
            rm.apply_fault(FaultEvent(crossbar=3))

    def test_fault_log_records_events(self, tiny_graph):
        rm = self._three_cluster_remapper(tiny_graph)
        event = FaultEvent(crossbar=1, time=7.0, description="stuck rows")
        rm.apply_fault(event)
        assert rm.fault_log == [event]

    def test_zero_budget_fault_epoch_moves_nothing(self, tiny_graph):
        rm = self._three_cluster_remapper(tiny_graph, migration_budget=0)
        rm.apply_fault(FaultEvent(crossbar=0))
        epoch = rm.remap_epoch()
        assert epoch.moves == []
        assert not rm.evacuated(0)


class TestHealEvents:
    """Transient faults: a cleared crossbar is re-admitted for load."""

    def _three_cluster_remapper(self, tiny_graph, **kwargs):
        return RuntimeRemapper(
            tiny_graph, n_clusters=3, capacity=4,
            assignment=np.array([0, 0, 0, 0, 1, 1, 1, 1]), **kwargs,
        )

    def test_clear_reopens_cluster(self, tiny_graph):
        rm = self._three_cluster_remapper(tiny_graph, migration_budget=8)
        rm.apply_fault(FaultEvent(crossbar=0))
        rm.remap_epoch()
        assert rm.evacuated(0)
        rm.clear_fault(FaultEvent(crossbar=0))
        assert rm.faulty_clusters == set()
        # The healed cluster is a first-class citizen again: a later
        # fault elsewhere evacuates straight onto it (capacity-wise
        # the only possible refuge), under the ordinary budget.
        rm.apply_fault(FaultEvent(crossbar=2))
        rm.remap_epoch()
        assert rm.evacuated(2)
        assert len(rm.neurons_on(0)) == 4
        assert rm.fitness() == 5.0

    def test_clear_unknown_fault_rejected(self, tiny_graph):
        rm = self._three_cluster_remapper(tiny_graph)
        with pytest.raises(ValueError, match="not marked faulty"):
            rm.clear_fault(FaultEvent(crossbar=2))

    def test_heal_log_records_events(self, tiny_graph):
        rm = self._three_cluster_remapper(tiny_graph)
        rm.apply_fault(FaultEvent(crossbar=0))
        event = FaultEvent(crossbar=0, time=9.0, description="healed")
        rm.clear_fault(event)
        assert rm.heal_log == [event]
        assert rm.fault_log[-1].crossbar == 0  # arrival still on record

    def test_sync_faults_diffs_target_set(self, tiny_graph):
        rm = self._three_cluster_remapper(tiny_graph, migration_budget=8)
        arrived, cleared = rm.sync_faults({0}, time=1.0)
        assert (arrived, cleared) == ([0], [])
        assert rm.faulty_clusters == {0}
        arrived, cleared = rm.sync_faults({2}, time=2.0)
        assert (arrived, cleared) == ([2], [0])
        assert rm.faulty_clusters == {2}
        # No-op sync reports nothing.
        assert rm.sync_faults({2}, time=3.0) == ([], [])


class TestRunFaultTimeline:
    def _three_cluster_remapper(self, tiny_graph, **kwargs):
        return RuntimeRemapper(
            tiny_graph, n_clusters=3, capacity=4,
            assignment=np.array([0, 0, 0, 0, 1, 1, 1, 1]), **kwargs,
        )

    def _transient(self):
        from repro.noc.faults import FaultSet, FaultTimeline, FaultWindow

        return FaultTimeline([
            FaultWindow(FaultSet(faulty_crossbars=[0]), arrive=1.0,
                        clear=5.0),
        ])

    def test_arrive_then_clear_cycle(self, tiny_graph):
        from repro.core.runtime import run_fault_timeline

        rm = self._three_cluster_remapper(tiny_graph, migration_budget=8)
        steps = run_fault_timeline(rm, self._transient(), epochs_per_edge=2)
        assert [s.time for s in steps] == [1.0, 5.0]
        assert steps[0].arrived == (0,) and steps[0].cleared == ()
        assert steps[1].arrived == () and steps[1].cleared == (0,)
        # Evacuation happened at the arrive edge...
        assert all(m.from_cluster == 0 for m in steps[0].epochs[0].moves)
        # ...and the heal edge left the remapper fault-free at optimum.
        assert rm.faulty_clusters == set()
        assert rm.fitness() == 5.0
        assert len(rm.history) == 4  # 2 edges x 2 epochs, all audited

    def test_epochs_per_edge_validated(self, tiny_graph):
        from repro.core.runtime import run_fault_timeline

        rm = self._three_cluster_remapper(tiny_graph)
        with pytest.raises(ValueError):
            run_fault_timeline(rm, self._transient(), epochs_per_edge=0)

    @pytest.mark.parametrize(
        "fabric",
        [
            {"dead_links": [(0, 1)]},
            {"dead_routers": [3]},
            {"degraded_bridges": {0: 2}},
        ],
    )
    def test_fabric_faults_rejected_before_the_first_step(self, tiny_graph, fabric):
        """The remapper has no fabric: a window with link, router or
        bridge faults raises instead of having them dropped."""
        from repro.core.runtime import run_fault_timeline
        from repro.noc.faults import FaultSet, FaultTimeline, FaultWindow

        rm = self._three_cluster_remapper(tiny_graph, migration_budget=8)
        timeline = FaultTimeline([
            FaultWindow(FaultSet(faulty_crossbars=[0]), arrive=1.0, clear=5.0),
            FaultWindow(FaultSet(faulty_crossbars=[2], **fabric), arrive=2.0),
        ])
        with pytest.raises(ValueError, match="window 1 holds fabric faults"):
            run_fault_timeline(rm, timeline)
        assert rm.faulty_clusters == set()
        assert rm.history == []
