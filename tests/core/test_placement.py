"""Tests for cluster-to-tile placement."""

import numpy as np
import pytest

from repro.core.placement import apply_placement, place_clusters, placement_cost
from repro.noc.routing import routing_for
from repro.noc.topology import tree


class TestPlaceClusters:
    def test_heavy_pair_becomes_adjacent(self):
        """Two chatty clusters land on sibling leaves of the tree."""
        topo = tree(4, arity=2)  # siblings (0,1) and (2,3): distance 2
        routing = routing_for(topo)
        traffic = np.zeros((4, 4))
        traffic[0, 3] = 100.0  # clusters 0 and 3 talk heavily
        perm = place_clusters(traffic, topo, routing)
        d = routing.distance(
            topo.attach_points[int(perm[0])],
            topo.attach_points[int(perm[3])],
        )
        assert d == 2  # siblings, not across the root (4 hops)

    def test_perm_is_permutation(self):
        topo = tree(6)
        rng = np.random.default_rng(0)
        traffic = rng.random((6, 6)) * 10
        np.fill_diagonal(traffic, 0.0)
        perm = place_clusters(traffic, topo)
        assert sorted(perm.tolist()) == list(range(6))

    def test_single_cluster(self):
        perm = place_clusters(np.zeros((1, 1)), tree(1))
        assert perm.tolist() == [0]

    def test_cost_never_worse_than_identity(self):
        topo = tree(8)
        routing = routing_for(topo)
        rng = np.random.default_rng(3)
        traffic = rng.random((8, 8)) * 50
        np.fill_diagonal(traffic, 0.0)
        from repro.core.placement import _distance_matrix
        dist = _distance_matrix(topo, routing)
        perm = place_clusters(traffic, topo, routing)
        identity = np.arange(8)
        assert placement_cost(traffic, perm, dist) <= placement_cost(
            traffic, identity, dist
        )

    def test_too_few_slots_rejected(self):
        with pytest.raises(ValueError, match="attach points"):
            place_clusters(np.zeros((5, 5)), tree(3))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            place_clusters(np.zeros((2, 3)), tree(3))


class TestApplyPlacement:
    def test_relabeling(self):
        assignment = np.array([0, 0, 1, 2])
        perm = np.array([2, 0, 1])  # cluster 0 -> slot 2, etc.
        assert apply_placement(assignment, perm).tolist() == [2, 2, 0, 1]

    def test_fitness_invariant(self, tiny_graph):
        """Relabeling clusters never changes which synapses cross."""
        from repro.core.fitness import InterconnectFitness
        fit = InterconnectFitness(tiny_graph)
        assignment = np.array([0, 1, 0, 1, 2, 3, 2, 3])
        perm = np.array([3, 1, 0, 2])
        before = fit.evaluate(assignment)
        after = fit.evaluate(apply_placement(assignment, perm))
        assert before == after


class TestEvacuationCost:
    def test_nearest_refuge_weighted_by_load(self):
        from repro.core.placement import evacuation_cost

        topo = tree(4, arity=2)  # leaf distances: siblings 2, cousins 4
        routing = routing_for(topo)
        from repro.core.placement import _distance_matrix
        dist = _distance_matrix(topo, routing)
        loads = np.array([4, 4, 4, 2])  # only cluster 3 has free slots
        perm = np.arange(4)
        cost = evacuation_cost(loads, 4, perm, dist)
        # Clusters 0/1 sit 4 hops from the refuge, cluster 2 sits 2
        # hops; cluster 3's own refuge is itself -> contributes 0.
        assert cost == pytest.approx(4 * 4 + 4 * 4 + 4 * 2)

    def test_no_spare_capacity_is_zero(self):
        from repro.core.placement import evacuation_cost

        dist = np.ones((3, 3))
        assert evacuation_cost(
            np.array([4, 4, 4]), 4, np.arange(3), dist
        ) == 0.0

    def test_spare_placement_moves_refuge_closer(self):
        """With a heavy spare term, loaded clusters hug the empty one."""
        from repro.core.placement import _distance_matrix, evacuation_cost

        topo = tree(8, arity=2)
        routing = routing_for(topo)
        dist = _distance_matrix(topo, routing)
        rng = np.random.default_rng(5)
        traffic = rng.random((8, 8))
        np.fill_diagonal(traffic, 0.0)
        loads = np.array([4, 4, 4, 4, 4, 4, 4, 0])  # one empty cluster
        plain = place_clusters(traffic, topo, routing)
        spare = place_clusters(
            traffic, topo, routing,
            loads=loads, capacity=4, spare_weight=1000.0,
        )
        assert evacuation_cost(loads, 4, spare, dist) <= evacuation_cost(
            loads, 4, plain, dist
        )

    def test_default_path_unchanged_by_new_arguments(self):
        topo = tree(6)
        rng = np.random.default_rng(7)
        traffic = rng.random((6, 6)) * 10
        np.fill_diagonal(traffic, 0.0)
        before = place_clusters(traffic, topo)
        after = place_clusters(
            traffic, topo, loads=np.full(6, 3), capacity=4,
            spare_weight=0.0,
        )
        assert (before == after).all()

    def test_spare_weight_validation(self):
        topo = tree(3)
        traffic = np.zeros((3, 3))
        with pytest.raises(ValueError, match="non-negative"):
            place_clusters(traffic, topo, spare_weight=-1.0)
        with pytest.raises(ValueError, match="loads and capacity"):
            place_clusters(traffic, topo, spare_weight=1.0)
