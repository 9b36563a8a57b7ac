"""Tests for topology builders."""

import networkx as nx
import pytest

from repro.noc.topology import (
    RouterGraph,
    Topology,
    build_topology,
    mesh,
    mesh_for,
    star,
    torus,
    tree,
)


class TestMesh:
    def test_dimensions(self):
        topo = mesh(3, 4)
        assert topo.n_routers == 12
        assert topo.graph.number_of_edges() == 3 * 3 + 2 * 4  # 17

    def test_square_default(self):
        assert mesh(3).n_routers == 9

    def test_positions_cover_grid(self):
        topo = mesh(2, 2)
        assert set(topo.positions.values()) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_every_router_is_attach_point(self):
        topo = mesh(2, 3)
        assert topo.attach_points == list(range(6))

    def test_single_node(self):
        topo = mesh(1, 1)
        assert topo.n_routers == 1


class TestTree:
    @pytest.mark.parametrize("n_leaves", [1, 2, 3, 4, 5, 8, 13])
    def test_leaves_are_attach_points(self, n_leaves):
        topo = tree(n_leaves)
        assert topo.n_attach_points == n_leaves
        assert nx.is_connected(topo.graph.to_networkx())

    def test_binary_tree_structure(self):
        topo = tree(4, arity=2)
        # 4 leaves + 2 mid + 1 root = 7 routers.
        assert topo.n_routers == 7

    def test_quad_tree_flatter(self):
        topo = tree(4, arity=4)
        assert topo.n_routers == 5  # 4 leaves + 1 root

    def test_leaves_have_degree_one(self):
        topo = tree(8, arity=2)
        for leaf in topo.attach_points:
            assert topo.graph.degree(leaf) == 1

    def test_arity_one_rejected(self):
        with pytest.raises(ValueError):
            tree(4, arity=1)


class TestStar:
    def test_structure(self):
        topo = star(5)
        assert topo.n_routers == 6
        hub = 5
        assert topo.graph.degree(hub) == 5

    def test_diameter_two(self):
        assert nx.diameter(star(4).graph.to_networkx()) == 2

    def test_single_crossbar_star(self):
        """The degenerate 1-crossbar star stays connected and routable."""
        topo = star(1)
        assert topo.n_routers == 2           # crossbar 0 + hub 1
        assert topo.attach_points == [0]
        assert topo.attach_points[0] == 0
        from repro.noc.routing import routing_for
        routing = routing_for(topo)
        assert routing.distance(0, 1) == 1


class TestTorus:
    def test_wraparound_links(self):
        topo = torus(3, 3)
        assert topo.graph.has_edge(0, 2)      # row wrap
        assert topo.graph.has_edge(0, 6)      # column wrap

    def test_smaller_diameter_than_mesh(self):
        assert nx.diameter(torus(4).graph.to_networkx()) < nx.diameter(
            mesh(4).graph.to_networkx()
        )

    def test_width_two_adds_no_duplicate_wrap(self):
        """A 2-wide dimension already has the wrap link as a mesh edge."""
        topo = torus(2, 3)
        assert topo.graph.number_of_edges() == mesh(2, 3).graph.number_of_edges() + 2

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 11])
    def test_torus_for_non_square_sizes(self, n):
        from repro.noc.topology import _torus_for

        topo = _torus_for(n)
        assert topo.n_attach_points == n
        assert topo.kind == "torus"
        assert nx.is_connected(topo.graph.to_networkx())
        # Attach points are the first n routers, each carrying a position.
        for k in range(n):
            assert topo.attach_points[k] in topo.positions

    def test_torus_for_five_wraps_rows_only(self):
        # 5 crossbars -> 3x2 grid: width 3 wraps, height 2 does not.
        topo = _import_torus_for()(5)
        assert topo.graph.has_edge(0, 2)          # row wrap on width 3
        assert topo.n_routers == 6


def _import_torus_for():
    from repro.noc.topology import _torus_for

    return _torus_for


class TestXYRoutingPositions:
    def test_xy_requires_positions(self):
        from repro.noc.routing import xy_routing

        with pytest.raises(ValueError, match="positions"):
            xy_routing(tree(4))

    def test_torus_positions_support_xy(self):
        """Tori keep full grid positions, so XY routing stays valid."""
        from repro.noc.routing import xy_routing

        topo = torus(3, 2)
        routing = xy_routing(topo)
        assert routing.distance(0, 5) == 3  # manhattan on the grid

    def test_mesh_for_positions_cover_attach_points(self):
        topo = mesh_for(7)
        for k in range(7):
            assert topo.attach_points[k] in topo.positions


class TestCaching:
    def test_hop_matrix_cached_per_routing(self):
        from repro.noc.routing import routing_for, shortest_path_routing

        topo = mesh(3)
        routing = routing_for(topo)
        first = topo.crossbar_hop_matrix(routing)
        assert topo.crossbar_hop_matrix(routing) is first
        # Distinct instances of the same algorithm share the cache entry.
        assert topo.crossbar_hop_matrix(routing_for(topo)) is first
        # A different algorithm gets its own entry.
        other = topo.crossbar_hop_matrix(shortest_path_routing(topo))
        assert other is not first

    def test_hop_matrix_read_only_and_correct(self):
        from repro.noc.routing import routing_for

        topo = mesh(3)
        routing = routing_for(topo)
        matrix = topo.crossbar_hop_matrix(routing)
        assert not matrix.flags.writeable
        for k1 in range(topo.n_attach_points):
            for k2 in range(topo.n_attach_points):
                expected = 0 if k1 == k2 else routing.distance(
                    topo.attach_points[k1], topo.attach_points[k2]
                )
                assert matrix[k1, k2] == expected

    def test_default_routing_hop_matrix(self):
        topo = tree(4)
        matrix = topo.crossbar_hop_matrix()
        assert matrix.shape == (4, 4)
        assert matrix[0, 1] == 2.0


class TestMeshFor:
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 10, 17])
    def test_covers_crossbars(self, n):
        topo = mesh_for(n)
        assert topo.n_attach_points == n
        assert topo.n_routers >= n


class TestBuildTopology:
    @pytest.mark.parametrize(
        "kind", ["tree", "mesh", "star", "torus", "multichip"]
    )
    def test_families(self, kind):
        topo = build_topology(kind, 6)
        assert topo.n_attach_points == 6

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            build_topology("hypercube", 4)

    def test_unknown_kind_lists_options(self):
        """The error is a ValueError naming every known family."""
        with pytest.raises(ValueError) as excinfo:
            build_topology("hypercube", 4)
        message = str(excinfo.value)
        for kind in ("tree", "mesh", "star", "torus", "multichip"):
            assert kind in message


class TestTopologyValidation:
    def test_attach_point_must_exist(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError, match="not routers"):
            Topology(graph=g, attach_points=[0, 7], kind="test")

    def test_attach_points_distinct(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError, match="distinct"):
            Topology(graph=g, attach_points=[0, 0], kind="test")

    def test_empty_graph_rejected(self):
        """Used to leak networkx's NetworkXPointlessConcept."""
        with pytest.raises(ValueError, match="at least one router"):
            Topology(graph=nx.Graph(), attach_points=[], kind="test")

    def test_networkx_graph_is_converted(self):
        topo = Topology(graph=nx.path_graph(3), attach_points=[0, 2], kind="test")
        assert isinstance(topo.graph, RouterGraph)
        assert list(topo.graph.nodes) == [0, 1, 2]
        assert topo.graph.edges == [(0, 1), (1, 2)]

    def test_disconnected_rejected(self):
        g = nx.Graph()
        g.add_edges_from([(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            Topology(graph=g, attach_points=[0], kind="test")
