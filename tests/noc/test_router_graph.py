"""``RouterGraph`` against networkx, and networkx and scipy off the run path.

``Topology.graph`` used to be an ``nx.Graph``; fault draws index into its
``edges`` order and the reference simulator walks ``neighbors`` in
adjacency order, so :class:`RouterGraph` must reproduce networkx's
iteration orders exactly.  networkx stays on as the test-side twin: a
generated op sequence runs on both and every read must agree.  The
subprocess tests then check that the run path - NEUTRAMS and the
``spikes`` objective included - works with networkx and scipy *blocked*,
and that the three exporters still load networkx on demand.
"""

import os
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.noc.topology import RouterGraph

NODE = st.integers(0, 7)
EDGE = st.tuples(NODE, NODE).filter(lambda e: e[0] != e[1])
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add_node"), NODE),
        st.tuples(st.just("add_nodes_from"), st.lists(NODE, max_size=4)),
        st.tuples(st.just("add_edge"), EDGE),
        st.tuples(st.just("add_edges_from"), st.lists(EDGE, max_size=6)),
        st.tuples(st.just("remove_edge"), EDGE),
        st.tuples(st.just("remove_node"), NODE),
        st.tuples(st.just("remove_edges_from"), st.lists(EDGE, max_size=4)),
        st.tuples(st.just("remove_nodes_from"), st.lists(NODE, max_size=3)),
        st.tuples(st.just("copy"), st.none()),
    ),
    max_size=40,
)


def assert_same_reads(ours: RouterGraph, theirs: nx.Graph) -> None:
    assert list(ours.nodes) == list(theirs.nodes)
    assert list(ours.edges) == list(theirs.edges)
    assert ours.number_of_nodes() == theirs.number_of_nodes()
    assert ours.number_of_edges() == theirs.number_of_edges()
    for n in range(8):
        assert (n in ours) == (n in theirs)
    for n in theirs.nodes:
        assert list(ours.neighbors(n)) == list(theirs.neighbors(n))
        assert list(ours.adj[n]) == list(theirs.adj[n])
        assert ours.degree(n) == theirs.degree(n)
        for m in range(8):
            assert ours.has_edge(n, m) == theirs.has_edge(n, m)
    if len(theirs):
        assert ours.is_connected() == nx.is_connected(theirs)
    exported = ours.to_networkx()
    assert list(exported.nodes) == list(theirs.nodes)
    assert list(exported.edges) == list(theirs.edges)


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_op_sequences_match_networkx(ops):
    ours, theirs = RouterGraph(), nx.Graph()
    for name, arg in ops:
        if name == "copy":
            ours, theirs = ours.copy(), theirs.copy()
        elif name == "remove_edge" and not theirs.has_edge(*arg):
            with pytest.raises(KeyError):
                ours.remove_edge(*arg)
        elif name == "remove_node" and arg not in theirs:
            with pytest.raises(KeyError):
                ours.remove_node(arg)
        elif name in ("add_edge", "remove_edge"):
            getattr(ours, name)(*arg)
            getattr(theirs, name)(*arg)
        else:
            getattr(ours, name)(arg)
            getattr(theirs, name)(arg)
        assert_same_reads(ours, theirs)


def test_copy_is_independent():
    g = RouterGraph()
    g.add_edges_from([(0, 1), (1, 2)])
    h = g.copy()
    h.remove_node(1)
    assert g.edges == [(0, 1), (1, 2)]
    assert h.edges == [] and list(h.nodes) == [0, 2]


def test_self_links_rejected():
    """networkx counts a self-loop twice in ``degree``; a router fabric has none."""
    with pytest.raises(ValueError, match="itself"):
        RouterGraph().add_edge(3, 3)


def test_empty_has_no_connectivity_and_disconnected_is_not_connected():
    g = RouterGraph()
    with pytest.raises(ValueError, match="no routers"):
        g.is_connected()
    g.add_nodes_from([0, 1])
    assert not g.is_connected()


BLOCK = "sys.modules['networkx'] = sys.modules['scipy'] = None\n"


def _run(body: str, block: bool) -> str:
    """Run ``body`` in a fresh interpreter; last stdout line comes back.

    ``block`` plants ``sys.modules["networkx"] = sys.modules["scipy"] =
    None`` before ``import repro``, so an import of either hidden anywhere
    on the path raises instead of passing silently.
    """
    code = (
        "import contextlib, io, sys\n"
        + (BLOCK if block else "")
        + "import repro\n"
        "from repro.framework.cli import main\n"
        "def cli(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(list(argv)) in (0, None)\n"
        f"{body}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in"
        " ('networkx', 'scipy') and sys.modules[m] is not None))\n"
    )
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


SMALL = "'--particles', '8', '--iterations', '4'"
GRAPH = (
    "from repro.apps import build_application\n"
    "graph = build_application('hello_world', seed=1)\n"
)


class TestNetworkxStaysCold:
    """The run path works with networkx and scipy unimportable."""

    @pytest.mark.parametrize(
        "body",
        [
            "",
            "cli('map', '--app', 'hello_world')",
            f"cli('map', '--app', 'hello_world', '--interconnect', 'mesh', {SMALL})",
            f"cli('map', '--app', 'hello_world', '--interconnect', 'mesh', {SMALL},"
            " '--faults', '2', '--fault-seed', '1')",
            GRAPH + "from repro.framework.pipeline import run_pipeline\n"
            "from repro.hardware import multichip_board\n"
            "board = multichip_board(n_chips=2, crossbars_per_chip=4,"
            " neurons_per_crossbar=20)\n"
            "result = run_pipeline(graph, board, method='greedy', seed=1)\n"
            "assert result.noc_stats.undelivered_count == 0",
            GRAPH + "from repro.framework.pipeline import run_fault_campaign\n"
            "from repro.core.mapper import map_snn\n"
            "from repro.hardware import custom\n"
            "arch = custom(9, 16, interconnect='mesh')\n"
            "mapping = map_snn(graph, arch, method='greedy', seed=1)\n"
            "summary = run_fault_campaign(graph, arch, {'greedy': mapping},"
            " fault_levels=(1,), draws=2)\n"
            "assert len(summary.draws) == 2",
        ],
        ids=["import", "map-tree", "map-mesh", "map-faults", "multichip", "campaign"],
    )
    def test_runs_with_networkx_blocked(self, body):
        assert _run(body, block=True) == "[]"

    def test_neutrams_and_spikes_objective_run_with_both_blocked(self):
        """``compare`` maps with NEUTRAMS, PACMAN and PSO, all scored on
        the per-synapse ``spikes`` objective."""
        spikes = "'--objective', 'spikes'"
        body = f"cli('compare', '--app', 'hello_world', {spikes}, {SMALL})"
        assert _run(body, block=True) == "[]"

    def test_exporters_load_it_on_demand(self):
        body = GRAPH + (
            "assert not any(m.startswith('networkx') for m in sys.modules)\n"
            "from repro.noc.topology import mesh\n"
            "g = mesh(2).graph.to_networkx()\n"
            "assert type(g).__name__ == 'Graph' and type(g).__module__.startswith("
            "'networkx')\n"
            "assert list(g.edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]\n"
            "d = graph.to_networkx()\n"
            "assert d.is_directed() and d.number_of_nodes() == graph.n_neurons\n"
            "u = graph.undirected_traffic()\n"
            "assert not u.is_directed() and u.number_of_nodes() == graph.n_neurons\n"
        )
        assert "'networkx'" in _run(body, block=False)
