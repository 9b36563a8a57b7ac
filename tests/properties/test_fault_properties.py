"""Property-based tests on fault-injection invariants.

The load-bearing claims: the survivable-link pool never offers a link whose
removal disconnects the fabric (on multichip boards that means no
bridge chain is ever cut), and ``inject_random_faults`` either delivers
exactly the requested count or raises with the achieved count — never a
silently-short fault set.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.faults import (
    bridge_chains,
    degrade_topology,
    inject_random_faults,
)
from repro.noc.multichip import multichip
from tests.noc.test_faults import survivable_links


@st.composite
def boards(draw):
    """Multichip boards whose bridge chains are genuine cut sets."""
    n_chips = draw(st.sampled_from([2, 4]))
    crossbars_per_chip = draw(st.sampled_from([4, 9]))
    chip_kind = draw(st.sampled_from(["mesh", "torus"]))
    bridge_latency = draw(st.integers(min_value=1, max_value=4))
    return multichip(
        n_chips * crossbars_per_chip,
        n_chips=n_chips,
        chip_kind=chip_kind,
        bridge_latency=bridge_latency,
    )


@given(boards(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_offered_links_are_individually_survivable(board, seed):
    """Killing any offered link — whole-bridge semantics included —
    leaves the fabric connected with every crossbar still attached."""
    import numpy as np

    offered = survivable_links(board)
    assert offered
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(offered), size=min(4, len(offered)),
                       replace=False)
    for i in picks:
        degraded = degrade_topology(board, [offered[int(i)]])
        assert nx.is_connected(degraded.graph.to_networkx())
        assert degraded.n_attach_points == board.n_attach_points


@given(st.sampled_from([4, 9]), st.sampled_from(["mesh", "torus"]),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_lone_bridge_chain_never_offered(per_chip, chip_kind, latency):
    """A 2-chip board's only bridge is a cut set: no segment of its
    relay chain may ever be offered as a survivable fault."""
    board = multichip(
        2 * per_chip, n_chips=2, chip_kind=chip_kind,
        bridge_latency=latency,
    )
    offered = set(survivable_links(board))
    chain_links = {
        tuple(sorted((a, b)))
        for chain in bridge_chains(board)
        for a, b in zip(chain, chain[1:])
    }
    assert offered  # intra-chip redundancy still exists
    assert not offered & chain_links


@given(boards(), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_chain_kill_never_disconnects(board, n_faults, seed):
    """Any achievable random fault set leaves the fabric connected."""
    try:
        degraded, chosen = inject_random_faults(board, n_faults, seed=seed)
    except ValueError as exc:
        # Exhaustion must report the achieved count, not fail silently.
        assert "cannot survive" in str(exc)
        assert str(n_faults) in str(exc)
        return
    assert len(chosen) == n_faults
    assert nx.is_connected(degraded.graph.to_networkx())
    # Every chip still reaches every other: all crossbars remain
    # attached to the surviving component.
    assert degraded.n_attach_points == board.n_attach_points


@given(boards(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_exhaustion_reports_achieved_count(board, seed):
    """Requesting more faults than survivable raises with the budget."""
    budget = len(survivable_links(board))
    with pytest.raises(ValueError, match="cannot survive"):
        inject_random_faults(board, budget + 50, seed=seed)
