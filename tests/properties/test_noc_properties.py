"""Property-based tests on interconnect invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.packet import Injection
from repro.noc.routing import routing_for
from repro.noc.topology import build_topology


@st.composite
def traffic_scenarios(draw):
    kind = draw(st.sampled_from(["tree", "mesh", "star"]))
    n_crossbars = draw(st.integers(min_value=2, max_value=8))
    topo = build_topology(kind, n_crossbars)
    n_packets = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    nodes = [topo.attach_points[k] for k in range(n_crossbars)]
    injections = []
    for uid in range(n_packets):
        src_k = int(rng.integers(0, n_crossbars))
        n_dst = int(rng.integers(1, n_crossbars))
        dst_ks = rng.choice(
            [k for k in range(n_crossbars) if k != src_k],
            size=min(n_dst, n_crossbars - 1), replace=False,
        )
        injections.append(Injection(
            cycle=int(rng.integers(0, 50)),
            src_node=nodes[src_k],
            dst_nodes=tuple(sorted(nodes[int(k)] for k in dst_ks)),
            src_neuron=src_k,
            uid=uid,
        ))
    multicast = draw(st.booleans())
    buffer_capacity = draw(st.integers(min_value=1, max_value=8))
    return topo, injections, NocConfig(
        multicast=multicast, buffer_capacity=buffer_capacity
    )


@given(traffic_scenarios())
@settings(max_examples=40, deadline=None)
def test_every_expected_delivery_happens_exactly_once(scenario):
    """Spike conservation: each (packet, destination) delivered once."""
    topo, injections, config = scenario
    stats = Interconnect(topo, config=config).simulate(injections)
    assert stats.undelivered_count == 0
    seen = set()
    for rec in stats.deliveries:
        key = (rec.uid, rec.dst_node)
        assert key not in seen, f"duplicate delivery {key}"
        seen.add(key)
    expected = {
        (inj.uid, d) for inj in injections for d in inj.dst_nodes
        if d != inj.src_node
    }
    assert seen == expected


@given(traffic_scenarios())
@settings(max_examples=40, deadline=None)
def test_latency_at_least_routed_distance(scenario):
    """No teleportation: latency >= hop distance, hops == routed distance."""
    topo, injections, config = scenario
    routing = routing_for(topo)
    stats = Interconnect(topo, routing, config).simulate(injections)
    for rec in stats.deliveries:
        d = routing.distance(rec.src_node, rec.dst_node)
        assert rec.hops >= d
        assert rec.delivered_cycle - rec.injected_cycle >= d


@given(traffic_scenarios())
@settings(max_examples=40, deadline=None)
def test_delivery_after_injection(scenario):
    topo, injections, config = scenario
    stats = Interconnect(topo, config=config).simulate(injections)
    for rec in stats.deliveries:
        assert rec.delivered_cycle > rec.injected_cycle


@given(traffic_scenarios())
@settings(max_examples=30, deadline=None)
def test_multicast_never_uses_more_hops_than_unicast(scenario):
    """In-network forking shares trunk links, so hop totals can't grow."""
    topo, injections, config = scenario
    m_stats = Interconnect(
        topo, config=NocConfig(multicast=True,
                               buffer_capacity=config.buffer_capacity)
    ).simulate(injections)
    u_stats = Interconnect(
        topo, config=NocConfig(multicast=False,
                               buffer_capacity=config.buffer_capacity)
    ).simulate(injections)
    assert m_stats.total_hops() <= u_stats.total_hops()


@given(traffic_scenarios())
@settings(max_examples=30, deadline=None)
def test_bounded_buffers_never_exceed_capacity(scenario):
    topo, injections, config = scenario
    ic = Interconnect(topo, config=config)
    stats = ic.simulate(injections)
    assert stats.peak_buffer_occupancy <= config.buffer_capacity
