"""Cross-backend equivalence: fast backend vs the reference oracle.

The fast backend (:mod:`repro.noc.fastsim`: the compiled kernel, and
the reference engine for whatever the kernel cannot run) promises
*bit-identical* results to the reference loop: the same delivery
records, cycle counts, link loads and peak buffer occupancies, for
every routing table.  This suite pins the promise over mesh/torus
topologies, unicast/multicast traffic and tight/roomy buffers, and adds
hypothesis property tests over generated row input (uid -1, own-router
and duplicate destinations, meshes past 63 routers) that the fast
backend always drains feasible schedules and agrees with the reference.
``test_kernel_fallback.py`` covers the missing/failing-kernel paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import fastsim as fastsim_module
from repro.noc import interconnect as interconnect_module
from repro.noc.fastsim import FastInterconnect, build_interconnect
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.packet import Injection
from repro.noc.topology import build_topology
from tests.noc.test_traffic import synthetic_injections


def record_tuples(stats):
    """Delivery records as plain tuples, in delivery order."""
    return [
        (
            r.uid,
            r.src_neuron,
            r.src_node,
            r.dst_node,
            r.injected_cycle,
            r.delivered_cycle,
            r.hops,
        )
        for r in stats.deliveries
    ]


def assert_identical(ref_stats, fast_stats):
    """Bit-for-bit equivalence of everything the metrics layer consumes."""
    assert record_tuples(ref_stats) == record_tuples(fast_stats)
    assert ref_stats.cycles_run == fast_stats.cycles_run
    assert ref_stats.link_loads == fast_stats.link_loads
    assert ref_stats.peak_buffer_occupancy == fast_stats.peak_buffer_occupancy
    assert ref_stats.n_injected == fast_stats.n_injected
    assert ref_stats.n_expected_deliveries == fast_stats.n_expected_deliveries
    assert ref_stats.undelivered_count == fast_stats.undelivered_count


def run_both(topo, injections, **config_kwargs):
    ref = Interconnect(topo, config=NocConfig(**config_kwargs)).simulate(injections)
    fast = FastInterconnect(
        topo, config=NocConfig(backend="fast", **config_kwargs)
    ).simulate(injections)
    return ref, fast


class TestDeterministicBitIdentical:
    """The headline contract: the fast backend IS the reference."""

    @pytest.mark.parametrize("kind", ["mesh", "torus"])
    @pytest.mark.parametrize("multicast", [True, False])
    @pytest.mark.parametrize("buffer_capacity", [1, 8])
    def test_matrix(self, kind, multicast, buffer_capacity):
        topo = build_topology(kind, 9)
        schedule = synthetic_injections([0.3] * 9, topo, 150, fanout=3, seed=42)
        ref, fast = run_both(
            topo,
            schedule.injections,
            multicast=multicast,
            buffer_capacity=buffer_capacity,
        )
        assert_identical(ref, fast)

    @pytest.mark.parametrize("kind", ["tree", "star"])
    def test_other_topology_families(self, kind):
        topo = build_topology(kind, 8)
        schedule = synthetic_injections([0.4] * 8, topo, 120, fanout=2, seed=3)
        ref, fast = run_both(topo, schedule.injections)
        assert_identical(ref, fast)

    @pytest.mark.parametrize("n_routers", [9, 81])
    def test_multi_ejection_budget(self, monkeypatch, n_routers):
        """Both engines still take the decoder budget as an input: at
        three ejections per cycle they agree, on one-word (<= 63
        routers) and multi-word destination masks alike."""
        topo = build_topology("mesh", n_routers)
        schedule = synthetic_injections(
            [0.5] * n_routers, topo, 60, fanout=4, seed=1
        )
        one_per_cycle, _ = run_both(topo, schedule.injections)
        monkeypatch.setattr(interconnect_module, "EJECTIONS_PER_CYCLE", 3)
        monkeypatch.setattr(fastsim_module, "EJECTIONS_PER_CYCLE", 3)
        ref, fast = run_both(topo, schedule.injections)
        assert_identical(ref, fast)
        assert record_tuples(ref) != record_tuples(one_per_cycle)

    def test_deadline_capped_run_matches(self):
        """Undelivered accounting matches when the drain budget is tiny."""
        topo = build_topology("tree", 4)
        schedule = synthetic_injections([0.9] * 4, topo, 50, fanout=3, seed=5)
        ref, fast = run_both(topo, schedule.injections, max_extra_cycles=1)
        assert ref.undelivered_count > 0  # the cap must actually bite
        assert_identical(ref, fast)

    def test_empty_schedule(self):
        topo = build_topology("mesh", 4)
        ref, fast = run_both(topo, [])
        assert_identical(ref, fast)
        assert fast.cycles_run == 0

    def test_idle_gap_fast_forward(self):
        topo = build_topology("tree", 4)
        injections = [
            Injection(cycle=0, src_node=0, dst_nodes=(3,), src_neuron=0),
            Injection(cycle=1_000_000, src_node=0, dst_nodes=(3,), src_neuron=0),
        ]
        ref, fast = run_both(topo, injections)
        assert_identical(ref, fast)


class TestBatchApi:
    def test_simulate_many_matches_singles(self):
        topo = build_topology("mesh", 9)
        schedules = [
            synthetic_injections([0.3] * 9, topo, 60, fanout=2, seed=s).injections
            for s in range(4)
        ]
        fast = FastInterconnect(topo, config=NocConfig(backend="fast"))
        batch = fast.simulate_many(schedules)
        for injections, stats in zip(schedules, batch):
            single = Interconnect(topo).simulate(injections)
            assert_identical(single, stats)


class TestFactory:
    def test_backend_selection(self):
        topo = build_topology("mesh", 4)
        assert isinstance(build_interconnect(topo), Interconnect)
        assert isinstance(
            build_interconnect(topo, config=NocConfig(backend="fast")),
            FastInterconnect,
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            NocConfig(backend="warp")

    def test_fast_stats_lazy_deliveries_consistent(self):
        """Aggregates read before materialization must agree with records."""
        topo = build_topology("mesh", 9)
        schedule = synthetic_injections([0.4] * 9, topo, 80, fanout=2, seed=6)
        stats = build_interconnect(
            topo, config=NocConfig(backend="fast")
        ).simulate(schedule.injections)
        count = stats.delivered_count  # columns only
        latencies = stats.latencies()  # columns only
        records = stats.deliveries  # materializes
        assert count == len(records)
        assert np.array_equal(
            latencies,
            np.asarray([r.delivered_cycle - r.injected_cycle for r in records]),
        )


# -- property tests -----------------------------------------------------------


@st.composite
def traffic_scenarios(draw):
    # One draw in five is a mesh past 63 routers: the multi-word kernel.
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        kind = "mesh"
        n_crossbars = draw(st.integers(min_value=64, max_value=100))
    else:
        kind = draw(st.sampled_from(["tree", "mesh", "star", "torus"]))
        n_crossbars = draw(st.integers(min_value=2, max_value=8))
    topo = build_topology(kind, n_crossbars)
    n_packets = draw(st.integers(min_value=1, max_value=30))
    # Rows the graph builders never emit, which both engines must read
    # alike: uid -1, the source's own router among the destinations (a
    # row left with no other is dropped), a destination listed twice.
    anonymous = draw(st.booleans())
    own_router = draw(st.booleans())
    duplicates = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    nodes = [topo.attach_points[k] for k in range(n_crossbars)]
    injections = []
    for uid in range(n_packets):
        src_k = int(rng.integers(0, n_crossbars))
        n_dst = int(rng.integers(1, min(n_crossbars, 9)))
        dst_ks = rng.choice(
            [k for k in range(n_crossbars) if k != src_k],
            size=min(n_dst, n_crossbars - 1),
            replace=False,
        ).tolist()
        if own_router and rng.random() < 0.3:
            dst_ks = [src_k] if rng.random() < 0.3 else [*dst_ks, src_k]
        if duplicates and rng.random() < 0.3:
            dst_ks.append(dst_ks[0])
        injections.append(
            Injection(
                cycle=int(rng.integers(0, 50)),
                src_node=nodes[src_k],
                dst_nodes=tuple(sorted(nodes[k] for k in dst_ks)),
                src_neuron=src_k,
                uid=-1 if anonymous and rng.random() < 0.5 else uid,
            )
        )
    multicast = draw(st.booleans())
    buffer_capacity = draw(st.integers(min_value=1, max_value=8))
    return topo, injections, NocConfig(
        multicast=multicast, buffer_capacity=buffer_capacity, backend="fast"
    )


@given(traffic_scenarios())
@settings(max_examples=50, deadline=None)
def test_fast_backend_always_drains_feasible_schedules(scenario):
    """No feasible schedule may ever report undelivered packets."""
    topo, injections, config = scenario
    stats = FastInterconnect(topo, config=config).simulate(injections)
    assert stats.undelivered_count == 0
    assert stats.delivered_count == stats.n_expected_deliveries


@given(traffic_scenarios())
@settings(max_examples=25, deadline=None)
def test_fast_backend_matches_reference_on_random_scenarios(scenario):
    """Bit-for-bit against the oracle on arbitrary feasible traffic."""
    topo, injections, config = scenario
    ref = Interconnect(
        topo,
        config=NocConfig(
            multicast=config.multicast,
            buffer_capacity=config.buffer_capacity,
        ),
    ).simulate(injections)
    fast = FastInterconnect(topo, config=config).simulate(injections)
    assert_identical(ref, fast)


@given(traffic_scenarios())
@settings(max_examples=25, deadline=None)
def test_fast_backend_respects_buffer_capacity(scenario):
    topo, injections, config = scenario
    stats = FastInterconnect(topo, config=config).simulate(injections)
    assert stats.peak_buffer_occupancy <= config.buffer_capacity
