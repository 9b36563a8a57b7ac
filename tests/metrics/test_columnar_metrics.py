"""The columnar metrics against the record loops they replaced.

``repro.metrics.isi`` / ``repro.metrics.disorder``, ``chip_breakdown``
and ``summarize`` compute from ``NocStats.delivery_columns()`` with
whole-array numpy.  The per-record loops they replaced live on here as
the oracle, and every result must equal theirs exactly (no tolerance):
on generated delivery sets held by a plain ``NocStats`` and by a
``FastNocStats`` fed through its eager ``deliveries`` setter, and on
real kernel output against the reference ``Interconnect``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapper import map_snn
from repro.hardware.presets import custom
from repro.metrics.disorder import disorder_count, disorder_fraction
from repro.metrics.isi import _flow_maxima, isi_distortion_summary
from repro.metrics.report import build_report
from repro.noc.fastsim import FastInterconnect, FastNocStats
from repro.noc.interconnect import Interconnect, NocConfig
from repro.noc.multichip import chip_breakdown, multichip
from repro.noc.stats import DeliveryRecord, NocStats, summarize
from repro.noc.topology import mesh
from repro.noc.traffic import build_injections
from repro.snn.graph import SpikeGraph

# -- the record loops (the parent commit's implementations) -------------------


def grouped_deliveries(stats, key):
    """Deliveries grouped by ``key(record)``, each group in delivery
    order: by ``(delivered_cycle, uid)``."""
    grouped = {}
    for rec in stats.deliveries:
        grouped.setdefault(key(rec), []).append(rec)
    for recs in grouped.values():
        recs.sort(key=lambda r: (r.delivered_cycle, r.uid))
    return grouped


def oracle_isi_per_flow(stats):
    out = {}
    flows = grouped_deliveries(stats, lambda r: (r.src_neuron, r.dst_node))
    for flow, recs in flows.items():
        if len(recs) < 2:
            continue
        injected = np.sort(np.asarray([r.injected_cycle for r in recs]))
        delivered = np.sort(np.asarray([r.delivered_cycle for r in recs]))
        out[flow] = float(np.abs(np.diff(injected) - np.diff(delivered)).max())
    return out


def oracle_isi_mean(stats):
    per_flow = oracle_isi_per_flow(stats)
    return float(np.mean(list(per_flow.values()))) if per_flow else 0.0


def oracle_isi_worst(stats):
    per_flow = oracle_isi_per_flow(stats)
    return float(max(per_flow.values())) if per_flow else 0.0


def oracle_disorder_count(stats):
    bad = 0
    for recs in grouped_deliveries(stats, lambda r: r.dst_node).values():
        latest = -1
        for rec in recs:
            if rec.injected_cycle < latest:
                bad += 1
            latest = max(latest, rec.injected_cycle)
    return bad


def oracle_inter_chip(stats, topology):
    """(intra count, inter count, intra latency sum, inter latency sum)."""
    chip_of = topology.chip_of_router
    split = [0, 0, 0, 0]
    for r in stats.deliveries:
        inter = chip_of[r.src_node] != chip_of[r.dst_node]
        split[inter] += 1
        split[2 + inter] += r.delivered_cycle - r.injected_cycle
    return tuple(split)


def assert_metrics_match_oracle(stats, oracle_stats=None):
    """Every per-delivery metric of ``stats`` equals the record loops run
    over ``oracle_stats`` (``stats`` itself unless another engine's)."""
    oracle_stats = stats if oracle_stats is None else oracle_stats
    assert sorted(_flow_maxima(stats).tolist()) == sorted(
        oracle_isi_per_flow(oracle_stats).values()
    )
    assert isi_distortion_summary(stats) == (
        oracle_isi_mean(oracle_stats), oracle_isi_worst(oracle_stats)
    )
    bad = oracle_disorder_count(oracle_stats)
    assert disorder_count(stats) == bad
    total = oracle_stats.delivered_count
    assert disorder_fraction(stats) == (bad / total if total else 0.0)


# -- generated delivery sets --------------------------------------------------

# A few ids on each axis so flows share destinations, neurons fan out to
# several destinations and many flows hold a single delivery; the large
# ones would overflow a composite (neuron, destination, cycle) key.
IDS = st.sampled_from([0, 1, 2, 7, 2**31 + 5, 2**40])
# Close cycles collide (duplicate injections, ties in delivered_cycle
# that only uid orders); the far bases put ~2**40 between neighbours.
CYCLE_BASES = st.sampled_from([0, 0, 0, 2**40 - 2, 2**40])


@st.composite
def delivery_records(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    records = []
    for _ in range(n):
        injected = draw(CYCLE_BASES) + draw(st.integers(0, 6))
        records.append(
            DeliveryRecord(
                uid=draw(st.integers(0, 12)),
                src_neuron=draw(IDS),
                src_node=draw(IDS),
                dst_node=draw(IDS),
                injected_cycle=injected,
                delivered_cycle=injected + draw(st.integers(1, 6)),
                hops=draw(st.integers(1, 4)),
            )
        )
    return records


@given(delivery_records())
@settings(max_examples=300, deadline=None)
def test_generated_deliveries_match_record_loops(records):
    plain = NocStats()
    plain.deliveries = list(records)
    assert_metrics_match_oracle(plain)
    eager = FastNocStats()
    eager.deliveries = list(records)
    assert_metrics_match_oracle(eager)
    columns = eager.delivery_columns()
    assert all(column.dtype == np.int64 for column in columns)
    assert [column.tolist() for column in columns] == [
        [getattr(r, name) for r in records] for name in columns._fields
    ]


def test_uid_orders_same_cycle_arrivals():
    """Two spikes reach one destination in the same cycle: the lower uid
    counts as first, whatever order the simulator recorded them in."""

    def stats(uid_of_late_injection):
        stats = NocStats()
        stats.deliveries = [
            DeliveryRecord(1 - uid_of_late_injection, 0, 0, 9, 3, 10, 1),
            DeliveryRecord(uid_of_late_injection, 1, 0, 9, 5, 10, 1),
        ]
        return stats

    assert disorder_count(stats(uid_of_late_injection=0)) == 1
    assert disorder_count(stats(uid_of_late_injection=1)) == 0


# -- real engine output -------------------------------------------------------


def _fabric(name):
    if name == "mesh":
        return mesh(3)
    return multichip(8, n_chips=2, chip_kind="mesh", bridge_latency=2)


def _schedule(topology, seed):
    rng = np.random.default_rng(seed)
    n = 40
    graph = SpikeGraph.from_edges(
        n,
        rng.integers(0, n, 200),
        rng.integers(0, n, 200),
        np.ones(200),
        spike_times=[np.sort(rng.uniform(0.0, 12.0, 4)) for _ in range(n)],
    )
    assignment = rng.integers(0, topology.n_attach_points, n)
    return build_injections(graph, assignment, topology)


@given(
    fabric=st.sampled_from(["mesh", "multichip"]),
    columnar=st.booleans(),
    buffer_capacity=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_kernel_output_matches_reference_record_loops(
    fabric, columnar, buffer_capacity, seed
):
    topology = _fabric(fabric)
    schedule = _schedule(topology, seed)
    config = NocConfig(multicast=True, buffer_capacity=buffer_capacity)
    reference = Interconnect(topology, config=config).simulate(
        schedule.injections
    )
    fast = FastInterconnect(topology, config=config).simulate(
        schedule if columnar else schedule.injections
    )
    assert reference.delivered_count > 0
    assert_metrics_match_oracle(fast, oracle_stats=reference)
    assert_metrics_match_oracle(reference)
    assert summarize(fast, topology) == summarize(reference, topology)
    assert summarize(fast) == summarize(reference)
    if fabric == "multichip":
        intra_n, inter_n, intra_lat, inter_lat = oracle_inter_chip(
            reference, topology
        )
        for stats in (fast, reference):
            breakdown = chip_breakdown(stats, topology)
            assert breakdown == chip_breakdown(reference, topology)
            assert (
                breakdown.intra_chip_deliveries,
                breakdown.inter_chip_deliveries,
                breakdown.intra_chip_latency_sum,
                breakdown.inter_chip_latency_sum,
            ) == (intra_n, inter_n, intra_lat, inter_lat)
            summary = summarize(stats, topology)
            assert summary.inter_chip_delivered == inter_n
            assert summary.inter_chip_latency_sum == inter_lat
    # The records the lazy builder makes from the columns are the
    # reference engine's records.
    assert fast.deliveries == reference.deliveries


def test_build_report_never_materializes_records(tiny_graph):
    """The regression this suite exists to prevent: a report on kernel
    output reads columns only, on a flat and on a two-chip fabric."""
    for arch in (
        custom(n_crossbars=4, neurons_per_crossbar=2, interconnect="mesh"),
        custom(
            n_crossbars=4,
            neurons_per_crossbar=2,
            interconnect="mesh",
            n_chips=2,
            bridge_latency=3,
        ),
    ):
        mapping = map_snn(tiny_graph, arch, method="pacman")
        topology = arch.build_topology()
        schedule = build_injections(tiny_graph, mapping.assignment, topology)
        stats = FastInterconnect(topology).simulate(schedule)
        if not isinstance(stats, FastNocStats):
            continue  # no C compiler: the reference engine answered
        assert stats.delivered_count > 0
        report = build_report("app", mapping, stats, arch, topology)
        summarize(stats, topology)
        assert stats._records is None
        want = build_report(
            "app",
            mapping,
            Interconnect(topology).simulate(schedule.injections),
            arch,
            topology,
        )
        assert report == want
