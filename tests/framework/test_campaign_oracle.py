"""Differential oracle for the campaign's compute-once rules.

``run_fault_campaign`` builds one schedule per mapping for as long as a
draw keeps the healthy fabric's addressing, and answers level-0 draws
with the healthy result.  The oracle below is the draw loop it
replaced: every draw rebuilds every mapping's schedule on its own
topology and simulates it, level 0 included.  ``healthy``, ``draws``
and ``table()`` must be equal, ``==``, on a mesh, on a 2-chip board
(whose only bridge is never drawn) and on a 2x2 board where a drawn
bridge fault deletes relay routers — the draws that must *not* reuse
the healthy schedule.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.mapper import map_snn
from repro.framework.artifacts import ArtifactCache
from repro.framework.pipeline import run_fault_campaign
from repro.hardware.presets import custom, multichip_board
from repro.metrics.report import CampaignDraw, CampaignSummary
from repro.noc.fastsim import build_interconnect
from repro.noc.faults import inject_random_faults
from repro.noc.interconnect import NocConfig
from repro.noc.traffic import build_injections, schedule_addressing
from repro.obs import observe
from repro.snn.graph import SpikeGraph
from repro.utils.rng import derive_seed

LEVELS = (0, 1, 2)  # a 2-chip board of 2x2 meshes survives two faults at most
DRAWS = 4
SEED = 11

PLATFORMS = {
    "mesh": lambda: custom(12, 6, interconnect="mesh", name="mesh-12x6"),
    "board2": lambda: multichip_board(
        n_chips=2, crossbars_per_chip=4, neurons_per_crossbar=8
    ),
    "board2x2": lambda: dataclasses.replace(
        multichip_board(n_chips=4, crossbars_per_chip=4, neurons_per_crossbar=4),
        bridge_latency=3,
    ),
}


def _simulate(topology, schedules, noc_config):
    engine = build_interconnect(topology, config=noc_config)
    return [engine.simulate(s) for s in schedules]


def oracle_campaign(graph, arch, mappings, noc_config):
    """Rebuild-every-draw campaign: no schedule or result is shared."""
    healthy = arch.build_topology()
    labels = tuple(mappings)

    def measure(level, draw, child, failed, topology):
        schedules = [
            build_injections(
                graph, mappings[label].assignment, topology,
                cycles_per_ms=arch.cycles_per_ms,
            )
            for label in labels
        ]
        return [
            CampaignDraw(
                mapping=label, level=level, draw=draw, fault_seed=child,
                failed_links=tuple(tuple(link) for link in failed),
                mean_latency_cycles=stats.mean_latency(),
                max_latency_cycles=stats.max_latency(),
                global_energy_pj=arch.energy.global_energy_pj(stats, topology),
                delivered_packets=stats.delivered_count,
                undelivered_packets=stats.undelivered_count,
            )
            for label, stats in zip(
                labels, _simulate(topology, schedules, noc_config)
            )
        ]

    summary = CampaignSummary(
        app=graph.name, topology_kind=healthy.kind, levels=LEVELS,
        draws_per_level=DRAWS, labels=labels,
    )
    for point in measure(0, -1, None, (), healthy):
        summary.healthy[point.mapping] = point
    for level in LEVELS:
        for draw in range(DRAWS):
            child = derive_seed(SEED, level, draw)
            topology, failed = (
                inject_random_faults(healthy, level, seed=child)
                if level else (healthy, ())
            )
            summary.draws.extend(measure(level, draw, child, failed, topology))
    return summary


def _small_graph():
    """48 neurons, ~400 spikes: cheap enough for the reference engine."""
    rng = np.random.default_rng(3)
    n = 48
    src = rng.integers(0, n, size=220)
    dst = rng.integers(0, n, size=220)
    spike_times = [
        np.sort(rng.uniform(0.0, 40.0, size=int(rng.integers(4, 13))))
        for _ in range(n)
    ]
    traffic = np.asarray([len(spike_times[s]) for s in src], dtype=np.float64)
    return SpikeGraph.from_edges(
        n, src, dst, traffic, spike_times=spike_times, name="small"
    )


@pytest.fixture(scope="module")
def cases():
    graph = _small_graph()
    out = {}
    for name, make in PLATFORMS.items():
        arch = make()
        mappings = {
            "pacman": map_snn(graph, arch, method="pacman"),
            "greedy": map_snn(graph, arch, method="greedy"),
        }
        out[name] = (graph, arch, mappings)
    return out


def _campaign(case, **kwargs):
    graph, arch, mappings = case
    return run_fault_campaign(
        graph, arch, mappings=mappings, fault_levels=LEVELS, draws=DRAWS,
        campaign_seed=SEED, **kwargs,
    )


@pytest.mark.parametrize("backend", ["reference", "fast"])
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_campaign_equals_rebuild_every_draw(cases, platform, backend, tmp_path):
    case = cases[platform]
    config = NocConfig(backend=backend)
    want = oracle_campaign(*case, noc_config=config)
    assert all(point.delivered_packets for point in want.healthy.values())
    variants = {
        "plain": {},
        "cache": {"cache": ArtifactCache()},
        "disk-cache": {"cache": ArtifactCache(cache_dir=str(tmp_path / "c"))},
        "restored": {"cache": ArtifactCache(cache_dir=str(tmp_path / "c"))},
    }
    for name, kwargs in variants.items():
        got = _campaign(case, noc_config=config, **kwargs)
        assert got.healthy == want.healthy, name
        assert got.draws == want.draws, name
        assert got.table() == want.table(), name
        assert got.to_dict() == want.to_dict(), name


def test_board2x2_draws_do_change_the_addressing(cases):
    """The 2x2 case above really exercises the rebuild branch."""
    graph, arch, _ = cases["board2x2"]
    healthy = arch.build_topology()
    changed = [
        (level, draw)
        for level in LEVELS if level
        for draw in range(DRAWS)
        if schedule_addressing(
            inject_random_faults(
                healthy, level, seed=derive_seed(SEED, level, draw)
            )[0]
        ) != schedule_addressing(healthy)
    ]
    assert changed and len(changed) < (len(LEVELS) - 1) * DRAWS


def _campaign_span(obs):
    (span,) = [s for s in obs.tracer.iter_spans() if s.name == "run_fault_campaign"]
    return span.attributes


def test_span_and_counters_say_what_was_reused(cases):
    n_labels, faulted = 2, (len(LEVELS) - 1) * DRAWS
    with observe() as obs:
        _campaign(cases["mesh"])
    span = _campaign_span(obs)
    # Link faults keep every router: one schedule per mapping, and the
    # level-0 draws are the healthy result.
    assert span["schedules_built"] == n_labels
    # The healthy fabric plus each distinct fault set: one of the four
    # level-1 draws repeats another's link, so 1 + 7.
    assert span["fabrics_simulated"] == 8
    assert obs.metrics.counter_value("campaign.schedules_built") == n_labels
    assert obs.metrics.counter_value("campaign.healthy_reuses") == DRAWS
    assert obs.metrics.counter_value("traffic.schedules_built") == n_labels
    assert obs.metrics.counter_value("faults.apply_calls") == faulted

    with observe() as obs:
        _campaign(cases["board2x2"])
    span = _campaign_span(obs)
    assert n_labels < span["schedules_built"] <= n_labels * (1 + faulted)
