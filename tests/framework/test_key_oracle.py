"""Generated oracle for the digested inputs of a memo key.

A spike graph, an architecture and a config dataclass are each folded
into one digest per instance (``graph_token``, ``architecture_token``,
``config_token``).  The oracles below are the token builders those
digests replaced, which fold every field into every key.  Over generated
pairs of requests (graphs, architectures, configs and seeds, value-equal
inputs built separately among them) two requests must key equal under
the digests exactly when they key equal under the oracles, for
``mapping_token`` and ``pipeline_token`` alike.

The rest pins what a digest per instance rests on: a graph cannot change
once built, hand-built inputs are copied once, pickled and deep-copied
graphs are frozen again and carry no digest, an edited copy keys anew,
and a served batch digests each of its inputs once however often it
repeats.
"""

import copy
import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.apps import build_application
from repro.core.pso import PSOConfig
from repro.framework import artifacts
from repro.framework.artifacts import (
    ArtifactCache,
    architecture_token,
    config_token,
    graph_token,
    mapping_token,
    pipeline_token,
    stable_hash,
)
from repro.framework.pipeline import run_pipeline
from repro.framework.service import MapRequest, MappingService
from repro.hardware.energy_model import EnergyModel
from repro.hardware.presets import custom
from repro.noc.interconnect import NocConfig
from repro.obs import observe
from repro.snn.graph import SpikeGraph

# -- the oracles: the token builders the digests replaced ----------------------


def oracle_config_token(config):
    if config is None:
        return None
    return (
        type(config).__name__,
        tuple(
            (f.name, repr(getattr(config, f.name)))
            for f in dataclasses.fields(config)
        ),
    )


def oracle_architecture_token(architecture, include_name=False):
    token = (
        architecture.n_crossbars,
        architecture.neurons_per_crossbar,
        architecture.interconnect,
        architecture.cycles_per_ms,
        architecture.n_chips,
        architecture.bridge_latency,
        oracle_config_token(architecture.energy),
    )
    if include_name:
        token = token + (architecture.name,)
    return token


def oracle_graph_token(graph):
    """The field fold as it was, without its per-instance cache of array
    references (a frozen graph takes no new attribute)."""
    counts = np.asarray([len(t) for t in graph.spike_times], dtype=np.int64)
    if int(counts.sum()):
        times = np.concatenate(
            [np.asarray(t, dtype=np.float64) for t in graph.spike_times]
        )
    else:
        times = np.empty(0, dtype=np.float64)
    return (
        graph.name,
        graph.n_neurons,
        graph.src,
        graph.dst,
        graph.traffic,
        graph.layers,
        counts,
        times,
    )


ORACLES = dict(
    graph_token=oracle_graph_token,
    architecture_token=oracle_architecture_token,
    config_token=oracle_config_token,
)


def oracle_key(token, request):
    """``token``'s key with every input folded field by field again."""
    with mock.patch.multiple(artifacts, **ORACLES):
        return stable_hash(token(**request))


# -- pools of key inputs -------------------------------------------------------


def _graph(seed, n=12, name="g"):
    rng = np.random.default_rng(seed)
    spike_times = [
        np.sort(rng.uniform(0.0, 30.0, int(rng.integers(0, 5)))) for _ in range(n)
    ]
    src = rng.integers(0, n, 30)
    dst = rng.integers(0, n, 30)
    traffic = np.array([len(spike_times[s]) for s in src], dtype=np.float64)
    return SpikeGraph.from_edges(
        n, src, dst, traffic, spike_times=spike_times, name=name
    )


def _graphs():
    base = _graph(0)
    times = list(base.spike_times)
    # Same concatenated spike times, split differently between neurons.
    moved = list(times)
    moved[0], moved[1] = np.array([1.0]), np.array([2.0, 3.0])
    split = list(times)
    split[0], split[1] = np.array([1.0, 2.0]), np.array([3.0])
    return [
        base,
        _graph(0),  # value-equal, built separately
        _graph(1),
        dataclasses.replace(base, name="h"),
        dataclasses.replace(base, traffic=base.traffic + 1.0),
        dataclasses.replace(base, layers=base.layers + 1),
        dataclasses.replace(base, src=base.dst, dst=base.src),
        dataclasses.replace(base, spike_times=moved),
        dataclasses.replace(base, spike_times=split),
        # Not part of the key: weight, coding, metadata.
        dataclasses.replace(base, weight=base.weight * 2.0),
        dataclasses.replace(base, coding="temporal", metadata={"x": 1}),
    ]


GRAPHS = _graphs()
ARCHS = [
    custom(6, 4, "mesh", name="a"),
    custom(6, 4, "mesh", name="a"),
    custom(6, 4, "mesh", name="b"),
    custom(6, 4, "tree", name="a"),
    custom(6, 4, "mesh", name="a", cycles_per_ms=10),  # int, not 10.0
    custom(6, 4, "mesh", name="a", energy=EnergyModel(e_router_pj=9.5)),
    custom(6, 4, "mesh", name="a", energy=EnergyModel()),
]
PSOS = [
    None,
    PSOConfig(5, 2),
    PSOConfig(5, 2),
    PSOConfig(5, 3),
    PSOConfig(5, 2, x_max=10),  # int, not 10.0
]
NOCS = [
    None,
    NocConfig(),
    NocConfig(),
    NocConfig(backend="fast"),
    NocConfig(multicast=False),
]
FIELDS = {
    "graph": st.sampled_from(GRAPHS),
    "architecture": st.sampled_from(ARCHS),
    "method": st.sampled_from(["pso", "greedy"]),
    "seed": st.sampled_from([None, 1, 2]),
    "pso_config": st.sampled_from(PSOS),
    "noc_config": st.sampled_from(NOCS),
    "objective": st.sampled_from(["packets", "noc"]),
}


@st.composite
def request_pairs(draw):
    """A request and a second one that redraws a few of its fields, so
    equal keys (a twin, or the same value drawn again) are common."""
    first = {name: draw(values) for name, values in FIELDS.items()}
    redrawn = draw(st.sets(st.sampled_from(sorted(FIELDS)), max_size=3))
    second = dict(first, **{name: draw(FIELDS[name]) for name in redrawn})
    return first, second


@given(request_pairs())
@settings(max_examples=300, deadline=None)
def test_keys_equal_iff_oracle_keys_equal(pair):
    first, second = pair
    for token in (mapping_token, pipeline_token):
        same = stable_hash(token(**first)) == stable_hash(token(**second))
        event(f"{token.__name__}: {'equal' if same else 'different'}")
        assert same == (oracle_key(token, first) == oracle_key(token, second))


def test_pools_hold_equal_and_different_inputs():
    """The generated pairs can only show "iff" if the pools hold both."""
    keys = [stable_hash(graph_token(g)) for g in GRAPHS]
    assert keys[0] == keys[1] == keys[-1] == keys[-2]
    assert len(set(keys)) == len(keys) - 3
    assert architecture_token(ARCHS[0]) == architecture_token(ARCHS[-1])
    assert architecture_token(ARCHS[0]) != architecture_token(ARCHS[4])
    assert config_token(PSOS[1]) == config_token(PSOS[2])
    assert config_token(PSOS[1]) != config_token(PSOS[4])


# -- a graph cannot change -----------------------------------------------------

ARRAY_FIELDS = ("src", "dst", "weight", "traffic", "layers")


def test_every_array_write_and_field_reassignment_raises():
    graph = _graph(0)
    for name in ARRAY_FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(graph, name)[...] = 0
    for times in graph.spike_times:
        with pytest.raises(ValueError, match="read-only"):
            times[...] = 0.0
    with pytest.raises(TypeError):
        graph.spike_times[0] = np.array([0.5])
    for f in dataclasses.fields(graph):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(graph, f.name, getattr(graph, f.name))


def test_a_mutable_config_is_not_a_key_input():
    """Its digest could go stale, so it is refused."""

    @dataclasses.dataclass
    class Mutable:
        x: int = 1

    with pytest.raises(TypeError, match="frozen"):
        config_token(Mutable())


def test_reassigned_traffic_raises_and_the_edited_copy_is_computed():
    """A reassigned ``traffic`` used to keep the graph's key, so the
    cache answered the old graph's result (12753 global spikes where
    the edited graph has 936)."""
    graph = build_application("hello_world", seed=1)
    arch, pso = custom(6, 22, "mesh"), PSOConfig(10, 3)
    cache = ArtifactCache()
    first = run_pipeline(graph, arch, seed=3, pso_config=pso, cache=cache)
    with pytest.raises(dataclasses.FrozenInstanceError):
        graph.traffic = graph.traffic * 0 + 1
    edited = dataclasses.replace(graph, traffic=graph.traffic * 0 + 1)
    got = run_pipeline(edited, arch, seed=3, pso_config=pso, cache=cache)
    want = run_pipeline(edited, arch, seed=3, pso_config=pso)
    assert dataclasses.asdict(got.report) == dataclasses.asdict(want.report)
    assert got.report.global_spikes != first.report.global_spikes


def test_swapped_spike_train_raises_and_the_edited_copy_keys_anew():
    graph = build_application("hello_world", seed=1)
    with pytest.raises(TypeError):
        graph.spike_times[0] = np.array([0.5])
    edited = dataclasses.replace(
        graph, spike_times=(np.array([0.5]), *graph.spike_times[1:])
    )
    assert stable_hash(graph_token(edited)) != stable_hash(graph_token(graph))


def test_writable_inputs_are_copied_and_read_only_inputs_adopted():
    src, dst = np.array([0, 1, 2]), np.array([1, 2, 0])
    traffic = np.array([1.0, 2.0, 0.0])
    times = [np.array([1.0]), np.array([2.0, 3.0]), np.array([])]
    graph = SpikeGraph.from_edges(3, src, dst, traffic, spike_times=times)
    for mine, theirs in zip((graph.src, graph.dst, graph.traffic), (src, dst, traffic)):
        assert not np.shares_memory(mine, theirs)
    src[0], traffic[0], times[0][0] = 2, 9.0, 7.0  # the caller still writes
    assert all(a.flags.writeable for a in (src, dst, traffic, *times))
    assert (graph.src[0], graph.traffic[0], graph.spike_times[0][0]) == (0, 1.0, 1.0)

    frozen = [np.array([0, 1, 2]), np.array([1, 2, 0]), np.array([1.0, 2.0, 0.0])]
    frozen_times = [np.array([1.0]), np.array([2.0, 3.0]), np.array([])]
    for array in (*frozen, *frozen_times):
        array.flags.writeable = False
    adopted = SpikeGraph.from_edges(3, *frozen, spike_times=frozen_times)
    assert adopted.src is frozen[0] and adopted.traffic is frozen[2]
    assert all(a is b for a, b in zip(adopted.spike_times, frozen_times))
    # A read-only input of another dtype is converted, and frozen.
    narrow = np.array([0, 1, 2], dtype=np.int32)
    narrow.flags.writeable = False
    converted = SpikeGraph.from_edges(3, narrow, dst, traffic)
    assert converted.src.dtype == np.int64 and not converted.src.flags.writeable


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("clone", [_pickled, copy.deepcopy])
def test_copies_are_frozen_key_equal_and_carry_no_digest(clone):
    graph, arch, pso = _graph(3), custom(6, 4, "mesh"), PSOConfig(5, 2)
    digests = [graph_token(graph), architecture_token(arch), config_token(pso)]
    for obj, digest in zip((graph, arch, pso), digests):
        assert digest.encode() not in pickle.dumps(obj)
    with observe() as obs:
        twin, arch_twin, pso_twin = (clone(obj) for obj in (graph, arch, pso))
        assert graph_token(twin) == digests[0]
        assert architecture_token(arch_twin) == digests[1]
        assert config_token(pso_twin) == digests[2]
    built = obs.metrics.counter_value
    # Each copy derives its own digest (the architecture's energy model
    # is copied with it: two configs).
    assert built("cache.digests_built", kind="graph") == 1
    assert built("cache.digests_built", kind="architecture") == 1
    assert built("cache.digests_built", kind="config") == 2
    for array in (*(getattr(twin, name) for name in ARRAY_FIELDS), *twin.spike_times):
        assert not array.flags.writeable
    assert isinstance(twin.spike_times, tuple)


def test_a_replace_copy_with_a_changed_field_keys_differently():
    graph = _graph(4)
    key = stable_hash(graph_token(graph))
    assert stable_hash(graph_token(dataclasses.replace(graph))) == key
    changes = dict(
        name="other",
        n_neurons=graph.n_neurons + 1,
        traffic=graph.traffic + 1.0,
        layers=graph.layers + 1,
        src=graph.dst,
        spike_times=(np.array([0.5]), *graph.spike_times[1:]),
    )
    for name, value in changes.items():
        if name == "n_neurons":
            edited = dataclasses.replace(
                graph,
                n_neurons=value,
                spike_times=(*graph.spike_times, np.array([])),
                layers=np.append(graph.layers, 0),
            )
        else:
            edited = dataclasses.replace(graph, **{name: value})
        assert stable_hash(graph_token(edited)) != key, name


# -- observability: a repeated batch is digested once ---------------------------


def test_each_key_input_is_digested_once_across_repeated_batches():
    graphs = [_graph(5, name="p"), _graph(6, name="q")]
    packets, swarm = PSOConfig(6, 2), PSOConfig(4, 2)
    fast = NocConfig(backend="fast")
    requests = []
    for graph in graphs:
        mesh, tree = custom(6, 4, "mesh"), custom(6, 4, "tree")
        requests += [
            MapRequest(graph, mesh, seed=1, pso_config=packets, noc_config=fast),
            MapRequest(graph, mesh, seed=2, pso_config=packets, noc_config=fast),
            MapRequest(
                graph, mesh, seed=3, pso_config=swarm, noc_config=fast, objective="noc"
            ),
            MapRequest(
                graph, tree, seed=4, pso_config=swarm, noc_config=fast, objective="noc"
            ),
        ]
    with MappingService() as service, observe() as obs:
        for _ in range(20):
            service.serve_batch(requests)
    assert service.cache.stats["hits"] >= 19 * len(requests)

    def distinct(values):
        return len({id(v) for v in values})

    archs = [r.architecture for r in requests]
    configs = [r.pso_config for r in requests] + [r.noc_config for r in requests]
    configs += [arch.energy for arch in archs]
    built = obs.metrics.counter_value
    assert built("cache.digests_built", kind="graph") == distinct(graphs) == 2
    assert built("cache.digests_built", kind="architecture") == distinct(archs) == 4
    assert built("cache.digests_built", kind="config") == distinct(configs) == 7
