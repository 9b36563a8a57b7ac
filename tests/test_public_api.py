"""Public-API surface tests: every documented export imports and exists."""

import importlib

import pytest


PUBLIC_SURFACE = {
    "repro": ["map_snn", "compare_methods", "run_pipeline", "__version__"],
    "repro.snn": [
        "Network", "Population", "Projection", "LIFModel",
        "AdaptiveLIFModel", "PoissonSource", "ScheduledSource",
        "Simulation", "STDPRule",
        "SpikeGraph", "rate_encode",
    ],
    "repro.noc": [
        "Topology", "mesh", "tree", "star", "torus", "Interconnect",
        "NocConfig", "NocStats", "RoutingTable", "xy_routing",
        "shortest_path_routing",
        "build_injections", "degrade_topology", "inject_random_faults",
    ],
    "repro.hardware": [
        "Architecture", "EnergyModel", "cxquad",
        "truenorth_like", "custom", "load_architecture",
        "save_architecture",
    ],
    "repro.core": [
        "Partition", "TrafficMatrix", "InterconnectFitness", "BinaryPSO",
        "PSOConfig", "map_snn", "compare_methods", "pacman_partition",
        "neutrams_partition", "random_partition", "greedy_partition",
        "annealing_partition", "place_clusters", "apply_placement",
    ],
    "repro.metrics": [
        "disorder_fraction", "MetricReport", "build_report",
        "congestion_report",
    ],
    "repro.obs": [
        "Observer", "Tracer", "Span", "MetricsRegistry", "get_observer",
        "observe", "write_trace_jsonl", "read_trace_jsonl",
        "prometheus_text", "write_metrics_text",
        "span_tree_summary",
    ],
    "repro.framework": [
        "run_pipeline", "explore_architecture", "explore_swarm_size",
        "reproduce",
    ],
    "repro.apps": [
        "build_application", "build_hello_world", "build_image_smoothing",
        "build_digit_recognition", "build_heartbeat", "build_synthetic",
        "APPLICATIONS",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for name in PUBLIC_SURFACE[module_name]:
        assert hasattr(module, name), f"{module_name} lacks {name}"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_all_lists_are_importable(module_name):
    """Everything in __all__ actually exists (no stale exports)."""
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)
