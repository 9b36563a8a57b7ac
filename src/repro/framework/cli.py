"""Command-line interface.

Gives the mapping flow a no-code entry point::

    python -m repro info
    python -m repro map --app hello_world --crossbars 4 --capacity 40
    python -m repro compare --app heartbeat --methods pacman pso
    python -m repro explore --app hello_world --sizes 16 32 64 128
    python -m repro map --app synth_2x100 --arch-config my_chip.yaml

Every subcommand prints the same tables the benchmark harness emits, so a
user can reproduce any paper row from the shell.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

from repro.apps import APPLICATIONS, build_application
from repro.apps.registry import ABBREVIATIONS
from repro.core import PSOConfig
from repro.core.mapper import METHODS, compare_methods
from repro.framework.exploration import explore_architecture, explore_chips
from repro.framework.pipeline import run_pipeline
from repro.hardware.config import load_architecture
from repro.noc.interconnect import NocConfig
from repro.hardware.presets import architecture_for, custom
from repro.utils.tables import format_table


def _add_app_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--app", required=True,
        help="application name (hello_world, image_smoothing, "
             "digit_recognition, heartbeat, HW/IS/HD/HE, or synth_MxN)",
    )
    parser.add_argument(
        "--seed", type=_non_negative_int, default=1, help="RNG seed"
    )
    parser.add_argument(
        "--duration", type=_positive_float, default=None,
        help="SNN simulation duration in ms (app default when omitted)",
    )


def _add_arch_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--crossbars", type=_positive_int, default=None,
        help="number of crossbars (alone: each sized to fit the app)",
    )
    parser.add_argument("--capacity", type=_positive_int, default=None,
                        help="neurons per crossbar")
    parser.add_argument("--interconnect", default="tree",
                        choices=["tree", "mesh", "star", "torus"])
    parser.add_argument("--cycles-per-ms", type=_positive_float, default=10.0)
    parser.add_argument(
        "--chips", type=_positive_int, default=1,
        help="spread the crossbars over this many chips joined by "
             "bridge links (1 = single-chip platform)",
    )
    parser.add_argument(
        "--chip-topology", default=None,
        choices=["tree", "mesh", "star", "torus"],
        help="per-chip topology family when --chips > 1 "
             "(default: the --interconnect value)",
    )
    parser.add_argument(
        "--bridge-latency", type=_positive_int, default=4,
        help="cycles per chip-to-chip bridge crossing (--chips > 1)",
    )
    parser.add_argument(
        "--bridge-energy", type=_non_negative_float, default=None,
        help="pJ per chip-to-chip bridge crossing (default: the "
             "energy model's e_bridge_pj)",
    )
    parser.add_argument("--arch-config", default=None,
                        help="platform config file (overrides the flags)")


def _add_noc_backend_argument(parser: argparse.ArgumentParser) -> None:
    """Only for subcommands that actually run the NoC simulation."""
    parser.add_argument(
        "--noc-backend", default="reference", choices=["reference", "fast"],
        help="interconnect simulation engine (fast = vectorized backend, "
             "bit-identical under deterministic routing)",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    """Fault injection: measure the mapping on a degraded fabric."""
    parser.add_argument(
        "--faults", type=_non_negative_int, default=0,
        help="random survivable link faults to inject before simulating "
             "(0 = healthy fabric); traffic reroutes over shortest-path "
             "detours",
    )
    parser.add_argument(
        "--fault-seed", type=_non_negative_int, default=None,
        help="RNG seed for the fault draw (default: unseeded)",
    )


def _add_spare_capacity_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spare-capacity", type=_spare_capacity, default=0.0,
        help="fault-aware headroom fraction in [0, 1): every crossbar "
             "keeps that share of its slots free and the mapping spreads "
             "load so runtime evacuation stays cheap (0 = paper behavior)",
    )


def _positive_int(text: str) -> int:
    """``type=`` of the swarm sizes, platform counts, sweep points and
    campaign draws: argparse reports anything below 1."""
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return int(text)


def _positive_float(text: str) -> float:
    """``type=`` of ``--cycles-per-ms`` and ``--duration``: argparse
    reports anything that is not a positive, finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text!r}"
        )
    return value


def _non_negative_float(text: str) -> float:
    """``type=`` of ``--bridge-energy``: argparse reports anything that
    is not a finite number of at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative number, got {text!r}"
        )
    return value


def _spare_capacity(text: str) -> float:
    """``type=`` of ``--spare-capacity``: argparse reports anything
    outside ``[0, 1)``, NaN included."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """``type=`` of ``--faults`` and the seed flags: argparse reports
    anything below 0 (numpy seeds must be non-negative)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return int(text)


def _add_pso_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--particles", type=_positive_int, default=100)
    parser.add_argument("--iterations", type=_positive_int, default=50)
    parser.add_argument(
        "--objective", default="packets", choices=["packets", "spikes", "noc"],
        help="PSO objective: closed-form packet/spike counts, or 'noc' = "
             "link hops on the interconnect (counted where the routing "
             "proves delivery, simulated elsewhere)",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record nested wall-clock spans for the whole command and "
             "write them as JSONL to PATH (one span per line)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="collect counters for the whole command and write them "
             "as Prometheus-style text to PATH",
    )


def _add_cache_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None,
        help="content-addressed result cache directory: repeat runs "
             "reuse deterministic mappings (skipping the optimizer), "
             "recorded warm-start states and finished explore/faults "
             "sweep points (a killed sweep run again resumes where it "
             "stopped), bit-identical to recomputing",
    )


def _build_cache(args):
    """ArtifactCache from --cache-dir, or None when not requested."""
    if getattr(args, "cache_dir", None) is None:
        return None
    from repro.framework.artifacts import ArtifactCache

    return ArtifactCache(args.cache_dir)


def _print_cache_stats(cache) -> None:
    """The ``cache:`` line (nothing without a cache): what was answered
    from memory or disk, what was computed and stored, what went wrong."""
    if cache is not None:
        line = ", ".join(f"{k}={v}" for k, v in sorted(cache.stats.items()))
        print(f"cache: {line}")


def _build_graph(args):
    kwargs = {}
    if args.duration is not None:
        kwargs["duration_ms"] = args.duration
    return build_application(args.app, seed=args.seed, **kwargs)


def _chip_interconnect(args) -> str:
    """Per-chip topology family: --chip-topology wins when multi-chip."""
    if args.chips > 1 and args.chip_topology:
        return args.chip_topology
    return args.interconnect


def _bridge_energy_model(args):
    """EnergyModel override carrying --bridge-energy, or None."""
    if args.bridge_energy is None:
        return None
    from repro.hardware.energy_model import EnergyModel

    return EnergyModel(e_bridge_pj=args.bridge_energy)


def _build_architecture(args, graph):
    if args.arch_config:
        return load_architecture(args.arch_config)
    interconnect = _chip_interconnect(args)
    energy = _bridge_energy_model(args)
    if args.crossbars is not None:
        capacity = args.capacity
        if capacity is None:  # the fewest neurons per crossbar that fit
            capacity = -(-graph.n_neurons // args.crossbars)
        return custom(args.crossbars, capacity,
                      interconnect=interconnect,
                      cycles_per_ms=args.cycles_per_ms, name="cli",
                      energy=energy, n_chips=args.chips,
                      bridge_latency=args.bridge_latency)
    capacity = args.capacity
    if capacity is None:
        capacity = max(16, -(-graph.n_neurons // 6))
    arch = architecture_for(
        graph.n_neurons, neurons_per_crossbar=capacity,
        interconnect=interconnect, cycles_per_ms=args.cycles_per_ms,
        name="cli-auto", n_chips=args.chips,
        bridge_latency=args.bridge_latency,
    )
    if energy is not None:
        from dataclasses import replace

        arch = replace(arch, energy=energy)
    return arch


def _noc_execution_plan() -> List[str]:
    """What ``--noc-backend fast`` resolves to on this host, right now."""
    from repro.noc import _ckernel
    from repro.noc.fastsim import kernel_engine

    lib = _ckernel.load_kernel()
    if lib is None:
        kernel = f"unavailable ({_ckernel.load_error()!r})"
        small = large = "reference (no kernel: same results, 30-70x slower)"
    else:
        kernel = "present"
        small, large = kernel_engine(63), kernel_engine(64)
    # The environment variable is the one spelling of the thread cap,
    # so print what was set beside what it came to (a typo also warns).
    raw = os.environ.get("REPRO_NOC_THREADS")
    threads = _ckernel.resolve_threads(None)
    if raw is None:
        setting = "REPRO_NOC_THREADS unset -> one per core"
    else:
        setting = f"REPRO_NOC_THREADS={raw!r}"
    if threads == 0:
        setting += " -> calling thread alone, no team"
    return [
        "NoC execution plan:",
        f"  compiled kernel: {kernel}",
        f"  OpenMP: {'yes' if _ckernel.openmp_enabled(lib) else 'no'}",
        f"  effective threads: {threads} ({setting})",
        f"  --noc-backend fast, <=63 routers: engine {small}",
        f"  --noc-backend fast, >63 routers: engine {large}",
    ]


def _cmd_info(_args) -> int:
    print("Applications:")
    for name in sorted(APPLICATIONS):
        print(f"  {name}")
    print("  synth_MxN (e.g. synth_2x200)")
    print("Abbreviations:", ", ".join(sorted(ABBREVIATIONS)))
    print("Methods:", ", ".join(METHODS))
    print("\n".join(_noc_execution_plan()))
    return 0


def _point_kwargs(args) -> dict:
    """The what-to-compute flags ``map`` / ``explore`` / ``faults``
    share, as ``map_snn`` / ``run_pipeline`` keywords — all of them
    components of ``pipeline_token``, so a changed flag addresses
    different cache entries."""
    return dict(
        method=args.method,
        seed=args.seed,
        pso_config=PSOConfig(n_particles=args.particles,
                             n_iterations=args.iterations),
        noc_config=NocConfig(backend=args.noc_backend),
        objective=args.objective,
    )


def _cmd_map(args) -> int:
    if _reject_non_pso_noc(args.objective, [args.method]):
        return 2
    graph = _build_graph(args)
    arch = _build_architecture(args, graph)
    print(graph.describe())
    print(arch.describe())
    cache = _build_cache(args)
    try:
        result = run_pipeline(
            graph, arch, **_point_kwargs(args),
            faults=args.faults,
            fault_seed=args.fault_seed,
            cache=cache,
            spare_capacity=args.spare_capacity,
        )
    except ValueError as exc:
        # E.g. more faults than the fabric survives.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.mapping.describe())
    if result.failed_links:
        links = ", ".join(f"{u}-{v}" for u, v in result.failed_links)
        print(f"injected {len(result.failed_links)} link faults: {links}")
    print(result.noc_stats.describe())
    print(result.report.table())
    _print_cache_stats(cache)
    return 0


def _reject_non_pso_noc(objective: str, methods) -> bool:
    """Friendly pre-check for the map_snn noc-objective restriction."""
    if objective == "noc" and any(m != "pso" for m in methods):
        print(
            "error: --objective noc only applies to PSO; "
            "use --method pso (or --methods pso)",
            file=sys.stderr,
        )
        return True
    return False


def _cmd_compare(args) -> int:
    if _reject_non_pso_noc(args.objective, args.methods):
        return 2
    graph = _build_graph(args)
    arch = _build_architecture(args, graph)
    print(graph.describe())
    print(arch.describe())
    cache = _build_cache(args)
    results = compare_methods(
        graph, arch, methods=tuple(args.methods), seed=args.seed,
        pso_config=PSOConfig(n_particles=args.particles,
                             n_iterations=args.iterations),
        objective=args.objective,
        cache=cache,
    )
    rows = [
        (m, f"{r.fitness:.0f}", f"{r.extras.get('packets', 0):.0f}",
         r.global_synapses, f"{r.wall_time_s:.2f}")
        for m, r in results.items()
    ]
    print(format_table(
        ["method", "global spikes", "AER packets", "global synapses",
         "time (s)"],
        rows,
    ))
    _print_cache_stats(cache)
    return 0


def _cmd_explore(args) -> int:
    if _reject_non_pso_noc(args.objective, [args.method]):
        return 2
    graph = _build_graph(args)
    if args.chip_counts:
        return _explore_chip_counts(args, graph)
    energy = _bridge_energy_model(args)
    base = custom(4, max(args.sizes), interconnect=_chip_interconnect(args),
                  cycles_per_ms=args.cycles_per_ms, name="explore",
                  energy=energy, n_chips=args.chips,
                  bridge_latency=args.bridge_latency)
    cache = _build_cache(args)
    points = explore_architecture(
        graph, base, args.sizes, cache=cache, **_point_kwargs(args)
    )
    rows = [
        (p.neurons_per_crossbar, p.n_crossbars, f"{p.local_energy_uj:.3f}",
         f"{p.global_energy_uj:.3f}", f"{p.total_energy_uj:.3f}",
         p.max_latency_cycles)
        for p in points
    ]
    print(format_table(
        ["neurons/xbar", "crossbars", "local uJ", "global uJ", "total uJ",
         "latency (cy)"],
        rows,
    ))
    _print_cache_stats(cache)
    return 0


def _explore_chip_counts(args, graph) -> int:
    """Chip-count sweep: same platform, 1..N chips (Fig. 6 style)."""
    cache = _build_cache(args)
    points = explore_chips(
        graph, _build_architecture(args, graph), args.chip_counts,
        cache=cache, **_point_kwargs(args),
    )
    rows = [
        (p.n_chips, p.n_bridges, f"{p.global_energy_uj:.3f}",
         f"{p.total_energy_uj:.3f}", p.inter_chip_hops,
         p.bridge_crossings, p.max_latency_cycles)
        for p in points
    ]
    print(format_table(
        ["chips", "bridges", "global uJ", "total uJ", "inter-chip hops",
         "crossings", "latency (cy)"],
        rows,
    ))
    _print_cache_stats(cache)
    return 0


def _cmd_faults(args) -> int:
    """Monte-Carlo fault campaign, optionally fault-aware vs. baseline."""
    from repro.core.mapper import map_snn
    from repro.framework.pipeline import _fault_levels, run_fault_campaign

    if _reject_non_pso_noc(args.objective, [args.method]):
        return 2
    try:
        _fault_levels(args.levels)
    except ValueError as exc:
        # A repeated level would count its draws twice; say so before
        # anything is mapped.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    graph = _build_graph(args)
    arch = _build_architecture(args, graph)
    print(graph.describe())
    print(arch.describe())
    cache = _build_cache(args)
    kwargs = _point_kwargs(args)

    def build_mapping(spare: float):
        return map_snn(
            graph, arch, cache=cache, spare_capacity=spare, **kwargs
        )

    try:
        if args.spare_capacity > 0:
            # Same method and seed twice, with and without headroom: the
            # campaign then measures what the spare-capacity knob buys.
            mappings = {
                "baseline": build_mapping(0.0),
                "fault-aware": build_mapping(args.spare_capacity),
            }
        else:
            mappings = {args.method: build_mapping(0.0)}
        for label, mapping in mappings.items():
            print(f"{label}: {mapping.describe()}")

        summary = run_fault_campaign(
            graph, arch,
            mappings=mappings,
            fault_levels=args.levels,
            draws=args.draws,
            campaign_seed=args.campaign_seed,
            noc_config=kwargs["noc_config"],
            cache=cache,
        )
    except ValueError as exc:
        # A mapping that does not fit (e.g. the spare capacity leaves
        # too few slots), or more faults than the fabric survives.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary.table())
    _print_cache_stats(cache)
    return 0


#: Recognized keys of one request object in a --requests JSON file,
#: with their defaults (a deliberately small, flat vocabulary — the
#: service API takes real objects; this is the shell-friendly subset).
_SERVE_DEFAULTS = {
    "app": None,
    "seed": 1,
    "map_seed": None,
    "duration": None,
    "crossbars": None,
    "capacity": None,
    "interconnect": "tree",
    "cycles_per_ms": 10.0,
    "chips": 1,
    "chip_topology": None,
    "bridge_latency": 4,
    "bridge_energy": None,
    "arch_config": None,
    "method": "pso",
    "objective": "packets",
    "particles": 30,
    "iterations": 20,
    "noc_backend": "fast",
    "faults": 0,
    "fault_seed": None,
    "spare_capacity": 0.0,
    "warm": False,
}

#: The request keys holding numbers, checked as the matching flags are.
_SERVE_COUNTS = {
    "duration": _positive_float,
    "crossbars": _positive_int,
    "capacity": _positive_int,
    "chips": _positive_int,
    "cycles_per_ms": _positive_float,
    "bridge_latency": _positive_int,
    "bridge_energy": _non_negative_float,
    "faults": _non_negative_int,
    "spare_capacity": _spare_capacity,
    "seed": _non_negative_int,
    "map_seed": _non_negative_int,
    "fault_seed": _non_negative_int,
}


def _cmd_serve(args) -> int:
    import json

    from repro.framework.service import MapRequest, MappingService

    with open(args.requests) as fh:
        specs = json.load(fh)
    if not isinstance(specs, list) or not specs:
        print(
            "error: --requests file must hold a non-empty JSON list of "
            "request objects",
            file=sys.stderr,
        )
        return 2
    requests = []
    for i, spec in enumerate(specs):
        unknown = sorted(set(spec) - set(_SERVE_DEFAULTS))
        if unknown:
            print(
                f"error: request #{i} has unknown keys {unknown}; "
                f"known: {sorted(_SERVE_DEFAULTS)}",
                file=sys.stderr,
            )
            return 2
        merged = {**_SERVE_DEFAULTS, **spec}
        if not merged["app"]:
            print(f"error: request #{i} is missing 'app'", file=sys.stderr)
            return 2
        try:
            for key, check in _SERVE_COUNTS.items():
                if merged[key] is not None:
                    merged[key] = check(str(merged[key]))
        except argparse.ArgumentTypeError as exc:
            print(f"error: request #{i}: {key} {exc}", file=sys.stderr)
            return 2
        ns = argparse.Namespace(**merged)
        if _reject_non_pso_noc(ns.objective, [ns.method]):
            return 2
        try:
            pso_config = PSOConfig(
                n_particles=ns.particles, n_iterations=ns.iterations
            )
        except ValueError as exc:
            print(f"error: request #{i}: {exc}", file=sys.stderr)
            return 2
        graph = _build_graph(ns)
        arch = _build_architecture(ns, graph)
        requests.append(
            MapRequest(
                graph=graph,
                architecture=arch,
                method=ns.method,
                # `seed` seeds both the workload and the mapper; `map_seed`
                # decouples them so same-workload requests with different
                # mapper seeds map one graph (and share its warm-start pool).
                seed=ns.seed if ns.map_seed is None else ns.map_seed,
                pso_config=pso_config,
                noc_config=NocConfig(backend=ns.noc_backend),
                objective=ns.objective,
                faults=ns.faults,
                fault_seed=ns.fault_seed,
                spare_capacity=ns.spare_capacity,
                warm=bool(ns.warm),
                label=f"{ns.app}#{i}",
            )
        )
    service = MappingService(cache_dir=args.cache_dir)
    try:
        results = service.serve_batch(requests)
    except ValueError as exc:
        # E.g. more faults than a request's fabric survives.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [
        (
            req.label,
            req.method,
            req.objective,
            f"{res.mapping.fitness:.0f}",
            f"{res.report.total_energy_pj * 1e-6:.3f}",
            res.report.max_latency_cycles,
        )
        for req, res in zip(requests, results)
    ]
    print(format_table(
        ["request", "method", "objective", "global spikes", "total uJ",
         "latency (cy)"],
        rows,
    ))
    _print_cache_stats(service.cache)
    print(f"service: requests_served={service.requests_served}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Map SNNs onto crossbar neuromorphic hardware "
                    "(Das et al., DATE 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "info",
        help="list applications and methods, and the NoC execution plan "
             "(kernel, OpenMP, threads, engine per fabric size)",
    )

    p_map = sub.add_parser("map", help="map one application and measure it")
    _add_app_arguments(p_map)
    _add_arch_arguments(p_map)
    _add_pso_arguments(p_map)
    _add_noc_backend_argument(p_map)
    _add_fault_arguments(p_map)
    _add_cache_argument(p_map)
    _add_obs_arguments(p_map)
    _add_spare_capacity_argument(p_map)
    p_map.add_argument("--method", default="pso", choices=METHODS)

    p_cmp = sub.add_parser("compare", help="compare partitioning methods")
    _add_app_arguments(p_cmp)
    _add_arch_arguments(p_cmp)
    _add_pso_arguments(p_cmp)
    _add_cache_argument(p_cmp)
    _add_obs_arguments(p_cmp)
    p_cmp.add_argument("--methods", nargs="+", default=["neutrams", "pacman", "pso"],
                       choices=METHODS)

    p_exp = sub.add_parser("explore", help="crossbar-size exploration (Fig. 6)")
    _add_app_arguments(p_exp)
    _add_arch_arguments(p_exp)
    _add_pso_arguments(p_exp)
    _add_noc_backend_argument(p_exp)
    _add_cache_argument(p_exp)
    _add_obs_arguments(p_exp)
    p_exp.add_argument("--method", default="pso", choices=METHODS)
    p_exp.add_argument("--sizes", nargs="+", type=_positive_int,
                       default=[90, 180, 360, 720, 1440])
    p_exp.add_argument(
        "--chip-counts", nargs="+", type=_positive_int, default=None,
        help="sweep chip counts instead of crossbar sizes (platform "
             "taken from the architecture flags)",
    )

    p_flt = sub.add_parser(
        "faults", help="Monte-Carlo fault campaign over a mapping"
    )
    _add_app_arguments(p_flt)
    _add_arch_arguments(p_flt)
    _add_pso_arguments(p_flt)
    _add_noc_backend_argument(p_flt)
    _add_cache_argument(p_flt)
    _add_obs_arguments(p_flt)
    _add_spare_capacity_argument(p_flt)
    p_flt.add_argument("--method", default="pso", choices=METHODS)
    p_flt.add_argument(
        "--levels", nargs="+", type=int, default=[0, 1, 2, 4],
        help="fault counts to sweep; include 0 for the healthy baseline",
    )
    p_flt.add_argument(
        "--draws", type=_positive_int, default=16,
        help="Monte-Carlo fault draws per non-zero level",
    )
    p_flt.add_argument(
        "--campaign-seed", type=_non_negative_int, default=2018,
        help="root seed; each (level, draw) gets an independent child "
             "stream so results never depend on execution order",
    )

    p_srv = sub.add_parser(
        "serve", help="answer a batch of mapping requests as a service"
    )
    p_srv.add_argument(
        "--requests", required=True,
        help="JSON file holding a list of request objects "
             '(e.g. [{"app": "hello_world", "seed": 1}, ...])',
    )
    _add_cache_argument(p_srv)
    _add_obs_arguments(p_srv)

    p_rep = sub.add_parser(
        "reproduce", help="regenerate a paper table/figure"
    )
    p_rep.add_argument("artifact", choices=["fig5", "table2", "fig6", "fig7"])
    p_rep.add_argument(
        "--effort", type=float, default=1.0,
        help="budget multiplier: 0.5 = quick shape check, 2.0 = thorough",
    )
    return parser


def _cmd_reproduce(args) -> int:
    from repro.framework.reproduce import reproduce

    try:
        reproduce(args.artifact, effort=args.effort)
    except ValueError as exc:
        # E.g. an --effort that is not positive and finite.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_observed(args, handler) -> int:
    """Run ``handler`` under an observer when --trace/--metrics-out ask
    for one; otherwise call it directly (observability stays zero-cost)."""
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    if not trace_path and not metrics_path:
        return handler(args)
    from repro.obs import observe, span_tree_summary, write_metrics_text
    from repro.obs import write_trace_jsonl

    with observe(
        tracer=None if trace_path else False,
        metrics=None if metrics_path else False,
    ) as obs:
        rc = handler(args)
    if trace_path:
        n_spans = write_trace_jsonl(obs.tracer, trace_path)
        print(f"trace: {n_spans} spans -> {trace_path}")
        summary = span_tree_summary(obs.tracer, max_depth=3)
        if summary:
            print(summary)
    if metrics_path:
        write_metrics_text(obs.metrics, metrics_path)
        print(f"metrics: {len(obs.metrics.counters())} counters -> "
              f"{metrics_path}")
    return rc


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "map": _cmd_map,
        "compare": _cmd_compare,
        "explore": _cmd_explore,
        "faults": _cmd_faults,
        "serve": _cmd_serve,
        "reproduce": _cmd_reproduce,
    }
    return _run_observed(args, handlers[args.command])


if __name__ == "__main__":
    sys.exit(main())
