"""Front-end hot paths: batched swarm repair/decode + columnar SNN engine.

PRs 1-4 made the *scoring* side of the optimization loop fast (compiled
NoC kernel, columnar schedules, process-parallel sharding); this bench
pins the two front-end contracts that make the rest of a paper-scale
``map_snn`` run equally fast:

- ``repair_batch`` + ``BinaryPSO._one_hot`` (the incremental flat-index
  one-hot decode) handle a paper-scale generation (1000 particles x 320
  neurons) >= 5x faster than the per-particle
  ``repair_assignment_reference`` loop + the repeat/tile one-hot build
  they replaced, with bit-identical repaired assignments (deterministic
  ``move_cost`` path) and attractor matrices;
- the columnar SNN engine simulates a heartbeat-scale liquid-state
  stack (ECG level-crossing input, four 32-neuron liquid columns with
  recurrent + cross-column wiring, per-column readouts) >= 5x faster
  than the reference per-tick loop, with bit-identical spike trains.

Both baselines are the oracles of the test tree
(``tests/core/test_partition.py``, ``tests/snn/test_columnar_engine.py``),
imported as ``tests.*`` modules: run the bench with ``python -m pytest``
from the repository root, which puts the root on ``sys.path``.

Set ``FRONTEND_REPORT_PATH`` to also write the measurements as JSON
(uploaded as a CI artifact next to the other speedup reports).
"""

from __future__ import annotations

import json
import os
import time
import timeit

import numpy as np
import pytest

from repro.apps.heartbeat import level_crossing_encode, synthetic_ecg
from repro.core.partition import repair_batch
from repro.core.pso import BinaryPSO, PSOConfig
from repro.snn.generators import ScheduledSource
from repro.snn.network import Network
from repro.snn.neuron import LIFModel
from repro.snn.simulator import Simulation
from repro.snn.synapse import distance_dependent
from tests.core.test_partition import repair_assignment_reference
from tests.snn.test_columnar_engine import run_reference

BENCH_SEED = 2018

# Paper scale (Section V-D): 1000 particles; 320 neurons packed tightly
# onto 8 crossbars (95% utilization, the regime where repair does real
# work every generation).
SWARM_P, SWARM_N, SWARM_C, SWARM_CAP = 1000, 320, 8, 42

LSM_COLUMNS = 4
LSM_COLUMN_SIZE = 32
LSM_READOUT_SIZE = 8
LSM_DURATION_MS = 2500.0


def _write_report(section: str, payload: dict) -> None:
    report_path = os.environ.get("FRONTEND_REPORT_PATH")
    if not report_path:
        return
    existing = {}
    if os.path.exists(report_path):
        with open(report_path) as fh:
            existing = json.load(fh)
    existing[section] = payload
    with open(report_path, "w") as fh:
        json.dump(existing, fh, indent=2)


def test_batched_swarm_repair_and_decode_speedup(benchmark):
    rng = np.random.default_rng(BENCH_SEED)
    swarm = rng.integers(0, SWARM_C, size=(SWARM_P, SWARM_N))
    move_cost = rng.uniform(0.0, 5.0, SWARM_N)
    half = 5.0  # x_max / 2 attractor magnitude

    def legacy_generation():
        """The pre-refactor per-iteration path: per-particle argmin-scan
        repair plus the repeat/tile one-hot build."""
        out = swarm.copy()
        for i in range(SWARM_P):
            if np.bincount(out[i], minlength=SWARM_C).max() > SWARM_CAP:
                out[i] = repair_assignment_reference(
                    out[i], SWARM_C, SWARM_CAP, move_cost=move_cost
                )
        onehot = np.zeros((SWARM_P, SWARM_N, SWARM_C))
        idx_p = np.repeat(np.arange(SWARM_P), SWARM_N)
        idx_n = np.tile(np.arange(SWARM_N), SWARM_P)
        onehot[idx_p, idx_n, out.ravel()] = 1.0
        return out, (onehot * 2.0 - 1.0) * half

    # The swarm whose one-hot decode is measured; it scores nothing here.
    pso = BinaryPSO(
        lambda batch: np.zeros(batch.shape[0]),
        n_neurons=SWARM_N,
        n_clusters=SWARM_C,
        capacity=SWARM_CAP,
        config=PSOConfig(n_particles=SWARM_P, x_max=2 * half),
    )

    def batched_generation():
        """The new per-iteration path: vectorized batch repair plus
        BinaryPSO's incremental one-hot (erase the previous generation's
        entries, write the new ones)."""
        out = repair_batch(swarm, SWARM_C, SWARM_CAP, move_cost=move_cost)
        return out, pso._one_hot(out)

    legacy_out, legacy_onehot = legacy_generation()
    batched_out, batched_onehot = batched_generation()
    assert np.array_equal(batched_out, legacy_out), (
        "repair_batch diverged from the per-particle repair loop"
    )
    assert np.array_equal(batched_onehot, legacy_onehot), (
        "BinaryPSO._one_hot diverged from the repeat/tile build"
    )

    t_legacy = min(timeit.repeat(legacy_generation, number=1, repeat=5))
    t_batched = min(timeit.repeat(batched_generation, number=3, repeat=5)) / 3
    speedup = t_legacy / t_batched

    _write_report(
        "swarm_generation",
        {
            "n_particles": SWARM_P,
            "n_neurons": SWARM_N,
            "n_clusters": SWARM_C,
            "capacity": SWARM_CAP,
            "per_particle_s": t_legacy,
            "batched_s": t_batched,
            "speedup": speedup,
        },
    )
    print(
        f"\nswarm generation ({SWARM_P}x{SWARM_N}): per-particle "
        f"{t_legacy * 1e3:.0f} ms, batched {t_batched * 1e3:.1f} ms "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"batched repair+decode only {speedup:.1f}x faster than the "
        "per-particle loop (acceptance floor is 5x)"
    )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["swarm_generation_speedup"] = speedup


@pytest.fixture(scope="module")
def heartbeat_scale_network():
    """Heartbeat-scale LSM stack: the Das et al. front end, multi-column.

    A synthetic ECG is level-crossing encoded onto 16 channels driving
    four 32-neuron liquid columns (distance-dependent recurrence, 80/20
    excitatory/inhibitory, ring-coupled cross-column wiring) with one
    8-neuron readout per column — 176 neurons across 9 populations, the
    population-heavy regime the fused LIF stepper exists for.
    """
    rng = np.random.default_rng(BENCH_SEED)
    t, signal, _ = synthetic_ecg(LSM_DURATION_MS, seed=rng)
    trains = level_crossing_encode(t, signal)
    net = Network("heartbeat-lsm-stack")
    net.add_source("ecg", ScheduledSource(trains), layer=0)
    depth = max(1, LSM_COLUMN_SIZE // 16)
    grid = np.array(
        [(x, y, z) for x in range(4) for y in range(4) for z in range(depth)],
        dtype=np.float64,
    )
    model = LIFModel(tau_m=30.0, t_ref=3.0)
    columns = []
    for k in range(LSM_COLUMNS):
        name = f"liquid{k}"
        columns.append(name)
        net.add_population(name, LSM_COLUMN_SIZE, model, layer=1)
        w_in = np.where(rng.random((16, LSM_COLUMN_SIZE)) < 0.4, 260.0, 0.0)
        net.connect("ecg", name, weights=w_in, name=f"ecg->{name}")
        w_rec = distance_dependent(
            grid, grid, lambda_=2.0, max_weight=70.0, probability_scale=0.45, seed=rng
        )
        np.fill_diagonal(w_rec, 0.0)
        w_rec[rng.random(LSM_COLUMN_SIZE) < 0.2, :] *= -1.5
        net.connect(name, name, weights=w_rec, delay_ms=2.0, name=f"{name}-rec")
    for k in range(LSM_COLUMNS):
        nxt = columns[(k + 1) % LSM_COLUMNS]
        w_x = np.where(rng.random((LSM_COLUMN_SIZE, LSM_COLUMN_SIZE)) < 0.1, 40.0, 0.0)
        net.connect(
            columns[k], nxt, weights=w_x, delay_ms=1.0, name=f"{columns[k]}->{nxt}"
        )
    for k, column in enumerate(columns):
        readout = f"readout{k}"
        net.add_population(readout, LSM_READOUT_SIZE, LIFModel(), layer=2)
        net.connect(
            column,
            readout,
            weights=rng.uniform(15.0, 45.0, (LSM_COLUMN_SIZE, LSM_READOUT_SIZE)),
            name=f"{column}->{readout}",
        )
    return net


def test_columnar_snn_engine_speedup(benchmark, heartbeat_scale_network):
    net = heartbeat_scale_network

    def run(simulate, repeats):
        best, result = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = simulate(Simulation(net, seed=7))
            best = min(best, time.perf_counter() - t0)
        return best, result

    t_ref, ref = run(lambda sim: run_reference(sim, LSM_DURATION_MS, True), 3)
    t_col, col = run(lambda sim: sim.run(LSM_DURATION_MS), 5)
    for gid, (a, b) in enumerate(zip(ref.spike_times, col.spike_times)):
        assert np.array_equal(a, b), (
            f"columnar engine diverged from the reference at neuron {gid}"
        )
    speedup = t_ref / t_col

    _write_report(
        "snn_engine",
        {
            "n_neurons": net.n_neurons,
            "n_populations": len(net.populations),
            "n_projections": len(net.projections),
            "duration_ms": LSM_DURATION_MS,
            "total_spikes": col.total_spikes(),
            "reference_s": t_ref,
            "columnar_s": t_col,
            "speedup": speedup,
        },
    )
    print(
        f"\nSNN engine ({net.n_neurons} neurons, "
        f"{len(net.populations)} populations, {col.total_spikes()} spikes): "
        f"reference {t_ref * 1e3:.0f} ms, columnar {t_col * 1e3:.0f} ms "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"columnar SNN engine only {speedup:.1f}x faster than the "
        "reference loop (acceptance floor is 5x)"
    )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["snn_engine_speedup"] = speedup
    benchmark.extra_info["total_spikes"] = col.total_spikes()
