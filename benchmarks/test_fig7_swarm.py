"""Fig. 7: PSO solution quality versus swarm size.

The paper sweeps swarm size 10..1000 at 100 iterations for four
applications (hello_world, heartbeat estimation, synth_1x800,
synth_2x200) and plots interconnect energy normalized to the
per-application minimum.  Expected shape (paper Section V-D): larger
swarms find better (or equal) energy, saturating by ~1000 particles.

The bench uses 30 iterations (the trend is identical; 100 iterations just
scales wall time) and the paper's swarm-size endpoints.
"""

from __future__ import annotations

from repro.framework.reproduce import reproduce_fig7

PINNED = "758ca1c81be4a16f"


def test_fig7_swarm_size_exploration(benchmark, assert_pinned):
    sweeps = benchmark.pedantic(reproduce_fig7, rounds=1, iterations=1)
    assert_pinned(PINNED)

    # Swarm throughput must be reported for every sweep point: a front-end
    # regression (repair, decode, buffer churn) shows up here directly.
    for name, points in sweeps.items():
        for p in points:
            assert p.particle_iterations_per_s > 0, (
                f"{name}: swarm throughput missing for size {p.swarm_size}"
            )

    for name, points in sweeps.items():
        energies = [p.interconnect_energy_pj for p in points]
        # The paper's trend: the largest swarm is at (or within 2% of) the
        # sweep minimum, and strictly better than the smallest swarm
        # unless the problem is already saturated.
        assert energies[-1] <= min(energies) * 1.02, (
            f"{name}: 1000-particle swarm should reach the sweep minimum"
        )
        assert energies[-1] <= energies[0] * 1.001, (
            f"{name}: largest swarm must not lose to the smallest"
        )
