"""Fig. 5: normalized interconnect energy, NEUTRAMS vs PACMAN vs PSO.

The paper evaluates 8 synthetic topologies (plotting 1x200, 1x600, 3x200,
4x200) plus the four realistic applications, normalizing each workload's
interconnect energy to NEUTRAMS.  Expected shape (paper Section V-A):

- PSO achieves the minimum energy of the three on every workload;
- improvements shrink as synapse density grows (4x200 is nearly a tie,
  1x200 shows the largest gain).

Energy uses the paper-literal per-synapse accounting (Eq. 7-8: every
crossing synapse spike pays hop + endpoint energy independently) and the
PSO optimizes the paper's literal Eq. 8 spike objective — this bench
reproduces the paper's own cost model.  The multicast-aware packet
accounting is exercised by Table II (full NoC simulation) and the fitness
ablation bench.
"""

from __future__ import annotations

from repro.framework.reproduce import reproduce_fig5

PINNED = "280720aeba6f80ca"


def test_fig5_energy_comparison(benchmark, assert_pinned):
    results = benchmark.pedantic(reproduce_fig5, rounds=1, iterations=1)
    assert_pinned(PINNED)

    # Shape assertions (paper Section V-A).  The 5% slack mirrors the
    # paper's own finding that the three approaches become "comparable"
    # on dense topologies (4x200: gains below 2%): PSO's objective is
    # the spike count, while the reported energy additionally weights
    # spikes by routed hops, so a small inversion within slack is noise.
    for name, energies in results.items():
        assert energies["pso"] <= energies["neutrams"] * 1.05, (
            f"{name}: PSO must not lose to NEUTRAMS"
        )
        assert energies["pso"] <= energies["pacman"] * 1.05, (
            f"{name}: PSO must not lose to PACMAN"
        )

    # Aggregate dominance: over all workloads PSO is the best of the
    # three on average (the paper reports 17-33% average gains).
    mean_norm = {
        m: sum(e[m] / (e["neutrams"] or 1.0) for e in results.values()) / len(results)
        for m in ("neutrams", "pacman", "pso")
    }
    assert mean_norm["pso"] <= mean_norm["pacman"]
    assert mean_norm["pso"] <= mean_norm["neutrams"]

    # Sparse synthetic (1x200) gains more than dense (4x200).
    def gain(name):
        e = results[name]
        return 1.0 - e["pso"] / e["neutrams"]

    assert gain("synth_1x200") >= gain("synth_4x200") - 0.02, (
        "sparse topologies should benefit at least as much as dense ones"
    )
