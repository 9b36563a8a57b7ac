"""Tests for Monte-Carlo fault campaigns and fault-aware mapping."""

import pytest

from repro.apps import build_application
from repro.core.mapper import map_snn
from repro.core.pso import PSOConfig
from repro.framework.artifacts import ArtifactCache
from repro.framework.cli import main
from repro.framework.pipeline import run_fault_campaign
from repro.hardware.presets import architecture_for
from repro.noc.interconnect import NocConfig
from repro.obs import observe


@pytest.fixture
def graph():
    return build_application("hello_world", seed=1)


@pytest.fixture
def arch(graph):
    # Mesh fabric: link redundancy so random faults are survivable.
    return architecture_for(
        graph.n_neurons, neurons_per_crossbar=16,
        interconnect="mesh", name="campaign-test",
    )


@pytest.fixture
def mapping(graph, arch):
    return map_snn(graph, arch, method="pacman")


def _run(graph, arch, mapping, **kwargs):
    kwargs.setdefault("fault_levels", (0, 1, 2))
    kwargs.setdefault("draws", 3)
    kwargs.setdefault("campaign_seed", 7)
    return run_fault_campaign(
        graph, arch, mappings={"pacman": mapping}, **kwargs
    )


class TestRunFaultCampaign:
    def test_grid_shape_and_reproducibility(self, graph, arch, mapping):
        a = _run(graph, arch, mapping)
        b = _run(graph, arch, mapping)
        assert a.levels == (0, 1, 2)
        assert len(a.draws) == 3 * 3  # levels x draws
        assert a.draws == b.draws
        assert a.healthy == b.healthy

    def test_distinct_seeds_distinct_draws(self, graph, arch, mapping):
        a = _run(graph, arch, mapping)
        b = _run(graph, arch, mapping, campaign_seed=8)
        fails_a = [d.failed_links for d in a.draws if d.level]
        fails_b = [d.failed_links for d in b.draws if d.level]
        assert fails_a != fails_b

    def test_draws_within_level_independent(self, graph, arch, mapping):
        summary = _run(graph, arch, mapping)
        fails = [d.failed_links for d in summary.draws_for("pacman", 2)]
        assert len(set(fails)) > 1  # not the same fault set re-drawn

    def test_level_zero_uses_healthy_fabric(self, graph, arch, mapping):
        summary = _run(graph, arch, mapping)
        for d in summary.draws_for("pacman", 0):
            assert d.failed_links == ()
            assert d.mean_latency_cycles == pytest.approx(
                summary.baseline("pacman").mean_latency_cycles
            )

    def test_parallel_bit_identical(self, graph, arch, mapping, monkeypatch):
        """The kernel thread team is the campaign's only parallelism, and
        the host steers it (``REPRO_NOC_THREADS``), not the request."""
        fast = NocConfig(backend="fast")
        runs = []
        for threads in ("0", "1", "2"):
            monkeypatch.setenv("REPRO_NOC_THREADS", threads)
            runs.append(_run(graph, arch, mapping, noc_config=fast))
        for other in runs[1:]:
            assert runs[0].draws == other.draws
            assert runs[0].healthy == other.healthy
            assert runs[0].table() == other.table()
        for kwarg in ("workers", "threads"):
            with pytest.raises(TypeError):
                _run(graph, arch, mapping, **{kwarg: 4})

    def test_fast_backend_campaign(self, graph, arch, mapping):
        ref = _run(graph, arch, mapping)
        fast = _run(graph, arch, mapping,
                    noc_config=NocConfig(backend="fast"))
        for a, b in zip(ref.draws, fast.draws):
            assert a.delivered_packets == b.delivered_packets
            assert a.mean_latency_cycles == pytest.approx(
                b.mean_latency_cycles
            )

    def test_resumable_matches_and_resumes(
        self, graph, arch, mapping, tmp_path
    ):
        """A campaign's checkpoint is the cache directory: a second
        process on it restores every (level, draw) and computes none."""
        baseline = _run(graph, arch, mapping)
        first = _run(graph, arch, mapping, cache=ArtifactCache(str(tmp_path)))
        again = ArtifactCache(str(tmp_path))
        resumed = _run(graph, arch, mapping, cache=again)
        assert first.draws == baseline.draws
        assert resumed.draws == baseline.draws
        assert resumed.healthy == baseline.healthy
        assert again.stats["disk_hits"] == 3 * 3
        assert again.stats["misses"] == again.stats["stores"] == 0

    def test_nonpositive_draws_rejected(self, graph, arch, mapping):
        with pytest.raises(ValueError, match="positive"):
            _run(graph, arch, mapping, draws=0)

    @pytest.mark.parametrize("levels", [(2, 2), (0, 1, 0), (1, -1)])
    def test_repeated_or_negative_levels_rejected(self, graph, arch, mapping, levels):
        """A repeated level would count its draws twice in ``stats()``."""
        with observe(tracer=False) as obs:
            with pytest.raises(ValueError, match="fault levels must be"):
                _run(graph, arch, mapping, fault_levels=levels, draws=2)
        assert obs.metrics.counters() == {}  # nothing simulated, nothing drawn

    def test_cli_rejects_repeated_levels(self, capsys):
        args = ["faults", "--app", "synth_1x20", "--method", "pacman"]
        assert main([*args, "--levels", "2", "2", "--draws", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the app is even built
        assert "error: fault levels must be distinct" in captured.err

    def test_mappings_are_required(self, graph, arch):
        """The campaign maps nothing itself: the caller's mappings are
        what it measures."""
        with pytest.raises(TypeError, match="mappings"):
            run_fault_campaign(graph, arch)

    def test_empty_mappings_rejected(self, graph, arch):
        with pytest.raises(ValueError, match="at least one"):
            run_fault_campaign(graph, arch, mappings={})

    def test_cached_and_uncached_agree(self, graph, arch, mapping):
        plain = _run(graph, arch, mapping)
        cached = _run(graph, arch, mapping, cache=ArtifactCache())
        assert plain.draws == cached.draws

    def test_summary_stats_and_table(self, graph, arch, mapping):
        summary = _run(graph, arch, mapping)
        stats = summary.stats()
        assert len(stats) == len(summary.levels)
        healthy_row = stats[0]
        assert healthy_row.survival_rate == 1.0
        assert healthy_row.mean_latency_overhead == pytest.approx(1.0)
        for row in stats[1:]:
            assert 0.0 <= row.survival_rate <= 1.0
            assert row.p95_latency_overhead >= row.mean_latency_overhead * 0.5
        text = summary.table()
        assert "survival" in text and "p95" in text
        payload = summary.to_dict()
        assert payload["draws_per_level"] == 3
        assert len(payload["draws"]) == len(summary.draws)
        assert payload["stats"][0]["mapping"] == "pacman"

    def test_unknown_mapping_rejected(self, graph, arch, mapping):
        summary = _run(graph, arch, mapping)
        with pytest.raises(ValueError, match="no healthy baseline"):
            summary.baseline("nope")
        with pytest.raises(ValueError, match="no draws"):
            summary.survival_rate("pacman", 99)


class TestFaultSweepSatellites:
    """What a campaign may ask of the cache."""

    def test_fault_draws_never_touch_the_cache(
        self, graph, arch, mapping, monkeypatch
    ):
        """Given a mapping, a campaign consults the cache once per
        (level, draw) for the whole point — never for a part (topology,
        schedule, fault set)."""
        cache = ArtifactCache()
        kinds = []
        key = cache.key
        monkeypatch.setattr(
            cache, "key", lambda kind, token: kinds.append(kind) or key(kind, token)
        )
        summary = _run(graph, arch, mapping, cache=cache)
        assert len(summary.draws) == 3 * 3
        assert kinds == ["sweep-point"] * (3 * 3)
        assert cache.stats["misses"] == cache.stats["stores"] == 3 * 3


class TestFaultAwareMapping:
    @pytest.fixture
    def roomy_arch(self, graph):
        # 12x16 = 192 slots for 126 neurons: a 20% reservation
        # (12 usable slots per crossbar, 144 total) stays feasible.
        from repro.hardware.presets import custom

        return custom(12, 16, interconnect="mesh", name="roomy")

    def test_spare_capacity_reserves_headroom(self, graph, roomy_arch):
        fa = map_snn(graph, roomy_arch, method="pacman",
                     spare_capacity=0.2)
        import numpy as np

        loads = np.bincount(
            fa.assignment, minlength=roomy_arch.n_crossbars
        )
        reserve = int(np.ceil(roomy_arch.neurons_per_crossbar * 0.2))
        assert loads.max() <= roomy_arch.neurons_per_crossbar - reserve
        assert fa.extras["spare_capacity"] == 0.2

    def test_spare_capacity_validated(self, graph, arch):
        with pytest.raises(ValueError, match="spare_capacity"):
            map_snn(graph, arch, spare_capacity=1.0)
        with pytest.raises(ValueError, match="spare_capacity"):
            map_snn(graph, arch, spare_capacity=-0.1)

    def test_infeasible_reservation_rejected(self, graph, arch):
        with pytest.raises(ValueError, match="usable slots"):
            map_snn(graph, arch, spare_capacity=0.9)

    def test_zero_spare_is_bit_identical_to_default(self, graph, arch):
        small = PSOConfig(n_particles=6, n_iterations=3)
        a = map_snn(graph, arch, method="pso", seed=4, pso_config=small)
        b = map_snn(graph, arch, method="pso", seed=4, pso_config=small,
                    spare_capacity=0.0)
        assert (a.assignment == b.assignment).all()
        assert a.fitness == b.fitness

    def test_campaign_compares_two_mappings(self, graph, roomy_arch):
        base = map_snn(graph, roomy_arch, method="pacman")
        fa = map_snn(graph, roomy_arch, method="pacman",
                     spare_capacity=0.2)
        summary = run_fault_campaign(
            graph, roomy_arch,
            mappings={"baseline": base, "fault-aware": fa},
            fault_levels=(0, 2), draws=3, campaign_seed=11,
        )
        assert summary.labels == ("baseline", "fault-aware")
        # Identical fault draws are replayed against both mappings.
        for d_base, d_fa in zip(
            summary.draws_for("baseline", 2),
            summary.draws_for("fault-aware", 2),
        ):
            assert d_base.failed_links == d_fa.failed_links
            assert d_base.fault_seed == d_fa.fault_seed
