"""Tests for the command-line interface."""

import pytest

from repro.framework.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_map_defaults(self):
        args = build_parser().parse_args(["map", "--app", "hello_world"])
        assert args.method == "pso"
        assert args.particles == 100

    @pytest.mark.parametrize("flag", ["--workers", "--threads"])
    def test_execution_flags_are_gone(self, flag):
        """How a batch runs is set on the host (REPRO_NOC_THREADS)."""
        for command in ("map", "compare", "explore", "faults"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--app", "x", flag, "2"])

    def test_resume_flag_is_gone(self):
        """``--cache-dir`` alone makes a sweep restartable."""
        for command in ("explore", "faults"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--app", "x", "--resume"])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["map", "--app", "x", "--method", "magic"]
            )


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "hello_world" in out
        assert "pso" in out

    def test_info_prints_noc_execution_plan(self, capsys):
        """Which engine and how many threads a run would use is printed,
        not inferred from a failing test."""
        assert main(["info"]) == 0
        lines = capsys.readouterr().out.splitlines()
        plan = lines[lines.index("NoC execution plan:") + 1 :]
        for prefix in (
            "  compiled kernel: ",
            "  OpenMP: ",
            "  effective threads: ",
            "  --noc-backend fast, <=63 routers: engine ",
            "  --noc-backend fast, >63 routers: engine ",
        ):
            assert sum(line.startswith(prefix) for line in plan) == 1, prefix

    def test_info_prints_the_raw_thread_setting(self, capsys, monkeypatch):
        """The environment variable is the one spelling of the thread
        cap, so a typo must be visible, not silently "one per core"."""

        def threads_line():
            assert main(["info"]) == 0
            out = capsys.readouterr().out
            (line,) = [ln for ln in out.splitlines() if "effective threads" in ln]
            return line

        monkeypatch.delenv("REPRO_NOC_THREADS", raising=False)
        assert "(REPRO_NOC_THREADS unset -> one per core)" in threads_line()
        monkeypatch.setenv("REPRO_NOC_THREADS", "0")
        assert "threads: 0 (REPRO_NOC_THREADS='0' -> calling thread" in threads_line()
        monkeypatch.setenv("REPRO_NOC_THREADS", "3")
        assert threads_line().endswith("threads: 3 (REPRO_NOC_THREADS='3')")
        monkeypatch.setenv("REPRO_NOC_THREADS", "fuor")
        with pytest.warns(RuntimeWarning, match="REPRO_NOC_THREADS='fuor'"):
            assert "(REPRO_NOC_THREADS='fuor')" in threads_line()

    def test_map_small(self, capsys):
        code = main([
            "map", "--app", "synth_1x20", "--seed", "3",
            "--duration", "100", "--crossbars", "3", "--capacity", "10",
            "--particles", "10", "--iterations", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ISI distortion" in out

    def test_compare_small(self, capsys):
        code = main([
            "compare", "--app", "synth_1x20", "--seed", "3",
            "--duration", "100", "--crossbars", "3", "--capacity", "10",
            "--particles", "10", "--iterations", "5",
            "--methods", "pacman", "pso",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pacman" in out and "pso" in out

    def test_explore_small(self, capsys):
        code = main([
            "explore", "--app", "synth_1x20", "--seed", "3",
            "--duration", "100", "--sizes", "10", "30",
            "--particles", "10", "--iterations", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "neurons/xbar" in out

    def test_map_with_arch_config(self, tmp_path, capsys):
        config = tmp_path / "chip.yaml"
        config.write_text(
            "name: test-chip\nn_crossbars: 3\nneurons_per_crossbar: 10\n",
            encoding="utf-8",
        )
        code = main([
            "map", "--app", "synth_1x20", "--seed", "3",
            "--duration", "100", "--arch-config", str(config),
            "--particles", "10", "--iterations", "5",
        ])
        assert code == 0
        assert "test-chip" in capsys.readouterr().out

    def test_reproduce_fig6(self, capsys):
        assert main(["reproduce", "fig6", "--effort", "0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Fig. 6 — architecture exploration (digit recognition)"
        sizes = [line.split()[0] for line in lines[3:]]
        assert sizes == ["90", "180", "360", "720", "1080", "1440"]

    def test_reproduce_rejects_nonfinite_effort(self, capsys):
        assert main(["reproduce", "fig5", "--effort", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: effort")
        assert captured.out == ""


class TestMultiChipCli:
    def test_chip_flag_defaults(self):
        args = build_parser().parse_args(["map", "--app", "hello_world"])
        assert args.chips == 1
        assert args.chip_topology is None
        assert args.bridge_latency == 4
        assert args.bridge_energy is None

    def test_map_two_chips(self, capsys):
        code = main([
            "map", "--app", "synth_1x20", "--seed", "3",
            "--duration", "100", "--crossbars", "4", "--capacity", "10",
            "--interconnect", "mesh", "--chips", "2",
            "--bridge-latency", "2", "--bridge-energy", "60",
            "--particles", "10", "--iterations", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 chips of mesh" in out
        assert "Inter-chip hops" in out

    def test_explore_chip_counts(self, capsys):
        code = main([
            "explore", "--app", "synth_1x20", "--seed", "3",
            "--duration", "100", "--crossbars", "4", "--capacity", "10",
            "--interconnect", "mesh", "--chip-counts", "1", "2",
            "--method", "pacman", "--particles", "5", "--iterations", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chips" in out
        assert "inter-chip hops" in out

    def test_chip_topology_overrides_interconnect(self):
        args = build_parser().parse_args([
            "map", "--app", "x", "--chips", "2", "--chip-topology", "star",
        ])
        assert args.chip_topology == "star"

    def test_explore_size_sweep_honors_chip_flags(self, capsys):
        """--chips applies to the crossbar-size sweep, not only --chip-counts."""
        args = [
            "explore", "--app", "synth_1x20", "--seed", "3",
            "--duration", "100", "--sizes", "10",
            "--interconnect", "mesh", "--method", "pacman",
            "--particles", "5", "--iterations", "2",
        ]
        assert main(args) == 0
        flat_out = capsys.readouterr().out
        assert main(args + ["--chips", "2", "--bridge-latency", "8"]) == 0
        split_out = capsys.readouterr().out

        def latency(out):
            row = [ln for ln in out.splitlines() if ln.startswith("10")][0]
            return int(row.split("|")[-1])

        assert latency(split_out) > latency(flat_out)


class TestServe:
    @staticmethod
    def _write_requests(tmp_path, specs):
        import json

        path = tmp_path / "requests.json"
        path.write_text(json.dumps(specs))
        return str(path)

    def test_serve_coalesces_same_workload_noc_requests(
        self, tmp_path, capsys
    ):
        """`map_seed` reseeds only the mapper: both requests are answered,
        in order, sharing one graph's cached artifacts."""
        spec = {
            "app": "synth_1x20", "seed": 7, "duration": 100,
            "crossbars": 3, "capacity": 10, "objective": "noc",
            "particles": 5, "iterations": 2,
        }
        requests = self._write_requests(
            tmp_path,
            [{**spec, "map_seed": 1}, {**spec, "map_seed": 2}],
        )
        code = main([
            "serve", "--requests", requests,
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "synth_1x20#0" in out and "synth_1x20#1" in out
        assert "cache:" in out
        assert out.index("synth_1x20#0") < out.index("synth_1x20#1")
        assert "service: requests_served=2" in out
        assert "coalescer:" not in out

    def test_serve_rejects_unknown_keys(self, tmp_path, capsys):
        for key in ("bogus", "workers", "threads"):
            requests = self._write_requests(
                tmp_path, [{"app": "synth_1x20", key: 1}]
            )
            assert main(["serve", "--requests", requests]) == 2
            assert f"unknown keys ['{key}']" in capsys.readouterr().err


class TestResumeFingerprint:
    """``--cache-dir`` restores sweep points only for the flags that
    wrote them: a rerun with any result-shaping flag changed addresses
    other entries, so every point is computed — it prints what those
    flags print without a cache, never the old points, never an error —
    and the original flags still find theirs on disk."""

    EXPLORE = [
        "explore", "--app", "synth_1x20", "--seed", "3", "--duration", "100",
        "--sizes", "10", "20", "--particles", "4", "--iterations", "1",
    ]
    FAULTS = [
        "faults", "--app", "synth_1x20", "--seed", "3", "--duration", "100",
        "--crossbars", "6", "--capacity", "5", "--interconnect", "mesh",
        "--method", "pacman", "--levels", "1", "2", "--draws", "2",
        "--noc-backend", "fast",
    ]

    @staticmethod
    def _run(capsys, args):
        """``(result table, cache stats)`` of one successful run."""
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        table = [ln for ln in lines if " | " in ln or "-+-" in ln]
        assert len(table) >= 3
        if "--cache-dir" not in args:
            assert lines[-1] == table[-1]  # no cache, no cache line
            return table, None
        assert lines[-2] == table[-1] and lines[-1].startswith("cache: ")
        stats = dict(item.split("=") for item in lines[-1][7:].split(", "))
        return table, {name: int(value) for name, value in stats.items()}

    def _check(self, capsys, command, changed, n_points):
        """Original flags, changed flags, original flags on one directory."""
        first, stats = self._run(capsys, command)
        assert first == self._run(capsys, command[:-2])[0]
        assert stats["disk_hits"] == 0 and stats["persist_failures"] == 0

        other, stats = self._run(capsys, command + changed)
        assert other == self._run(capsys, command[:-2] + changed)[0]
        # Every point missed and was stored (a flag the mapping does not
        # depend on may still find the mapping).
        assert stats["misses"] >= n_points and stats["stores"] >= n_points

        again, stats = self._run(capsys, command)
        assert again == first
        assert stats["misses"] == stats["stores"] == 0
        return first, other, stats

    @pytest.mark.parametrize("changed", [
        ["--particles", "8", "--iterations", "2"],
        ["--interconnect", "mesh"],
        ["--noc-backend", "fast"],
        ["--cycles-per-ms", "2"],
    ])
    def test_explore_changed_flag_is_recomputed(self, tmp_path, capsys, changed):
        command = self.EXPLORE + ["--cache-dir", str(tmp_path)]
        first, other, stats = self._check(capsys, command, changed, 2)
        assert (other != first) == (changed[0] == "--interconnect")
        assert stats["disk_hits"] == 2  # the points; nothing else is asked

    def test_explore_chip_counts_changed_flag_is_recomputed(self, tmp_path, capsys):
        command = [
            "explore", "--app", "synth_1x20", "--seed", "3", "--duration", "100",
            "--crossbars", "4", "--capacity", "10", "--interconnect", "mesh",
            "--chip-counts", "1", "2", "--method", "pacman",
            "--cache-dir", str(tmp_path),
        ]
        first, other, stats = self._check(
            capsys, command, ["--bridge-latency", "9"], 2
        )
        assert other != first
        assert stats["disk_hits"] == 2

    def test_faults_changed_flag_is_recomputed(self, tmp_path, capsys):
        # Same architecture *name* ("cli") and graph name, other content.
        for changed in (["--cycles-per-ms", "2"], ["--seed", "4"]):
            cache_dir = tmp_path / changed[0]
            command = self.FAULTS + ["--cache-dir", str(cache_dir)]
            first, other, stats = self._check(capsys, command, changed, 4)
            assert other != first
            assert stats["disk_hits"] == 1 + 4  # the mapping + 2 levels x 2 draws
            # Two mappings and two campaigns, whole entries only.
            assert len(list(cache_dir.glob("*.pkl"))) == 2 * (1 + 4)
            assert len(list(cache_dir.iterdir())) == 2 * (1 + 4)
