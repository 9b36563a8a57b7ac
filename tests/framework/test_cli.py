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


class TestPlatformFlags:
    """The platform and fault counts are checked when parsed, and each
    one given is honoured on its own."""

    @pytest.mark.parametrize("command", ["map", "compare", "explore", "faults"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--crossbars", "-3"), ("--crossbars", "0"), ("--capacity", "0"),
         ("--chips", "0"), ("--bridge-latency", "-1")],
    )
    def test_counts_must_be_positive_integers(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--app", "hello_world", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive integer, got '{value}'" in err

    @pytest.mark.parametrize("value", ["-1", "1.5"])
    def test_faults_must_be_a_non_negative_integer(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["map", "--app", "hello_world", "--faults", value]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--faults: must be a non-negative integer, got '{value}'" in err
        args = build_parser().parse_args(["map", "--app", "x", "--faults", "0"])
        assert args.faults == 0

    @pytest.mark.parametrize(
        "command, flag",
        [("map", "--seed"), ("compare", "--seed"), ("explore", "--seed"),
         ("faults", "--seed"), ("map", "--fault-seed"),
         ("faults", "--campaign-seed")],
    )
    @pytest.mark.parametrize("value", ["-1", "1.5", "x"])
    def test_seeds_must_be_non_negative_integers(
        self, capsys, command, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--app", "hello_world", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a non-negative integer, got '{value}'" in err
        args = build_parser().parse_args([command, "--app", "x", flag, "0"])
        assert vars(args)[flag[2:].replace("-", "_")] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "--app", "hello_world", "--method", "greedy", "--seed", "-1"],
            ["compare", "--app", "hello_world", "--seed", "-2",
             "--particles", "5", "--iterations", "2"],
            ["map", "--app", "hello_world", "--method", "greedy",
             "--faults", "1", "--fault-seed", "-3"],
        ],
    )
    def test_negative_seed_exits_2_before_mapping(self, capsys, argv):
        """These used to end in numpy's ``expected non-negative integer``
        (a traceback with exit 1, or a bare message naming no flag)."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "must be a non-negative integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, flag, value",
        [("explore", "--sizes", "0"), ("explore", "--chip-counts", "0"),
         ("faults", "--draws", "0"), ("faults", "--draws", "-2")],
    )
    def test_sweep_counts_must_be_positive_integers(
        self, capsys, command, flag, value
    ):
        """Rejected when parsed: nothing is mapped for a sweep of zero."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--app", "hello_world", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive integer, got '{value}'" in err

    @pytest.mark.parametrize("command", ["map", "compare", "explore", "faults"])
    @pytest.mark.parametrize("flag", ["--cycles-per-ms", "--duration"])
    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf", "fast"])
    def test_rates_must_be_positive_finite_numbers(
        self, capsys, command, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--app", "hello_world", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive number, got '{value}'" in err
        args = build_parser().parse_args([command, "--app", "x", flag, "2.5"])
        assert vars(args)[flag[2:].replace("-", "_")] == 2.5

    @pytest.mark.parametrize("command", ["map", "compare", "explore", "faults"])
    @pytest.mark.parametrize("value", ["-5", "-0.5", "nan", "inf", "pJ"])
    def test_bridge_energy_must_be_a_non_negative_finite_number(
        self, capsys, command, value
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                [command, "--app", "hello_world", "--bridge-energy", value]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (
            f"argument --bridge-energy: must be a non-negative number, "
            f"got '{value}'" in err
        )
        args = build_parser().parse_args(
            [command, "--app", "x", "--bridge-energy", "0"]
        )
        assert args.bridge_energy == 0.0

    def test_negative_bridge_energy_exits_2_before_mapping(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "map", "--app", "hello_world", "--method", "greedy",
                "--chips", "2", "--interconnect", "mesh", "--bridge-energy", "-5",
            ])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--bridge-energy: must be a non-negative number" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["map", "faults"])
    @pytest.mark.parametrize("value", ["1.5", "1", "-0.1", "nan", "inf", "x"])
    def test_spare_capacity_must_be_in_the_unit_interval(
        self, capsys, command, value
    ):
        """Checked when parsed: ``faults --spare-capacity 1.5`` used to end
        in a traceback and ``nan`` to map the baseline alone."""
        with pytest.raises(SystemExit) as exc:
            main([
                command, "--app", "hello_world", "--method", "greedy",
                "--spare-capacity", value,
            ])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert (
            f"argument --spare-capacity: must be in [0, 1), got '{value}'"
            in captured.err
        )
        assert captured.out == ""
        args = build_parser().parse_args(
            [command, "--app", "x", "--spare-capacity", "0.25"]
        )
        assert args.spare_capacity == 0.25

    def test_crossbars_alone_sizes_each_crossbar_to_fit(self, capsys):
        """``--crossbars N`` without ``--capacity``: N crossbars of
        ``ceil(n_neurons / N)`` neurons (it used to be ignored)."""
        code = main([
            "map", "--app", "synth_1x20", "--seed", "3", "--duration", "100",
            "--crossbars", "4", "--method", "greedy",
        ])
        assert code == 0
        out = capsys.readouterr().out  # 30 neurons
        assert "Architecture 'cli': 4 crossbars x 8 neurons" in out

    def test_map_reports_an_unsurvivable_fault_count(self, capsys):
        """A tree has no redundant link: ``--faults 1`` is an error on
        stderr with exit 2, as in ``repro faults``, not a traceback."""
        code = main([
            "map", "--app", "synth_1x20", "--seed", "3", "--duration", "100",
            "--crossbars", "3", "--capacity", "10", "--method", "greedy",
            "--faults", "1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: topology 'tree' cannot survive 1 link faults")

    @pytest.mark.parametrize("command", ["map", "faults"])
    def test_spare_capacity_that_leaves_too_few_slots(self, capsys, command):
        """Headroom that leaves fewer slots than neurons is an error on
        stderr with exit 2 in both commands, not a traceback."""
        code = main([
            command, "--app", "hello_world", "--interconnect", "mesh",
            "--crossbars", "9", "--method", "greedy", "--spare-capacity", "0.2",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: spare_capacity=0.2 reserves 3 of 14 slots")

    @pytest.mark.parametrize(
        "spare, labels", [("0", ["greedy"]), ("0.2", ["baseline", "fault-aware"])]
    )
    def test_faults_maps_once_or_with_and_without_headroom(
        self, capsys, spare, labels
    ):
        """Headroom maps the app twice, without and with spare slots,
        and the campaign reports each mapping at every level."""
        code = main([
            "faults", "--app", "hello_world", "--interconnect", "mesh",
            "--crossbars", "9", "--capacity", "20", "--levels", "0", "1",
            "--draws", "2", "--method", "greedy", "--spare-capacity", spare,
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [ln.split(" | ") for ln in captured.out.splitlines()
                if " | " in ln][1:]
        assert [(r[0].strip(), r[1].strip()) for r in rows] == [
            (label, level) for label in labels for level in ("0", "1")
        ]


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

    @pytest.mark.parametrize(
        "field, value", [("particles", 2.5), ("iterations", 0)]
    )
    def test_serve_rejects_unrunnable_swarm_before_building_graph(
        self, tmp_path, capsys, monkeypatch, field, value
    ):
        import repro.framework.cli as cli

        def no_graph(_args):
            raise AssertionError("graph built for an invalid request")

        monkeypatch.setattr(cli, "_build_graph", no_graph)
        requests = self._write_requests(
            tmp_path, [{"app": "synth_1x20", field: value}]
        )
        assert main(["serve", "--requests", requests]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: request #0: ")
        assert f"n_{field}" in err

    @pytest.mark.parametrize(
        "field, value",
        [("crossbars", -3), ("crossbars", 0), ("capacity", 0), ("chips", 0),
         ("bridge_latency", -1), ("faults", -1), ("faults", 1.5),
         ("cycles_per_ms", 0), ("cycles_per_ms", -1.5), ("duration", -5),
         ("duration", 0), ("seed", -1), ("map_seed", -2), ("fault_seed", -3),
         ("seed", 1.5)],
    )
    def test_serve_rejects_bad_counts_before_building_graph(
        self, tmp_path, capsys, monkeypatch, field, value
    ):
        """A request's counts get the checks of the matching flags."""
        import repro.framework.cli as cli

        def no_graph(_args):
            raise AssertionError("graph built for an invalid request")

        monkeypatch.setattr(cli, "_build_graph", no_graph)
        requests = self._write_requests(
            tmp_path, [{"app": "synth_1x20", field: value}]
        )
        assert main(["serve", "--requests", requests]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: request #0: {field} must be a ")
        assert f"got '{value}'" in err

    @pytest.mark.parametrize(
        "field, value, rule",
        [("spare_capacity", 1.5, "in [0, 1)"), ("spare_capacity", -0.1, "in [0, 1)"),
         ("spare_capacity", float("nan"), "in [0, 1)"),
         ("bridge_energy", -5, "a non-negative number")],
    )
    def test_serve_checks_fractions_and_energies_as_the_flags_do(
        self, tmp_path, capsys, monkeypatch, field, value, rule
    ):
        import repro.framework.cli as cli

        def no_graph(_args):
            raise AssertionError("graph built for an invalid request")

        monkeypatch.setattr(cli, "_build_graph", no_graph)
        requests = self._write_requests(
            tmp_path, [{"app": "synth_1x20", field: value}]
        )
        assert main(["serve", "--requests", requests]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: request #0: {field} must be {rule}, got ")

    def test_serve_reports_an_unsurvivable_fault_count(self, tmp_path, capsys):
        """The error names the request that failed, not only what failed."""
        spec = {
            "app": "synth_1x20", "seed": 3, "duration": 100,
            "crossbars": 3, "capacity": 10, "method": "greedy",
        }
        requests = self._write_requests(
            tmp_path, [{**spec, "interconnect": "mesh"}, {**spec, "faults": 1}]
        )
        assert main(["serve", "--requests", requests]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: request #1: topology 'tree' cannot survive 1 link faults"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["map", "compare", "explore", "faults"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--iterations", "0"), ("--particles", "0"), ("--particles", "-3"),
         ("--particles", "2.5")],
    )
    def test_swarm_flags_must_be_positive_integers(
        self, capsys, command, flag, value
    ):
        """argparse reports the value and exits 2; no traceback."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--app", "hello_world", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive integer" in err


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
