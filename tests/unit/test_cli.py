"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestBound:
    def test_prints_theorem1(self, capsys):
        assert main(["bound", "--mesh", "4"]) == 0
        out = capsys.readouterr().out
        assert "131.4" in out
        assert "H_i" in out


class TestMapping:
    def test_checkerboard_grid(self, capsys):
        assert main(["mapping", "--mesh", "4"]) == 0
        out = capsys.readouterr().out
        assert "n1=4, n2=4, n3=8" in out

    def test_uniform_strategy(self, capsys):
        assert main(["mapping", "--mesh", "4", "--strategy", "uniform"]) == 0
        out = capsys.readouterr().out
        assert "uniform mapping" in out

    def test_harvest_proportional_strategy(self, capsys):
        assert main(
            [
                "mapping",
                "--mesh", "4",
                "--strategy", "harvest-proportional",
                "--harvest-profile", "motion",
                "--harvest-hardware", "0.25",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "harvest-proportional mapping" in out
        assert "duplicates:" in out

    def test_harvest_proportional_without_income_prints_proportional(
        self, capsys
    ):
        # No harvest profile: the income picture is flat, so the grid
        # must match the plain proportional strategy's.
        assert main(
            ["mapping", "--mesh", "4", "--strategy", "harvest-proportional"]
        ) == 0
        aware = capsys.readouterr().out.splitlines()[2:]
        assert main(
            ["mapping", "--mesh", "4", "--strategy", "proportional"]
        ) == 0
        plain = capsys.readouterr().out.splitlines()[2:]
        assert aware == plain


class TestRegenGolden:
    def test_rewrites_a_fixture_that_matches_the_committed_one(
        self, capsys, tmp_path, monkeypatch
    ):
        # One representative point proves the command wiring and the
        # byte format; staleness of *every* fixture is already caught
        # by tests/integration/test_golden_traces.py, which re-runs
        # each golden point through both sweep runners.
        import repro.cli as cli_module

        case = next(
            entry
            for entry in cli_module.GOLDEN_SMOKE_POINTS
            if entry[0] == "fig7"
        )
        monkeypatch.setattr(cli_module, "GOLDEN_SMOKE_POINTS", (case,))
        assert main(["regen-golden", "--dir", str(tmp_path)]) == 0
        from pathlib import Path

        committed = Path(__file__).resolve().parents[1] / "golden"
        filename = case[2]
        fresh = (tmp_path / filename).read_text(encoding="utf-8")
        assert fresh == (committed / filename).read_text(
            encoding="utf-8"
        ), f"{filename} is stale — run `python -m repro regen-golden`"

    def test_check_mode_detects_staleness_without_writing(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.cli as cli_module

        case = next(
            entry
            for entry in cli_module.GOLDEN_SMOKE_POINTS
            if entry[0] == "fig7"
        )
        monkeypatch.setattr(cli_module, "GOLDEN_SMOKE_POINTS", (case,))
        filename = case[2]
        # Missing fixture: check fails without creating anything.
        assert main(["regen-golden", "--dir", str(tmp_path), "--check"]) == 1
        assert "MISSING" in capsys.readouterr().out
        assert not (tmp_path / filename).exists()
        # Fresh fixture: check passes.
        assert main(["regen-golden", "--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["regen-golden", "--dir", str(tmp_path), "--check"]) == 0
        assert "ok" in capsys.readouterr().out
        # Tampered fixture: check flags it and leaves the bytes alone.
        path = tmp_path / filename
        stale = json.loads(path.read_text(encoding="utf-8"))
        stale["summary"]["jobs_completed"] = 9999
        tampered = json.dumps(stale, indent=2, sort_keys=True) + "\n"
        path.write_text(tampered, encoding="utf-8")
        assert main(["regen-golden", "--dir", str(tmp_path), "--check"]) == 1
        out = capsys.readouterr().out
        assert "STALE" in out
        assert "regen-golden" in out
        assert path.read_text(encoding="utf-8") == tampered


class TestRoutingFlags:
    def test_defaults_are_the_inert_options(self):
        from repro.config import RoutingOptions

        args = build_parser().parse_args(["simulate", "--mesh", "4"])
        from repro.cli import _routing_options

        assert _routing_options(args) == RoutingOptions()

    def test_inert_knobs_do_not_fork_the_config(self):
        # Tuning knobs without their enabling flag must normalise away,
        # so they cannot split the sweep cache hash.
        from repro.cli import _routing_options
        from repro.config import RoutingOptions

        args = build_parser().parse_args(
            ["simulate", "--mesh", "4", "--congestion-q", "2.0",
             "--ecmp-seed", "7"]
        )
        assert _routing_options(args) == RoutingOptions()

    def test_flags_reach_the_options(self):
        from repro.cli import _routing_options

        args = build_parser().parse_args(
            ["simulate", "--mesh", "4", "--congestion-weight",
             "--congestion-q", "1.5", "--ecmp", "--ecmp-seed", "3"]
        )
        opts = _routing_options(args)
        assert opts.congestion_aware and opts.ecmp
        assert opts.congestion_q == 1.5
        assert opts.ecmp_seed == 3

    def test_simulate_accepts_the_congestion_flags(self, capsys):
        assert main(
            ["simulate", "--mesh", "4", "--congestion-weight", "--ecmp"]
        ) == 0
        out = capsys.readouterr().out
        assert "jobs" in out.lower()


class TestBenchAndSweepPaths:
    def test_bench_list_prints_the_registry(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "harvest-mapping" in out
        assert "fig7" in out

    def test_bench_rejects_unknown_scenarios(self, tmp_path, monkeypatch):
        from repro.errors import ConfigurationError

        monkeypatch.setenv("ETSIM_CACHE_DIR", str(tmp_path))
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            main(["bench", "--smoke", "--scenario", "fig99"])

    def test_bench_smoke_runs_the_mapping_scenario(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("ETSIM_CACHE_DIR", str(tmp_path))
        assert main(
            ["bench", "--smoke", "--scenario", "harvest-mapping", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        records = payload["harvest-mapping"]
        assert {r["workload"] for r in records} == {
            "sequential",
            "concurrent",
        }
        assert all(
            r["mapping"] == "harvest-proportional" for r in records
        )
        assert all(r["harvested_pj"] > 0 for r in records)

    def test_sweep_command_prints_the_gain_table(self, capsys):
        assert main(
            ["sweep", "--min-mesh", "4", "--max-mesh", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "EAR vs SDR" in out
        assert "4x4" in out


class TestBatteryCurve:
    def test_prints_discharge_rows(self, capsys):
        assert main(["battery-curve", "--points", "6"]) == 0
        out = capsys.readouterr().out
        assert "open-circuit" in out
        assert "4.1" in out  # fresh-cell voltage visible

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--points", "0"], "--points"),
            (["--points", "-3"], "--points"),
            (["--step-cycles", "0"], "--step-cycles"),
        ],
    )
    def test_a_count_below_one_is_a_usage_error(self, capsys, flags, named):
        with pytest.raises(SystemExit) as excinfo:
            main(["battery-curve", *flags])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {named}: must be at least 1" in captured.err


class TestSimulate:
    def test_json_summary(self, capsys):
        code = main(
            [
                "simulate",
                "--mesh",
                "4",
                "--routing",
                "sdr",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["routing"] == "sdr"
        assert payload["jobs_completed"] >= 1

    def test_table_summary(self, capsys):
        assert main(["simulate", "--mesh", "4", "--battery", "ideal"]) == 0
        out = capsys.readouterr().out
        assert "jobs_completed" in out


class TestFaultFlags:
    def test_fault_flags_parse_on_all_run_commands(self):
        parser = build_parser()
        for command in (
            ["simulate"],
            ["sweep"],
            ["bench", "--smoke"],
        ):
            args = parser.parse_args(
                command
                + [
                    "--fault-profile", "link-attrition",
                    "--fault-seed", "7",
                    "--fault-intensity", "2.0",
                ]
            )
            assert args.fault_profile == "link-attrition"
            assert args.fault_seed == 7
            assert args.fault_intensity == 2.0

    def test_fault_profile_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--fault-profile", "meteor-strike"]
            )

    def test_simulate_with_faults_reports_fault_counters(self, capsys):
        code = main(
            [
                "simulate",
                "--mesh", "4",
                "--fault-profile", "link-attrition",
                "--fault-seed", "7",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["links_cut"] > 0
        assert payload["faults_injected"] >= payload["links_cut"]

    def test_simulate_fault_seed_changes_the_outcome(self, capsys):
        payloads = []
        for seed in ("7", "8"):
            assert main(
                [
                    "simulate",
                    "--fault-profile", "node-dropout",
                    "--fault-seed", seed,
                    "--json",
                ]
            ) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[0] != payloads[1]

    def test_inert_fault_flags_do_not_change_the_config(self):
        # Seed/intensity without a profile must normalise away, so the
        # sweep-cache hash matches a flag-free invocation exactly.
        from repro.cli import _fault_config
        from repro.faults import FaultConfig

        parser = build_parser()
        flagged = parser.parse_args(
            ["simulate", "--fault-seed", "7", "--fault-intensity", "3.0"]
        )
        assert _fault_config(flagged) == FaultConfig()

    def test_default_is_fault_free(self, capsys):
        assert main(["simulate", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["faults_injected"] == 0
        assert payload["links_cut"] == 0

    def test_wear_and_repair_flags_parse_on_all_run_commands(self):
        parser = build_parser()
        for command in (["simulate"], ["sweep"], ["bench", "--smoke"]):
            args = parser.parse_args(
                command
                + [
                    "--fault-profile", "tear",
                    "--fault-repair-frames", "24",
                    "--wear-weight",
                ]
            )
            assert args.fault_profile == "tear"
            assert args.fault_repair_frames == 24
            assert args.wear_weight is True

    def test_simulate_tear_with_repair_reports_repairs(self, capsys):
        code = main(
            [
                "simulate",
                "--fault-profile", "tear",
                "--fault-seed", "0",
                "--fault-repair-frames", "24",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["links_cut"] > 0
        assert payload["links_repaired"] > 0

    def test_simulate_moisture_reports_degradations(self, capsys):
        code = main(
            [
                "simulate",
                "--fault-profile", "moisture",
                "--fault-seed", "4",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["links_degraded"] > 0
        assert payload["links_cut"] == 0

    def test_wear_weight_changes_a_faulty_run(self, capsys):
        payloads = []
        for extra in ([], ["--wear-weight"]):
            assert main(
                [
                    "simulate",
                    "--fault-profile", "link-attrition",
                    "--fault-seed", "7",
                    "--json",
                ]
                + extra
            ) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[0] != payloads[1]

    def test_bench_smoke_runs_a_fault_scenario(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ETSIM_CACHE_DIR", str(tmp_path))
        code = main(
            [
                "bench",
                "--smoke",
                "--scenario", "fig7-faulty",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        records = payload["fig7-faulty"]
        assert {r["routing"] for r in records} == {"ear", "sdr"}
        assert all(r["fault_profile"] == "link-attrition" for r in records)
        assert any(r["links_cut"] > 0 for r in records)


class TestTraceCli:
    def test_logging_flags_parse_on_all_commands(self):
        parser = build_parser()
        for command in (
            ["simulate"],
            ["sweep"],
            ["bench", "--smoke"],
            ["fleet", "--smoke"],
        ):
            args = parser.parse_args(command + ["--verbose"])
            assert args.verbose is True
            args = parser.parse_args(command + ["--quiet"])
            assert args.quiet is True

    def test_trace_flag_parses_on_all_run_commands(self):
        parser = build_parser()
        for command in (
            ["simulate"],
            ["sweep"],
            ["bench", "--smoke"],
            ["fleet", "--smoke"],
        ):
            args = parser.parse_args(command + ["--trace", "out.jsonl"])
            assert args.trace == "out.jsonl"

    def test_simulate_trace_writes_a_structured_jsonl(
        self, capsys, tmp_path
    ):
        from repro.telemetry import load_trace

        path = tmp_path / "run.jsonl"
        assert main(
            ["simulate", "--mesh", "4", "--trace", str(path), "--json"]
        ) == 0
        lines = load_trace(path)
        assert lines[0]["kind"] == "meta"
        assert lines[0]["command"] == "simulate"
        kinds = {line["kind"] for line in lines}
        assert {"frame", "event"} <= kinds
        replans = [li for li in lines if li.get("event") == "replan"]
        assert replans and all("causes" in li for li in replans)

    def test_simulate_trace_is_deterministic(self, capsys, tmp_path):
        from repro.telemetry import load_trace, strip_timings

        captures = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            assert main(
                ["simulate", "--mesh", "4", "--trace", str(path), "--json"]
            ) == 0
            captures.append(strip_timings(load_trace(path)))
        assert captures[0] == captures[1]

    def test_sweep_trace_tags_lines_per_point(self, capsys, tmp_path):
        from repro.telemetry import load_trace

        path = tmp_path / "sweep.jsonl"
        assert main(
            [
                "sweep", "--min-mesh", "4", "--max-mesh", "4",
                "--trace", str(path),
            ]
        ) == 0
        lines = load_trace(path)
        points = {line.get("point") for line in lines}
        # One EAR and one SDR run per mesh size, each tagged.
        assert {"4x4/ear", "4x4/sdr"} <= points

    def test_trace_subcommand_renders_a_report(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(
            ["simulate", "--mesh", "4", "--trace", str(path), "--json"]
        ) == 0
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "re-plan(s)" in out
        assert "term attribution" in out
        assert "legend:" in out

    def test_trace_subcommand_events_flag(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(
            ["simulate", "--mesh", "4", "--trace", str(path), "--json"]
        ) == 0
        capsys.readouterr()
        assert main(["trace", str(path), "--events", "--width", "40"]) == 0

    def test_quiet_suppresses_the_trace_status_line(
        self, capsys, tmp_path
    ):
        import io
        import logging as logging_module

        from repro.telemetry.console import LOGGER_NAME

        path = tmp_path / "run.jsonl"
        assert main(
            ["simulate", "--mesh", "4", "--trace", str(path), "--quiet",
             "--json"]
        ) == 0
        logger = logging_module.getLogger(LOGGER_NAME)
        assert logger.level == logging_module.WARNING
        # And the stream handler drops INFO records outright.
        stream = io.StringIO()
        logger.handlers[0].setStream(stream)
        logger.info("suppressed")
        assert stream.getvalue() == ""


class TestHarvestCli:
    def test_harvest_flags_parse_on_all_run_commands(self):
        parser = build_parser()
        for command in (["simulate"], ["sweep"], ["bench", "--smoke"]):
            args = parser.parse_args(
                command
                + [
                    "--harvest-profile", "motion",
                    "--harvest-seed", "7",
                    "--harvest-amplitude", "80.0",
                    "--harvest-weight",
                ]
            )
            assert args.harvest_profile == "motion"
            assert args.harvest_seed == 7
            assert args.harvest_amplitude == 80.0
            assert args.harvest_weight is True

    def test_harvest_profile_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--harvest-profile", "nuclear"]
            )

    def test_crew_and_corrosion_flags_parse(self):
        args = build_parser().parse_args(
            [
                "simulate",
                "--fault-profile", "moisture",
                "--fault-corrode-frames", "48",
                "--repair-crew", "2",
                "--repair-latency", "12",
            ]
        )
        assert args.fault_corrode_frames == 48
        assert args.repair_crew == 2
        assert args.repair_latency == 12

    def test_simulate_with_harvest_reports_income(self, capsys):
        assert main(
            [
                "simulate",
                "--harvest-profile", "motion",
                "--harvest-seed", "7",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["harvested_pj"] > 0
        assert payload["harvest_events"] > 0

    def test_inert_harvest_flags_do_not_change_the_config(self):
        # Seed/amplitude without a profile must hash like a flag-free
        # run, or the sweep cache would fork on inert flags.
        from repro.cli import _harvest_config
        from repro.harvest import HarvestConfig

        parser = build_parser()
        flagged = parser.parse_args(
            ["simulate", "--harvest-seed", "7", "--harvest-amplitude", "9.0"]
        )
        assert _harvest_config(flagged) == HarvestConfig()

    def test_default_is_harvest_free(self, capsys):
        assert main(["simulate", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["harvested_pj"] == 0.0
        assert payload["harvest_events"] == 0

    def test_hardware_and_bus_flags_parse_on_all_run_commands(self):
        parser = build_parser()
        for command in (["simulate"], ["sweep"], ["bench", "--smoke"]):
            args = parser.parse_args(
                command
                + [
                    "--harvest-profile", "motion",
                    "--harvest-hardware", "0.25",
                    "--harvest-placement", "random",
                    "--share-max-hops", "3",
                    "--mapping", "harvest-proportional",
                ]
            )
            assert args.harvest_hardware == 0.25
            assert args.harvest_placement == "random"
            assert args.share_max_hops == 3
            assert args.mapping == "harvest-proportional"

    def test_all_equipped_hardware_normalises_to_the_default(self):
        # Placement/seed are inert at fraction 1: the config (and its
        # cache hash) must match a hardware-free invocation.
        from repro.cli import _harvest_config
        from repro.harvest import HarvestHardware

        parser = build_parser()
        flagged = parser.parse_args(
            [
                "simulate",
                "--harvest-profile", "motion",
                "--harvest-hardware", "1.0",
                "--harvest-placement", "spread",
                "--harvest-seed", "9",
            ]
        )
        assert _harvest_config(flagged).hardware == HarvestHardware()

    def test_bad_hardware_fraction_is_rejected(self):
        from repro.cli import _harvest_config
        from repro.errors import ConfigurationError

        args = build_parser().parse_args(
            [
                "simulate",
                "--harvest-profile", "motion",
                "--harvest-hardware", "1.5",
            ]
        )
        with pytest.raises(ConfigurationError):
            _harvest_config(args)

    def test_bad_share_max_hops_is_rejected(self):
        from repro.cli import _harvest_config
        from repro.errors import ConfigurationError

        args = build_parser().parse_args(
            [
                "simulate",
                "--harvest-profile", "bus",
                "--share-max-hops", "0",
            ]
        )
        with pytest.raises(ConfigurationError):
            _harvest_config(args)

    def test_simulate_with_heterogeneous_hardware(self, capsys):
        assert main(
            [
                "simulate",
                "--harvest-profile", "motion",
                "--harvest-seed", "7",
                "--harvest-hardware", "0.25",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["harvested_pj"] > 0

    def test_simulate_with_income_aware_mapping(self, capsys):
        assert main(
            [
                "simulate",
                "--mapping", "harvest-proportional",
                "--harvest-profile", "motion",
                "--harvest-hardware", "0.5",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs_completed"] >= 1
        assert payload["verification_failures"] == 0

    def test_multi_hop_bus_counts_hops(self, capsys):
        assert main(
            [
                "simulate",
                "--harvest-profile", "bus",
                "--harvest-amplitude", "80",
                "--share-max-hops", "3",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["share_hops"] >= 0

    def test_bench_smoke_runs_the_harvest_scenarios(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("ETSIM_CACHE_DIR", str(tmp_path))
        code = main(
            [
                "bench",
                "--smoke",
                "--scenario", "harvest-motion",
                "--scenario", "harvest-aware",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        motion = payload["harvest-motion"]
        assert {r["workload"] for r in motion} == {
            "sequential", "concurrent"
        }
        assert all(r["harvested_pj"] > 0 for r in motion)
        aware = payload["harvest-aware"]
        assert {r["strategy"] for r in aware} == {"reactive", "aware"}
