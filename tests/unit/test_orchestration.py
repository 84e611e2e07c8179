"""Unit tests for the orchestration layer: cache, runner, scenarios."""

import dataclasses
import json
import sys
import threading

import pytest

from repro.config import PlatformConfig, SimulationConfig, WorkloadConfig
from repro.errors import ConfigurationError
from repro.orchestration import (
    ParallelSweepRunner,
    SequentialSweepRunner,
    SweepCache,
    SweepPoint,
    build_scenario,
    config_hash,
    derive_seed,
    scenario_names,
    scenarios,
)
from repro.orchestration import cache as cache_module
from repro.orchestration import runner as runner_module
from repro.orchestration.scenarios import SCALES


def tiny_config(**kwargs):
    return SimulationConfig(
        platform=PlatformConfig(mesh_width=4),
        workload=WorkloadConfig(max_jobs=2, max_frames=20_000),
        **kwargs,
    )


def tiny_points():
    return [
        SweepPoint("ear", tiny_config(routing="ear"), {"routing": "ear"}),
        SweepPoint("sdr", tiny_config(routing="sdr"), {"routing": "sdr"}),
    ]


CACHE_KEY = "ab" + "0" * 62

CACHE_RECORD = {
    "label": "4x4/ear",
    "summary": {"jobs_fractional": 12.5, "lifetime_frames": 64},
}


class TestConfigHash:
    def test_stable_across_instances(self):
        assert config_hash(tiny_config()) == config_hash(tiny_config())

    def test_sensitive_to_any_knob(self):
        base = tiny_config()
        variants = [
            tiny_config(routing="sdr"),
            tiny_config(weight_q=2.0),
            dataclasses.replace(
                base, platform=dataclasses.replace(base.platform, mesh_width=5)
            ),
            dataclasses.replace(
                base, workload=dataclasses.replace(base.workload, seed=7)
            ),
        ]
        hashes = {config_hash(c) for c in variants}
        assert config_hash(base) not in hashes
        assert len(hashes) == len(variants)

    def test_round_trip_preserves_hash(self):
        base = tiny_config()
        rebuilt = SimulationConfig.from_dict(base.to_dict())
        assert config_hash(rebuilt) == config_hash(base)

    def test_a_new_lock_changes_every_key(self, tmp_path, monkeypatch):
        """Beyond the configuration, a key hashes the behaviour lock
        and nothing else of the program."""
        base = tiny_config()
        key = config_hash(base)
        lock = tmp_path / "behaviour.lock"
        lock.write_bytes(cache_module.BEHAVIOUR_LOCK.read_bytes() + b"x\n")
        monkeypatch.setattr(cache_module, "BEHAVIOUR_LOCK", lock)
        cache_module._behaviour_digest.cache_clear()
        try:
            assert config_hash(base) != key
        finally:
            monkeypatch.undo()
            cache_module._behaviour_digest.cache_clear()
        assert config_hash(base) == key


class TestSweepCache:
    def test_miss_then_hit(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.lookup("deadbeef") is None
        cache.store("deadbeef", {"summary": {"jobs_completed": 3}})
        record = cache.lookup("deadbeef")
        assert record["summary"]["jobs_completed"] == 3
        assert (cache.hits, cache.misses) == (1, 1)

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        """An entry stamped with another behaviour digest is a miss."""
        cache = SweepCache(tmp_path)
        cache.store("k", {"summary": {}})
        path = cache._path("k")
        digest = cache_module.BEHAVIOUR_DIGEST
        text = path.read_text()
        assert f'"behaviour": "{digest}"' in text
        path.write_text(text.replace(digest, "0" * len(digest)))
        assert cache.lookup("k") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        # Broken JSON text, then bytes that are not UTF-8 at all.
        for garbage in (b"{not json", b"\xff\xfe\x00garbage"):
            cache.store("k", {"summary": {}})
            cache._path("k").write_bytes(garbage)
            assert cache.lookup("k") is None
        assert (cache.hits, cache.misses) == (0, 2)

    def test_len_and_clear(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert len(cache) == 0
        cache.store("a", {"summary": {}})
        cache.store("b", {"summary": {}})
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.lookup("a") is None

    def test_round_trip_is_bit_identical(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.store(CACHE_KEY, CACHE_RECORD)
        loaded = cache.lookup(CACHE_KEY)
        assert loaded.pop("behaviour") == cache_module.BEHAVIOUR_DIGEST
        assert json.dumps(loaded, sort_keys=True) == json.dumps(
            CACHE_RECORD, sort_keys=True
        )

    def test_each_key_is_one_json_file_a_fresh_cache_reads(self, tmp_path):
        SweepCache(tmp_path).store(CACHE_KEY, CACHE_RECORD)
        assert [p.name for p in tmp_path.iterdir()] == [f"{CACHE_KEY}.json"]
        assert SweepCache(tmp_path).lookup(CACHE_KEY) is not None

    def test_lookup_never_creates_the_directory(self, tmp_path):
        directory = tmp_path / "cache"
        cache = SweepCache(directory)
        assert cache.lookup(CACHE_KEY) is None
        assert len(cache) == 0
        assert not directory.exists()

    def test_concurrent_writers_leave_no_torn_records(self, tmp_path):
        cache = SweepCache(tmp_path)
        keys = [f"{i:02x}" + "e" * 62 for i in range(16)]
        errors: dict[int, Exception] = {}

        def hammer(worker: int) -> None:
            try:
                for round_index in range(4):
                    for key in keys:
                        cache.store(
                            key,
                            {
                                **CACHE_RECORD,
                                "worker": worker,
                                "round": round_index,
                            },
                        )
            except Exception as exc:  # asserted below
                errors[worker] = exc

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == {}
        assert len(cache) == len(keys)
        for key in keys:
            record = cache.lookup(key)
            assert record is not None
            assert record["label"] == CACHE_RECORD["label"]
            assert record["worker"] in range(4)

    def test_flat_is_the_only_layout(self, tmp_path):
        SweepCache(tmp_path, backend="flat").store(CACHE_KEY, CACHE_RECORD)
        with pytest.raises(ConfigurationError):
            SweepCache(tmp_path, backend="sqlite")

    def test_env_var_selects_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_module.CACHE_DIR_ENV, str(tmp_path / "c"))
        cache = SweepCache()
        assert cache.directory == tmp_path / "c"


class TestSequentialRunner:
    def test_records_in_input_order(self):
        records = SequentialSweepRunner().run(tiny_points())
        assert [r.label for r in records] == ["ear", "sdr"]
        assert all(r.stats is not None for r in records)
        assert all(not r.cached for r in records)
        assert records[0].summary["jobs_completed"] == 2

    def test_record_row_merges_params_and_summary(self):
        record = SequentialSweepRunner().run(tiny_points())[0]
        row = record.record()
        assert row["label"] == "ear"
        assert row["routing"] == "ear"
        assert row["jobs_completed"] == 2

    def test_hook_sees_every_record(self):
        seen = []
        SequentialSweepRunner().run(
            tiny_points(), hook=lambda r: seen.append(r.label)
        )
        assert seen == ["ear", "sdr"]

    def test_cache_miss_then_hit_skips_execution(self, tmp_path, monkeypatch):
        cache = SweepCache(tmp_path)
        first = SequentialSweepRunner(cache=cache).run(tiny_points())
        assert cache.misses == 2 and cache.hits == 0

        def boom(point):
            raise AssertionError(f"re-executed {point.label}")

        monkeypatch.setattr(runner_module, "execute_point", boom)
        cache = SweepCache(tmp_path)
        second = SequentialSweepRunner(cache=cache).run(tiny_points())
        assert cache.hits == 2 and cache.misses == 0
        assert all(r.cached for r in second)
        assert [r.summary for r in second] == [r.summary for r in first]

    def test_partial_cache_executes_only_missing(self, tmp_path):
        cache = SweepCache(tmp_path)
        points = tiny_points()
        SequentialSweepRunner(cache=cache).run(points[:1])
        records = SequentialSweepRunner(cache=cache).run(points)
        assert [r.cached for r in records] == [True, False]


class TestParallelRunnerValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            ParallelSweepRunner(max_workers=0)

    def test_single_pending_point_runs_inline(self):
        records = ParallelSweepRunner(max_workers=2).run(tiny_points()[:1])
        assert records[0].summary["jobs_completed"] == 2


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(2005, "a") == derive_seed(2005, "a")

    def test_varies_with_label_and_base(self):
        seeds = {
            derive_seed(2005, "a"),
            derive_seed(2005, "b"),
            derive_seed(7, "a"),
        }
        assert len(seeds) == 3


class TestScenarios:
    def test_registry_contains_paper_and_extension_grids(self):
        names = scenario_names()
        for expected in (
            "fig7",
            "fig8",
            "table2",
            "large-mesh",
            "mixed-workload",
            "battery-ablation",
        ):
            assert expected in names
        assert all(s.description for s in scenarios().values())

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError):
            build_scenario("nope")

    def test_unknown_scale_raises(self):
        with pytest.raises(ConfigurationError):
            build_scenario("fig7", scale="huge")

    def test_fig7_full_matches_paper_grid(self):
        points = build_scenario("fig7")
        assert len(points) == 10  # 5 widths x 2 routings
        labels = {p.label for p in points}
        assert "8x8/ear" in labels and "4x4/sdr" in labels

    def test_smoke_grids_are_small_and_bounded(self):
        for name in scenario_names():
            points = build_scenario(name, scale="smoke")
            assert 0 < len(points) <= 4, name
            for point in points:
                # Bounded by a job budget, or (the fleet garments,
                # which run to death on deliberately small battery
                # lots) by a tight frame safety cap.
                workload = point.config.workload
                assert (
                    workload.max_jobs is not None
                    or workload.max_frames <= 2_000
                ), name

    def test_every_point_builds_its_tdma_schedule(self):
        """Every point's frame fits its fabric's control section, at
        every scale (the large-mesh 12x12 and 16x16 points once kept
        the default 1024-cycle frame)."""
        unfit = []
        for scale in SCALES:
            for name in scenario_names():
                for point in build_scenario(name, scale=scale):
                    config = point.config
                    try:
                        config.control.make_schedule(
                            config.platform.num_mesh_nodes
                        )
                    except ConfigurationError as error:
                        unfit.append(f"{scale}/{name}/{point.label}: {error}")
        assert unfit == []

    def test_mixed_workload_uses_distinct_derived_seeds(self):
        points = build_scenario("mixed-workload", scale="full")
        seeds = [p.config.workload.seed for p in points]
        assert len(set(seeds)) == len(seeds)
        again = build_scenario("mixed-workload", scale="full")
        assert seeds == [p.config.workload.seed for p in again]

    def test_table2_uses_ideal_battery(self):
        for point in build_scenario("table2", scale="smoke"):
            assert point.config.platform.battery_model == "ideal"

    def test_duplicate_registration_rejected(self):
        from repro.orchestration.scenarios import scenario

        with pytest.raises(ConfigurationError):
            scenario("fig7", "again")(lambda scale, base: [])

    def test_tear_repair_smoke_covers_both_engines(self):
        points = build_scenario("tear-repair", scale="smoke")
        kinds = {p.config.workload.kind for p in points}
        assert kinds == {"sequential", "concurrent"}
        for point in points:
            assert point.config.faults.profile == "tear"
            assert point.config.faults.repair_after_frames > 0

    def test_tear_repair_uses_distinct_derived_seeds(self):
        points = build_scenario("tear-repair", scale="full")
        seeds = [p.config.faults.seed for p in points]
        assert len(set(seeds)) == len(seeds)

    def test_wear_aware_pairs_reactive_and_wear_points(self):
        points = build_scenario("wear-aware", scale="quick")
        by_intensity: dict[float, set[str]] = {}
        for point in points:
            by_intensity.setdefault(
                point.params["fault_intensity"], set()
            ).add(point.params["strategy"])
        assert by_intensity
        for strategies in by_intensity.values():
            assert strategies == {"reactive", "wear"}
        for point in points:
            wear_expected = point.params["strategy"] == "wear"
            assert point.config.wear_aware is wear_expected
            assert point.config.routing == "ear"
            # The paired points share one fault schedule per intensity.
        seeds = {
            (p.params["fault_intensity"], p.config.faults.seed)
            for p in points
        }
        assert len(seeds) == len(by_intensity)
