"""End-to-end fleet determinism: workers, shards, caches, the CLI.

The exported ``aggregate`` section of a fleet bundle is a pure function
of ``(distribution, fleet_seed, size)``: these tests pin that identity
across worker counts, chunk sizes, shard splits (merge of independent
aggregators) and cache replay, and check the garment configurations
themselves round-trip and hash stably.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.fleet import (
    FLEET_PRESETS,
    FleetAggregator,
    fleet_bundle,
    run_fleet,
)
from repro.orchestration.cache import SweepCache, config_hash

DIST = FLEET_PRESETS["smoke"]
SEED = 2005
SIZE = 8


def aggregate_json(result) -> str:
    return json.dumps(result.aggregator.aggregate(), sort_keys=True)


class TestDeterminism:
    def test_worker_count_cannot_change_the_aggregate(self):
        sequential = run_fleet(DIST, SIZE, SEED, workers=1)
        parallel = run_fleet(DIST, SIZE, SEED, workers=2)
        assert aggregate_json(sequential) == aggregate_json(parallel)

    def test_chunk_size_cannot_change_the_aggregate(self):
        small = run_fleet(DIST, SIZE, SEED, chunk_size=3)
        large = run_fleet(DIST, SIZE, SEED, chunk_size=1000)
        assert aggregate_json(small) == aggregate_json(large)

    def test_shard_merge_matches_single_stream(self):
        single = run_fleet(DIST, SIZE, SEED)
        # Two shards of the same fleet, aggregated independently and
        # merged — as two hosts covering disjoint index ranges would.
        first = run_fleet(DIST, 3, SEED, start=0)
        second = run_fleet(DIST, SIZE - 3, SEED, start=3)
        merged = FleetAggregator.from_state(
            json.loads(json.dumps(first.aggregator.state_dict()))
        )
        merged.merge(second.aggregator)
        assert (
            json.dumps(merged.aggregate(), sort_keys=True)
            == aggregate_json(single)
        )

    def test_run_fleet_rejects_a_mismatched_aggregator(self):
        # A caller-supplied aggregator bucketed for a different
        # distribution (e.g. rebuilt from a stale shard state) would
        # fold garments into misaligned histograms — refused up front.
        with pytest.raises(ConfigurationError, match="bucket spec"):
            run_fleet(DIST, 2, SEED, aggregator=FleetAggregator())

    def test_run_fleet_accepts_the_matching_aggregator(self):
        from repro.fleet import aggregator_for

        aggregator = aggregator_for(DIST)
        first = run_fleet(DIST, 3, SEED, aggregator=aggregator)
        resumed = run_fleet(
            DIST, SIZE - 3, SEED, start=3, aggregator=first.aggregator
        )
        single = run_fleet(DIST, SIZE, SEED)
        assert aggregate_json(resumed) == aggregate_json(single)

    def test_cache_replay_is_bit_identical(self, tmp_path):
        cache_a = SweepCache(tmp_path)
        fresh = run_fleet(DIST, SIZE, SEED, cache=cache_a)
        assert fresh.executed == SIZE and fresh.cached == 0

        cache_b = SweepCache(tmp_path)
        replay = run_fleet(DIST, SIZE, SEED, cache=cache_b)
        assert replay.cached == SIZE and replay.executed == 0
        assert aggregate_json(replay) == aggregate_json(fresh)

    def test_bundle_carries_the_reproduction_recipe(self):
        result = run_fleet(DIST, SIZE, SEED, workers=2)
        bundle = fleet_bundle(DIST, SIZE, SEED, result, workers=2)
        assert bundle["fleet"]["preset"] == DIST.name
        assert bundle["fleet"]["seed"] == SEED
        assert bundle["fleet"]["size"] == SIZE
        # The embedded distribution reconstructs the exact sampler.
        from repro.fleet.distribution import FleetDistribution

        clone = FleetDistribution.from_dict(bundle["fleet"]["distribution"])
        assert clone == DIST
        assert bundle["aggregate"]["count"] == SIZE
        assert bundle["run"]["workers"] == 2


class TestMemoryBound:
    def test_aggregator_state_does_not_grow_with_fleet_size(self):
        small = run_fleet(DIST, 4, SEED)
        large = run_fleet(DIST, 16, SEED)
        small_state = json.dumps(small.aggregator.state_dict())
        large_state = json.dumps(large.aggregator.state_dict())
        # O(1): 4x the garments, same fixed-size state (up to digit
        # count in the scalars — not per-garment growth).
        assert len(large_state) <= len(small_state) + 200

    def test_progress_hook_sees_every_garment_once(self):
        seen = []
        run_fleet(
            DIST, SIZE, SEED, chunk_size=3,
            progress=lambda record, done, size: seen.append(
                (record.params["garment"], done, size)
            ),
        )
        assert sorted(g for g, _, _ in seen) == list(range(SIZE))
        assert [done for _, done, _ in seen] == list(range(1, SIZE + 1))
        assert all(size == SIZE for _, _, size in seen)


class TestGarmentConfigs:
    def test_round_trip_and_stable_hashes(self):
        for index in range(6):
            config = DIST.garment_config(SEED, index)
            clone = SimulationConfig.from_dict(
                json.loads(json.dumps(config.to_dict()))
            )
            assert clone == config
            assert config_hash(clone) == config_hash(config)


class TestFleetCli:
    def test_json_bundle_is_deterministic_across_workers(self, capsys):
        def bundle(workers: str) -> dict:
            assert main(
                ["fleet", "--smoke", "--size", "6", "--json",
                 "--workers", workers]
            ) == 0
            return json.loads(capsys.readouterr().out)

        one = bundle("1")
        two = bundle("2")
        assert one["aggregate"] == two["aggregate"]
        assert one["aggregate"]["count"] == 6
        assert one["fleet"]["preset"] == "smoke"

    def test_human_readable_summary(self, capsys):
        assert main(
            ["fleet", "--preset", "smoke", "--size", "5", "--fleet-seed",
             "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "fleet 'smoke': 5 garments, seed 7" in out
        assert "survivors by lifetime" in out
        assert "death cause" in out

    def test_empty_fleet_prints_a_summary(self, capsys):
        # An empty fleet has no mean or percentiles; both summaries
        # render them as "-".
        for extra in ([], ["--compare-routing"]):
            assert main(["fleet", "--smoke", "--size", "0", *extra]) == 0
            assert "0 garments" in capsys.readouterr().out

    def test_cache_dir_round_trips(self, tmp_path, capsys):
        argv = [
            "fleet", "--preset", "smoke", "--size", "4", "--json",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["run"]["executed"] == 4
        assert len(list(tmp_path.glob("*.json"))) == 4
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["run"]["cached"] == 4
        assert second["aggregate"] == first["aggregate"]


class TestShardedCli:
    def test_shard_index_plus_merge_round_trip(self, tmp_path, capsys):
        assert main(
            ["fleet", "--smoke", "--size", "6", "--json"]
        ) == 0
        single = json.loads(capsys.readouterr().out)
        files = []
        for index in range(2):
            out = tmp_path / f"s{index}.json"
            files.append(str(out))
            assert main(
                ["fleet", "--smoke", "--size", "6",
                 "--shard-index", str(index), "--shard-count", "2",
                 "--shard-out", str(out)]
            ) == 0
        capsys.readouterr()
        assert main(["fleet-merge", *files, "--json"]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert len(merged["run"]["shards"]) == 2
        # One statistics system: the bundles differ only in `run`.
        del single["run"], merged["run"]
        assert merged == single

    def test_merge_rejects_mismatched_fleet_seed(self, tmp_path, capsys):
        for index, seed in ((0, "1"), (1, "2")):
            assert main(
                ["fleet", "--smoke", "--size", "6",
                 "--fleet-seed", seed,
                 "--shard-index", str(index), "--shard-count", "2",
                 "--shard-out", str(tmp_path / f"s{index}.json")]
            ) == 0
        capsys.readouterr()
        with pytest.raises(ConfigurationError, match="seed"):
            main(
                ["fleet-merge", str(tmp_path / "s0.json"),
                 str(tmp_path / "s1.json")]
            )

    def test_incompatible_shard_flags_exit_with_usage_error(self):
        with pytest.raises(SystemExit):
            main(
                ["fleet", "--smoke", "--size", "4",
                 "--shard-index", "0"]
            )

    def test_shard_trace_lines_carry_shard_tags(self, tmp_path, capsys):
        trace_path = tmp_path / "shard.jsonl"
        assert main(
            ["fleet", "--smoke", "--size", "4",
             "--shard-index", "1", "--shard-count", "2",
             "--shard-out", str(tmp_path / "s1.json"),
             "--trace", str(trace_path)]
        ) == 0
        capsys.readouterr()
        lines = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if line.strip()
        ]
        assert lines
        assert all(line["shard"] == 1 for line in lines)
        assert all(line["shard_count"] == 2 for line in lines)

    def test_compare_routing_reports_both_variants(self, capsys):
        assert main(
            ["fleet", "--smoke", "--size", "4", "--compare-routing"]
        ) == 0
        out = capsys.readouterr().out
        assert "ear" in out and "sdr" in out
        assert "mean lifetime ear/sdr" in out
