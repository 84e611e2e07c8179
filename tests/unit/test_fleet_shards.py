"""Unit behaviour of host-mode shards: split, sign, state files, merge."""

from __future__ import annotations

import json

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.fleet import FLEET_PRESETS, run_fleet
from repro.fleet.shards import (
    SHARD_STATE_SCHEMA,
    ShardSpec,
    fleet_signature,
    load_shard_state,
    merge_shard_states,
    merged_bundle,
    run_shard,
    shard_filename,
    shard_spec_for,
    split_fleet,
    write_shard_state,
)

DIST = FLEET_PRESETS["smoke"]
SEED = 2005
SIZE = 6


def shard_docs(size=SIZE, count=2, seed=SEED):
    return [
        run_shard(DIST, seed, size, spec)
        for spec in split_fleet(size, count)
    ]


class TestSplitFleet:
    def test_tiles_the_range_exactly(self):
        for size, count in ((10, 3), (7, 7), (5, 8), (0, 2), (100, 1)):
            specs = split_fleet(size, count)
            assert len(specs) == count
            cursor = 0
            for index, spec in enumerate(specs):
                assert spec.index == index
                assert spec.count == count
                assert spec.start == cursor
                cursor = spec.stop
            assert cursor == size

    def test_sizes_are_near_equal(self):
        sizes = [spec.size for spec in split_fleet(10, 3)]
        assert sizes == [4, 3, 3]
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            split_fleet(-1, 2)
        with pytest.raises(ConfigurationError):
            split_fleet(10, 0)
        with pytest.raises(ConfigurationError):
            shard_spec_for(10, 2, 2)

    def test_spec_for_matches_split(self):
        assert shard_spec_for(10, 3, 1) == split_fleet(10, 3)[1]


class TestFleetSignature:
    def test_stable_for_identical_fleets(self):
        assert fleet_signature(DIST, SEED, SIZE) == fleet_signature(
            DIST, SEED, SIZE
        )

    def test_changes_with_any_identity_axis(self):
        reference = fleet_signature(DIST, SEED, SIZE)
        assert fleet_signature(DIST, SEED + 1, SIZE) != reference
        assert fleet_signature(DIST, SEED, SIZE + 1) != reference
        assert (
            fleet_signature(FLEET_PRESETS["default"], SEED, SIZE)
            != reference
        )
        assert (
            fleet_signature(
                DIST, SEED, SIZE, SimulationConfig(routing="sdr")
            )
            != reference
        )


class TestShardStateFiles:
    def test_round_trip(self, tmp_path):
        document = shard_docs(count=1)[0]
        path = tmp_path / shard_filename(ShardSpec(0, 1, 0, SIZE))
        write_shard_state(path, document)
        assert load_shard_state(path) == json.loads(
            json.dumps(document)
        )
        # Atomic write leaves no scratch files behind.
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ConfigurationError):
            load_shard_state(path)

    def test_run_shard_rejects_out_of_range_spec(self):
        with pytest.raises(ConfigurationError):
            run_shard(DIST, SEED, SIZE, ShardSpec(0, 1, 0, SIZE + 1))


class TestMergeValidation:
    def test_merge_is_bit_identical_to_single_stream(self):
        single = run_fleet(DIST, SIZE, SEED)
        merged = merge_shard_states(shard_docs(count=3))
        assert json.dumps(
            merged.aggregator.aggregate(), sort_keys=True
        ) == json.dumps(single.aggregator.aggregate(), sort_keys=True)

    def test_rejects_empty_input(self):
        with pytest.raises(ConfigurationError):
            merge_shard_states([])

    def test_rejects_schema_mismatch(self):
        docs = shard_docs()
        docs[1]["schema"] = SHARD_STATE_SCHEMA + 1
        with pytest.raises(ConfigurationError):
            merge_shard_states(docs)

    def test_rejects_mismatched_fleet_seed(self):
        docs = shard_docs()
        alien = run_shard(
            DIST, SEED + 1, SIZE, split_fleet(SIZE, 2)[1]
        )
        with pytest.raises(ConfigurationError, match="seed"):
            merge_shard_states([docs[0], alien])

    def test_rejects_mismatched_distribution(self):
        other = FLEET_PRESETS["default"]
        docs = shard_docs()
        alien = run_shard(other, SEED, SIZE, split_fleet(SIZE, 2)[1])
        with pytest.raises(ConfigurationError):
            merge_shard_states([docs[0], alien])

    def test_rejects_duplicate_shard(self):
        docs = shard_docs()
        with pytest.raises(ConfigurationError, match="duplicate"):
            merge_shard_states([docs[0], docs[0]])

    def test_rejects_missing_shard(self):
        docs = shard_docs(count=3)
        with pytest.raises(ConfigurationError, match="missing"):
            merge_shard_states(docs[:2])

    def test_rejects_non_canonical_range(self):
        docs = shard_docs()
        docs[1]["shard"]["start"] += 1
        with pytest.raises(ConfigurationError, match="canonical"):
            merge_shard_states(docs)

    def test_rejects_mismatched_bucket_spec(self):
        docs = shard_docs()
        # A shard whose histograms were bucketed differently (as if it
        # ran with a stale aggregator) must be refused, not merged
        # into garbage quantiles.
        metric = docs[1]["state"]["metrics"]["lifetime_frames"]
        metric["spec"]["bucket_width"] *= 2.0
        width = metric["spec"]["bucket_width"]
        assert width  # sanity: the corruption happened
        with pytest.raises(ConfigurationError):
            merge_shard_states(docs)

    def test_merged_bundle_carries_shard_breakdown(self):
        bundle = merged_bundle(shard_docs(count=3))
        assert bundle["fleet"]["preset"] == DIST.name
        assert [s["index"] for s in bundle["run"]["shards"]] == [0, 1, 2]
        assert set(bundle) == {"schema", "fleet", "aggregate", "run"}
        lifetime = bundle["aggregate"]["metrics"]["lifetime_frames"]
        assert lifetime["p50"] is not None
        assert lifetime["bucket_width"] > 0

    def test_rejects_inconsistent_counts(self):
        docs = shard_docs()
        # A hand-edited count no longer matches the histogram, the
        # other metric or the death-cause tally: merging it would
        # report more garments than the survival curve holds.
        docs[1]["state"]["metrics"]["lifetime_frames"]["count"] += 5
        with pytest.raises(ConfigurationError, match="counts disagree"):
            merge_shard_states(docs)
