"""The host-mode shard identity, stated as a property.

For every shard count, a real fleet that is split, has each shard run
on its own (as one host would), shipped as a JSON state file and
merged — in any order — must produce the same canonical aggregate, bit
for bit, as a plain single-stream run of the same
``(distribution, fleet_seed, size)``.
"""

from __future__ import annotations

import json

import pytest

from repro.fleet import FLEET_PRESETS, run_fleet
from repro.fleet.shards import merge_shard_states, run_shard, split_fleet

DIST = FLEET_PRESETS["smoke"]
SEED = 77
SIZE = 9


@pytest.fixture(scope="module")
def single_stream_aggregate() -> str:
    result = run_fleet(DIST, SIZE, SEED)
    return json.dumps(result.aggregator.aggregate(), sort_keys=True)


@pytest.mark.parametrize("shard_count", [1, 2, 3, 7])
def test_split_run_merge_is_bit_identical_to_single_stream(
    shard_count, single_stream_aggregate
):
    documents = [
        json.loads(json.dumps(run_shard(DIST, SEED, SIZE, spec)))
        for spec in split_fleet(SIZE, shard_count)
    ]
    merged = merge_shard_states(reversed(documents))
    assert json.dumps(
        merged.aggregator.aggregate(), sort_keys=True
    ) == single_stream_aggregate
    # Every garment was simulated exactly once across the shards.
    assert merged.executed == SIZE
    assert [row["index"] for row in merged.shards] == list(
        range(shard_count)
    )
