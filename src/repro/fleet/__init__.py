"""Population-scale fleet sweeps.

One simulation is one garment; production relevance means statistics
over *millions* of wearers.  This package lifts the per-fabric results
of the paper (Fig 7/8, Table 2) to population scale:

* :mod:`~repro.fleet.distribution` — deterministic, seedable sampling
  of per-garment configurations from wearer/lot distributions (fabric
  size, activity level, wash frequency, harvest-hardware lots, engine
  mix); every garment reproducible from ``(fleet_seed, index)`` alone;
* :mod:`~repro.fleet.aggregate` — O(1)-memory streaming statistics
  (exact sums, histogram percentiles with a bucket-width error bound,
  bucketed survival curves), associative and order-independent, so
  shards on separate processes or hosts combine bit-identically;
* :mod:`~repro.fleet.runner` — the chunked driver that streams any
  fleet size through the existing sweep runner and cache: its process
  pool parallelises a fleet on one machine, and the cache resumes a
  killed run per garment;
* :mod:`~repro.fleet.shards` — the multi-host split: one fleet as
  disjoint index ranges, one standalone shard state file per host,
  and a strict merge of the full set back into the canonical
  aggregate.
"""

from .aggregate import (
    FLEET_METRICS,
    FLEET_PERCENTILES,
    FLEET_STATE_SCHEMA,
    BucketHistogram,
    ExactSum,
    FleetAggregator,
    MetricSpec,
    MetricStat,
)
from .distribution import FLEET_PRESETS, FleetDistribution
from .runner import (
    FLEET_BUNDLE_SCHEMA,
    FleetRunResult,
    aggregator_for,
    fleet_bundle,
    run_fleet,
)
from .shards import (
    SHARD_STATE_SCHEMA,
    MergedShards,
    ShardSpec,
    fleet_signature,
    load_shard_state,
    merge_shard_states,
    merged_bundle,
    run_shard,
    shard_spec_for,
    split_fleet,
    write_shard_state,
)

__all__ = [
    "FLEET_BUNDLE_SCHEMA",
    "FLEET_METRICS",
    "FLEET_PERCENTILES",
    "FLEET_PRESETS",
    "FLEET_STATE_SCHEMA",
    "SHARD_STATE_SCHEMA",
    "BucketHistogram",
    "ExactSum",
    "FleetAggregator",
    "FleetDistribution",
    "FleetRunResult",
    "MergedShards",
    "MetricSpec",
    "MetricStat",
    "ShardSpec",
    "aggregator_for",
    "fleet_bundle",
    "fleet_signature",
    "load_shard_state",
    "merge_shard_states",
    "merged_bundle",
    "run_fleet",
    "run_shard",
    "shard_spec_for",
    "split_fleet",
    "write_shard_state",
]
