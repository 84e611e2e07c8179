"""Host-mode fleet shards: split, run one shard per host, merge.

One fleet — ``(distribution, fleet_seed, size)`` — is split into N
*shards*, disjoint contiguous index ranges that together tile
``[0, size)``.  Because every garment is a pure function of
``(fleet_seed, index)`` and the aggregator is associative and
order-independent, running the shards on N hosts and merging their
state files afterwards is **bit-identical** to one single-stream run
— the property suite pins this for every shard count.

This is the multi-host contract.  On one machine a fleet needs none
of it: :func:`~repro.fleet.runner.run_fleet` parallelises over the
sweep runner's process pool (``workers``), and a killed run resumes
per garment through the sweep cache.

* **standalone state files** — :func:`run_shard` (the CLI's
  ``--shard-index/--shard-count`` mode) runs one range and returns a
  document that carries the full fleet identity;
  :func:`write_shard_state` persists it atomically;
* **strict merge** — :func:`merge_shard_states` (``repro
  fleet-merge``) refuses state files unless their schema, fleet seed,
  size, distribution, base-config hash and histogram bucket specs all
  match, and the shard ranges exactly tile the fleet; nothing merges
  silently into garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import asdict, dataclass
from typing import Iterable

from ..config import SimulationConfig
from ..errors import ConfigurationError
from ..orchestration.cache import SweepCache, config_hash
from .aggregate import FleetAggregator
from .distribution import FleetDistribution
from .runner import (
    FleetProgress,
    FleetRunResult,
    aggregator_for,
    run_fleet,
)

#: Version stamp of the standalone shard state file.
SHARD_STATE_SCHEMA = 1


# ----------------------------------------------------------------------
# Splitting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of a fleet.

    Attributes:
        index: Shard number in ``[0, count)``.
        count: Total shards the fleet is split into.
        start: First garment index this shard covers.
        size: Garments this shard covers.
    """

    index: int
    count: int
    start: int
    size: int

    @property
    def stop(self) -> int:
        return self.start + self.size


def split_fleet(size: int, shard_count: int, start: int = 0) -> list[ShardSpec]:
    """Split ``[start, start+size)`` into ``shard_count`` contiguous shards.

    Deterministic and canonical: every participant (each host, the
    merge validator) derives the same ranges from
    ``(size, shard_count)`` alone.  Sizes differ by at most one — the
    first ``size % shard_count`` shards take the extra garment.
    """
    if size < 0:
        raise ConfigurationError(f"fleet size must be >= 0, got {size}")
    if shard_count < 1:
        raise ConfigurationError(
            f"shard count must be >= 1, got {shard_count}"
        )
    base, extra = divmod(size, shard_count)
    specs = []
    cursor = start
    for index in range(shard_count):
        span = base + (1 if index < extra else 0)
        specs.append(
            ShardSpec(index=index, count=shard_count, start=cursor, size=span)
        )
        cursor += span
    return specs


def shard_spec_for(size: int, shard_count: int, index: int) -> ShardSpec:
    """The canonical spec of shard ``index`` of an N-way split."""
    if not 0 <= index < shard_count:
        raise ConfigurationError(
            f"shard index must lie in [0, {shard_count}), got {index}"
        )
    return split_fleet(size, shard_count)[index]


# ----------------------------------------------------------------------
# Fleet identity
# ----------------------------------------------------------------------
def fleet_signature(
    distribution: FleetDistribution,
    fleet_seed: int,
    size: int,
    base: SimulationConfig | None = None,
) -> str:
    """Content hash identifying one fleet (and its base configuration).

    Every shard state file carries it: two shards merge only when the
    signatures agree, so a changed preset, seed, size or base config
    can never be mixed into an existing run's artifacts.
    """
    payload = json.dumps(
        {
            "schema": SHARD_STATE_SCHEMA,
            "seed": int(fleet_seed),
            "size": int(size),
            "distribution": distribution.to_dict(),
            "base_hash": config_hash(base) if base is not None else None,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def shard_filename(spec: ShardSpec) -> str:
    """Canonical state-file name of one shard."""
    return f"shard_{spec.index:04d}of{spec.count:04d}.json"


# ----------------------------------------------------------------------
# Running one shard
# ----------------------------------------------------------------------
def run_shard(
    distribution: FleetDistribution,
    fleet_seed: int,
    fleet_size: int,
    spec: ShardSpec,
    *,
    base: SimulationConfig | None = None,
    workers: int = 1,
    cache: SweepCache | None = None,
    chunk_size: int = 128,
    progress: FleetProgress | None = None,
    trace: bool = False,
) -> dict:
    """Run one shard and return its standalone state document.

    The document is self-describing — fleet identity (preset, seed,
    size, distribution recipe, signature), the shard's range, the
    mergeable aggregator state and this run's diagnostics — so it can
    be produced on any host and later merged by
    :func:`merge_shard_states` with full validation.
    """
    if spec.start < 0 or spec.stop > fleet_size:
        raise ConfigurationError(
            f"shard range [{spec.start}, {spec.stop}) falls outside "
            f"the fleet [0, {fleet_size})"
        )
    result = run_fleet(
        distribution,
        spec.size,
        fleet_seed,
        base=base,
        start=spec.start,
        workers=workers,
        cache=cache,
        chunk_size=chunk_size,
        progress=progress,
        trace=trace,
    )
    return {
        "schema": SHARD_STATE_SCHEMA,
        "fleet": {
            "preset": distribution.name,
            "seed": int(fleet_seed),
            "size": int(fleet_size),
            "signature": fleet_signature(
                distribution, fleet_seed, fleet_size, base
            ),
            "base_hash": config_hash(base) if base is not None else None,
            "distribution": distribution.to_dict(),
        },
        "shard": asdict(spec),
        "state": result.aggregator.state_dict(),
        "run": {
            "executed": result.executed,
            "cached": result.cached,
            "elapsed_s": round(result.elapsed_s, 6),
        },
    }


def write_shard_state(path: str | os.PathLike, document: dict) -> None:
    """Atomically persist one shard state file (write-then-rename).

    A killed run can therefore never leave a truncated file for the
    merge to read — the rename is the commit point.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(f".tmp-{path.name}-{os.getpid()}")
    scratch.write_text(
        json.dumps(document, sort_keys=True) + "\n", encoding="utf-8"
    )
    scratch.replace(path)


def load_shard_state(path: str | os.PathLike) -> dict:
    """Read one shard state file, validating its schema stamp."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != SHARD_STATE_SCHEMA:
        raise ConfigurationError(
            f"{path}: unsupported shard state schema "
            f"{document.get('schema')!r} (expected {SHARD_STATE_SCHEMA})"
        )
    return document


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
@dataclass
class MergedShards:
    """Outcome of a validated shard merge.

    Attributes:
        aggregator: The merged canonical aggregate (bit-identical to a
            single stream over the whole fleet).
        fleet: The shared fleet identity section of the state files.
        shards: Per-shard run rows (index, range, executed/cached,
            elapsed) in index order.
        executed / cached: Garment totals across all shards.
        elapsed_s: Sum of per-shard wall-clock seconds (the compute
            cost, not the wall time of the hosts running in parallel).
    """

    aggregator: FleetAggregator
    fleet: dict
    shards: list[dict]
    executed: int
    cached: int
    elapsed_s: float


def merge_shard_states(documents: Iterable[dict]) -> MergedShards:
    """Merge standalone shard state files into one canonical aggregate.

    The merge is *strict*: every document must carry the shard state
    schema, describe the same fleet (seed, size, preset, distribution,
    base-config hash), bucket its histograms identically, and the
    shard ranges must exactly tile ``[0, size)`` with no duplicates or
    gaps.  Any mismatch raises
    :class:`~repro.errors.ConfigurationError` naming the offending
    field — mismatched shards merging silently into garbage statistics
    is precisely the failure mode this refuses.
    """
    documents = list(documents)
    if not documents:
        raise ConfigurationError("no shard state files to merge")
    for document in documents:
        if document.get("schema") != SHARD_STATE_SCHEMA:
            raise ConfigurationError(
                "unsupported shard state schema "
                f"{document.get('schema')!r} (expected {SHARD_STATE_SCHEMA})"
            )

    reference = documents[0]["fleet"]
    for position, document in enumerate(documents[1:], start=1):
        fleet = document["fleet"]
        for field in ("signature", "seed", "size", "preset", "base_hash"):
            if fleet.get(field) != reference.get(field):
                raise ConfigurationError(
                    f"shard file #{position} disagrees on fleet "
                    f"{field}: {fleet.get(field)!r} != "
                    f"{reference.get(field)!r} — all shards must come "
                    "from one (distribution, seed, size) fleet"
                )
        if fleet.get("distribution") != reference.get("distribution"):
            raise ConfigurationError(
                f"shard file #{position} was sampled from a different "
                "distribution than the first shard"
            )

    distribution = FleetDistribution.from_dict(reference["distribution"])
    size = int(reference["size"])
    counts = {int(document["shard"]["count"]) for document in documents}
    if len(counts) != 1:
        raise ConfigurationError(
            f"shard files disagree on the shard count: {sorted(counts)}"
        )
    count = counts.pop()
    expected = {spec.index: spec for spec in split_fleet(size, count)}
    seen: dict[int, dict] = {}
    for document in documents:
        shard = document["shard"]
        index = int(shard["index"])
        if index in seen:
            raise ConfigurationError(
                f"duplicate state file for shard {index}"
            )
        spec = expected.get(index)
        if spec is None:
            raise ConfigurationError(
                f"shard index {index} does not exist in a {count}-way "
                f"split of {size} garments"
            )
        if (int(shard["start"]), int(shard["size"])) != (
            spec.start,
            spec.size,
        ):
            raise ConfigurationError(
                f"shard {index} covers [{shard['start']}, "
                f"{int(shard['start']) + int(shard['size'])}) but the "
                f"canonical {count}-way split expects "
                f"[{spec.start}, {spec.stop})"
            )
        seen[index] = document
    missing = sorted(set(expected) - set(seen))
    if missing:
        raise ConfigurationError(
            f"incomplete fleet: missing shard(s) {missing} of {count}"
        )

    # Start from the distribution-derived (hence canonical) bucket
    # spec; FleetAggregator.merge then validates every shard's state
    # against it, so a state file bucketed differently is refused.
    aggregator = aggregator_for(distribution)
    shards: list[dict] = []
    executed = cached = 0
    elapsed = 0.0
    for index in sorted(seen):
        document = seen[index]
        aggregator.merge(FleetAggregator.from_state(document["state"]))
        run = document.get("run", {})
        executed += int(run.get("executed", 0))
        cached += int(run.get("cached", 0))
        elapsed += float(run.get("elapsed_s", 0.0))
        shards.append(
            {
                "index": index,
                "start": expected[index].start,
                "size": expected[index].size,
                "executed": run.get("executed"),
                "cached": run.get("cached"),
                "elapsed_s": run.get("elapsed_s"),
            }
        )
    return MergedShards(
        aggregator=aggregator,
        fleet=dict(reference),
        shards=shards,
        executed=executed,
        cached=cached,
        elapsed_s=elapsed,
    )


def merged_bundle(documents: Iterable[dict]) -> dict:
    """A fleet bundle document assembled from shard state files.

    Equal to the single-stream :func:`~repro.fleet.runner.fleet_bundle`
    of the same fleet on every key but ``run``, which carries the
    per-shard breakdown under ``run.shards``.
    """
    from .runner import fleet_bundle

    merged = merge_shard_states(documents)
    distribution = FleetDistribution.from_dict(merged.fleet["distribution"])
    result = FleetRunResult(
        aggregator=merged.aggregator,
        size=int(merged.fleet["size"]),
        executed=merged.executed,
        cached=merged.cached,
        elapsed_s=merged.elapsed_s,
    )
    return fleet_bundle(
        distribution,
        int(merged.fleet["size"]),
        int(merged.fleet["seed"]),
        result,
        shards=merged.shards,
    )
