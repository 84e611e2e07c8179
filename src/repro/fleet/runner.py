"""Streaming fleet driver: sample, simulate, aggregate, discard.

``run_fleet`` pushes a fleet of any size through the existing sweep
runner in bounded-size chunks.  Each chunk's points are sampled on the
fly from the :class:`~repro.fleet.distribution.FleetDistribution`,
evaluated (optionally on a process pool, optionally against a shared
:class:`~repro.orchestration.cache.SweepCache`), folded into the
:class:`~repro.fleet.aggregate.FleetAggregator` through the runner's
progress hook, and then dropped — memory stays O(chunk), not O(fleet).

Because the aggregator is order-independent, the exported aggregate is
bit-identical whatever the worker count, the chunk size, the completion
order, or the shard split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..config import SimulationConfig
from ..errors import ConfigurationError
from ..orchestration.cache import SweepCache
from ..orchestration.runner import SweepRecord, make_runner
from .aggregate import FleetAggregator
from .distribution import FleetDistribution

#: Version stamp of the exported fleet bundle document.
FLEET_BUNDLE_SCHEMA = 2

#: Fleet progress callback: (record, garments done, fleet size).
FleetProgress = Callable[[SweepRecord, int, int], None]


def aggregator_for(distribution: FleetDistribution) -> FleetAggregator:
    """An aggregator bucketed to fit the distribution's value ranges.

    Derived deterministically from the distribution alone, so every
    shard of one fleet builds an identical (hence mergeable) spec.
    """
    lifetime_buckets = 128
    bucket_frames = max(1.0, float(distribution.max_frames) / lifetime_buckets)
    if distribution.max_jobs is not None:
        jobs_bucket = max(distribution.max_jobs / 64.0, 1.0 / 64.0)
        jobs_buckets = 64
    else:
        jobs_bucket, jobs_buckets = 0.5, 256
    return FleetAggregator(
        lifetime_bucket_frames=bucket_frames,
        lifetime_buckets=lifetime_buckets,
        jobs_bucket=jobs_bucket,
        jobs_buckets=jobs_buckets,
    )


@dataclass
class FleetRunResult:
    """Outcome of one (possibly sharded) fleet run.

    Attributes:
        aggregator: The streaming aggregate over every garment seen.
        size: Garments aggregated by this run.
        executed: Garments actually simulated.
        cached: Garments served from the sweep cache.
        elapsed_s: Wall-clock seconds of the whole run.
    """

    aggregator: FleetAggregator
    size: int
    executed: int
    cached: int
    elapsed_s: float


def run_fleet(
    distribution: FleetDistribution,
    size: int,
    fleet_seed: int,
    *,
    base: SimulationConfig | None = None,
    start: int = 0,
    workers: int = 1,
    cache: SweepCache | None = None,
    chunk_size: int = 128,
    aggregator: FleetAggregator | None = None,
    progress: FleetProgress | None = None,
    trace: bool = False,
) -> FleetRunResult:
    """Stream garments ``start .. start+size`` through the sweep runner.

    Args:
        distribution: The wearer/lot distribution to sample from.
        size: Number of garments this run covers.
        fleet_seed: Seed of the whole fleet; with ``start`` it fully
            determines every garment (shards of one fleet share the
            seed and split the index range).
        base: Configuration the sampled axes are grafted onto.
        start: First garment index (shard offset).
        workers: Sweep-runner worker processes (1 = sequential,
            0 = all cores).
        cache: Optional sweep cache.
        chunk_size: Garments in flight at once — the memory bound.
        aggregator: Fold into an existing aggregator (defaults to a
            fresh :func:`aggregator_for` the distribution).
        progress: Optional per-record callback for live reporting.
        trace: Capture a telemetry trace for every executed garment
            (lands in ``record.stats.extra["trace"]``; collect it in
            ``progress`` — records are dropped after aggregation).
    """
    if size < 0:
        raise ConfigurationError(f"fleet size must be >= 0, got {size}")
    if chunk_size < 1:
        raise ConfigurationError(
            f"chunk size must be >= 1, got {chunk_size}"
        )
    expected = aggregator_for(distribution)
    if aggregator is None:
        aggregator = expected
    elif aggregator.spec_dict() != expected.spec_dict():
        # A caller-supplied aggregator (or one rebuilt from a shard
        # state file) bucketed for a *different* distribution would
        # fold new records into misaligned histograms — silently
        # garbage quantiles and survival curves.  Refuse instead.
        raise ConfigurationError(
            "supplied aggregator's bucket spec does not match this "
            f"distribution: {aggregator.spec_dict()} vs expected "
            f"{expected.spec_dict()} (derive it with "
            "aggregator_for(distribution))"
        )
    runner = make_runner(workers, cache=cache, trace=trace)
    began = time.perf_counter()
    done = 0
    executed = 0
    cached = 0

    def consume(record: SweepRecord) -> None:
        nonlocal done, executed, cached
        aggregator.observe(record)
        done += 1
        if record.cached:
            cached += 1
        else:
            executed += 1
        if progress is not None:
            progress(record, done, size)

    for lo in range(start, start + size, chunk_size):
        hi = min(lo + chunk_size, start + size)
        points = distribution.points(fleet_seed, range(lo, hi), base)
        # Records stream into the aggregator through the hook; the
        # returned list is chunk-bounded and dropped immediately.
        runner.run(points, hook=consume)

    return FleetRunResult(
        aggregator=aggregator,
        size=size,
        executed=executed,
        cached=cached,
        elapsed_s=time.perf_counter() - began,
    )


def fleet_bundle(
    distribution: FleetDistribution,
    size: int,
    fleet_seed: int,
    result: FleetRunResult,
    *,
    workers: int | None = None,
    cache: SweepCache | None = None,
    shards: list[dict] | None = None,
) -> dict:
    """The exported fleet document.

    Its keys are ``schema``, ``fleet``, ``aggregate`` and ``run``.
    ``fleet`` and ``aggregate`` are bit-identical for one
    ``(fleet_seed, size, distribution)`` whatever the worker count,
    completion order or shard split.  ``run`` (timings, cache traffic —
    including the cache's hit/miss/IO-time counters when ``cache`` is
    passed — and the per-shard breakdown of a sharded run when
    ``shards`` is passed) holds the diagnostics of *this* run and
    carries no such guarantee.
    """
    run: dict = {
        "workers": workers,
        "executed": result.executed,
        "cached": result.cached,
        "elapsed_s": round(result.elapsed_s, 6),
    }
    if cache is not None:
        run["cache"] = cache.counters()
    if shards is not None:
        run["shards"] = shards
    return {
        "schema": FLEET_BUNDLE_SCHEMA,
        "fleet": {
            "preset": distribution.name,
            "seed": fleet_seed,
            "size": size,
            "distribution": distribution.to_dict(),
        },
        "aggregate": result.aggregator.aggregate(),
        "run": run,
    }
