"""Sequential and process-pool sweep executors.

A *sweep point* pairs one :class:`~repro.config.SimulationConfig` with a
label and the swept parameter values; a *runner* turns a list of points
into :class:`SweepRecord` results, consulting an optional
:class:`~repro.orchestration.cache.SweepCache` first.

Simulations are deterministic functions of their configuration (the
workload RNG is seeded from the config), so the parallel runner's
records are bit-identical to the sequential runner's for any worker
count — the only thing that changes is wall-clock time.  Results are
always returned in input order regardless of completion order, and
each executed point is cached as soon as it finishes, so a killed run
loses only the points still in flight.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..config import SimulationConfig
from ..errors import ConfigurationError
from ..sim.et_sim import run_simulation
from ..sim.stats import SimulationStats
from .cache import SweepCache, config_hash

#: Progress callback signature: invoked once per finished point.
ProgressHook = Callable[["SweepRecord"], None]


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep grid.

    Attributes:
        label: Human-readable point label (e.g. ``"4x4/ear"``).
        config: The full simulation configuration of this point.
        params: The swept parameter values (JSON-safe).
    """

    label: str
    config: SimulationConfig
    params: dict = field(default_factory=dict)


@dataclass
class SweepRecord:
    """Outcome of one sweep point.

    Attributes:
        label: The point's label.
        params: The swept parameter values.
        summary: JSON-safe result record
            (:meth:`repro.sim.stats.SimulationStats.summary`).
        config_hash: Content hash of the point's configuration.
        cached: True when the summary was served from the cache.
        stats: Full statistics object — only available for points that
            were actually executed (None on cache hits).
        elapsed_s: Wall-clock seconds the point's simulation took —
            only for executed points (None on cache hits, where the
            stored timing would describe some other machine/run).
    """

    label: str
    params: dict
    summary: dict
    config_hash: str
    cached: bool = False
    stats: SimulationStats | None = None
    elapsed_s: float | None = None

    def record(self, timing: bool = False) -> dict:
        """Flat row for CSV/JSON emission: params merged with summary.

        ``timing=True`` appends ``elapsed_s`` for executed points (the
        bench emitter wants it; parity tests and cached rows must stay
        a pure function of the configuration, so it is opt-in).
        """
        row = dict(self.params)
        row["label"] = self.label
        row.update(self.summary)
        if timing and self.elapsed_s is not None:
            row["elapsed_s"] = round(self.elapsed_s, 6)
        return row


def execute_point(
    point: SweepPoint, trace: bool = False
) -> SimulationStats:
    """Run one point's simulation (module-level so it pickles into
    worker processes).  Wall-clock time lands in ``stats.extra`` so
    the bench harness can track per-point performance.

    With ``trace=True`` the run is driven through a
    :class:`~repro.telemetry.recorder.TraceRecorder` and the finished
    trace (a plain list of dicts, so it pickles back from workers)
    rides along in ``stats.extra["trace"]``, including a
    ``sweep-point`` timer for the point's full wall-clock.
    """
    if not trace:
        start = time.perf_counter()
        stats = run_simulation(point.config)
        stats.extra["elapsed_s"] = time.perf_counter() - start
        return stats
    from ..telemetry.recorder import TraceRecorder

    recorder = TraceRecorder()
    start = time.perf_counter()
    stats = run_simulation(point.config, recorder)
    elapsed = time.perf_counter() - start
    stats.extra["elapsed_s"] = elapsed
    recorder.timing("sweep-point", elapsed)
    stats.extra["trace"] = recorder.lines(
        meta={
            "label": point.label,
            "engine": point.config.resolved_engine(),
            "routing": point.config.routing,
        }
    )
    return stats


class SweepRunner:
    """Common cache-aware driving logic of the sweep executors.

    Args:
        cache: Optional result cache consulted before executing and
            updated after.  ``None`` disables caching.
        trace: When True every *executed* point runs under a
            :class:`~repro.telemetry.recorder.TraceRecorder` and its
            trace lines land in ``record.stats.extra["trace"]``
            (cache hits carry no trace — nothing ran).
    """

    def __init__(
        self, cache: SweepCache | None = None, trace: bool = False
    ):
        self.cache = cache
        self.trace = trace

    # -- to be provided by subclasses ----------------------------------
    def _execute(
        self, points: Sequence[SweepPoint]
    ) -> Iterable[tuple[int, SimulationStats]]:
        """Yield ``(position in points, stats)`` as each point finishes."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def run(
        self,
        points: Sequence[SweepPoint],
        hook: ProgressHook | None = None,
    ) -> list[SweepRecord]:
        """Evaluate every point; results come back in input order.

        Args:
            points: The sweep grid.
            hook: Optional progress callback, invoked once per record
                as it becomes available: cache hits first (input
                order), then executed points as each finishes — in
                input order under the sequential runner, in completion
                order under a pool.  Each executed point is stored in
                the cache before its hook fires.
        """
        points = list(points)
        keys = [config_hash(point.config) for point in points]
        records: list[SweepRecord | None] = [None] * len(points)

        pending: list[tuple[int, SweepPoint]] = []
        for index, (point, key) in enumerate(zip(points, keys)):
            cached = (
                self.cache.lookup(key) if self.cache is not None else None
            )
            if cached is not None:
                records[index] = SweepRecord(
                    label=point.label,
                    params=dict(point.params),
                    summary=cached["summary"],
                    config_hash=key,
                    cached=True,
                )
                if hook is not None:
                    hook(records[index])
            else:
                pending.append((index, point))

        if pending:
            finished = self._execute([point for _, point in pending])
            for position, stats in finished:
                index, point = pending[position]
                key = keys[index]
                summary = stats.summary()
                records[index] = SweepRecord(
                    label=point.label,
                    params=dict(point.params),
                    summary=summary,
                    config_hash=key,
                    cached=False,
                    stats=stats,
                    elapsed_s=stats.extra.get("elapsed_s"),
                )
                if self.cache is not None:
                    self.cache.store(
                        key,
                        {
                            "label": point.label,
                            "params": dict(point.params),
                            "summary": summary,
                        },
                    )
                if hook is not None:
                    hook(records[index])

        return [record for record in records if record is not None]


def make_runner(
    workers: int = 1,
    cache: SweepCache | None = None,
    trace: bool = False,
) -> "SweepRunner":
    """Executor selection shared by the CLI and the bench harness.

    Args:
        workers: ``1`` = in-process sequential, ``0`` = a process pool
            sized to the machine, ``N > 1`` = a pool of N workers.
        cache: Optional shared result cache.
        trace: Capture a telemetry trace for every executed point.
    """
    if workers == 1:
        return SequentialSweepRunner(cache=cache, trace=trace)
    return ParallelSweepRunner(
        max_workers=workers or None, cache=cache, trace=trace
    )


class SequentialSweepRunner(SweepRunner):
    """In-process, one-at-a-time execution (the fallback path)."""

    def _execute(
        self, points: Sequence[SweepPoint]
    ) -> Iterable[tuple[int, SimulationStats]]:
        trace = self.trace
        return (
            (position, execute_point(point, trace))
            for position, point in enumerate(points)
        )


class ParallelSweepRunner(SweepRunner):
    """Process-pool execution of independent sweep points.

    Args:
        max_workers: Worker process count (``None`` lets
            :class:`~concurrent.futures.ProcessPoolExecutor` pick the
            machine default).
        cache: Optional shared result cache.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        cache: SweepCache | None = None,
        trace: bool = False,
    ):
        super().__init__(cache=cache, trace=trace)
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"need at least one worker, got {max_workers}"
            )
        self.max_workers = max_workers

    @staticmethod
    def _cost_estimate(point: SweepPoint) -> float:
        """Rough relative cost of one point, for scheduling only.

        Run time grows with the fabric size and (when uncapped) with
        the run-to-death length; submitting expensive points first
        keeps the pool busy instead of leaving the biggest mesh as a
        serial tail.  Estimation errors only cost idle time, never
        correctness — results are reassembled in input order.
        """
        config = point.config
        cap = config.workload.max_jobs
        jobs = cap if cap is not None else 10_000
        return float(config.platform.num_mesh_nodes) * jobs

    def _execute(
        self, points: Sequence[SweepPoint]
    ) -> Iterable[tuple[int, SimulationStats]]:
        if len(points) == 1:
            # Not worth a pool spin-up for a single pending point.
            yield 0, execute_point(points[0], self.trace)
            return
        workers = self.max_workers
        if workers is not None:
            workers = min(workers, len(points))
        schedule = sorted(
            range(len(points)),
            key=lambda i: self._cost_estimate(points[i]),
            reverse=True,
        )
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(execute_point, points[i], self.trace): i
                for i in schedule
            }
            for future in as_completed(futures):
                yield futures[future], future.result()
