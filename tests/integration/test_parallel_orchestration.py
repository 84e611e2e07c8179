"""Integration tests: parallel/sequential parity, caching, determinism.

These exercise real worker processes, so grids are kept tiny (the
``fig7`` smoke grid: 4x4 EAR and SDR, job-capped).
"""

import time

import pytest

from repro.analysis.sweep import run_sweep, sweep_mesh_sizes
from repro.config import PlatformConfig, SimulationConfig, WorkloadConfig
from repro.orchestration import (
    ParallelSweepRunner,
    SequentialSweepRunner,
    SweepCache,
    SweepPoint,
    build_scenario,
)
from repro.orchestration import runner as runner_module
from repro.orchestration.runner import execute_point


def _fail_after_the_others(point, trace=False):
    """Pool worker whose ``boom`` point raises once the others are cached.

    The point waits (up to a deadline) until the cache directory named
    in its params holds every other point of the run, so it is the last
    to finish.
    """
    if point.label != "boom":
        return execute_point(point, trace)
    cache = SweepCache(point.params["cache_dir"])
    deadline = time.monotonic() + 10.0
    while len(cache) < point.params["others"] and time.monotonic() < deadline:
        time.sleep(0.02)
    raise RuntimeError("simulated point failure")


@pytest.fixture(scope="module")
def fig7_smoke_points():
    return build_scenario("fig7", scale="smoke")


@pytest.fixture(scope="module")
def sequential_records(fig7_smoke_points):
    return SequentialSweepRunner().run(fig7_smoke_points)


class TestParity:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_records_bit_identical(
        self, fig7_smoke_points, sequential_records, workers
    ):
        parallel = ParallelSweepRunner(max_workers=workers).run(
            fig7_smoke_points
        )
        assert [r.record() for r in parallel] == [
            r.record() for r in sequential_records
        ]
        assert [r.config_hash for r in parallel] == [
            r.config_hash for r in sequential_records
        ]

    def test_rerun_is_deterministic(
        self, fig7_smoke_points, sequential_records
    ):
        again = SequentialSweepRunner().run(fig7_smoke_points)
        assert [r.record() for r in again] == [
            r.record() for r in sequential_records
        ]


class TestCachedRuns:
    def test_repeated_parallel_run_hits_cache(
        self, tmp_path, fig7_smoke_points
    ):
        cache = SweepCache(tmp_path)
        first = ParallelSweepRunner(max_workers=2, cache=cache).run(
            fig7_smoke_points
        )
        assert cache.misses == len(fig7_smoke_points)
        assert len(cache) == len(fig7_smoke_points)

        cache = SweepCache(tmp_path)
        second = ParallelSweepRunner(max_workers=2, cache=cache).run(
            fig7_smoke_points
        )
        assert cache.hits == len(fig7_smoke_points)
        assert cache.misses == 0
        assert all(r.cached for r in second)
        assert [r.summary for r in second] == [r.summary for r in first]

    def test_cache_shared_between_runner_kinds(
        self, tmp_path, fig7_smoke_points
    ):
        cache = SweepCache(tmp_path)
        SequentialSweepRunner(cache=cache).run(fig7_smoke_points)
        cache = SweepCache(tmp_path)
        records = ParallelSweepRunner(max_workers=2, cache=cache).run(
            fig7_smoke_points
        )
        assert cache.hits == len(fig7_smoke_points)
        assert all(r.cached for r in records)

    def test_points_are_cached_as_they_finish(
        self, tmp_path, fig7_smoke_points, monkeypatch
    ):
        # A run that dies on its last point keeps every finished one.
        monkeypatch.setattr(
            runner_module, "execute_point", _fail_after_the_others
        )
        cache = SweepCache(tmp_path)
        boom = SweepPoint(
            "boom",
            SimulationConfig(),
            {"cache_dir": str(tmp_path), "others": len(fig7_smoke_points)},
        )
        with pytest.raises(RuntimeError, match="simulated point failure"):
            ParallelSweepRunner(max_workers=2, cache=cache).run(
                [*fig7_smoke_points, boom]
            )
        assert len(cache) == len(fig7_smoke_points)
        records = SequentialSweepRunner(cache=cache).run(fig7_smoke_points)
        assert all(r.cached for r in records)


class TestSweepHarnessIntegration:
    def tiny(self, **kwargs):
        return SimulationConfig(
            platform=PlatformConfig(mesh_width=4),
            workload=WorkloadConfig(max_jobs=2, max_frames=20_000),
            **kwargs,
        )

    def test_run_sweep_through_parallel_runner(self):
        sequential = run_sweep(
            {"a": self.tiny(routing="ear"), "b": self.tiny(routing="sdr")}
        )
        parallel = run_sweep(
            {"a": self.tiny(routing="ear"), "b": self.tiny(routing="sdr")},
            runner=ParallelSweepRunner(max_workers=2),
        )
        assert [r.record() for r in parallel] == [
            r.record() for r in sequential
        ]

    def test_sweep_mesh_sizes_through_parallel_runner(self):
        base = self.tiny()
        sequential = sweep_mesh_sizes(base, widths=(4,))
        parallel = sweep_mesh_sizes(
            base, widths=(4,), runner=ParallelSweepRunner(max_workers=2)
        )
        assert [r.record() for r in parallel] == [
            r.record() for r in sequential
        ]

    def test_cached_sweep_results_expose_summary(self, tmp_path):
        cache = SweepCache(tmp_path)
        base = self.tiny()
        sweep_mesh_sizes(
            base, widths=(4,), runner=SequentialSweepRunner(cache=cache)
        )
        results = sweep_mesh_sizes(
            base, widths=(4,), runner=SequentialSweepRunner(cache=cache)
        )
        for result in results:
            assert result.stats is None  # served from cache
            assert result.jobs_fractional == 2.0
            assert result.record()["jobs_completed"] == 2
