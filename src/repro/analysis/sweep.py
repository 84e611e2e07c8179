"""Parameter-sweep harness over et_sim runs.

Every evaluation artifact of the paper is a sweep: Fig 7 sweeps mesh
size x routing algorithm, Table 2 sweeps mesh size under the ideal
battery, Fig 8 sweeps mesh size x controller count.  The harness keeps
each run fully described by its :class:`~repro.config.SimulationConfig`
and returns plain records convenient for tabulation and CSV export.

Execution is delegated to :mod:`repro.orchestration`: pass a
:class:`~repro.orchestration.ParallelSweepRunner` (optionally wrapping a
:class:`~repro.orchestration.SweepCache`) to fan points out over worker
processes and memoise finished points; the default remains in-process
sequential execution with full :class:`~repro.sim.stats.SimulationStats`
objects on every result.
"""

from __future__ import annotations

from typing import Callable

from ..config import SimulationConfig
from ..orchestration.runner import (
    SequentialSweepRunner,
    SweepPoint,
    SweepRecord,
    SweepRunner,
)
from ..orchestration.scenarios import controller_grid, mesh_routing_grid
from ..sim.stats import SimulationStats


class SweepResult(SweepRecord):
    """Outcome of one sweep point (a :class:`SweepRecord` plus the
    analysis-side conveniences).

    ``stats`` is None when the point was served from a runner's cache —
    only the JSON ``summary`` survives a round-trip through disk.
    """

    @classmethod
    def from_record(cls, record: SweepRecord) -> "SweepResult":
        return cls(**vars(record))

    @property
    def jobs_fractional(self) -> float:
        """Completed jobs incl. partial credit, cache-safe."""
        if self.stats is not None:
            return self.stats.jobs_fractional
        return float(self.summary["jobs_fractional"])


def _run_points(
    points: list[SweepPoint],
    runner: SweepRunner | None,
    hook: Callable[["SweepRecord"], None] | None = None,
) -> list[SweepResult]:
    active = runner if runner is not None else SequentialSweepRunner()
    return [
        SweepResult.from_record(r) for r in active.run(points, hook=hook)
    ]


def run_sweep(
    configs: dict[str, SimulationConfig],
    hook: Callable[[str, SimulationStats | None], None] | None = None,
    runner: SweepRunner | None = None,
) -> list[SweepResult]:
    """Run a labelled set of configurations.

    Args:
        configs: Mapping of label to configuration.
        hook: Optional callback invoked after each run (progress
            reporting in long benches).  Receives the label and the
            full stats — **None for points served from a runner's
            cache**, where only the JSON summary survives; cache-aware
            hooks (and readers of ``SweepResult.stats``) must handle
            that or read ``SweepResult.summary`` instead.
        runner: Sweep executor; defaults to in-process sequential
            (no cache, so ``stats`` is always present).
    """
    points = [
        SweepPoint(label=label, config=config, params={"label": label})
        for label, config in configs.items()
    ]
    record_hook = None
    if hook is not None:
        def record_hook(record: SweepRecord) -> None:
            hook(record.label, record.stats)

    return _run_points(points, runner, hook=record_hook)


def sweep_mesh_sizes(
    base: SimulationConfig,
    widths: tuple[int, ...] = (4, 5, 6, 7, 8),
    routings: tuple[str, ...] = ("ear", "sdr"),
    runner: SweepRunner | None = None,
    hook: Callable[["SweepRecord"], None] | None = None,
) -> list[SweepResult]:
    """The Fig 7 grid: mesh width x routing algorithm."""
    return _run_points(
        mesh_routing_grid(base, widths, routings), runner, hook=hook
    )


def sweep_controllers(
    base: SimulationConfig,
    widths: tuple[int, ...] = (4, 5, 6, 7, 8),
    controller_counts: tuple[int, ...] = (1, 2, 4, 7, 10),
    runner: SweepRunner | None = None,
) -> list[SweepResult]:
    """The Fig 8 grid: mesh width x number of finite-battery controllers."""
    return _run_points(
        controller_grid(base, widths, controller_counts), runner
    )
