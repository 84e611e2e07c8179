"""Integration tests: income-aware mapping end to end.

Covers the ``harvest-mapping`` scenario family (the PR's acceptance
criterion: income-aware placement completes at least as many jobs as
the reactive proportional mapping on every pair of the quick grid),
the engine wiring (the mapping actually changes with the harvest
hardware), and the paired analysis helpers.
"""

from __future__ import annotations

from dataclasses import replace

from helpers import make_config
from repro.analysis import (
    income_mapping_twin,
    mapping_comparison,
    mapping_comparison_for,
    reactive_mapping_twin,
)
from repro.harvest import HarvestConfig, HarvestHardware
from repro.orchestration import build_scenario
from repro.sim.et_sim import run_simulation
from repro.sim.registry import build_engine


def mapping_config(strategy="harvest-proportional", **kwargs):
    harvest = HarvestConfig(
        profile="motion",
        seed=kwargs.pop("harvest_seed", 11),
        amplitude_pj=kwargs.pop("amplitude_pj", 150.0),
        hardware=HarvestHardware(
            equipped_fraction=kwargs.pop("equipped_fraction", 0.25),
            placement=kwargs.pop("placement", "flex"),
        ),
    )
    config = make_config(harvest=harvest, **kwargs)
    return replace(
        config,
        platform=replace(config.platform, mapping_strategy=strategy),
    )


class TestIncomeAwareMappingRuns:
    def test_heterogeneous_income_changes_the_mapping(self):
        aware = build_engine(mapping_config(max_jobs=1))
        reactive = build_engine(
            mapping_config(strategy="proportional", max_jobs=1)
        )
        assert aware.mapping != reactive.mapping
        # Same module set and node budget, different placement.
        assert sum(aware.mapping.duplicate_counts().values()) == sum(
            reactive.mapping.duplicate_counts().values()
        )

    def test_harvest_free_run_degenerates_to_proportional(self):
        # Without an income picture the strategy must build the exact
        # Theorem-1 mapping, so harvest-free sweeps cannot fork on it.
        aware = build_engine(
            replace(
                make_config(max_jobs=1),
                platform=replace(
                    make_config().platform,
                    mapping_strategy="harvest-proportional",
                ),
            )
        )
        reactive = build_engine(
            replace(
                make_config(max_jobs=1),
                platform=replace(
                    make_config().platform,
                    mapping_strategy="proportional",
                ),
            )
        )
        assert aware.mapping == reactive.mapping

    def test_income_aware_run_is_deterministic_and_clean(self):
        config = mapping_config(max_jobs=10)
        one = run_simulation(config).summary()
        two = run_simulation(config).summary()
        assert one == two
        assert one["verification_failures"] == 0
        assert one["harvested_pj"] > 0


class TestHarvestMappingScenario:
    def test_smoke_covers_both_engines(self):
        points = build_scenario("harvest-mapping", scale="smoke")
        kinds = {p.params["workload"] for p in points}
        assert kinds == {"sequential", "concurrent"}
        assert all(
            p.config.platform.mapping_strategy == "harvest-proportional"
            for p in points
        )
        assert all(
            p.config.harvest.hardware.equipped_fraction < 1.0
            for p in points
        )

    def test_quick_grid_pairs_strategies_on_one_schedule(self):
        points = build_scenario("harvest-mapping", scale="quick")
        by_mesh: dict[str, dict[str, object]] = {}
        for p in points:
            by_mesh.setdefault(p.params["mesh"], {})[
                p.params["strategy"]
            ] = p.config
        for mesh, pair in by_mesh.items():
            assert set(pair) == {"reactive", "income"}, mesh
            # Paired points share the exact same income schedule and
            # differ only in the mapping strategy.
            assert pair["reactive"].harvest == pair["income"].harvest
            assert (
                replace(
                    pair["reactive"],
                    platform=replace(
                        pair["reactive"].platform,
                        mapping_strategy="harvest-proportional",
                    ),
                )
                == pair["income"]
            )

    def test_income_aware_never_loses_jobs_on_the_quick_grid(self):
        """Acceptance: on the harvest-mapping quick grid, income-aware
        placement completes at least as many jobs as the reactive
        proportional mapping on the same income schedule."""
        points = {
            p.label: p
            for p in build_scenario("harvest-mapping", scale="quick")
        }
        meshes = sorted({p.params["mesh"] for p in points.values()})
        assert meshes  # the grid pairs reactive/income per mesh
        for mesh in meshes:
            reactive = run_simulation(
                points[f"{mesh}/reactive"].config
            ).summary()
            income = run_simulation(points[f"{mesh}/income"].config).summary()
            assert (
                income["jobs_fractional"] >= reactive["jobs_fractional"]
            ), f"income-aware placement lost jobs on the {mesh} mesh"


class TestMappingAnalysis:
    def test_mapping_comparison_pairs_the_twins(self):
        config = mapping_config(max_jobs=8)
        record = mapping_comparison_for(config)
        reactive = run_simulation(reactive_mapping_twin(config)).summary()
        aware = run_simulation(income_mapping_twin(config)).summary()
        assert record == mapping_comparison(reactive, aware)
        assert record["jobs_gain"] == round(
            record["jobs_income_aware"] - record["jobs_reactive"], 3
        )

    def test_twins_only_touch_the_strategy(self):
        config = mapping_config(strategy="checkerboard")
        income = income_mapping_twin(config)
        reactive = reactive_mapping_twin(config)
        assert income.platform.mapping_strategy == "harvest-proportional"
        assert reactive.platform.mapping_strategy == "proportional"
        assert income.harvest == reactive.harvest == config.harvest
        assert income.workload == config.workload
