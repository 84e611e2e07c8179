"""Scenario registry: programmatic generation of sweep grids.

Each scenario turns a scale (``smoke`` / ``quick`` / ``full``) into the
list of :class:`~repro.orchestration.runner.SweepPoint` it evaluates:

* the paper's own grids — ``fig7`` (mesh x routing), ``fig8``
  (mesh x controller count), ``table2`` (ideal-battery bounds);
* extensions the paper's machinery makes natural — ``large-mesh``
  (beyond the paper's 8x8), ``mixed-workload`` (concurrent jobs with
  per-point derived seeds), ``battery-ablation`` (capacity scaling).

``smoke`` grids are sized for CI (seconds, bounded job counts),
``full`` grids reproduce the paper's figures.  Grid builders are also
exported directly (:func:`mesh_routing_grid`, :func:`controller_grid`)
for callers composing their own sweeps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable

from ..config import RoutingOptions, SimulationConfig
from ..errors import ConfigurationError
from ..faults import FaultConfig
from ..harvest import HarvestConfig, HarvestHardware
from .runner import SweepPoint

#: Recognised grid scales.
SCALES = ("smoke", "quick", "full")

#: The golden-traced smoke points: one ``(scenario, label, filename)``
#: triple per stored fixture under ``tests/golden/``.  The regression
#: tests and the ``python -m repro regen-golden`` helper both read this
#: list, so adding a fixture (or a summary key) is a one-place change.
GOLDEN_SMOKE_POINTS = (
    ("fig7", "4x4/ear", "fig7_smoke_4x4_ear.json"),
    ("fig8", "4x4/1ctl", "fig8_smoke_4x4_1ctl.json"),
    ("table2", "4x4/ear", "table2_smoke_4x4_ear.json"),
    # One point per engine (sequential and concurrent) for the
    # scenario families whose machinery differs between code paths.
    ("tear-repair", "4x4/ear", "tear_repair_smoke_4x4_ear.json"),
    ("tear-repair", "4x4/ear/conc", "tear_repair_smoke_4x4_ear_conc.json"),
    ("harvest-motion", "4x4/ear", "harvest_motion_smoke_4x4_ear.json"),
    (
        "harvest-motion",
        "4x4/ear/conc",
        "harvest_motion_smoke_4x4_ear_conc.json",
    ),
    ("harvest-mapping", "4x4/income", "harvest_mapping_smoke_4x4.json"),
    (
        "harvest-mapping",
        "4x4/income/conc",
        "harvest_mapping_smoke_4x4_conc.json",
    ),
    # Vector-engine traces: one plain and one harvesting point, so the
    # frame-batched draw, recharge and heartbeat paths are all pinned.
    ("vector-mesh", "6x6/ear/vec", "vector_mesh_smoke_6x6_ear.json"),
    (
        "vector-mesh",
        "6x6/ear/harvest/vec",
        "vector_mesh_smoke_6x6_harvest.json",
    ),
    # One sampled garment of the fleet smoke preset, pinning the whole
    # (fleet_seed, index) -> SimulationConfig sampling chain.
    ("fleet", "g0000/4x4", "fleet_smoke_g0000.json"),
    # Congestion pair: measure-only baseline (neutral q tracks load
    # without changing weights) and the ECMP + congestion-penalty
    # relief point, pinning the load-telemetry path end to end.
    ("congestion-relief", "4x4/base", "congestion_relief_smoke_4x4_base.json"),
    (
        "congestion-relief",
        "4x4/relief",
        "congestion_relief_smoke_4x4_relief.json",
    ),
    # Harvest-aware EAR: pins the income-telemetry path end to end.
    ("harvest-aware", "a60/aware", "harvest_aware_smoke_a60_aware.json"),
)

#: Golden points cut from the quick grid, for telemetry paths a smoke
#: run is too short to exercise: smoke ``wear-aware`` never crosses a
#: wear level, quick ``x1/wear`` pushes twenty wear pictures.
GOLDEN_QUICK_POINTS = (
    ("wear-aware", "x1/wear", "wear_aware_quick_x1_wear.json"),
)

#: Builder signature: (scale, base config) -> sweep points.
ScenarioBuilder = Callable[[str, SimulationConfig], list[SweepPoint]]


def derive_seed(base_seed: int, label: str) -> int:
    """Deterministic per-point seed: stable across runs, processes and
    worker counts (no dependence on execution order)."""
    digest = hashlib.sha256(f"{base_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def _check_scale(scale: str) -> None:
    if scale not in SCALES:
        raise ConfigurationError(
            f"unknown scale {scale!r}; expected one of {SCALES}"
        )


def _cap_jobs(config: SimulationConfig, max_jobs: int) -> SimulationConfig:
    return replace(
        config, workload=replace(config.workload, max_jobs=max_jobs)
    )


# ----------------------------------------------------------------------
# Reusable grid builders
# ----------------------------------------------------------------------
def mesh_routing_grid(
    base: SimulationConfig,
    widths: tuple[int, ...],
    routings: tuple[str, ...] = ("ear", "sdr"),
) -> list[SweepPoint]:
    """The Fig 7 shape: mesh width x routing algorithm."""
    points = []
    for width in widths:
        for routing in routings:
            config = replace(
                base,
                platform=replace(base.platform, mesh_width=width),
                routing=routing,
            )
            points.append(
                SweepPoint(
                    label=f"{width}x{width}/{routing}",
                    config=config,
                    params={"mesh": f"{width}x{width}", "routing": routing},
                )
            )
    return points


def controller_grid(
    base: SimulationConfig,
    widths: tuple[int, ...],
    controller_counts: tuple[int, ...],
) -> list[SweepPoint]:
    """The Fig 8 shape: mesh width x finite-battery controller count."""
    points = []
    for count in controller_counts:
        for width in widths:
            control = replace(
                base.control,
                num_controllers=count,
                controller_battery="thin-film",
            )
            config = replace(
                base,
                platform=replace(base.platform, mesh_width=width),
                control=control,
            )
            points.append(
                SweepPoint(
                    label=f"{width}x{width}/{count}ctl",
                    config=config,
                    params={
                        "mesh": f"{width}x{width}",
                        "controllers": count,
                    },
                )
            )
    return points


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """A named, scale-aware sweep grid generator."""

    name: str
    description: str
    builder: ScenarioBuilder

    def build(
        self, scale: str = "full", base: SimulationConfig | None = None
    ) -> list[SweepPoint]:
        _check_scale(scale)
        return self.builder(
            scale, base if base is not None else SimulationConfig()
        )


_REGISTRY: dict[str, Scenario] = {}


def scenario(name: str, description: str):
    """Decorator registering a scenario builder under ``name``."""

    def register(builder: ScenarioBuilder) -> ScenarioBuilder:
        if name in _REGISTRY:
            raise ConfigurationError(f"scenario {name!r} already registered")
        _REGISTRY[name] = Scenario(name, description, builder)
        return builder

    return register


def scenarios() -> dict[str, Scenario]:
    """All registered scenarios, keyed by name."""
    return dict(_REGISTRY)


def scenario_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def build_scenario(
    name: str,
    scale: str = "full",
    base: SimulationConfig | None = None,
) -> list[SweepPoint]:
    """Generate the sweep points of the named scenario."""
    try:
        entry = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {', '.join(_REGISTRY)}"
        ) from None
    return entry.build(scale, base)


# ----------------------------------------------------------------------
# Paper grids
# ----------------------------------------------------------------------
@scenario("fig7", "Fig 7: jobs under EAR vs SDR across mesh sizes")
def _fig7(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    widths = {"smoke": (4,), "quick": (4, 5), "full": (4, 5, 6, 7, 8)}[scale]
    if scale == "smoke":
        base = _cap_jobs(base, 8)
    return mesh_routing_grid(base, widths)


@scenario("fig8", "Fig 8: lifetime vs controller count across mesh sizes")
def _fig8(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    widths = {"smoke": (4,), "quick": (4, 5), "full": (4, 5, 6, 7, 8)}[scale]
    counts = {"smoke": (1, 2), "quick": (1, 2, 4), "full": (1, 2, 4, 7, 10)}[
        scale
    ]
    if scale == "smoke":
        base = _cap_jobs(base, 8)
    return controller_grid(base, widths, counts)


@scenario("table2", "Table 2: EAR under the ideal battery (bound ratios)")
def _table2(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    widths = {"smoke": (4,), "quick": (4, 5), "full": (4, 5, 6, 7, 8)}[scale]
    if scale == "smoke":
        base = _cap_jobs(base, 8)
    base = replace(
        base, platform=replace(base.platform, battery_model="ideal")
    )
    return mesh_routing_grid(base, widths, routings=("ear",))


# ----------------------------------------------------------------------
# Extensions beyond the paper
# ----------------------------------------------------------------------
@scenario("large-mesh", "EAR vs SDR beyond the paper's 8x8 meshes")
def _large_mesh(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    widths = {"smoke": (6,), "quick": (10,), "full": (10, 12, 16)}[scale]
    # Larger fabrics are job-capped even at full scale: the point is
    # routing behaviour at scale, not multi-minute runs to system death.
    caps = {"smoke": 8, "quick": 40, "full": 120}
    base = _cap_jobs(base, caps[scale])
    return mesh_routing_grid(base, widths)


@scenario("mixed-workload", "concurrent jobs at varying concurrency")
def _mixed_workload(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    widths = {"smoke": (4,), "quick": (4, 5), "full": (4, 5, 6)}[scale]
    levels = {"smoke": (2,), "quick": (2, 4), "full": (2, 4, 8)}[scale]
    caps = {"smoke": 8, "quick": 30, "full": 60}
    points = []
    for width in widths:
        for concurrency in levels:
            label = f"{width}x{width}/c{concurrency}"
            workload = replace(
                base.workload,
                kind="concurrent",
                concurrency=concurrency,
                max_jobs=caps[scale],
                seed=derive_seed(base.workload.seed, label),
            )
            config = replace(
                base,
                platform=replace(base.platform, mesh_width=width),
                workload=workload,
            )
            points.append(
                SweepPoint(
                    label=label,
                    config=config,
                    params={
                        "mesh": f"{width}x{width}",
                        "concurrency": concurrency,
                    },
                )
            )
    return points


@scenario("fig7-faulty", "Fig 7 under link-attrition faults (EAR vs SDR)")
def _fig7_faulty(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    """The paper's headline comparison on a physically degrading fabric:
    permanent link cuts arrive while the system runs, so EAR's advantage
    is measured against topology attrition, not only battery exhaustion.
    """
    widths = {"smoke": (4,), "quick": (4, 5), "full": (4, 5, 6)}[scale]
    if scale == "smoke":
        base = _cap_jobs(base, 8)
    points = []
    for width in widths:
        for routing in ("ear", "sdr"):
            label = f"{width}x{width}/{routing}/attrition"
            faults = FaultConfig(
                profile="link-attrition",
                seed=derive_seed(base.workload.seed, label),
            )
            config = replace(
                base,
                platform=replace(base.platform, mesh_width=width),
                routing=routing,
                faults=faults,
            )
            points.append(
                SweepPoint(
                    label=label,
                    config=config,
                    params={
                        "mesh": f"{width}x{width}",
                        "routing": routing,
                        "fault_profile": "link-attrition",
                    },
                )
            )
    return points


@scenario("link-attrition", "lifetime under progressive permanent link cuts")
def _link_attrition(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    intensities = {
        "smoke": (1.0,),
        "quick": (0.5, 1.0, 2.0),
        "full": (0.25, 0.5, 1.0, 2.0, 4.0),
    }[scale]
    if scale == "smoke":
        base = _cap_jobs(base, 8)
    points = []
    for intensity in intensities:
        for routing in ("ear", "sdr"):
            label = f"x{intensity:g}/{routing}"
            faults = FaultConfig(
                profile="link-attrition",
                intensity=intensity,
                seed=derive_seed(base.workload.seed, f"link-attrition/{label}"),
            )
            config = replace(base, routing=routing, faults=faults)
            points.append(
                SweepPoint(
                    label=label,
                    config=config,
                    params={
                        "fault_intensity": intensity,
                        "routing": routing,
                        "fault_profile": "link-attrition",
                    },
                )
            )
    return points


@scenario("wash-cycle", "periodic transient link degradation (wash stress)")
def _wash_cycle(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    factors = {
        "smoke": (3.0,),
        "quick": (2.0, 4.0),
        "full": (1.5, 3.0, 6.0),
    }[scale]
    if scale == "smoke":
        base = _cap_jobs(base, 8)
    points = []
    for factor in factors:
        for routing in ("ear", "sdr"):
            label = f"deg{factor:g}/{routing}"
            faults = FaultConfig(
                profile="wash-cycle",
                degrade_factor=factor,
                period_frames=4,
                seed=derive_seed(base.workload.seed, f"wash-cycle/{label}"),
            )
            config = replace(base, routing=routing, faults=faults)
            points.append(
                SweepPoint(
                    label=label,
                    config=config,
                    params={
                        "degrade_factor": factor,
                        "routing": routing,
                        "fault_profile": "wash-cycle",
                    },
                )
            )
    return points


@scenario("tear-repair", "correlated tear bursts with re-sewn repairs")
def _tear_repair(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    """Spatially correlated damage and recovery: each tear severs a
    whole neighbourhood of adjacent links in one event, and every cut
    line is re-sewn a fixed number of frames later.  The smoke grid
    pins one point per engine (sequential and concurrent) so the
    golden traces cover both code paths.
    """
    widths = {"smoke": (4,), "quick": (4, 5), "full": (4, 5, 6)}[scale]
    kinds = {
        "smoke": ("sequential", "concurrent"),
        "quick": ("sequential",),
        "full": ("sequential",),
    }[scale]
    routings = {"smoke": ("ear",), "quick": ("ear", "sdr"),
                "full": ("ear", "sdr")}[scale]
    caps = {"smoke": 8, "quick": 30, "full": None}
    points = []
    for width in widths:
        for kind in kinds:
            for routing in routings:
                suffix = "/conc" if kind == "concurrent" else ""
                label = f"{width}x{width}/{routing}{suffix}"
                # A full-fraction tear on a small mesh routinely rips
                # the source corner out before any repair can land;
                # 15 % keeps the scenario about surviving *through* the
                # cut-repair cycle rather than instant death.
                faults = FaultConfig(
                    profile="tear",
                    max_link_fraction=0.15,
                    repair_after_frames=24,
                    seed=derive_seed(
                        base.workload.seed, f"tear-repair/{label}"
                    ),
                )
                workload = replace(
                    base.workload,
                    kind=kind,
                    concurrency=4 if kind == "concurrent" else 1,
                    max_jobs=caps[scale],
                )
                config = replace(
                    base,
                    platform=replace(base.platform, mesh_width=width),
                    workload=workload,
                    routing=routing,
                    faults=faults,
                )
                points.append(
                    SweepPoint(
                        label=label,
                        config=config,
                        params={
                            "mesh": f"{width}x{width}",
                            "routing": routing,
                            "workload": kind,
                            "fault_profile": "tear",
                            "repair_after_frames": 24,
                        },
                    )
                )
    return points


@scenario("wear-aware", "wear-prediction weight vs reactive EAR under faults")
def _wear_aware(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    """The ROADMAP's fault-aware-routing item, measured: the same
    link-attrition schedule routed reactively (plain EAR) and with the
    wear-prediction weight that penalises high-traversal lines before
    they sever.
    """
    intensities = {
        "smoke": (1.0,),
        "quick": (0.5, 1.0),
        "full": (0.5, 1.0, 2.0),
    }[scale]
    if scale == "smoke":
        base = _cap_jobs(base, 8)
    points = []
    for intensity in intensities:
        faults = FaultConfig(
            profile="link-attrition",
            intensity=intensity,
            seed=derive_seed(
                base.workload.seed, f"wear-aware/x{intensity:g}"
            ),
        )
        for strategy, wear_aware in (("reactive", False), ("wear", True)):
            config = replace(
                base, routing="ear", faults=faults, wear_aware=wear_aware
            )
            points.append(
                SweepPoint(
                    label=f"x{intensity:g}/{strategy}",
                    config=config,
                    params={
                        "fault_intensity": intensity,
                        "strategy": strategy,
                        "fault_profile": "link-attrition",
                    },
                )
            )
    return points


@scenario("harvest-motion", "motion-harvest income on EAR (both engines)")
def _harvest_motion(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    """The harvesting scenario axis: triboelectric motion income
    concentrated on high-flex nodes recharges batteries while the
    system runs.  The smoke grid pins one point per engine (sequential
    and concurrent) so the golden traces cover the recharge path of
    both code paths.
    """
    widths = {"smoke": (4,), "quick": (4, 5), "full": (4, 5, 6)}[scale]
    kinds = {
        "smoke": ("sequential", "concurrent"),
        "quick": ("sequential",),
        "full": ("sequential",),
    }[scale]
    routings = {"smoke": ("ear",), "quick": ("ear", "sdr"),
                "full": ("ear", "sdr")}[scale]
    # The smoke cap is a little higher than elsewhere: the run must
    # span enough activity windows that both golden points actually
    # recharge (a short run can land entirely in idle windows).
    caps = {"smoke": 20, "quick": 30, "full": None}
    points = []
    for width in widths:
        for kind in kinds:
            for routing in routings:
                suffix = "/conc" if kind == "concurrent" else ""
                label = f"{width}x{width}/{routing}{suffix}"
                harvest = HarvestConfig(
                    profile="motion",
                    seed=derive_seed(
                        base.workload.seed, f"harvest-motion/{label}"
                    ),
                )
                workload = replace(
                    base.workload,
                    kind=kind,
                    concurrency=4 if kind == "concurrent" else 1,
                    max_jobs=caps[scale],
                )
                config = replace(
                    base,
                    platform=replace(base.platform, mesh_width=width),
                    workload=workload,
                    routing=routing,
                    harvest=harvest,
                )
                points.append(
                    SweepPoint(
                        label=label,
                        config=config,
                        params={
                            "mesh": f"{width}x{width}",
                            "routing": routing,
                            "workload": kind,
                            "harvest_profile": "motion",
                        },
                    )
                )
    return points


@scenario("harvest-aware", "harvest-aware EAR vs reactive EAR on one income schedule")
def _harvest_aware(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    """The harvest-routing question, measured: the same motion-harvest
    income schedule routed reactively (plain EAR, income only visible
    once it raises battery reports) and with the harvest-bonus weight
    that steers traffic toward energy-rich regions while their cells
    are still full.  Amplitudes (and the harvest-weight defaults) are
    calibrated so harvest-aware completes at least as many jobs as
    reactive EAR on every pair of this grid.
    """
    amplitudes = {
        "smoke": (60.0,),
        "quick": (60.0, 100.0),
        "full": (60.0, 80.0, 100.0, 120.0),
    }[scale]
    if scale == "smoke":
        base = _cap_jobs(base, 8)
    points = []
    for amplitude in amplitudes:
        harvest = HarvestConfig(
            profile="motion",
            amplitude_pj=amplitude,
            seed=derive_seed(
                base.workload.seed, f"harvest-aware/a{amplitude:g}"
            ),
        )
        for strategy, harvest_aware in (("reactive", False), ("aware", True)):
            config = replace(
                base,
                routing="ear",
                harvest=harvest,
                harvest_aware=harvest_aware,
            )
            points.append(
                SweepPoint(
                    label=f"a{amplitude:g}/{strategy}",
                    config=config,
                    params={
                        "amplitude_pj": amplitude,
                        "strategy": strategy,
                        "harvest_profile": "motion",
                    },
                )
            )
    return points


@scenario(
    "harvest-mapping",
    "income-aware duplicate placement vs reactive proportional mapping",
)
def _harvest_mapping(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    """The build-time counterpart of harvest-aware routing: on a fabric
    where only some nodes carry generators (heterogeneous hardware),
    the same income schedule is run with the plain Theorem-1
    proportional mapping (reactive — placement ignores income) and with
    the income-aware ``harvest-proportional`` strategy that puts the
    energy-hungry duplicates where the income is.  The smoke grid pins
    one income-aware point per engine for the golden traces; quick and
    full pair the strategies on every width for the jobs comparison.
    """
    widths = {"smoke": (4,), "quick": (4, 5), "full": (4, 5, 6)}[scale]
    kinds = {
        "smoke": ("sequential", "concurrent"),
        "quick": ("sequential",),
        "full": ("sequential",),
    }[scale]
    strategies = {
        "smoke": (("income", "harvest-proportional"),),
        "quick": (
            ("reactive", "proportional"),
            ("income", "harvest-proportional"),
        ),
        "full": (
            ("reactive", "proportional"),
            ("income", "harvest-proportional"),
        ),
    }[scale]
    caps = {"smoke": 20, "quick": None, "full": None}
    points = []
    for width in widths:
        # A strongly heterogeneous platform: a quarter of the nodes
        # carry powerful generators at the high-flex sites.  Calibrated
        # (with the mapper's default income bias) so the income-aware
        # placement completes at least as many jobs as the reactive
        # proportional mapping on every pair of the quick grid.
        harvest = HarvestConfig(
            profile="motion",
            amplitude_pj=300.0,
            hardware=HarvestHardware(
                equipped_fraction=0.25, placement="flex"
            ),
            seed=derive_seed(
                base.workload.seed, f"harvest-mapping/{width}x{width}"
            ),
        )
        for kind in kinds:
            for strategy, mapping_strategy in strategies:
                suffix = "/conc" if kind == "concurrent" else ""
                label = f"{width}x{width}/{strategy}{suffix}"
                workload = replace(
                    base.workload,
                    kind=kind,
                    concurrency=4 if kind == "concurrent" else 1,
                    max_jobs=caps[scale],
                )
                config = replace(
                    base,
                    platform=replace(
                        base.platform,
                        mesh_width=width,
                        mapping_strategy=mapping_strategy,
                    ),
                    workload=workload,
                    routing="ear",
                    harvest=harvest,
                )
                points.append(
                    SweepPoint(
                        label=label,
                        config=config,
                        params={
                            "mesh": f"{width}x{width}",
                            "strategy": strategy,
                            "mapping": mapping_strategy,
                            "workload": kind,
                            "harvest_profile": "motion",
                        },
                    )
                )
    return points


def _frame_cycles_for(base: SimulationConfig, width: int) -> int:
    """A frame length that fits the TDMA control section of a
    ``width`` x ``width`` mesh (the section grows with the node count),
    never shrinking the configured one."""
    needed = base.control.frame_cycles
    while needed < 8 * width * width * 2:
        needed *= 2
    return needed


def _mesh_point(
    base: SimulationConfig,
    width: int,
    *,
    engine: str,
    max_jobs: int | None,
    routing: str = "ear",
    harvest: HarvestConfig | None = None,
    battery: str | None = None,
) -> SimulationConfig:
    """One large-fabric configuration on the named engine."""
    platform = replace(base.platform, mesh_width=width)
    if battery is not None:
        platform = replace(platform, battery_model=battery)
    return replace(
        base,
        platform=platform,
        control=replace(
            base.control, frame_cycles=_frame_cycles_for(base, width)
        ),
        workload=replace(base.workload, max_jobs=max_jobs),
        routing=routing,
        harvest=harvest if harvest is not None else base.harvest,
        engine=engine,
    )


@scenario("vector-mesh", "large fabrics on the vectorised engine")
def _vector_mesh(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    """Body-scale fabrics, practical only on the vector engine: smoke
    pins small golden points (one plain, one harvesting), quick runs a
    16x16, and full runs the 32x32 family the ROADMAP asks for.

    Fabrics of 24x24 and beyond run on the ideal battery model: with
    every job funnelling through the source's neighbours, a thin-film
    cell there sustains ~1 pJ/cycle of relay power and IR sag kills it
    within a frame or two at *any* capacity — honest physics, but it
    reduces the point to a two-frame run.  The ideal model keeps the
    scaling family about scale.
    """
    grids = {
        "smoke": ((6, 8),),
        "quick": ((16, 60),),
        "full": ((16, 120), (24, 120), (32, 120)),
    }[scale]
    points = []
    for width, cap in grids:
        for routing in ("ear", "sdr") if scale == "full" else ("ear",):
            label = f"{width}x{width}/{routing}/vec"
            config = _mesh_point(
                base, width, engine="vector", max_jobs=cap, routing=routing,
                battery="ideal" if width >= 24 else None,
            )
            points.append(
                SweepPoint(
                    label=label,
                    config=config,
                    params={
                        "mesh": f"{width}x{width}",
                        "routing": routing,
                        "engine": "vector",
                    },
                )
            )
    if scale == "smoke":
        # The harvesting golden point exercises the vector recharge and
        # income-event paths.
        width, cap = grids[0]
        harvest = HarvestConfig(
            profile="motion",
            seed=derive_seed(base.workload.seed, "vector-mesh/harvest"),
        )
        config = _mesh_point(
            base, width, engine="vector", max_jobs=cap, harvest=harvest
        )
        points.append(
            SweepPoint(
                label=f"{width}x{width}/ear/harvest/vec",
                config=config,
                params={
                    "mesh": f"{width}x{width}",
                    "routing": "ear",
                    "engine": "vector",
                    "harvest_profile": "motion",
                },
            )
        )
    return points


@scenario("engine-speed", "sequential vs vector engine on one 16x16 point")
def _engine_speed(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    """The perf-trajectory pair: the same 16x16 configuration on the
    sequential and the vector engine.

    The point is deliberately frame-dominated: slow low-power modules
    (one TDMA frame per operation) stretch each job across ~30 frames,
    and the capacity is scaled up so the run finishes without
    battery-level churn.  That is the regime the vector engine exists
    for — per-frame heartbeat/battery bookkeeping dwarfs both the
    shared routing (shortest-path) cost and the per-job walk, on the
    sequential engine it scales with the node count, and on the vector
    engine it is a handful of array operations.  The committed
    ``BENCH_smoke.json`` baseline records both timings; the
    bench-regression CI step guards the ratio.
    """
    caps = {"smoke": 80, "quick": 80, "full": 160}
    width = 16
    points = []
    for engine in ("sequential", "vector"):
        config = _mesh_point(
            base, width, engine=engine, max_jobs=caps[scale]
        )
        slow_modules = {
            module: _frame_cycles_for(base, width)
            for module in config.platform.compute_cycles
        }
        config = replace(
            config,
            platform=replace(
                config.platform,
                battery_capacity_pj=32_000_000.0,
                compute_cycles=slow_modules,
            ),
        )
        points.append(
            SweepPoint(
                label=f"{width}x{width}/{engine}",
                config=config,
                params={"mesh": f"{width}x{width}", "engine": engine},
            )
        )
    return points


def _congestion_opts(mode: str, label: str, base_seed: int) -> RoutingOptions:
    """The two arms of the congestion comparison.

    ``base`` is *measure-only*: congestion tracking is on with a
    neutral penalty (q = 1.0), so the summary carries the hot-link
    metrics while routing behaves exactly like plain EAR.  ``relief``
    keeps the default penalty and turns on ECMP spreading, with a
    label-derived rotation seed so every point is deterministic but
    decorrelated.
    """
    if mode == "base":
        return RoutingOptions(congestion_aware=True, congestion_q=1.0)
    return RoutingOptions(
        congestion_aware=True,
        ecmp=True,
        ecmp_seed=derive_seed(base_seed, f"congestion-relief/{label}"),
    )


@scenario(
    "congestion-relief",
    "hot-link spreading: measure-only EAR vs congestion-aware ECMP",
)
def _congestion_relief(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    """The congestion axis, measured: the same workload routed with
    load tracking only (``base``, bit-identical to plain EAR) and with
    the congestion penalty plus ECMP round-robin (``relief``).  With
    every job funnelling through the source corner, the canonical
    successor tree concentrates relays on a handful of lines; the
    relief arm spreads them across the equal-cost fan.  The quick grid
    pairs both arms on the sequential *and* vector engines — the
    integration suite asserts the hot-link share drops and the
    lifetime never shortens.
    """
    widths = {"smoke": (4,), "quick": (5,), "full": (16,)}[scale]
    kinds = {
        "smoke": ("sequential",),
        "quick": ("sequential", "vector"),
        "full": ("vector",),
    }[scale]
    caps = {"smoke": 8, "quick": 30, "full": 120}
    points = []
    for width in widths:
        for engine in kinds:
            for mode in ("base", "relief"):
                suffix = "/vec" if engine == "vector" else ""
                label = f"{width}x{width}/{mode}{suffix}"
                config = _mesh_point(
                    base, width, engine=engine, max_jobs=caps[scale]
                )
                config = replace(
                    config,
                    routing_opts=_congestion_opts(
                        mode, label, base.workload.seed
                    ),
                )
                points.append(
                    SweepPoint(
                        label=label,
                        config=config,
                        params={
                            "mesh": f"{width}x{width}",
                            "engine": engine,
                            "mode": mode,
                        },
                    )
                )
    return points


#: Fleet seed of the registered fleet scenario family (every scale
#: draws from the same fleet, so quick/full extend the smoke garments).
FLEET_SCENARIO_SEED = 2005


@scenario("fleet", "population fleet sampled from wearer/lot distributions")
def _fleet(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    """The population-scale axis: garments drawn from a wearer/lot
    distribution (fabric size, activity, wash frequency, hardware lot,
    engine mix).  The smoke grid is four garments of the ``smoke``
    preset — enough to pin the sampling chain with a golden trace and
    keep CI fast; ``python -m repro fleet --smoke`` streams the same
    preset at >= 1000 garments with O(1)-memory aggregation.
    """
    # Deferred import: repro.fleet imports this module for derive_seed.
    from ..fleet.distribution import FLEET_PRESETS

    sizes = {"smoke": 4, "quick": 24, "full": 96}
    presets = {"smoke": "smoke", "quick": "default", "full": "default"}
    distribution = FLEET_PRESETS[presets[scale]]
    return distribution.points(
        FLEET_SCENARIO_SEED, range(sizes[scale]), base
    )


@scenario("battery-ablation", "EAR vs SDR across battery capacities")
def _battery_ablation(scale: str, base: SimulationConfig) -> list[SweepPoint]:
    factors = {
        "smoke": (0.5, 1.0),
        "quick": (0.5, 1.0, 2.0),
        "full": (0.25, 0.5, 1.0, 2.0, 4.0),
    }[scale]
    width = 4 if scale == "smoke" else 5
    if scale == "smoke":
        base = _cap_jobs(base, 8)
    points = []
    for factor in factors:
        capacity = base.platform.battery_capacity_pj * factor
        for routing in ("ear", "sdr"):
            config = replace(
                base,
                platform=replace(
                    base.platform,
                    mesh_width=width,
                    battery_capacity_pj=capacity,
                ),
                routing=routing,
            )
            points.append(
                SweepPoint(
                    label=f"B{factor:g}/{routing}",
                    config=config,
                    params={
                        "capacity_factor": factor,
                        "capacity_pj": capacity,
                        "routing": routing,
                    },
                )
            )
    return points
