"""The benchmark's workloads: inputs made from a seed, run, and checked.

Each workload runs in *rounds*.  A round is one call into the program's
sweep layer — the sequential sweep runner for ``paper`` and
``body-scale``, the streaming fleet runner for ``fleet`` — over a fixed
set of points.  Rounds differ only in the AES data the jobs encrypt,
derived from ``(seed, round)``: that changes every configuration (so
the content-addressed sweep cache misses and stores on every point) but
no energy, so every round repeats the same simulated work, which the
checks confirm.

* ``paper`` — the source paper's experiments on its own platform
  (sequential engine, run to system death): Fig 7 EAR vs SDR at 4x4,
  6x6 and 8x8 on thin-film cells, Table 2 EAR on ideal cells at 4x4
  and 6x6, and Fig 8's single battery-powered controller at 4x4.
* ``body-scale`` — one 24x24 garment-sized fabric on the vector engine,
  EAR, ideal cells, capped at 12 jobs: the re-planning cost of a
  body-scale mesh.
* ``fleet`` — 32 small garments of a wearer/lot population (harvesters
  on a power bus, wash wear, battery lots, both engines) streamed
  through the fleet runner into its aggregator.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace

from repro.analysis.theory import bound_for
from repro.config import (
    ControlConfig,
    PlatformConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.fleet.distribution import FleetDistribution
from repro.fleet.runner import aggregator_for, run_fleet
from repro.orchestration.runner import SweepPoint, make_runner

#: Death causes a finished run may report.
DEATH_CAUSES = frozenset(
    {
        "module-unreachable",
        "source-cut",
        "controller-dead",
        "frame-budget",
        "job-budget",
        "stalled",
    }
)

#: Simulated statistics every round must repeat exactly, point by point.
REPEATED_FIELDS = (
    "jobs_fractional",
    "lifetime_frames",
    "death_cause",
    "total_hops",
    "recomputes",
)


def sub_seed(seed: int, *parts) -> int:
    """A 32-bit seed derived from the run seed and a path of labels."""
    text = ":".join(str(part) for part in (seed, *parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def aes_key(seed: int, index) -> str:
    """The AES-128 key (hex) of round ``index``."""
    text = f"{seed}:aes-key:{index}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def round_workload(seed: int, index, **fields) -> WorkloadConfig:
    """Job generation of round ``index``: its own key and plaintexts."""
    return WorkloadConfig(
        aes_key_hex=aes_key(seed, index),
        seed=sub_seed(seed, "plaintexts", index),
        **fields,
    )


def point_problems(config: SimulationConfig, record) -> list[str]:
    """What is wrong with one finished point (empty when it is correct)."""
    if record.cached or record.stats is None:
        return ["served from the cache although its inputs are new"]
    stats = record.stats
    summary = record.summary
    problems = []
    if summary["verification_failures"]:
        problems.append("AES verification failed")
    if summary["death_cause"] not in DEATH_CAUSES:
        problems.append(f"unclassified death {summary['death_cause']!r}")
    ledger = stats.energy
    platform = config.platform
    nominal = platform.battery_capacity_pj * platform.num_mesh_nodes
    loads = ledger.node_total_pj - ledger.share_tx_pj
    residual = stats.wasted_at_death_pj + stats.stranded_alive_pj
    if not math.isclose(
        nominal + stats.harvested_pj,
        loads + stats.conversion_loss_pj + residual,
        rel_tol=1e-9,
        abs_tol=1e-6,
    ):
        problems.append("energy is not conserved")
    if not config.harvest.is_active:
        bound = bound_for(config).jobs
        if stats.jobs_fractional > bound + 1e-6:
            problems.append(
                f"{stats.jobs_fractional} jobs beat Theorem 1's {bound:.2f}"
            )
    return problems


class Workload:
    """One benchmark workload: its points, how a round runs, its checks."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def points(self, index: int) -> list[SweepPoint]:
        """The points of round ``index`` (labels repeat every round)."""
        raise NotImplementedError

    def warm_up_points(self) -> list[SweepPoint]:
        """Tiny points on every engine the workload uses."""
        raise NotImplementedError

    def warm_up(self, cache) -> None:
        make_runner(1, cache=cache).run(self.warm_up_points())

    def run_round(self, index: int, cache, on_record) -> None:
        """Run round ``index`` through the sweep runner."""
        make_runner(1, cache=cache).run(self.points(index), hook=on_record)

    def round_problems(self, index: int, records) -> dict[str, str]:
        """Checks across one round's points, by label."""
        return {}

    def check(self, records) -> dict[int, str]:
        """Every problem found, keyed by the record's position."""
        problems: dict[int, str] = {}
        size = len(self.points(0))
        first_seen: dict[str, dict] = {}
        for start in range(0, len(records), size):
            index = start // size
            configs = {point.label: point.config for point in self.points(index)}
            batch = records[start : start + size]
            found = self.round_problems(index, batch)
            for position, record in enumerate(batch, start):
                notes = point_problems(configs[record.label], record)
                if record.label in found:
                    notes.append(found[record.label])
                repeated = {name: record.summary[name] for name in REPEATED_FIELDS}
                reference = first_seen.setdefault(record.label, repeated)
                if repeated != reference:
                    notes.append(f"round {index} repeated {repeated}, not {reference}")
                if notes:
                    problems[position] = f"{record.label}: {'; '.join(notes)}"
        return problems


class PaperWorkload(Workload):
    """The paper's Fig 7, Table 2 and Fig 8 runs on its own platform."""

    name = "paper"
    FIG7_WIDTHS = (4, 6, 8)
    TABLE2_WIDTHS = (4, 6)

    def points(self, index: int) -> list[SweepPoint]:
        thin = SimulationConfig(workload=round_workload(self.seed, index))
        ideal = replace(
            thin, platform=replace(thin.platform, battery_model="ideal")
        )
        points = []
        for width in self.FIG7_WIDTHS:
            for routing in ("ear", "sdr"):
                config = replace(
                    thin,
                    platform=replace(thin.platform, mesh_width=width),
                    routing=routing,
                )
                points.append(SweepPoint(f"fig7/{width}/{routing}", config))
        for width in self.TABLE2_WIDTHS:
            config = replace(
                ideal, platform=replace(ideal.platform, mesh_width=width)
            )
            points.append(SweepPoint(f"table2/{width}", config))
        control = ControlConfig(num_controllers=1, controller_battery="thin-film")
        points.append(SweepPoint("fig8/4/1ctl", replace(thin, control=control)))
        return points

    def warm_up_points(self) -> list[SweepPoint]:
        workload = round_workload(self.seed, "warm-up", max_jobs=2)
        return [SweepPoint("warm-up", SimulationConfig(workload=workload))]

    def round_problems(self, index: int, records) -> dict[str, str]:
        jobs = {r.label: r.summary["jobs_fractional"] for r in records}
        configs = {point.label: point.config for point in self.points(index)}
        problems = {}
        for width in self.FIG7_WIDTHS:
            ear, sdr = jobs.get(f"fig7/{width}/ear"), jobs.get(f"fig7/{width}/sdr")
            # Paper Fig 7: EAR outlives SDR several times over.
            if ear is not None and sdr is not None and not ear > 4.0 * sdr:
                problems[f"fig7/{width}/ear"] = f"EAR {ear} vs SDR {sdr} jobs"
        for width in self.TABLE2_WIDTHS:
            label = f"table2/{width}"
            if label in jobs:
                # Paper Table 2: EAR reaches about half of Theorem 1.
                share = jobs[label] / bound_for(configs[label]).jobs
                if not 0.40 < share < 0.70:
                    problems[label] = f"{share:.3f} of Theorem 1's bound"
        limited, unlimited = jobs.get("fig8/4/1ctl"), jobs.get("fig7/4/ear")
        # Paper Fig 8: one battery-powered controller limits the lifetime.
        if limited is not None and unlimited is not None:
            if not limited < 0.9 * unlimited:
                problems["fig8/4/1ctl"] = "the controller did not limit lifetime"
        return problems


class BodyScaleWorkload(Workload):
    """A 24x24 garment-sized fabric on the vector engine."""

    name = "body-scale"
    WIDTH = 24
    JOBS = 12

    def _config(self, workload: WorkloadConfig, width: int) -> SimulationConfig:
        # The TDMA control section grows with the node count: double the
        # default frame until every node's status slot fits.
        frame_cycles = ControlConfig().frame_cycles
        while frame_cycles < 16 * width * width:
            frame_cycles *= 2
        return SimulationConfig(
            platform=PlatformConfig(mesh_width=width, battery_model="ideal"),
            control=ControlConfig(frame_cycles=frame_cycles),
            workload=workload,
            routing="ear",
            engine="vector",
        )

    def points(self, index: int) -> list[SweepPoint]:
        workload = round_workload(self.seed, index, max_jobs=self.JOBS)
        config = self._config(workload, self.WIDTH)
        return [SweepPoint(f"body/{self.WIDTH}/ear", config)]

    def warm_up_points(self) -> list[SweepPoint]:
        workload = round_workload(self.seed, "warm-up", max_jobs=2)
        return [SweepPoint("warm-up", self._config(workload, 4))]

    def round_problems(self, index: int, records) -> dict[str, str]:
        problems = {}
        for record in records:
            summary = record.summary
            if (
                summary["death_cause"] != "job-budget"
                or summary["jobs_completed"] != self.JOBS
                or summary["jobs_lost"]
            ):
                problems[record.label] = f"did not finish its {self.JOBS} jobs"
        return problems


#: The fleet workload's wearer/lot distribution: small 4x4 garments on
#: small battery lots that run to death in tens of frames; half carry
#: motion harvesters that also share charge over the textile power bus,
#: 40 % see wash wear, both engines are sampled.
FLEET_DISTRIBUTION = dict(
    name="smoke",
    widths=(4,),
    width_weights=(1.0,),
    engines=("auto", "vector"),
    harvest_fraction=0.5,
    harvest_profile="bus",
    amplitude_low=20.0,
    amplitude_high=80.0,
    gain_spread_low=0.0,
    gain_spread_high=0.25,
    equipped_fraction=0.5,
    wash_fraction=0.4,
    wash_intensity_low=0.5,
    wash_intensity_high=2.0,
    capacity_low=5_000.0,
    capacity_high=10_000.0,
    max_jobs=None,
    max_frames=2_000,
)
#: The fleet the garments are drawn from.  Fixed, so every run and seed
#: simulates the same population and only the AES data differs.
FLEET_SEED = 2005


class FleetWorkload(Workload):
    """A garment population streamed through the fleet runner."""

    name = "fleet"
    GARMENTS = 32

    def __init__(self, seed: int):
        super().__init__(seed)
        self.distribution = FleetDistribution(**FLEET_DISTRIBUTION)
        self.aggregator = aggregator_for(self.distribution)

    def _base(self, index) -> SimulationConfig:
        # The sampler draws each garment's plaintext seed itself; the
        # key comes from the base configuration it grafts onto.
        return SimulationConfig(
            workload=WorkloadConfig(aes_key_hex=aes_key(self.seed, index))
        )

    def points(self, index: int) -> list[SweepPoint]:
        return self.distribution.points(
            FLEET_SEED, range(self.GARMENTS), self._base(index)
        )

    def run_round(self, index: int, cache, on_record) -> None:
        run_fleet(
            self.distribution,
            self.GARMENTS,
            FLEET_SEED,
            base=self._base(index),
            cache=cache,
            chunk_size=self.GARMENTS,
            aggregator=self.aggregator,
            progress=lambda record, done, size: on_record(record),
        )

    def warm_up_points(self) -> list[SweepPoint]:
        workload = round_workload(self.seed, "warm-up", max_jobs=2)
        return [
            SweepPoint(
                f"warm-up/{engine}",
                SimulationConfig(workload=workload, engine=engine),
            )
            for engine in self.distribution.engines
        ]

    def check(self, records) -> dict[int, str]:
        problems = super().check(records)
        # The aggregate is order-independent and mergeable: folding the
        # garments round by round, newest round first, into separate
        # aggregators and merging those must reproduce the stream.
        merged = aggregator_for(self.distribution)
        for start in reversed(range(0, len(records), self.GARMENTS)):
            part = aggregator_for(self.distribution)
            for record in reversed(records[start : start + self.GARMENTS]):
                part.observe(record.summary)
            merged.merge(part)
        streamed = json.dumps(self.aggregator.aggregate(), sort_keys=True)
        if (
            self.aggregator.count != len(records)
            or json.dumps(merged.aggregate(), sort_keys=True) != streamed
        ):
            for position in range(len(records)):
                problems.setdefault(position, "aggregate differs from its merge")
        return problems


WORKLOADS = {
    workload.name: workload
    for workload in (PaperWorkload, BodyScaleWorkload, FleetWorkload)
}
