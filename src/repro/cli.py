"""Command-line interface: ``etsim`` / ``python -m repro``.

Subcommands:

* ``bound``         — evaluate Theorem 1 for a mesh size.
* ``simulate``      — run one et_sim simulation and print the summary.
* ``sweep``         — the Fig 7 EAR-vs-SDR sweep (parallel, cacheable).
* ``bench``         — run registered sweep scenarios through the
  orchestration layer (``--smoke`` is the CI entry point).
* ``fleet``         — stream a population-scale fleet of sampled
  garments through the runner with O(1)-memory aggregation.
* ``battery-curve`` — print the thin-film discharge curve (Fig 2).
* ``mapping``       — print the module mapping of a mesh (Fig 3b).
* ``trace``         — render a ``--trace`` JSONL capture as an ASCII
  timeline plus re-plan/fault/term-attribution report.
* ``regen-golden``  — re-run the golden smoke points and rewrite the
  fixtures under ``tests/golden`` (after intentional behaviour
  changes).

``simulate``/``sweep``/``bench``/``fleet`` accept ``--trace PATH`` to
capture a structured telemetry trace of every executed run, and every
command accepts ``--verbose``/``--quiet`` to tune the stderr log level
(tables and JSON stay on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .analysis.tables import format_table
from .analysis.theory import bound_for
from .battery.thin_film import ThinFilmParameters
from .config import (
    ENGINE_NAMES,
    MAPPING_STRATEGIES,
    PlatformConfig,
    RoutingOptions,
    SimulationConfig,
    WorkloadConfig,
)
from .core.costs import CONGESTION_CHANNEL
from .faults import FAULT_PROFILES, FaultConfig
from .harvest import (
    HARDWARE_PLACEMENTS,
    HARVEST_PROFILES,
    HarvestConfig,
    HarvestHardware,
    build_harvest_schedule,
)
from .mesh.geometry import node_id
from .orchestration import (
    GOLDEN_QUICK_POINTS,
    GOLDEN_SMOKE_POINTS,
    SweepCache,
    build_scenario,
    make_runner,
    scenarios,
)
from .sim.et_sim import run_simulation
from .sim.vector_bank import ThinFilmBatteryBank
from .telemetry import (
    Heartbeat,
    TraceRecorder,
    TraceWriter,
    dump_trace,
    get_logger,
    load_trace,
    setup_logging,
)
from .version import PAPER_CITATION, __version__


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_logging_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug-level diagnostics on stderr",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress progress lines (warnings only)",
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a structured JSONL telemetry trace of every "
        "executed run to PATH (render it with `repro trace PATH`)",
    )


def _add_mesh_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mesh", type=int, default=4, metavar="W",
        help="mesh width (square WxW mesh, default 4)",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault-profile", choices=FAULT_PROFILES, default="none",
        help="fault-injection profile (default none)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, metavar="S",
        help="seed of the fault schedule generator",
    )
    parser.add_argument(
        "--fault-intensity", type=float, default=1.0, metavar="X",
        help="fault event cadence multiplier (default 1.0)",
    )
    parser.add_argument(
        "--fault-repair-frames", type=int, default=0, metavar="F",
        help="re-sew every cut line F frames after its cut (0 = never)",
    )
    parser.add_argument(
        "--repair-crew", type=int, default=0, metavar="N",
        help="repair-crew size: N menders fix cut lines oldest-first, "
        "each repair taking --repair-latency frames (0 = no crew; "
        "mutually exclusive with --fault-repair-frames)",
    )
    parser.add_argument(
        "--repair-latency", type=int, default=8, metavar="F",
        help="frames one crew member needs to re-sew one line (default 8)",
    )
    parser.add_argument(
        "--fault-corrode-frames", type=int, default=0, metavar="F",
        help="moisture only: cumulative degraded frames after which a "
        "wet link corrodes through into a permanent cut (0 = never)",
    )
    parser.add_argument(
        "--wear-weight", action="store_true",
        help="enable the wear-prediction routing weight (EAR routes "
        "around high-wear lines before they sever)",
    )


def _fault_config(args: argparse.Namespace) -> FaultConfig:
    if args.fault_profile == "none":
        # Seed/intensity are inert without a profile; normalise so the
        # config (and therefore its cache hash) matches a flag-free run.
        return FaultConfig()
    return FaultConfig(
        profile=args.fault_profile,
        seed=args.fault_seed,
        intensity=args.fault_intensity,
        repair_after_frames=args.fault_repair_frames,
        repair_crew_size=args.repair_crew,
        repair_latency_frames=args.repair_latency,
        corrode_after_frames=args.fault_corrode_frames,
    )


def _add_income_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags describing the income picture (profile + hardware) alone.

    The ``mapping`` subcommand takes only these: the runtime knobs
    (routing weight, bus reach) cannot change a printed mapping.
    """
    parser.add_argument(
        "--harvest-profile", choices=HARVEST_PROFILES, default="none",
        help="energy-harvesting profile (default none)",
    )
    parser.add_argument(
        "--harvest-seed", type=int, default=0, metavar="S",
        help="seed of the harvest activity-trace generator",
    )
    parser.add_argument(
        "--harvest-amplitude", type=float, default=40.0, metavar="PJ",
        help="peak per-node income per frame in pJ (default 40)",
    )
    parser.add_argument(
        "--harvest-hardware", type=float, default=1.0, metavar="FRAC",
        help="fraction of mesh nodes that carry a generator (default "
        "1.0 = the homogeneous platform; smaller values mount "
        "harvesters selectively per --harvest-placement)",
    )
    parser.add_argument(
        "--harvest-placement", choices=HARDWARE_PLACEMENTS,
        default="flex",
        help="where the equipped nodes sit when --harvest-hardware < 1 "
        "(default flex = highest-flex sites first)",
    )


def _add_harvest_arguments(parser: argparse.ArgumentParser) -> None:
    _add_income_arguments(parser)
    parser.add_argument(
        "--harvest-weight", action="store_true",
        help="enable the harvest-bonus routing weight (the controller "
        "learns per-node income rates and EAR steers traffic toward "
        "energy-rich regions while their cells are still full)",
    )
    parser.add_argument(
        "--share-max-hops", type=int, default=1, metavar="H",
        help="textile-bus reach: line segments one power transfer may "
        "traverse, compounding the per-hop conversion loss (default 1)",
    )


def _harvest_config(args: argparse.Namespace) -> HarvestConfig:
    if args.harvest_profile == "none":
        # Normalise inert knobs so the cache hash matches a flag-free run.
        return HarvestConfig()
    # All-equipped hardware is inert whatever its seed/placement:
    # normalise to the default spec so the cache hash cannot fork on
    # flags that change nothing.
    hardware = (
        HarvestHardware()
        if args.harvest_hardware == 1.0
        else HarvestHardware(
            equipped_fraction=args.harvest_hardware,
            placement=args.harvest_placement,
            seed=args.harvest_seed,
        )
    )
    return HarvestConfig(
        profile=args.harvest_profile,
        seed=args.harvest_seed,
        amplitude_pj=args.harvest_amplitude,
        # Only the bus profile shares power: normalise the hop limit
        # elsewhere so an inert flag cannot fork the cache hash.  The
        # mapping subcommand has no bus flags at all, hence the getattr.
        share_max_hops=(
            getattr(args, "share_max_hops", 1)
            if args.harvest_profile == "bus"
            else 1
        ),
        hardware=hardware,
    )


def _add_routing_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--congestion-weight", action="store_true",
        help="enable the congestion routing weight (the engine tracks "
        "per-link utilisation and EAR spreads traffic off hot links)",
    )
    parser.add_argument(
        "--congestion-q", type=float, default=CONGESTION_CHANNEL.q,
        metavar="Q",
        help="penalty base of the congestion weight (>= 1; 1 = "
        f"measure-only, default {CONGESTION_CHANNEL.q})",
    )
    parser.add_argument(
        "--ecmp", action="store_true",
        help="round-robin over equal-cost successor groups instead of "
        "always forwarding on the canonical shortest-path successor",
    )
    parser.add_argument(
        "--ecmp-seed", type=int, default=0, metavar="S",
        help="seed of the deterministic ECMP rotation offsets",
    )


def _routing_options(args: argparse.Namespace) -> RoutingOptions:
    if not args.congestion_weight and not args.ecmp:
        # Normalise inert knobs (q, seed) so the config — and therefore
        # its cache hash — matches a flag-free run.
        return RoutingOptions()
    return RoutingOptions(
        congestion_aware=args.congestion_weight,
        # Q is inert without --congestion-weight, the seed without
        # --ecmp: normalise both away so they cannot fork the hash.
        congestion_q=(
            args.congestion_q
            if args.congestion_weight
            else CONGESTION_CHANNEL.q
        ),
        ecmp=args.ecmp,
        ecmp_seed=args.ecmp_seed if args.ecmp else 0,
    )


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=ENGINE_NAMES, default="auto",
        help="simulation engine (default auto = the workload kind's "
        "historical engine; vector = the sequential workload with one "
        "merged battery draw per cell and frame)",
    )


def _add_mapping_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mapping", choices=MAPPING_STRATEGIES, default="checkerboard",
        help="module-to-node mapping strategy (harvest-proportional "
        "places duplicates by expected per-node harvest income)",
    )


def _cmd_bound(args: argparse.Namespace) -> int:
    config = SimulationConfig(platform=PlatformConfig(mesh_width=args.mesh))
    bound = bound_for(config)
    rows = [
        (m, bound.normalized_energies[m], bound.optimal_duplicates[m])
        for m in sorted(bound.normalized_energies)
    ]
    print(
        format_table(
            ["module", "H_i (pJ)", "n_i* (Theorem 1)"],
            rows,
            title=f"Theorem 1 for a {args.mesh}x{args.mesh} mesh",
        )
    )
    print(f"\nupper bound J* = {bound.jobs:.2f} jobs")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = SimulationConfig(
        platform=PlatformConfig(
            mesh_width=args.mesh,
            battery_model=args.battery,
            mapping_strategy=args.mapping,
        ),
        workload=WorkloadConfig(seed=args.seed),
        faults=_fault_config(args),
        harvest=_harvest_config(args),
        routing=args.routing,
        wear_aware=args.wear_weight,
        harvest_aware=args.harvest_weight,
        routing_opts=_routing_options(args),
        engine=args.engine,
    )
    recorder = TraceRecorder() if args.trace else None
    stats = run_simulation(config, recorder)
    if args.json:
        print(json.dumps(stats.summary(), indent=2))
    else:
        rows = list(stats.summary().items())
        print(
            format_table(
                ["metric", "value"],
                rows,
                title=(
                    f"et_sim: {args.routing.upper()} on "
                    f"{args.mesh}x{args.mesh}, {args.battery} battery"
                ),
            )
        )
    if recorder is not None:
        count = dump_trace(
            args.trace,
            recorder.lines(
                meta={
                    "command": "simulate",
                    "label": (
                        f"{args.routing}/{args.mesh}x{args.mesh}"
                    ),
                    "engine": config.resolved_engine(),
                    "routing": args.routing,
                }
            ),
        )
        get_logger().info("trace: %d line(s) -> %s", count, args.trace)
    return 0


def _make_cache(args: argparse.Namespace) -> SweepCache | None:
    """The sweep cache selected by --cache/--cache-dir."""
    if getattr(args, "cache_dir", None) is not None:
        return SweepCache(args.cache_dir)
    if getattr(args, "cache", False):
        return SweepCache()
    return None


def _make_runner(args: argparse.Namespace):
    """Build the sweep executor selected by --workers/--cache-dir."""
    return make_runner(
        getattr(args, "workers", 1),
        cache=_make_cache(args),
        trace=getattr(args, "trace", None) is not None,
    )


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes (1 = sequential, 0 = all cores)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache finished points under DIR (reruns become no-ops)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="cache under the default directory "
        "($ETSIM_CACHE_DIR or .etsim_cache)",
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.sweep import sweep_mesh_sizes

    base = SimulationConfig(
        platform=PlatformConfig(mapping_strategy=args.mapping),
        faults=_fault_config(args),
        harvest=_harvest_config(args),
        wear_aware=args.wear_weight,
        harvest_aware=args.harvest_weight,
        routing_opts=_routing_options(args),
        engine=args.engine,
    )
    widths = tuple(range(args.min_mesh, args.max_mesh + 1))
    writer = TraceWriter(args.trace) if args.trace else None
    hook = None
    if writer is not None:
        def hook(record):
            stats = record.stats
            writer.add(
                stats.extra.get("trace") if stats is not None else None,
                point=record.label,
            )
    try:
        results = sweep_mesh_sizes(
            base, widths=widths, runner=_make_runner(args), hook=hook
        )
    finally:
        if writer is not None:
            writer.close()
            get_logger().info(
                "trace: %d point(s), %d line(s) -> %s",
                writer.points_written, writer.lines_written, args.trace,
            )
    by_mesh: dict[str, dict[str, float]] = {}
    for result in results:
        mesh = result.params["mesh"]
        by_mesh.setdefault(mesh, {})[result.params["routing"]] = (
            result.jobs_fractional
        )
    rows = [
        (
            mesh,
            values.get("ear", 0.0),
            values.get("sdr", 0.0),
            values.get("ear", 0.0) / max(values.get("sdr", 0.0), 1e-9),
        )
        for mesh, values in by_mesh.items()
    ]
    print(
        format_table(
            ["mesh", "EAR jobs", "SDR jobs", "gain"],
            rows,
            title="EAR vs SDR (paper Fig 7)",
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.list:
        rows = [
            (entry.name, entry.description)
            for entry in scenarios().values()
        ]
        print(format_table(["scenario", "description"], rows,
                           title="registered sweep scenarios"))
        return 0
    names = args.scenario or list(scenarios())
    scale = "smoke" if args.smoke else args.scale
    # The fault/harvest flags shape the *base* configuration handed to
    # every scenario; fault and harvest scenarios (fig7-faulty,
    # harvest-motion, ...) override the profile with their own
    # schedules, and the mapping scenario overrides the strategy.
    # Scenarios that exist to compare engines (engine-speed,
    # vector-mesh) pin their own engine per point and win over this
    # base value.
    base = SimulationConfig(
        platform=PlatformConfig(mapping_strategy=args.mapping),
        faults=_fault_config(args),
        harvest=_harvest_config(args),
        wear_aware=args.wear_weight,
        harvest_aware=args.harvest_weight,
        routing_opts=_routing_options(args),
        engine=args.engine,
    )
    logger = get_logger()
    runner = _make_runner(args)
    cache = runner.cache
    writer = TraceWriter(args.trace) if args.trace else None
    emitted: dict[str, list[dict]] = {}
    start = time.perf_counter()
    for name in names:
        points = build_scenario(name, scale=scale, base=base)
        logger.debug("scenario %s: %d point(s)", name, len(points))
        records = runner.run(points)
        if writer is not None:
            for record in records:
                stats = record.stats
                writer.add(
                    stats.extra.get("trace")
                    if stats is not None
                    else None,
                    scenario=name,
                    point=record.label,
                )
        emitted[name] = [record.record(timing=True) for record in records]
        if not args.json:
            rows = [
                (
                    record.label,
                    record.summary["jobs_fractional"],
                    record.summary["lifetime_frames"],
                    record.summary["death_cause"],
                    "cached" if record.cached else "ran",
                )
                for record in records
            ]
            print(format_table(
                ["point", "jobs", "frames", "death", "source"],
                rows,
                title=f"scenario {name} ({scale})",
            ))
            print()
    elapsed = time.perf_counter() - start
    if writer is not None:
        writer.close()
        logger.info(
            "trace: %d point(s), %d line(s) -> %s",
            writer.points_written, writer.lines_written, args.trace,
        )
    if args.json:
        print(json.dumps(emitted, indent=2, sort_keys=True))
    else:
        line = f"{sum(len(v) for v in emitted.values())} points in {elapsed:.1f}s"
        if cache is not None:
            line += (
                f" — cache: {cache.hits} hit(s), {cache.misses} miss(es)"
                f" at {cache.directory}"
            )
        logger.info(line)
    if cache is not None:
        logger.debug(
            "cache IO: %.3fs lookup, %.3fs store",
            cache.time_lookup_s, cache.time_store_s,
        )
    return 0


def _fleet_preset_names() -> tuple[str, ...]:
    from .fleet.distribution import FLEET_PRESETS

    return tuple(FLEET_PRESETS)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .analysis.fleet import fleet_comparison, fleet_summary
    from .fleet import FLEET_PRESETS, fleet_bundle, run_fleet
    from .fleet.shards import (
        run_shard,
        shard_filename,
        shard_spec_for,
        write_shard_state,
    )

    preset = "smoke" if args.smoke else args.preset
    distribution = FLEET_PRESETS[preset]
    size = args.size
    if size is None:
        size = 1000 if args.smoke else 256
    logger = get_logger()

    # The flag matrix: exactly one of the three fleet modes at a time.
    single_shard = (
        args.shard_index is not None or args.shard_count is not None
    )
    if single_shard and (
        args.shard_index is None or args.shard_count is None
    ):
        raise SystemExit(
            "--shard-index and --shard-count must be given together"
        )
    if args.compare_routing and single_shard:
        raise SystemExit(
            "--compare-routing runs both variants in one process; "
            "combine it with --workers, not with sharding"
        )

    cache = _make_cache(args)

    # --- one shard of a multi-host run: emit a standalone state file
    if single_shard:
        spec = shard_spec_for(size, args.shard_count, args.shard_index)
        writer = TraceWriter(args.trace) if args.trace else None
        heartbeat = Heartbeat(
            total=spec.size,
            label=f"shard {spec.index}/{spec.count} garments",
            logger=logger,
        )

        def shard_progress(record, done, total):
            if writer is not None and record.stats is not None:
                writer.add(
                    record.stats.extra.get("trace"),
                    point=record.label,
                    shard=spec.index,
                    shard_count=spec.count,
                )
            heartbeat(record, done, total)

        try:
            document = run_shard(
                distribution,
                args.fleet_seed,
                size,
                spec,
                workers=args.workers,
                cache=cache,
                chunk_size=args.chunk,
                progress=shard_progress,
                trace=writer is not None,
            )
        finally:
            heartbeat.finish()
            if writer is not None:
                writer.close()
                logger.info(
                    "trace: %d garment(s), %d line(s) -> %s",
                    writer.points_written, writer.lines_written,
                    args.trace,
                )
        out = args.shard_out or shard_filename(spec)
        write_shard_state(out, document)
        logger.info(
            "shard %d/%d: %d garment(s) -> %s (combine the full set "
            "with `repro fleet-merge`)",
            spec.index, spec.count, spec.size, out,
        )
        if args.json:
            print(json.dumps(document, indent=2, sort_keys=True))
        return 0

    # --- EAR vs SDR over the same population
    if args.compare_routing:
        bundles: dict[str, dict] = {}
        for routing in ("ear", "sdr"):
            base = SimulationConfig(routing=routing)
            heartbeat = Heartbeat(
                total=size, label=f"{routing} garments", logger=logger
            )
            try:
                result = run_fleet(
                    distribution,
                    size,
                    args.fleet_seed,
                    base=base,
                    workers=args.workers,
                    cache=cache,
                    chunk_size=args.chunk,
                    progress=heartbeat,
                )
            finally:
                heartbeat.finish()
            bundles[routing] = fleet_bundle(
                distribution,
                size,
                args.fleet_seed,
                result,
                workers=args.workers,
                cache=cache,
            )
        if args.json:
            print(json.dumps(bundles, indent=2, sort_keys=True))
        else:
            print(fleet_comparison(bundles))
        return 0

    # --- the single-stream default
    writer = TraceWriter(args.trace) if args.trace else None
    heartbeat = Heartbeat(total=size, label="garments", logger=logger)

    def progress(record, done, total):
        if writer is not None and record.stats is not None:
            writer.add(record.stats.extra.get("trace"), point=record.label)
        heartbeat(record, done, total)

    try:
        result = run_fleet(
            distribution,
            size,
            args.fleet_seed,
            workers=args.workers,
            cache=cache,
            chunk_size=args.chunk,
            progress=progress,
            trace=writer is not None,
        )
    finally:
        # The rate limiter can swallow the last in-band progress line;
        # the terminal line is emitted unconditionally (idempotent).
        heartbeat.finish()
        if writer is not None:
            writer.close()
            logger.info(
                "trace: %d garment(s), %d line(s) -> %s",
                writer.points_written, writer.lines_written, args.trace,
            )
    bundle = fleet_bundle(
        distribution,
        size,
        args.fleet_seed,
        result,
        workers=args.workers,
        cache=cache,
    )
    if args.json:
        print(json.dumps(bundle, indent=2, sort_keys=True))
    else:
        print(fleet_summary(bundle))
        if cache is not None:
            logger.info(
                "cache: %d hit(s), %d miss(es) at %s",
                cache.hits, cache.misses, cache.directory,
            )
    return 0


def _cmd_fleet_merge(args: argparse.Namespace) -> int:
    from .analysis.fleet import fleet_summary
    from .fleet.shards import load_shard_state, merged_bundle

    documents = [load_shard_state(path) for path in args.files]
    bundle = merged_bundle(documents)
    if args.json:
        print(json.dumps(bundle, indent=2, sort_keys=True))
    else:
        print(fleet_summary(bundle))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .analysis.trace_summary import trace_summary

    lines = load_trace(args.path)
    print(
        trace_summary(
            lines, width=args.width, show_events=args.events
        )
    )
    return 0


def _cmd_battery_curve(args: argparse.Namespace) -> int:
    params = ThinFilmParameters()
    cell = ThinFilmBatteryBank(1, params)
    rows = []
    step_pj = params.capacity_pj / args.points
    while cell.alive[0]:
        rows.append(
            (
                round(float(cell.delivered[0]), 1),
                round(cell.ocv_one(0), 3),
                round(cell.voltage_one(0), 3),
            )
        )
        cell.draw_one(0, step_pj, args.step_cycles)
        cell.rest(args.step_cycles * 4, cell.alive)
    print(
        format_table(
            ["delivered (pJ)", "open-circuit (V)", "loaded (V)"],
            rows,
            title="Li-free thin-film discharge curve (paper Fig 2)",
        )
    )
    return 0


def _cmd_regen_golden(args: argparse.Namespace) -> int:
    """Re-run every golden point and rewrite its fixture.

    Run after an *intentional* behaviour change (new summary key,
    engine-semantics fix) — and regenerate the behaviour lock
    alongside (``python scripts/behaviour_fingerprint.py``) — instead
    of hand-editing the stored JSON documents.

    With ``--check`` nothing is written: each freshly-simulated payload
    is compared against the stored fixture and the command exits
    non-zero on any drift (or missing fixture).  CI runs this so a
    behaviour change that forgot to regenerate the fixtures fails the
    build as a named staleness error instead of a confusing test diff.
    """
    import pathlib

    directory = pathlib.Path(args.dir)
    if not args.check:
        directory.mkdir(parents=True, exist_ok=True)
    stale = 0
    cases = [(*case, "smoke") for case in GOLDEN_SMOKE_POINTS]
    cases += [(*case, "quick") for case in GOLDEN_QUICK_POINTS]
    for scenario_name, label, filename, scale in cases:
        matches = [
            point
            for point in build_scenario(scenario_name, scale=scale)
            if point.label == label
        ]
        if len(matches) != 1:
            raise SystemExit(
                f"golden point {label!r} missing from scenario "
                f"{scenario_name!r}"
            )
        payload = {
            "scenario": scenario_name,
            "scale": scale,
            "label": label,
            "summary": run_simulation(matches[0].config).summary(),
        }
        path = directory / filename
        if args.check:
            if not path.exists():
                print(f"MISSING {path}")
                stale += 1
                continue
            stored = json.loads(path.read_text(encoding="utf-8"))
            if stored != payload:
                print(f"STALE   {path}")
                stale += 1
            else:
                print(f"ok      {path}")
            continue
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path}")
    if args.check and stale:
        print(
            f"{stale} stale golden fixture(s); run "
            "`python -m repro regen-golden` and commit the result"
        )
        return 1
    return 0


def _cmd_mapping(args: argparse.Namespace) -> int:
    platform = PlatformConfig(
        mesh_width=args.mesh, mapping_strategy=args.strategy
    )
    topology = platform.make_topology()
    schedule = build_harvest_schedule(
        _harvest_config(args), topology, platform.num_mesh_nodes
    )
    mapping = platform.make_mapping(
        topology,
        normalized_energies={1: 2367.9, 2: 1710.3, 3: 3225.7},
        income_weights=schedule.expected_income_weights(),
    )
    print(
        f"{args.strategy} mapping of AES onto a "
        f"{args.mesh}x{args.mesh} mesh (paper Fig 3b):\n"
    )
    for y in range(args.mesh, 0, -1):
        row = []
        for x in range(1, args.mesh + 1):
            node = node_id(x, y, args.mesh)
            row.append(str(mapping.module_of(node)))
        print("   " + "  ".join(row))
    counts = mapping.duplicate_counts()
    print("\nduplicates: " + ", ".join(f"n{m}={c}" for m, c in counts.items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etsim",
        description=(
            "et_sim — energy-aware routing for e-textiles "
            f"(reproduction of: {PAPER_CITATION})"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    _add_logging_arguments(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="evaluate Theorem 1")
    _add_mesh_argument(bound)
    bound.set_defaults(func=_cmd_bound)

    simulate = sub.add_parser("simulate", help="run one simulation")
    _add_mesh_argument(simulate)
    simulate.add_argument(
        "--routing", choices=("ear", "sdr"), default="ear"
    )
    simulate.add_argument(
        "--battery", choices=("thin-film", "ideal"), default="thin-film"
    )
    _add_mapping_argument(simulate)
    _add_engine_argument(simulate)
    simulate.add_argument("--seed", type=int, default=2005)
    simulate.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    _add_fault_arguments(simulate)
    _add_harvest_arguments(simulate)
    _add_routing_arguments(simulate)
    _add_trace_argument(simulate)
    _add_logging_arguments(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="EAR vs SDR across mesh sizes")
    sweep.add_argument("--min-mesh", type=int, default=4)
    sweep.add_argument("--max-mesh", type=int, default=8)
    _add_mapping_argument(sweep)
    _add_engine_argument(sweep)
    _add_runner_arguments(sweep)
    _add_fault_arguments(sweep)
    _add_harvest_arguments(sweep)
    _add_routing_arguments(sweep)
    _add_trace_argument(sweep)
    _add_logging_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    bench = sub.add_parser(
        "bench",
        help="run registered sweep scenarios (cached, parallelisable)",
    )
    bench.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="scenario to run (repeatable; default: all registered)",
    )
    bench.add_argument(
        "--scale", choices=("smoke", "quick", "full"), default="full",
        help="grid scale (default full = the paper's grids)",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="shorthand for --scale smoke (the CI entry point)",
    )
    bench.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    bench.add_argument(
        "--json", action="store_true", help="emit records as JSON"
    )
    _add_mapping_argument(bench)
    _add_engine_argument(bench)
    _add_runner_arguments(bench)
    _add_fault_arguments(bench)
    _add_harvest_arguments(bench)
    _add_routing_arguments(bench)
    _add_trace_argument(bench)
    _add_logging_arguments(bench)
    bench.set_defaults(func=_cmd_bench)

    fleet = sub.add_parser(
        "fleet",
        help="population-scale fleet sweep with streaming aggregation",
    )
    fleet.add_argument(
        "--size", type=int, default=None, metavar="N",
        help="garments in the fleet (default 256, or 1000 with --smoke)",
    )
    fleet.add_argument(
        "--fleet-seed", type=int, default=2005, metavar="S",
        help="fleet seed; with the preset it fully determines every "
        "garment (default 2005)",
    )
    fleet.add_argument(
        "--preset", choices=sorted(_fleet_preset_names()),
        default="default",
        help="wearer/lot distribution preset (default default)",
    )
    fleet.add_argument(
        "--smoke", action="store_true",
        help="shorthand for --preset smoke with a 1000-garment default "
        "size (the CI entry point)",
    )
    fleet.add_argument(
        "--chunk", type=int, default=128, metavar="N",
        help="garments in flight at once — the memory bound (default 128)",
    )
    fleet.add_argument(
        "--json", action="store_true",
        help="emit the aggregate bundle as JSON",
    )
    fleet.add_argument(
        "--shard-index", type=int, default=None, metavar="I",
        help="run only shard I of a --shard-count split and write its "
        "standalone state file (one-shard-per-host mode; merge with "
        "`repro fleet-merge`)",
    )
    fleet.add_argument(
        "--shard-count", type=int, default=None, metavar="N",
        help="total shards of the multi-host split (with --shard-index)",
    )
    fleet.add_argument(
        "--shard-out", metavar="FILE", default=None,
        help="state-file path for --shard-index mode (default "
        "shard_IIIIofNNNN.json)",
    )
    fleet.add_argument(
        "--compare-routing", action="store_true",
        help="run the same population under EAR and SDR and print the "
        "survival-curve comparison",
    )
    _add_runner_arguments(fleet)
    _add_trace_argument(fleet)
    _add_logging_arguments(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    fleet_merge = sub.add_parser(
        "fleet-merge",
        help="merge standalone shard state files into one fleet bundle",
    )
    fleet_merge.add_argument(
        "files", nargs="+", metavar="STATE.json",
        help="shard state files written by `repro fleet --shard-index` "
        "(the full set of one fleet)",
    )
    fleet_merge.add_argument(
        "--json", action="store_true",
        help="emit the merged aggregate bundle as JSON",
    )
    _add_logging_arguments(fleet_merge)
    fleet_merge.set_defaults(func=_cmd_fleet_merge)

    trace = sub.add_parser(
        "trace",
        help="render a --trace JSONL capture as a timeline + report",
    )
    trace.add_argument("path", help="trace file written by --trace")
    trace.add_argument(
        "--width", type=int, default=64, metavar="N",
        help="timeline width in character cells (default 64)",
    )
    trace.add_argument(
        "--events", action="store_true",
        help="also list every discrete event line by line",
    )
    _add_logging_arguments(trace)
    trace.set_defaults(func=_cmd_trace)

    curve = sub.add_parser(
        "battery-curve", help="thin-film discharge curve"
    )
    curve.add_argument("--points", type=_positive_int, default=24)
    curve.add_argument("--step-cycles", type=_positive_int, default=2000)
    curve.set_defaults(func=_cmd_battery_curve)

    mapping = sub.add_parser("mapping", help="module mapping of a mesh")
    _add_mesh_argument(mapping)
    mapping.add_argument(
        "--strategy",
        choices=MAPPING_STRATEGIES,
        default="checkerboard",
    )
    # Income-picture flags let harvest-proportional see the expected
    # per-node income (profile, amplitude, hardware heterogeneity).
    _add_income_arguments(mapping)
    mapping.set_defaults(func=_cmd_mapping)

    regen = sub.add_parser(
        "regen-golden",
        help="re-run the golden smoke points and rewrite their fixtures",
    )
    regen.add_argument(
        "--dir", default="tests/golden", metavar="DIR",
        help="fixture directory (default tests/golden)",
    )
    regen.add_argument(
        "--check", action="store_true",
        help="compare instead of write; exit 1 when any fixture is "
        "stale or missing (the CI staleness gate)",
    )
    regen.set_defaults(func=_cmd_regen_golden)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(
        verbose=getattr(args, "verbose", False),
        quiet=getattr(args, "quiet", False),
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
