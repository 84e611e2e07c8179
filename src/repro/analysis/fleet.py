"""Human-readable reporting for fleet aggregate bundles.

The ``fleet`` subcommand's JSON bundle is the machine artifact; this
module renders the same document the way the per-fabric analyses render
their tables — metric quantiles, death-cause tallies and an ASCII
survival curve — so a terminal run of ``python -m repro fleet`` reads
like the rest of the bench output.  :func:`fleet_comparison` lines two
bundles over the *same* population (one fleet seed/size/distribution,
different base routing) up side by side — the population-scale version
of the paper's EAR-vs-SDR lifetime comparison.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .tables import format_table


def _survival_rows(survival: dict, columns: int = 16) -> dict[str, float]:
    """Down-sample the survival curve to a bar-chart-sized dict.

    Buckets beyond the last death are all zero; the chart stops one
    column past the last non-zero entry so tiny fleets do not render
    a hundred empty rows.
    """
    survivors = survival["survivors"]
    edges = survival["edges"]
    last = 0
    for index, count in enumerate(survivors):
        if count > 0:
            last = index
    span = last + 1
    step = max(1, -(-span // columns))
    rows: dict[str, float] = {}
    for index in range(0, span, step):
        rows[f">={edges[index]:g}f"] = float(survivors[index])
    return rows


def _cell(value: float | None) -> float | str:
    """A statistic rounded for a table; an empty fleet has none: ``-``."""
    return "-" if value is None else round(value, 2)


def fleet_summary(bundle: dict) -> str:
    """Render one fleet bundle as paper-style tables and charts."""
    from .ascii_chart import bar_chart

    fleet = bundle["fleet"]
    aggregate = bundle["aggregate"]
    run = bundle.get("run", {})

    lines = []
    title = (
        f"fleet '{fleet['preset']}': {aggregate['count']} garments, "
        f"seed {fleet['seed']}"
    )
    columns = ("mean", "min", "p5", "p50", "p95", "max", "bucket_width")
    metric_rows = [
        (name, *(_cell(stat[key]) for key in columns))
        for name, stat in aggregate["metrics"].items()
    ]
    lines.append(
        format_table(["metric", *columns], metric_rows, title=title)
    )

    death_rows = sorted(
        aggregate["death_causes"].items(), key=lambda kv: (-kv[1], kv[0])
    )
    if death_rows:
        lines.append("")
        lines.append(
            format_table(["death cause", "garments"], death_rows)
        )

    survival = aggregate.get("survival")
    if survival and aggregate["count"]:
        lines.append("")
        lines.append(
            bar_chart(
                _survival_rows(survival),
                title="survivors by lifetime (frames)",
            )
        )

    shards = run.get("shards")
    if shards:
        lines.append("")
        shard_rows = [
            (
                shard["index"],
                f"[{shard['start']}, {shard['start'] + shard['size']})",
                shard.get("executed", 0),
                shard.get("cached", 0),
                round(float(shard.get("elapsed_s") or 0.0), 1),
            )
            for shard in shards
        ]
        lines.append(
            format_table(
                ["shard", "garments", "simulated", "cached", "s"],
                shard_rows,
                title=f"{len(shards)}-way sharded run",
            )
        )

    if run:
        lines.append("")
        lines.append(
            f"{run.get('executed', 0)} simulated, {run.get('cached', 0)} "
            f"cached in {run.get('elapsed_s', 0.0):.1f}s "
            f"({run.get('workers') or 1} worker(s))"
        )
    return "\n".join(lines)


def _same_population(bundles: dict[str, dict]) -> None:
    """Refuse to compare bundles drawn from different populations.

    A routing comparison is only meaningful garment-for-garment: same
    distribution, same fleet seed, same size.  (The base configuration
    the variants differ in — routing — is not part of the fleet
    section, so it is exactly the free axis.)
    """
    reference_label, *rest = bundles
    reference = bundles[reference_label]["fleet"]
    for label in rest:
        fleet = bundles[label]["fleet"]
        for field in ("seed", "size", "distribution"):
            if fleet.get(field) != reference.get(field):
                raise ConfigurationError(
                    f"cannot compare fleets: {label!r} disagrees with "
                    f"{reference_label!r} on {field} — a routing "
                    "comparison needs one population (same "
                    "distribution, fleet seed and size)"
                )


def fleet_comparison(bundles: dict[str, dict]) -> str:
    """Compare fleet bundles over one population, side by side.

    ``bundles`` maps a variant label (typically the routing algorithm:
    ``ear``, ``sdr``) to its fleet bundle.  All bundles must cover the
    same ``(distribution, fleet_seed, size)`` population; the output is
    a lifetime/jobs quantile table, per-variant survival curves over
    shared lifetime edges, and — with exactly two variants — the
    headline mean-lifetime ratio, the fleet-scale analogue of the
    paper's EAR-vs-SDR improvement factor.
    """
    from .ascii_chart import bar_chart

    if len(bundles) < 2:
        raise ConfigurationError(
            f"fleet comparison needs >= 2 bundles, got {len(bundles)}"
        )
    _same_population(bundles)

    first = next(iter(bundles.values()))["fleet"]
    lines = []
    rows = []
    for label, bundle in bundles.items():
        lifetime = bundle["aggregate"]["metrics"]["lifetime_frames"]
        jobs = bundle["aggregate"]["metrics"]["jobs_fractional"]
        rows.append(
            (
                label,
                _cell(lifetime["mean"]),
                _cell(lifetime["p5"]),
                _cell(lifetime["p50"]),
                _cell(lifetime["p95"]),
                _cell(jobs["mean"]),
            )
        )
    lines.append(
        format_table(
            ["variant", "life mean", "p5", "p50", "p95", "jobs mean"],
            rows,
            title=(
                f"fleet '{first['preset']}' × {len(bundles)} variants: "
                f"{first['size']} garments, seed {first['seed']}"
            ),
        )
    )

    for label, bundle in bundles.items():
        survival = bundle["aggregate"].get("survival")
        if survival and bundle["aggregate"]["count"]:
            lines.append("")
            lines.append(
                bar_chart(
                    _survival_rows(survival),
                    title=f"survivors by lifetime — {label}",
                )
            )

    if len(bundles) == 2:
        (label_a, bundle_a), (label_b, bundle_b) = bundles.items()
        mean_a = bundle_a["aggregate"]["metrics"]["lifetime_frames"]["mean"]
        mean_b = bundle_b["aggregate"]["metrics"]["lifetime_frames"]["mean"]
        if mean_a is not None and mean_b:
            lines.append("")
            lines.append(
                f"mean lifetime {label_a}/{label_b}: "
                f"{mean_a / mean_b:.2f}x"
            )
    return "\n".join(lines)
