#!/usr/bin/env python
"""Fail CI when a benchmark point regresses against the committed baseline.

Compares two ``python -m repro bench --smoke --json`` documents — the
committed ``BENCH_smoke.json`` baseline and a freshly-measured run — and
exits non-zero if any point's wall-clock time regressed by more than the
threshold (default 25%), or if any point present on both sides changed
its record outside ``elapsed_s``.

The second check locks behaviour: a record is the point's summary and
parameters, so a perf change must leave it byte-identical, cached points
included (they carry everything but ``elapsed_s``).  Each moved key is
printed as ``key old -> new`` (``missing`` for a key one side lacks); a
baseline refresh that moves them is a behaviour change to review, not a
timing update.

Two guards keep the timing check meaningful on shared CI runners:

* **Machine normalisation** — the fresh run is rescaled by the median
  fresh/baseline ratio over the trustworthy points, so a uniformly
  slower runner does not fail every point.  The factor is clamped to
  [0.5, 2.0]: a *code* change that slows everything by more than 2x
  cannot hide behind the normalisation.  A clamped factor is named in
  the output, because a change that speeds every point up by more
  than 2x then leaves the points it sped up least reading slower.
* **Noise floor** — points faster than the floor (default 50 ms) on
  both sides are timer noise at smoke scale and are skipped.

Points present only on one side are reported but never fatal: scenario
families grow PR by PR, and the next baseline refresh picks them up.

Refresh the baseline after an intentional perf change with::

    PYTHONPATH=src python -m repro bench --smoke --json > BENCH_smoke.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def _labelled(document: dict):
    """``(scenario, record)`` for every labelled record in a document."""
    for scenario, records in document.items():
        if not isinstance(records, list):
            continue
        for record in records:
            if isinstance(record, dict) and "label" in record:
                yield scenario, record


def load_document(path: str) -> tuple[dict[str, float], set[str]]:
    """Parse one bench JSON document.

    Returns the flattened ``{scenario/label: elapsed_s}`` timing map
    plus the set of scenario section names present in the document —
    the section set is what lets the guard distinguish "this scenario
    ran but every point was cached" from "this scenario never ran at
    all" (a silently skipped section must fail CI, not pass it).

    Tolerates non-bench keys in the document: fleet bundles (and any
    future aggregate-shaped sections) are dicts rather than record
    lists, and carry no per-point timings to guard.
    """
    with open(path) as handle:
        document = json.load(handle)
    points: dict[str, float] = {}
    for scenario, record in _labelled(document):
        elapsed = record.get("elapsed_s")
        if elapsed is not None:  # cached points carry no timing
            points[f"{scenario}/{record['label']}"] = float(elapsed)
    sections = {
        scenario
        for scenario, records in document.items()
        if isinstance(records, list)
    }
    return points, sections


def load_records(path: str) -> dict[str, dict]:
    """``{scenario/label: record}`` with ``elapsed_s`` dropped: each
    point's behaviour, timed or cached."""
    with open(path) as handle:
        document = json.load(handle)
    return {
        f"{scenario}/{record['label']}": {
            key: value for key, value in record.items() if key != "elapsed_s"
        }
        for scenario, record in _labelled(document)
    }


def _shown(record: dict, key: str) -> str:
    """One record value as its JSON text, or ``missing``."""
    return json.dumps(record[key]) if key in record else "missing"


def behaviour_changes(
    baseline: dict[str, dict], fresh: dict[str, dict]
) -> dict[str, list[str]]:
    """``key old -> new`` for every key whose value differs, per point
    present on both sides."""
    changes: dict[str, list[str]] = {}
    for name in sorted(baseline.keys() & fresh.keys()):
        old, new = baseline[name], fresh[name]
        moved = [
            f"{key} {_shown(old, key)} -> {_shown(new, key)}"
            for key in sorted(old.keys() | new.keys())
            if key not in old or key not in new or old[key] != new[key]
        ]
        if moved:
            changes[name] = moved
    return changes


def load_points(path: str) -> dict[str, float]:
    """Flatten a bench JSON document to ``{scenario/label: elapsed_s}``."""
    return load_document(path)[0]


#: The machine factor's clamp.
FACTOR_BOUNDS = (0.5, 2.0)


def machine_factor(
    baseline: dict[str, float], fresh: dict[str, float], floor: float
) -> float:
    ratios = [
        fresh[name] / baseline[name]
        for name in baseline.keys() & fresh.keys()
        if baseline[name] >= floor and fresh[name] > 0.0
    ]
    if not ratios:
        return 1.0
    low, high = FACTOR_BOUNDS
    return min(high, max(low, statistics.median(ratios)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_smoke.json")
    parser.add_argument("fresh", help="freshly measured bench JSON")
    parser.add_argument(
        "--threshold", type=float, default=1.25,
        help="fail when normalised fresh/baseline exceeds this (1.25 = +25%%)",
    )
    parser.add_argument(
        "--floor", type=float, default=0.05, metavar="SECONDS",
        help="skip points faster than this on both sides (timer noise)",
    )
    args = parser.parse_args(argv)

    baseline, baseline_sections = load_document(args.baseline)
    fresh, fresh_sections = load_document(args.fresh)
    if not baseline_sections:
        print(f"error: no scenario sections in baseline {args.baseline}")
        return 2
    if not fresh_sections:
        print(f"error: no scenario sections in {args.fresh}")
        return 2
    missing_sections = sorted(baseline_sections - fresh_sections)
    if missing_sections:
        print(
            f"error: {args.fresh} is missing scenario section(s) the "
            f"baseline guards: {', '.join(missing_sections)} — the "
            "fresh bench must run every baselined scenario (did a "
            "--scenario filter drop one?)"
        )
        return 2
    for extra in sorted(fresh_sections - baseline_sections):
        print(
            f"  note  scenario {extra!r} has no baseline section yet "
            "(informational)"
        )
    if not baseline:
        print(f"error: no timed points in baseline {args.baseline}")
        return 2
    if not fresh:
        print(
            f"error: no timed points in {args.fresh} — was the fresh "
            "bench run with a warm cache?"
        )
        return 2

    changed = behaviour_changes(
        load_records(args.baseline), load_records(args.fresh)
    )
    for name, moved in changed.items():
        for change in moved:
            print(f"  BEHAVIOUR  {name}: {change}")

    scale = machine_factor(baseline, fresh, args.floor)
    print(f"machine factor {scale:.3f} (fresh times divided by this)")
    if scale in FACTOR_BOUNDS:
        print(
            f"  note  machine factor clamped at {scale:.3f}: after a "
            "uniform speed-up or slow-down of every point, a FAIL may be "
            "the clamp rather than that point"
        )

    failures: list[str] = []
    for name in sorted(baseline):
        if name not in fresh:
            print(f"  skip  {name}: missing from fresh run")
            continue
        base_s, fresh_s = baseline[name], fresh[name]
        if base_s < args.floor and fresh_s < args.floor:
            continue
        ratio = (fresh_s / scale) / base_s
        verdict = "FAIL" if ratio > args.threshold else "ok"
        print(
            f"  {verdict:>4}  {name}: {base_s:.3f}s -> {fresh_s:.3f}s "
            f"(normalised x{ratio:.2f})"
        )
        if ratio > args.threshold:
            failures.append(name)
    candidates = sorted(fresh.keys() - baseline.keys())
    for name in candidates:
        print(f"  new   {name}: {fresh[name]:.3f}s (no baseline yet)")
    if candidates:
        # Candidate-only points are informational: scenario families
        # grow PR by PR, and the next committed baseline refresh
        # starts guarding them.
        print(
            f"{len(candidates)} candidate-only point(s) not guarded — "
            "refresh BENCH_smoke.json to baseline them"
        )

    if changed:
        print(
            f"\n{len(changed)} point(s) changed behaviour outside "
            f"elapsed_s: {', '.join(changed)}"
        )
    if failures:
        print(
            f"\n{len(failures)} point(s) regressed beyond the "
            f"threshold: {', '.join(failures)}"
        )
    if changed or failures:
        return 1
    print("\nno benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
