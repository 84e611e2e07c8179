#!/usr/bin/env python
"""Compare two checkouts on the end-to-end benchmark in alternating pairs.

    python scripts/perf_pairs.py PARENT CHANGE --workload paper \\
        [--pairs 10] [--seed 1]

``PARENT`` and ``CHANGE`` are checkout directories of this repository,
for example a ``git archive`` copy of the parent commit and the working
tree.  Each pair runs the benchmark command that the parent's
``BENCHMARK.json`` declares (``perfbench/run.py``) once inside each
checkout, for the ``run_seconds`` it declares and with ``--trace 0``;
the side that runs first alternates from pair to pair, so a drift in
machine speed favours neither.  Every run's correct, attempted and
failed counts and its metrics are printed as it finishes.

Then, for each ``end_to_end`` metric of the parent's ``BENCHMARK.json``,
it prints each side's median and quartiles, the pairs the change won
(ties count for neither side) and two verdicts:

* **gain** — the change won at least 9 in 10 pairs, and its median beats
  the parent's by more than the parent's interquartile range;
* **regression** — the change's median is worse than the parent's by
  more than the metric's ``bound``, a fraction of the parent's median.

Exits 1 when any run is incorrect or prints no result.  The script only
reads ``perfbench/`` and ``BENCHMARK.json``; it writes neither.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

#: A gain needs the change to win at least this share of the pairs.
GAIN_WINS = (9, 10)


class Verdict(NamedTuple):
    """One metric's comparison over paired runs.

    ``parent`` and ``change`` are ``(q1, median, q3)``; ``gap`` is how
    much better the change's median is (negative when worse).
    """

    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    ties: int
    pairs: int
    gap: float
    gain: bool
    regression: bool


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, interpolated between the order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> Verdict:
    """Judge one metric's paired runs; ``parent[i]`` pairs ``change[i]``."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if not parent or len(parent) != len(change):
        raise ValueError("need the same, non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    before, after = quartiles(parent), quartiles(change)
    gap = sign * (after[1] - before[1])
    wanted, out_of = GAIN_WINS
    return Verdict(
        parent=before,
        change=after,
        wins=wins,
        ties=ties,
        pairs=len(parent),
        gap=gap,
        gain=wins * out_of >= wanted * len(parent) and gap > before[2] - before[0],
        regression=-gap > bound * abs(before[1]),
    )


def run_once(
    command: list[str], checkout: Path, workload: str, seed: int, seconds: float
) -> dict:
    """One ``--trace 0`` benchmark run inside ``checkout``."""
    done = subprocess.run(
        [
            *command,
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr[-2000:])
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    if done.returncode != 0:
        result["correct"] = False
    return result


def describe(result: dict) -> str:
    metrics = " ".join(
        f"{name}={metric['value']:.6g}"
        for name, metric in result["metrics"].items()
    )
    return (
        f"correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} {metrics}"
    )


def report(metric: dict, result: Verdict) -> None:
    parent, change = result.parent, result.change
    print(
        f"{metric['name']} ({metric['unit']}, {metric['better']} is better, "
        f"bound {metric['bound']:g})"
    )
    print(f"  parent  median {parent[1]:.6g} [{parent[0]:.6g}, {parent[2]:.6g}]")
    print(f"  change  median {change[1]:.6g} [{change[0]:.6g}, {change[2]:.6g}]")
    print(
        f"  change won {result.wins} of {result.pairs} pairs "
        f"({result.ties} ties)"
    )
    iqr = parent[2] - parent[0]
    print(
        f"  gain: {'yes' if result.gain else 'no'} ({result.wins}/"
        f"{result.pairs} wins, median gap {result.gap:.6g} against the "
        f"parent's IQR {iqr:.6g})"
    )
    share = result.gap / abs(parent[1]) if parent[1] else 0.0
    print(
        f"  regression: {'YES' if result.regression else 'no'} (change "
        f"{abs(share):.1%} {'better' if share >= 0 else 'worse'}; "
        f"bound {metric['bound']:.0%})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(
                benchmark["command"],
                sides[side],
                args.workload,
                args.seed,
                benchmark["run_seconds"],
            )
            runs[side].append(result)
            print(f"pair {pair + 1} {side}: {describe(result)}", flush=True)

    if not all(result["correct"] for side in runs.values() for result in side):
        print("perf_pairs: a run was incorrect or printed no result")
        return 1
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs:")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        result = verdict(
            [run["metrics"][name]["value"] for run in runs["parent"]],
            [run["metrics"][name]["value"] for run in runs["change"]],
            metric["better"],
            metric["bound"],
        )
        report(metric, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
