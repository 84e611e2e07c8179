"""Benchmark of the e-textile routing simulator, run from a checkout.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Imports the program from ``src/`` of the checkout holding this file, makes
the workload's inputs from ``--seed``, sets up, runs rounds of the
workload for ``--seconds`` seconds, checks every result, and prints one
JSON object as the last line of standard output:

* ``--trace 0`` — the end-to-end metrics, measured with no tracing:
  ``point_ms`` (time per simulated point) and ``frames_per_s``
  (simulated TDMA frames per second) over all of the run's rounds, and
  ``setup_s`` (the median of several set-ups, each in a fresh
  interpreter), all in host time scaled to a reference machine speed
  (see ``calibration.py``);
* ``--trace 1`` — the per-layer metrics: every layer's self time,
  call count and re-plan outcomes per point, from spans the benchmark
  wraps around the program's layers (see ``spans.py``).

Exits non-zero, printing no result, when the program cannot be imported.
See ``README.md`` beside this file for the workloads and the layer map.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import SpeedSampler  # noqa: E402
from spans import LayerTotals, SpanTracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
#: Set-ups in fresh interpreters per run; ``setup_s`` is their median.
SETUP_SAMPLES = 9
#: Seconds a set-up probe may take before the run is abandoned.
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "point_ms": "ms",
    "frames_per_s": "1/s",
    "setup_s": "s",
}
#: Layers reported with their self time per point, outermost first.
#: ``round`` is the benchmark's call into the program for one round,
#: outside every other layer: input generation and the fleet runner's
#: streaming glue.
SELF_TIME_LAYERS = (
    "round",
    "sweep",
    "config-hash",
    "cache-lookup",
    "cache-store",
    "point",
    "engine-build",
    "job-walk",
    "frame",
    "faults",
    "harvest",
    "power-bus",
    "heartbeat",
    "control-frame",
    "plan",
    "cost-pipeline",
    "shortest-paths",
    "select-destinations",
    "table-diff",
    "battery-draw",
    "finalize",
    "summary",
)
INCLUSIVE_LAYERS = ("sweep", "frame", "plan")
COUNTED_LAYERS = ("frame", "plan", "battery-draw")


def load_program() -> None:
    """Import the program from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, str(SOURCE))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program: {exc}")
    if SOURCE.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {SOURCE}"
        )


def set_up(name: str, seed: int, work_dir: Path):
    """Everything before the timed rounds: import, inputs, warm-up."""
    load_program()
    from repro.orchestration.cache import SweepCache
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    cache = SweepCache(work_dir / "cache", backend="flat")
    workload.warm_up(cache)
    return workload, cache


def setup_probe(name: str, seed: int) -> float:
    """One set-up in a fresh interpreter; returns its calibrated seconds."""
    result = subprocess.run(
        [
            sys.executable,
            str(Path(__file__)),
            "--workload", name,
            "--seed", str(seed),
            "--setup-probe",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(result.stdout.strip().splitlines()[-1])


@dataclass
class Round:
    """One completed round: its records and its calibrated seconds."""

    first: int
    end: int
    seconds: float


def measure(workload, cache, seconds: float, tracer):
    """Run whole rounds until ``seconds`` have passed, sampling the
    machine's speed throughout.

    Returns the finished records, the completed rounds, the speed scale
    of each, and the error that stopped the run early, if any.
    """
    records: list = []
    rounds: list[Round] = []
    scales: list[float] = []
    error = None
    run_round = workload.run_round
    if tracer is not None:
        run_round = tracer.traced(run_round, "round")
    with SpeedSampler() as sampler:
        deadline = time.perf_counter() + seconds
        index = 0
        while not rounds or time.perf_counter() < deadline:
            first = len(records)
            started = sampler.clock()
            try:
                run_round(index, cache, records.append)
            except Exception as exc:  # a failing point is a result, not a crash
                traceback.print_exc()
                error = f"round {index}: {type(exc).__name__}: {exc}"
                break
            elapsed = sampler.clock() - started
            scales.append(sampler.take_scale())
            rounds.append(Round(first, len(records), elapsed * scales[-1]))
            index += 1
    return records, rounds, scales, error


def end_to_end(records, rounds, setup_samples) -> dict:
    """Time per point and frames per second over every completed round;
    every round repeats the same points and frames."""
    round_s = sum(r.seconds for r in rounds)
    points = sum(r.end - r.first for r in rounds)
    frames = sum(
        record.summary["lifetime_frames"]
        for r in rounds
        for record in records[r.first : r.end]
    )
    values = {
        # No completed round: the run already reports itself incorrect.
        "point_ms": 1000.0 * round_s / points if points else 0.0,
        "frames_per_s": frames / round_s if round_s else 0.0,
        "setup_s": statistics.median(setup_samples),
    }
    return {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in values.items()
    }


def per_layer(tracer, points: int, scale: float) -> dict:
    """Per point; times in calibrated milliseconds (``scale`` per second)."""
    metrics = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    layers = tracer.layers()
    ms = 1000.0 * scale / points

    def totals(layer: str) -> LayerTotals:
        return layers.get(layer, LayerTotals())

    for layer in SELF_TIME_LAYERS:
        put(f"{layer}.self_ms", ms * totals(layer).self_s, "ms")
    for layer in INCLUSIVE_LAYERS:
        put(f"{layer}.incl_ms", ms * totals(layer).inclusive_s, "ms")
    for layer in COUNTED_LAYERS:
        put(f"{layer}.calls", totals(layer).calls / points, "count")
    replans = tracer.replans
    put(
        "replan.useful_share",
        tracer.replans_changing_tables / replans if replans else 0.0,
        "ratio",
    )
    return metrics


def report_layers(tracer, points: int) -> None:
    """The span tree per point, on standard error, for people."""
    print(f"{'caller -> layer':<40}{'calls':>10}{'incl ms':>11}{'self ms':>11}",
          file=sys.stderr)
    for (parent, layer), t in sorted(
        tracer.edges().items(), key=lambda item: -item[1].inclusive_s
    ):
        print(
            f"{(parent or '-') + ' -> ' + layer:<40}{t.calls / points:>10.1f}"
            f"{1000 * t.inclusive_s / points:>11.3f}"
            f"{1000 * t.self_s / points:>11.3f}",
            file=sys.stderr,
        )
    if tracer.missing:
        print("not wrapped (absent): " + ", ".join(tracer.missing), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    work_dir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        if args.setup_probe:
            with SpeedSampler() as sampler:
                set_up(args.workload, args.seed, work_dir)
                setup_s = (sampler.clock() - STARTED) * sampler.take_scale()
            print(setup_s)
            return 0
        workload, cache = set_up(args.workload, args.seed, work_dir)
        tracer = None
        setup_samples = []
        if args.trace:
            tracer = SpanTracer()
            tracer.install()
        else:
            setup_samples = [
                setup_probe(args.workload, args.seed)
                for _ in range(SETUP_SAMPLES)
            ]
        records, rounds, scales, error = measure(
            workload, cache, args.seconds, tracer
        )
        if tracer is not None:
            tracer.uninstall()
        problems = workload.check(records)
        for position, record in enumerate(records):
            stored = cache.lookup(record.config_hash)
            if stored is None or stored["summary"] != record.summary:
                problems.setdefault(
                    position, f"{record.label}: cache lost its record"
                )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made

    failed = len(problems) + (1 if error else 0)
    for problem in list(problems.values())[:10] + ([error] if error else []):
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    points = max(1, len(records))
    if tracer is None:
        metrics = end_to_end(records, rounds, setup_samples)
    else:
        metrics = per_layer(tracer, points, statistics.median(scales or [1.0]))
        report_layers(tracer, points)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} rounds, "
        f"{len(records)} points, {failed} failed; machine speed "
        f"{min(scales or [0]):.3f}-{max(scales or [0]):.3f} of the reference",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": len(records) + (1 if error else 0),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
