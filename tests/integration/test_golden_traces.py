"""Golden-trace regression tests.

One smoke point of each paper grid (fig7, fig8, table2) — plus one per
engine for the tear-repair, harvest-motion and harvest-mapping families
— has its full ``SimulationStats.summary()`` checked in under
``tests/golden/``.  These tests assert bit-identical replay through
both sweep runners, so any future "behaviour-identical" hot-path
optimisation is verified against stored truth rather than against
itself.

The case lists are :data:`repro.orchestration.GOLDEN_SMOKE_POINTS` and
:data:`~repro.orchestration.GOLDEN_QUICK_POINTS` (quick-grid points for
telemetry a smoke run never reaches) — one source of truth shared with
the regeneration helper.  Regenerate (only
after an *intentional* behaviour change, together with the behaviour
lock) with:

    PYTHONPATH=src python -m repro regen-golden
    PYTHONPATH=src python scripts/behaviour_fingerprint.py
"""

import json
from pathlib import Path

import pytest

from repro.orchestration import (
    GOLDEN_QUICK_POINTS,
    GOLDEN_SMOKE_POINTS,
    ParallelSweepRunner,
    SequentialSweepRunner,
    build_scenario,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

CASES = list(GOLDEN_SMOKE_POINTS)
QUICK_CASES = list(GOLDEN_QUICK_POINTS)


def golden(filename: str) -> dict:
    return json.loads((GOLDEN_DIR / filename).read_text(encoding="utf-8"))


@pytest.mark.parametrize("scenario,label,filename", CASES)
def test_sequential_replay_is_bit_identical(scenario, label, filename):
    expected = golden(filename)
    points = [
        point
        for point in build_scenario(scenario, scale="smoke")
        if point.label == label
    ]
    assert len(points) == 1, f"golden point {label} missing from {scenario}"
    records = SequentialSweepRunner().run(points)
    assert records[0].summary == expected["summary"]


@pytest.mark.parametrize("scenario,label,filename", CASES)
def test_parallel_replay_is_bit_identical(scenario, label, filename):
    # The whole smoke grid goes through the pool so the golden point is
    # executed alongside siblings, exactly as `bench --smoke` runs it.
    expected = golden(filename)
    records = ParallelSweepRunner(max_workers=2).run(
        build_scenario(scenario, scale="smoke")
    )
    record = next(r for r in records if r.label == label)
    assert record.summary == expected["summary"]


@pytest.mark.parametrize("scenario,label,filename", QUICK_CASES)
def test_quick_replay_is_bit_identical(scenario, label, filename):
    expected = golden(filename)
    points = [
        point
        for point in build_scenario(scenario, scale="quick")
        if point.label == label
    ]
    assert len(points) == 1, f"golden point {label} missing from {scenario}"
    records = SequentialSweepRunner().run(points)
    assert records[0].summary == expected["summary"]


def test_golden_fixtures_carry_their_identity():
    # The stored files name the scenario/scale/label they were cut from,
    # so a mismatched regeneration is caught by inspection.
    for cases, scale in ((CASES, "smoke"), (QUICK_CASES, "quick")):
        for scenario, label, filename in cases:
            payload = golden(filename)
            assert payload["scenario"] == scenario
            assert payload["label"] == label
            assert payload["scale"] == scale
            assert payload["summary"]["verification_failures"] == 0
