"""Telemetry must never change what the simulation computes.

The zero-overhead claim has two halves.  The CI overhead guard
(``scripts/check_trace_overhead.py``) owns the wall-clock half; this
module owns the correctness half:

* a run with the default :class:`~repro.telemetry.NullRecorder` — or
  with a full :class:`~repro.telemetry.TraceRecorder` attached — must
  produce a summary bit-identical to a recorder-free run, on every
  engine, over randomised configurations;
* the deterministic trace channel must be a pure function of the
  configuration: same config, same ``deterministic_lines()``, across
  repeats;
* the acceptance trace (congestion-relief smoke) must carry re-plan
  events with per-cost-term attribution.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_config
from repro.faults import FaultConfig
from repro.harvest import HarvestConfig
from repro.sim.et_sim import run_simulation
from repro.telemetry import NULL_RECORDER, TraceRecorder

#: make_config kwargs selecting each engine (mirrors
#: tests/property/test_engine_equivalence.py).
ENGINE_VARIANTS = {
    "sequential": {"kind": "sequential", "engine": "sequential"},
    "concurrent": {"kind": "concurrent", "engine": "concurrent"},
    "vector": {"kind": "sequential", "engine": "vector"},
}


def feature_mix(seed: int, featured: bool) -> dict:
    """A config slice that exercises the chatty telemetry paths."""
    if not featured:
        return {}
    return {
        "faults": FaultConfig(
            profile="link-attrition", seed=seed, intensity=2.0
        ),
        "harvest": HarvestConfig(
            profile="motion", seed=seed, amplitude_pj=40.0
        ),
    }


class TestSummaryBitIdentity:
    @settings(max_examples=8, deadline=None)
    @given(
        engine_name=st.sampled_from(sorted(ENGINE_VARIANTS)),
        seed=st.integers(min_value=0, max_value=50_000),
        featured=st.booleans(),
    )
    def test_recorders_never_change_the_summary(
        self, engine_name, seed, featured
    ):
        """Recorder-free vs NullRecorder vs TraceRecorder: the summary
        dict (the golden-fixture form) must be bit-identical.

        Summaries — not stats objects — are compared because
        ``SimulationStats`` holds an :class:`EnergyLedger` whose
        dataclass equality is identity-based.
        """
        config = make_config(
            concurrency=2 if engine_name == "concurrent" else 1,
            max_jobs=4,
            seed=seed,
            **feature_mix(seed, featured),
            **ENGINE_VARIANTS[engine_name],
        )
        bare = run_simulation(config).summary()
        null = run_simulation(config, NULL_RECORDER).summary()
        traced = run_simulation(config, TraceRecorder()).summary()
        assert bare == null == traced

    def test_golden_smoke_point_is_unchanged_under_tracing(self):
        """The congestion-relief acceptance point, traced, must match
        its recorder-free summary exactly."""
        from repro.orchestration import build_scenario

        point = next(
            p
            for p in build_scenario("congestion-relief", scale="smoke")
            if p.label == "4x4/relief"
        )
        bare = run_simulation(point.config).summary()
        traced = run_simulation(point.config, TraceRecorder()).summary()
        assert bare == traced


class TestTraceDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(
        engine_name=st.sampled_from(sorted(ENGINE_VARIANTS)),
        seed=st.integers(min_value=0, max_value=50_000),
    )
    def test_deterministic_lines_repeat_exactly(self, engine_name, seed):
        config = make_config(
            concurrency=2 if engine_name == "concurrent" else 1,
            max_jobs=3,
            seed=seed,
            **ENGINE_VARIANTS[engine_name],
        )
        traces = []
        for _ in range(2):
            recorder = TraceRecorder()
            run_simulation(config, recorder)
            traces.append(recorder.deterministic_lines())
        assert traces[0] == traces[1]
        assert traces[0], "a traced run must produce trace lines"

    def test_every_timer_fires_once_per_step_it_times(self):
        """The lock hashes traces without their timers, so this counts
        them: one ``plan-compute`` and one ``shortest-paths`` per plan
        (every recompute plus the bootstrap), one ``frame-step`` per
        frame, and on the vector engine one ``bank-draw`` per frame plus
        the flush at finalisation."""
        for engine_name, variant in ENGINE_VARIANTS.items():
            config = make_config(
                concurrency=2 if engine_name == "concurrent" else 1,
                max_jobs=6,
                **variant,
            )
            recorder = TraceRecorder()
            stats = run_simulation(config, recorder)
            counts = {
                name: timer["count"]
                for name, timer in recorder.timer_stats().items()
            }
            plans = stats.recompute_count + 1
            expected = {
                "frame-step": stats.lifetime_frames,
                "plan-compute": plans,
                "shortest-paths": plans,
            }
            if engine_name == "vector":
                expected["bank-draw"] = stats.lifetime_frames + 1
            assert counts == expected, engine_name
            assert stats.recompute_count > 0, engine_name

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50_000))
    def test_timers_stay_out_of_the_deterministic_channel(self, seed):
        config = make_config(max_jobs=3, seed=seed, engine="sequential")
        recorder = TraceRecorder()
        run_simulation(config, recorder)
        lines = recorder.lines()
        assert lines[-1]["kind"] == "timers"
        for line in recorder.deterministic_lines():
            assert line["kind"] != "timers"
            assert "elapsed_s" not in line


class TestAcceptanceTrace:
    def test_relief_replans_carry_cost_term_attribution(self):
        """The ISSUE acceptance criterion: a traced congestion-relief
        smoke run emits re-plan events whose cost attribution names the
        battery and congestion pipeline terms."""
        from repro.orchestration import build_scenario

        point = next(
            p
            for p in build_scenario("congestion-relief", scale="smoke")
            if p.label == "4x4/relief"
        )
        recorder = TraceRecorder()
        run_simulation(point.config, recorder)
        replans = [
            line
            for line in recorder.events
            if line["kind"] == "event" and line["event"] == "replan"
        ]
        assert replans, "a relief run must re-plan at least once"
        causes = {cause for line in replans for cause in line["causes"]}
        assert "bootstrap" in causes
        assert "load-level" in causes
        terms = {
            row["term"] for line in replans for row in line["terms"]
        }
        assert {"battery", "congestion"} <= terms
        # Attribution rows quantify how hard each term scaled links.
        for line in replans:
            for row in line["terms"]:
                assert row["links_scaled"] >= 0
                assert row["max_factor"] >= row["min_factor"] > 0.0

    def test_every_engine_emits_frames_and_run_end(self):
        for engine_name, variant in ENGINE_VARIANTS.items():
            config = make_config(
                concurrency=2 if engine_name == "concurrent" else 1,
                max_jobs=3,
                seed=11,
                **variant,
            )
            recorder = TraceRecorder()
            run_simulation(config, recorder)
            kinds = {line["kind"] for line in recorder.events}
            assert "frame" in kinds, engine_name
            ends = [
                line
                for line in recorder.events
                if line.get("event") == "run-end"
            ]
            assert len(ends) == 1, engine_name
            assert ends[-1] is recorder.events[-1], engine_name
