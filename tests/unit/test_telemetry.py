"""Unit tests for the telemetry layer: recorders, trace IO, console."""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.telemetry import (
    NULL_RECORDER,
    Heartbeat,
    NullRecorder,
    Recorder,
    TraceRecorder,
    TraceWriter,
    dump_trace,
    load_trace,
    setup_logging,
    strip_timings,
)
from repro.telemetry.console import LOGGER_NAME, get_logger


class TestNullRecorder:
    def test_is_the_shared_singleton(self):
        assert isinstance(NULL_RECORDER, NullRecorder)
        assert NULL_RECORDER.active is False
        assert NULL_RECORDER.times is False

    def test_satisfies_the_protocol(self):
        assert isinstance(NULL_RECORDER, Recorder)
        assert isinstance(TraceRecorder(), Recorder)

    def test_hooks_are_no_ops(self):
        NULL_RECORDER.frame(0, alive=16)
        NULL_RECORDER.event("replan", frame=3, cause=["bootstrap"])
        NULL_RECORDER.timing("frame-step", 0.001)
        # Stateless by construction: no __dict__ to accumulate into.
        assert not hasattr(NULL_RECORDER, "__dict__")


class TestTraceRecorder:
    def test_frame_probes_and_events_arrive_in_order(self):
        recorder = TraceRecorder()
        recorder.frame(0, alive=16, jobs=0)
        recorder.event("replan", frame=0, cause=["bootstrap"])
        recorder.frame(1, alive=16, jobs=1)
        kinds = [line["kind"] for line in recorder.lines()]
        assert kinds == ["frame", "event", "frame"]
        assert recorder.lines()[1]["event"] == "replan"

    def test_meta_header_leads_and_carries_the_schema(self):
        recorder = TraceRecorder()
        recorder.frame(0, alive=4)
        lines = recorder.lines(meta={"command": "simulate"})
        assert lines[0]["kind"] == "meta"
        assert lines[0]["schema"] == 1
        assert lines[0]["command"] == "simulate"

    def test_level_snapshots_are_deduplicated(self):
        recorder = TraceRecorder()
        levels_a = {(0, 1): 2, (1, 2): 0}
        recorder.frame(0, alive=4, load_levels=levels_a)
        recorder.frame(1, alive=4, load_levels=dict(levels_a))
        recorder.frame(2, alive=4, load_levels={(0, 1): 3, (1, 2): 0})
        level_lines = [
            line for line in recorder.lines() if line["kind"] == "levels"
        ]
        # Frame 1 repeated frame 0's snapshot: only the crossings land.
        assert [line["frame"] for line in level_lines] == [0, 2]
        assert level_lines[0]["metric"] == "load"
        assert level_lines[0]["levels"] == {"0-1": 2, "1-2": 0}

    def test_timers_aggregate_per_name(self):
        recorder = TraceRecorder()
        recorder.timing("frame-step", 0.002)
        recorder.timing("frame-step", 0.004)
        recorder.timing("plan-compute", 0.010)
        stats = recorder.timer_stats()
        assert stats["frame-step"]["count"] == 2
        assert stats["frame-step"]["total_s"] == pytest.approx(0.006)
        assert stats["frame-step"]["min_s"] == pytest.approx(0.002)
        assert stats["frame-step"]["max_s"] == pytest.approx(0.004)
        assert list(stats) == ["frame-step", "plan-compute"]

    def test_timers_trail_as_one_line(self):
        recorder = TraceRecorder()
        recorder.frame(0, alive=4)
        recorder.timing("frame-step", 0.001)
        lines = recorder.lines()
        assert lines[-1]["kind"] == "timers"
        assert sum(1 for li in lines if li["kind"] == "timers") == 1

    def test_deterministic_lines_strip_the_wallclock_channel(self):
        recorder = TraceRecorder()
        recorder.frame(0, alive=4)
        recorder.event("run-end", frame=9, cause="death", elapsed_s=1.25)
        recorder.timing("frame-step", 0.001)
        deterministic = recorder.deterministic_lines()
        assert all(li["kind"] != "timers" for li in deterministic)
        assert all("elapsed_s" not in li for li in deterministic)
        # The original trace still carries both.
        assert recorder.lines()[-1]["kind"] == "timers"
        assert recorder.events[-1]["elapsed_s"] == 1.25


class TestStripTimings:
    def test_does_not_mutate_the_input(self):
        lines = [
            {"kind": "frame", "frame": 0, "elapsed_s": 0.5},
            {"kind": "timers", "timers": {}},
        ]
        stripped = strip_timings(lines)
        assert stripped == [{"kind": "frame", "frame": 0}]
        assert lines[0]["elapsed_s"] == 0.5


class TestTraceIo:
    def test_dump_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [
            {"kind": "meta", "schema": 1},
            {"kind": "frame", "frame": 0, "soc": [0.9, 1.0, 1.0]},
        ]
        assert dump_trace(path, lines) == 2
        assert load_trace(path) == lines

    def test_dumped_lines_have_sorted_keys(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        dump_trace(path, [{"zeta": 1, "alpha": 2, "kind": "frame"}])
        raw = path.read_text(encoding="utf-8").strip()
        assert raw == '{"alpha": 2, "kind": "frame", "zeta": 1}'

    def test_writer_tags_every_line(self, tmp_path):
        path = tmp_path / "multi.jsonl"
        with TraceWriter(path) as writer:
            writer.add(
                [{"kind": "frame", "frame": 0}],
                scenario="fig7",
                point="4x4/ear",
            )
            writer.add([{"kind": "frame", "frame": 0}], point="4x4/sdr")
        lines = load_trace(path)
        assert lines[0]["scenario"] == "fig7"
        assert lines[0]["point"] == "4x4/ear"
        assert lines[1]["point"] == "4x4/sdr"
        assert writer.lines_written == 2
        assert writer.points_written == 2

    def test_writer_add_none_is_a_no_op(self, tmp_path):
        # Cache hits carry no trace: the hook passes None through.
        path = tmp_path / "multi.jsonl"
        with TraceWriter(path) as writer:
            assert writer.add(None, point="cached") == 0
        assert writer.points_written == 0
        assert load_trace(path) == []

    def test_line_tags_never_mask_trace_keys(self, tmp_path):
        path = tmp_path / "multi.jsonl"
        with TraceWriter(path) as writer:
            writer.add([{"kind": "frame", "point": "inner"}], point="outer")
        # The trace's own key wins over the writer tag.
        assert load_trace(path)[0]["point"] == "inner"


class TestSetupLogging:
    def teardown_method(self):
        # Leave the package logger pristine for other tests.
        logger = logging.getLogger(LOGGER_NAME)
        logger.handlers.clear()
        logger.setLevel(logging.NOTSET)

    def test_levels_follow_the_flags(self):
        assert setup_logging().level == logging.INFO
        assert setup_logging(verbose=True).level == logging.DEBUG
        assert setup_logging(quiet=True).level == logging.WARNING

    def test_repeated_calls_do_not_stack_handlers(self):
        for _ in range(3):
            logger = setup_logging()
        assert len(logger.handlers) == 1
        assert logger.propagate is False

    def test_messages_reach_the_given_stream(self):
        stream = io.StringIO()
        setup_logging(stream=stream)
        get_logger("cli").info("42 points in 1.0s")
        assert stream.getvalue() == "42 points in 1.0s\n"

    def test_quiet_suppresses_progress(self):
        stream = io.StringIO()
        setup_logging(quiet=True, stream=stream)
        get_logger().info("progress line")
        get_logger().warning("warning line")
        assert stream.getvalue() == "warning line\n"


class TestHeartbeat:
    def make(self, clock, **kwargs):
        logger = logging.getLogger("repro-heartbeat-test")
        logger.handlers.clear()
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        beat = Heartbeat(logger=logger, clock=clock, **kwargs)
        return beat, stream

    def test_rate_limited_to_the_interval(self):
        now = [0.0]
        beat, stream = self.make(
            lambda: now[0], total=100, min_interval_s=1.0
        )
        beat(None, 1, 100)  # first emit is free
        for done in range(2, 10):
            now[0] += 0.01  # well inside the interval
            beat(None, done, 100)
        assert len(stream.getvalue().splitlines()) == 1

    def test_final_line_always_emits(self):
        now = [0.0]
        beat, stream = self.make(
            lambda: now[0], total=3, min_interval_s=60.0
        )
        beat(None, 1, 3)
        beat(None, 2, 3)
        beat(None, 3, 3)  # done == total forces the final emit
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "3/3 (100.0%)" in lines[-1]

    def test_line_reports_rate_and_eta(self):
        now = [0.0]
        beat, _ = self.make(lambda: now[0], total=10, label="garments")
        now[0] = 2.0
        beat(None, 4, 10)
        line = beat.line()
        assert line.startswith("garments 4/10 (40.0%)")
        assert "2.0/s" in line
        assert "ETA 3s" in line

    def test_tick_counts_without_a_total(self):
        now = [0.0]
        beat, _ = self.make(lambda: now[0])
        beat.tick()
        beat.tick()
        now[0] = 1.0
        assert beat.line() == "points 2 — 2.0/s"

    def test_eta_formatting_scales_units(self):
        from repro.telemetry.console import _fmt_eta

        assert _fmt_eta(42.0) == "42s"
        assert _fmt_eta(150.0) == "2.5m"
        assert _fmt_eta(7200.0) == "2.0h"

    def test_rate_forgets_an_initial_cache_burst(self):
        # A warm-cache fleet serves its first 1000 garments instantly,
        # then settles to 1/s.  A cumulative rate would keep promising
        # ~500/s and an absurd ETA; the sliding window must converge to
        # the post-burst rate instead.
        now = [0.0]
        beat, _ = self.make(
            lambda: now[0], total=2000, window_s=10.0
        )
        now[0] = 0.001
        beat(None, 1000, 2000)  # the burst
        for step in range(1, 31):  # 30s of 1/s steady state
            now[0] = 0.001 + step
            beat(None, 1000 + step, 2000)
        rate = beat.rate()
        assert rate < 5.0, f"burst still dominates: {rate}/s"
        assert rate == pytest.approx(1.0, rel=0.35)
        # And the ETA derived from it is in the right decade: ~970
        # garments left at ~1/s, nowhere near the ~2s a cumulative
        # rate would have promised.
        assert "ETA" in beat.line()
        assert "h" not in beat.line() or "m" in beat.line()

    def test_rate_falls_back_to_cumulative_before_the_window_fills(self):
        now = [0.0]
        beat, _ = self.make(lambda: now[0], total=10)
        now[0] = 2.0
        beat(None, 4, 10)
        assert beat.rate() == pytest.approx(2.0)

    def test_finish_emits_exactly_one_terminal_line(self):
        now = [0.0]
        beat, stream = self.make(
            lambda: now[0], total=5, min_interval_s=60.0
        )
        beat(None, 1, 5)  # first emit is free
        now[0] = 0.5
        beat(None, 4, 5)  # swallowed by the rate limiter
        assert len(stream.getvalue().splitlines()) == 1
        beat.finish()  # the guaranteed terminal line
        beat.finish()  # idempotent
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "4/5" in lines[-1]

    def test_final_callback_and_finish_do_not_double_emit(self):
        now = [0.0]
        beat, stream = self.make(
            lambda: now[0], total=2, min_interval_s=60.0
        )
        beat(None, 1, 2)
        beat(None, 2, 2)  # done == total emits the terminal line
        beat.finish()  # the CLI's finally must not add another
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "2/2 (100.0%)" in lines[-1]


class TestTraceLinesAreJsonSafe:
    def test_recorder_lines_serialise(self):
        recorder = TraceRecorder()
        recorder.frame(
            0, alive=16, soc=[0.1, 0.5, 0.9], load_levels={(0, 1): 2}
        )
        recorder.event("fault", frame=3, kind="link-cut", link=[0, 1])
        recorder.timing("plan-compute", 0.003)
        for line in recorder.lines(meta={"command": "test"}):
            json.dumps(line, sort_keys=True)
