"""Unit tests for the analysis helpers."""

import pytest

from repro.analysis.ascii_chart import bar_chart, series_chart
from repro.analysis.calibration import (
    PAPER_TABLE2_UPPER_BOUNDS,
    calibrated_link_pitch_cm,
    implied_communication_energy_pj,
    implied_energy_per_job_pj,
)
from repro.analysis.tables import format_table
from repro.errors import CalibrationError


class TestCalibration:
    def test_implied_energy_per_job(self):
        # DESIGN.md: Table 2 implies sum(H) ~ 7304.5 pJ.
        total = implied_energy_per_job_pj()
        assert total == pytest.approx(7304.5, abs=2.0)

    def test_implied_communication_energy(self):
        c = implied_communication_energy_pj()
        assert c == pytest.approx(116.7, abs=0.2)

    def test_calibrated_pitch_matches_default(self):
        from repro.mesh.topology import DEFAULT_LINK_PITCH_CM

        pitch = calibrated_link_pitch_cm()
        assert pitch == pytest.approx(DEFAULT_LINK_PITCH_CM, abs=0.005)

    def test_inconsistent_bounds_detected(self):
        with pytest.raises(CalibrationError):
            implied_energy_per_job_pj(bounds={4: 131.0, 8: 300.0})

    def test_paper_bounds_are_mutually_consistent(self):
        # Sanity on the transcription of Table 2 itself.
        values = [
            60_000.0 * w * w / j for w, j in PAPER_TABLE2_UPPER_BOUNDS.items()
        ]
        spread = (max(values) - min(values)) / (sum(values) / len(values))
        assert spread < 0.005


class TestTables:
    def test_alignment_and_headers(self):
        text = format_table(
            ["mesh", "jobs"], [("4x4", 62.8), ("8x8", 234.0)], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "mesh" in lines[1] and "jobs" in lines[1]
        assert "62.80" in text

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestCharts:
    def test_bar_chart_scales_to_peak(self):
        chart = bar_chart({"ear": 100.0, "sdr": 10.0}, width=20)
        lines = chart.splitlines()
        assert lines[0].count("#") == 20
        assert 1 <= lines[1].count("#") <= 3

    def test_bar_chart_empty(self):
        assert bar_chart({}, title="nothing") == "nothing"

    def test_series_chart_renders_legend(self):
        chart = series_chart(
            {"a": [(1, 1), (2, 2)], "b": [(1, 2), (2, 1)]}, width=20, height=6
        )
        assert "legend" in chart
        assert "o = a" in chart


class TestWearComparison:
    def test_wear_aware_twin_only_flips_the_flag(self):
        from repro.analysis.faults import wear_aware_twin
        from repro.config import SimulationConfig

        config = SimulationConfig()
        twin = wear_aware_twin(config)
        assert twin.wear_aware is True
        assert twin.faults == config.faults
        assert twin.routing == config.routing

    def test_comparison_record_reports_gains(self):
        from repro.analysis.faults import wear_comparison

        reactive = {
            "jobs_fractional": 50.0,
            "lifetime_frames": 300,
            "recomputes": 70,
            "packets_rerouted": 5,
        }
        wear = {
            "jobs_fractional": 52.5,
            "lifetime_frames": 312,
            "recomputes": 90,
            "packets_rerouted": 4,
        }
        record = wear_comparison(reactive, wear)
        assert record["jobs_gain"] == pytest.approx(2.5)
        assert record["lifetime_gain_frames"] == 12
        assert record["jobs_reactive"] == 50.0
        assert record["recomputes_wear_aware"] == 90

    def test_comparison_for_runs_both_strategies(self):
        from repro.analysis.faults import wear_comparison_for
        from repro.config import SimulationConfig, WorkloadConfig
        from repro.faults import FaultConfig

        config = SimulationConfig(
            faults=FaultConfig(profile="link-attrition", seed=7),
            workload=WorkloadConfig(max_jobs=6),
        )
        record = wear_comparison_for(config)
        assert record["jobs_reactive"] > 0
        assert record["jobs_wear_aware"] > 0
