"""The CI bench-regression guard: timing, behaviour lock, and document
shapes (it must tolerate fleet-shaped documents)."""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import pathlib
import sys

import pytest

SCRIPT = (
    pathlib.Path(__file__).resolve().parents[2]
    / "scripts"
    / "check_bench_regression.py"
)


@pytest.fixture(scope="module")
def guard():
    spec = importlib.util.spec_from_file_location("bench_guard", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(tmp_path, name: str, document: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


BENCH_RECORDS = {
    "fig7": [
        {"label": "4x4/ear", "elapsed_s": 0.5},
        {"label": "4x4/sdr"},  # cached: no timing
    ],
}


class TestLoadPoints:
    def test_flattens_scenario_records(self, guard, tmp_path):
        path = write(tmp_path, "bench.json", BENCH_RECORDS)
        assert guard.load_points(path) == {"fig7/4x4/ear": 0.5}

    def test_skips_fleet_bundle_keys(self, guard, tmp_path):
        document = {
            **BENCH_RECORDS,
            # A fleet bundle merged into the same document: a dict, not
            # a list of labelled records.
            "fleet_smoke": {
                "schema": 1,
                "aggregate": {"count": 1000},
                "run": {"elapsed_s": 42.0},
            },
            # And a record list with aggregate-shaped entries.
            "fleet_points": [{"aggregate": {"count": 4}}, "not-a-dict"],
        }
        path = write(tmp_path, "mixed.json", document)
        assert guard.load_points(path) == {"fig7/4x4/ear": 0.5}

    def test_guard_passes_on_mixed_documents(self, guard, tmp_path):
        document = {
            **BENCH_RECORDS,
            "fleet_smoke": {"schema": 1, "aggregate": {"count": 10}},
        }
        baseline = write(tmp_path, "baseline.json", document)
        fresh = write(tmp_path, "fresh.json", document)
        assert guard.main([baseline, fresh]) == 0

    def test_guard_still_fails_on_regression(self, guard, tmp_path):
        baseline = write(tmp_path, "baseline.json", BENCH_RECORDS)
        slower = {
            "fig7": [{"label": "4x4/ear", "elapsed_s": 5.0}],
            "fleet_smoke": {"schema": 1},
        }
        fresh = write(tmp_path, "fresh.json", slower)
        assert guard.main([baseline, fresh]) == 1


class TestClampedMachineFactor:
    """A clamped machine factor is named; the verdict stays the gate's."""

    BASELINE = {
        "body": [
            {"label": "a", "elapsed_s": 1.0},
            {"label": "b", "elapsed_s": 1.0},
            {"label": "c", "elapsed_s": 1.0},
        ]
    }

    def run(self, guard, tmp_path, capsys, fresh_times):
        fresh = {
            "body": [
                {"label": label, "elapsed_s": elapsed}
                for label, elapsed in zip("abc", fresh_times)
            ]
        }
        code = guard.main(
            [
                write(tmp_path, "baseline.json", self.BASELINE),
                write(tmp_path, "fresh.json", fresh),
            ]
        )
        return code, capsys.readouterr().out

    def test_a_speed_up_beyond_the_clamp_is_named(
        self, guard, tmp_path, capsys
    ):
        # Two points 3.3x faster put the median ratio at 0.3; clamped at
        # 0.5, the point only 1.5x faster reads x1.30 and fails.
        code, out = self.run(guard, tmp_path, capsys, (0.3, 0.3, 0.65))
        assert code == 1
        assert "machine factor 0.500" in out
        assert (
            "  note  machine factor clamped at 0.500: after a uniform "
            "speed-up or slow-down of every point, a FAIL may be the "
            "clamp rather than that point"
        ) in out
        assert "FAIL  body/c: 1.000s -> 0.650s (normalised x1.30)" in out

    def test_a_slow_down_beyond_the_clamp_is_named(
        self, guard, tmp_path, capsys
    ):
        code, out = self.run(guard, tmp_path, capsys, (3.0, 3.0, 3.0))
        assert code == 1
        assert "machine factor clamped at 2.000" in out

    def test_an_unclamped_factor_is_not_named(self, guard, tmp_path, capsys):
        code, out = self.run(guard, tmp_path, capsys, (0.6, 0.6, 0.65))
        assert code == 0
        assert "machine factor 0.600" in out
        assert "clamped" not in out


class TestMissingSections:
    """A silently dropped scenario section must fail, not pass."""

    def test_load_document_returns_sections(self, guard, tmp_path):
        document = {
            **BENCH_RECORDS,
            "all_cached": [{"label": "4x4/ear"}],
            "fleet_smoke": {"schema": 1},
        }
        path = write(tmp_path, "bench.json", document)
        points, sections = guard.load_document(path)
        assert points == {"fig7/4x4/ear": 0.5}
        # Dict-shaped keys are not scenario sections; record lists are,
        # even when every point was served from the cache.
        assert sections == {"fig7", "all_cached"}

    def test_fresh_missing_baseline_section_is_fatal(
        self, guard, tmp_path, capsys
    ):
        baseline = write(
            tmp_path,
            "baseline.json",
            {
                **BENCH_RECORDS,
                "engine-speed": [
                    {"label": "4x4/vector", "elapsed_s": 0.4}
                ],
            },
        )
        fresh = write(tmp_path, "fresh.json", BENCH_RECORDS)
        assert guard.main([baseline, fresh]) == 2
        out = capsys.readouterr().out
        assert "missing scenario section(s)" in out
        assert "engine-speed" in out

    def test_fresh_only_section_is_informational(self, guard, tmp_path):
        baseline = write(tmp_path, "baseline.json", BENCH_RECORDS)
        fresh = write(
            tmp_path,
            "fresh.json",
            {
                **BENCH_RECORDS,
                "brand-new": [{"label": "4x4/x", "elapsed_s": 0.3}],
            },
        )
        assert guard.main([baseline, fresh]) == 0

    def test_empty_fresh_document_is_fatal(self, guard, tmp_path):
        baseline = write(tmp_path, "baseline.json", BENCH_RECORDS)
        fresh = write(tmp_path, "fresh.json", {"fleet_smoke": {"a": 1}})
        assert guard.main([baseline, fresh]) == 2


#: Records as ``repro bench --json`` writes them: a timed point and a
#: cached one (no ``elapsed_s``), each with its summary and parameters.
LOCKED = {
    "fig7": [
        {
            "label": "4x4/ear",
            "elapsed_s": 0.5,
            "death_cause": "module-unreachable",
            "jobs_fractional": 79.467,
            "upload_pj": 12249.7,
            "hot_link_share": None,
        },
        {"label": "4x4/sdr", "jobs_fractional": 14.2, "upload_pj": 3000.1},
    ],
}


class TestBehaviourLock:
    """A baselined point's record must not move outside ``elapsed_s``."""

    def run(self, guard, tmp_path, fresh):
        baseline = write(tmp_path, "baseline.json", LOCKED)
        return guard.main([baseline, write(tmp_path, "fresh.json", fresh)])

    def test_identical_records_pass(self, guard, tmp_path):
        fresh = copy.deepcopy(LOCKED)
        fresh["fig7"][0]["elapsed_s"] = 0.55  # timing noise only
        assert self.run(guard, tmp_path, fresh) == 0

    def test_one_ulp_on_one_float_fails(self, guard, tmp_path, capsys):
        fresh = copy.deepcopy(LOCKED)
        record = fresh["fig7"][0]
        record["upload_pj"] = math.nextafter(record["upload_pj"], math.inf)
        assert self.run(guard, tmp_path, fresh) == 1
        out = capsys.readouterr().out
        assert (
            "BEHAVIOUR  fig7/4x4/ear: upload_pj 12249.7 -> 12249.700000000003"
            in out
        )

    def test_changed_value_on_a_cached_point_fails(
        self, guard, tmp_path, capsys
    ):
        fresh = copy.deepcopy(LOCKED)
        fresh["fig7"][1]["jobs_fractional"] = 14.3
        del fresh["fig7"][1]["upload_pj"]  # a key gone counts too
        assert self.run(guard, tmp_path, fresh) == 1
        out = capsys.readouterr().out
        assert "fig7/4x4/sdr: jobs_fractional 14.2 -> 14.3" in out
        assert "fig7/4x4/sdr: upload_pj 3000.1 -> missing" in out

    def test_fresh_only_points_stay_informational(self, guard, tmp_path):
        fresh = copy.deepcopy(LOCKED)
        fresh["fig7"].append(
            {"label": "8x8/ear", "elapsed_s": 0.3, "jobs_fractional": 1.0}
        )
        fresh["brand-new"] = [{"label": "x", "jobs_fractional": 2.0}]
        assert self.run(guard, tmp_path, fresh) == 0


FINGERPRINT = SCRIPT.with_name("behaviour_fingerprint.py")


@pytest.fixture(scope="module")
def fingerprint():
    spec = importlib.util.spec_from_file_location(
        "behaviour_fingerprint", FINGERPRINT
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def two_point_corpus():
    """EAR and SDR on a 4x4 fabric, three jobs each."""
    from helpers import make_config
    from repro.orchestration import SweepPoint

    return [
        (
            f"pair/{routing}",
            SweepPoint(
                label=routing, config=make_config(routing=routing, max_jobs=3)
            ),
        )
        for routing in ("ear", "sdr")
    ]


def committed_lock(fingerprint) -> dict:
    from repro.orchestration.cache import BEHAVIOUR_LOCK

    return fingerprint.read_lock(BEHAVIOUR_LOCK.read_text())


class TestBehaviourFingerprint:
    """``scripts/behaviour_fingerprint.py``: three hashes per record
    (summary, ledger, trace), written to and checked against the
    behaviour lock whose digest keys the sweep cache."""

    def test_a_record_hash_is_stable_and_ulp_sensitive(self, fingerprint):
        from helpers import make_config
        from repro.sim.et_sim import run_simulation
        from repro.telemetry.recorder import TraceRecorder

        def traced_run():
            recorder = TraceRecorder()
            stats = run_simulation(make_config(max_jobs=3), recorder)
            return stats, recorder.lines()

        stats, trace = traced_run()
        parts = fingerprint.record_parts(stats, trace)
        assert list(parts) == list(fingerprint.PARTS)
        assert fingerprint.record_parts(*traced_run()) == parts
        column = stats.energy.nodes.data_tx_pj
        column[3] = math.nextafter(column[3], math.inf)
        moved = fingerprint.record_parts(stats, trace)
        assert moved["ledger"] != parts["ledger"]
        assert moved["summary"] == parts["summary"]
        assert moved["trace"] == parts["trace"]

    def test_an_unchanged_corpus_passes(self, fingerprint):
        corpus = two_point_corpus()
        lock = fingerprint.lock_text(fingerprint.fingerprint(corpus))
        assert lock.count("\n") == 2
        fresh = fingerprint.fingerprint(corpus)
        assert fingerprint.differences(fingerprint.read_lock(lock), fresh) == []

    def test_one_ulp_of_hop_energy_names_both_records(
        self, fingerprint, monkeypatch
    ):
        from repro.link.energy import LinkEnergyModel

        corpus = two_point_corpus()
        locked = fingerprint.fingerprint(corpus)
        exact = LinkEnergyModel.hop_energy_pj
        monkeypatch.setattr(
            LinkEnergyModel,
            "hop_energy_pj",
            lambda self, length: math.nextafter(exact(self, length), math.inf),
        )
        problems = fingerprint.differences(
            locked, fingerprint.fingerprint(corpus)
        )
        assert len(problems) == 2
        for label, problem in zip(("pair/ear", "pair/sdr"), problems):
            assert problem.startswith(f"moved: {label} (")
            assert "ledger" in problem

    def test_missing_and_new_labels_are_named(self, fingerprint):
        parts = dict.fromkeys(fingerprint.PARTS, "0" * fingerprint.SHORT)
        locked = {"kept": parts, "gone": parts}
        fresh = {"kept": parts, "added": parts}
        assert fingerprint.differences(locked, fresh) == [
            "not in the lock: added",
            "missing from the corpus: gone",
        ]

    def test_the_lock_lists_exactly_the_corpus(self, fingerprint):
        labels = [label for label, _ in fingerprint.corpus()]
        assert len(set(labels)) == len(labels)
        assert not any(" " in label for label in labels)
        locked = committed_lock(fingerprint)
        assert sorted(locked) == sorted(labels)
        assert all(list(parts) == list(fingerprint.PARTS) for parts in locked.values())

    def test_the_smoke_records_replay_their_lock_lines(self, fingerprint):
        smoke = [
            (label, point)
            for label, point in fingerprint.corpus()
            if label.startswith("smoke/")
        ]
        assert len(smoke) == 38
        locked = committed_lock(fingerprint)
        fresh = fingerprint.fingerprint(smoke)
        assert fingerprint.differences(
            {label: locked[label] for label in fresh}, fresh
        ) == []


PERF_PAIRS = SCRIPT.with_name("perf_pairs.py")


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", PERF_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPerfPairsVerdict:
    """``scripts/perf_pairs.py``: the gain rule (9 of 10 pair wins and a
    median gap beyond the parent's IQR) and the regression rule."""

    PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]

    def test_ten_wins_with_a_gap_is_a_gain(self, pairs):
        change = [value - 10.0 for value in self.PARENT]
        result = pairs.verdict(self.PARENT, change, "lower", 0.25)
        assert (result.wins, result.ties, result.pairs) == (10, 0, 10)
        assert result.gap == pytest.approx(10.0)
        assert result.gain and not result.regression

    def test_eight_wins_is_no_gain(self, pairs):
        change = [value - 10.0 for value in self.PARENT]
        change[0] = change[1] = 200.0
        result = pairs.verdict(self.PARENT, change, "lower", 0.25)
        assert result.wins == 8
        assert result.gap > result.parent[2] - result.parent[0]
        assert not result.gain

    def test_a_gap_inside_the_parents_iqr_is_no_gain(self, pairs):
        change = [value - 0.5 for value in self.PARENT]
        result = pairs.verdict(self.PARENT, change, "lower", 0.25)
        assert result.wins == 10
        assert 0 < result.gap < result.parent[2] - result.parent[0]
        assert not result.gain

    def test_ties_count_for_neither_side(self, pairs):
        change = list(self.PARENT)
        change[0] -= 5.0
        change[1] += 5.0
        result = pairs.verdict(self.PARENT, change, "lower", 0.25)
        assert (result.wins, result.ties) == (1, 8)
        assert not result.gain and not result.regression

    def test_higher_is_better(self, pairs):
        parent = [2700.0 + 10 * i for i in range(10)]
        faster = [value * 1.2 for value in parent]
        result = pairs.verdict(parent, faster, "higher", 0.25)
        assert result.wins == 10 and result.gain and not result.regression
        slower = [value * 0.7 for value in parent]
        result = pairs.verdict(parent, slower, "higher", 0.25)
        assert result.wins == 0 and result.gap < 0
        assert result.regression and not result.gain

    def test_regression_beyond_the_bound(self, pairs):
        worse = [value * 1.3 for value in self.PARENT]
        assert pairs.verdict(self.PARENT, worse, "lower", 0.25).regression
        within = [value * 1.2 for value in self.PARENT]
        assert not pairs.verdict(self.PARENT, within, "lower", 0.25).regression

    def test_unknown_direction_rejected(self, pairs):
        with pytest.raises(ValueError):
            pairs.verdict([1.0], [1.0], "faster", 0.25)


def stub_checkout(tmp_path, name: str, body: str) -> pathlib.Path:
    """A checkout whose BENCHMARK.json command runs ``body``."""
    checkout = tmp_path / name
    checkout.mkdir()
    (checkout / "bench.py").write_text(body, encoding="utf-8")
    benchmark = {
        "command": [sys.executable, "bench.py"],
        "run_seconds": 1,
        "end_to_end": [
            {"name": "point_ms", "unit": "ms", "better": "lower", "bound": 0.25}
        ],
    }
    (checkout / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return checkout


class TestPerfPairsFailedRuns:
    """A run that prints no result line is named with its exit code and
    last stderr line, apart from a run that reports itself incorrect."""

    CRASH = (
        "import sys\n"
        "sys.stderr.write('Traceback (most recent call last):\\n')\n"
        "sys.stderr.write('RuntimeError: no speed sample fell in the stretch\\n')\n"
        "sys.exit(1)\n"
    )
    INCORRECT = (
        "import json\n"
        "print(json.dumps({'correct': False, 'attempted': 3, 'failed': 1,\n"
        "    'metrics': {'point_ms': {'value': 1.0}}}))\n"
    )

    def test_a_run_without_a_result_is_named(self, pairs, tmp_path, capsys):
        crash = stub_checkout(tmp_path, "crash", self.CRASH)
        incorrect = stub_checkout(tmp_path, "incorrect", self.INCORRECT)
        code = pairs.main(
            [str(crash), str(incorrect), "--workload", "paper", "--pairs", "1"]
        )
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        no_result = (
            "pair 1 parent: no result (exit 1): "
            "RuntimeError: no speed sample fell in the stretch"
        )
        incorrect_run = "pair 1 change: correct=False attempted=3 failed=1"
        assert out[0] == no_result
        assert out[1].startswith(incorrect_run)
        # The closing list names both runs, and no verdict follows.
        assert out[2].startswith("perf_pairs: 2 run(s)")
        assert out[3] == f"  {no_result}"
        assert out[4].startswith(f"  {incorrect_run}")
        assert len(out) == 5
