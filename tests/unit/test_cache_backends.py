"""Parity and safety of the pluggable sweep-cache backends."""

from __future__ import annotations

import json
import sqlite3
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.orchestration.backends import (
    CACHE_BACKEND_ENV,
    CACHE_BACKENDS,
    SqliteBackend,
    default_backend_name,
    make_backend,
)
from repro.orchestration.cache import CACHE_SCHEMA_VERSION, SweepCache

KEY_A = "ab" + "0" * 62
KEY_B = "cd" + "1" * 62

RECORD = {
    "label": "4x4/ear",
    "summary": {"jobs_fractional": 12.5, "lifetime_frames": 64},
}


@pytest.fixture(params=CACHE_BACKENDS)
def backend_name(request):
    return request.param


class TestBackendParity:
    def test_round_trip_is_bit_identical(self, tmp_path, backend_name):
        cache = SweepCache(tmp_path / backend_name, backend=backend_name)
        cache.store(KEY_A, RECORD)
        loaded = cache.lookup(KEY_A)
        schema = loaded.pop("schema")
        assert schema == CACHE_SCHEMA_VERSION
        assert json.dumps(loaded, sort_keys=True) == json.dumps(
            RECORD, sort_keys=True
        )

    def test_hit_miss_accounting_matches_across_backends(self, tmp_path):
        counters = {}
        for name in CACHE_BACKENDS:
            cache = SweepCache(tmp_path / name, backend=name)
            cache.lookup(KEY_A)  # miss
            cache.store(KEY_A, RECORD)
            cache.lookup(KEY_A)  # hit
            cache.lookup(KEY_B)  # miss
            counters[name] = (cache.hits, cache.misses, len(cache))
        assert len(set(counters.values())) == 1
        assert counters["flat"] == (1, 2, 1)

    def test_stale_schema_counts_as_miss(self, tmp_path, backend_name):
        cache = SweepCache(tmp_path / backend_name, backend=backend_name)
        cache.backend.save(KEY_A, {**RECORD, "schema": -1})
        assert cache.lookup(KEY_A) is None
        assert cache.misses == 1

    def test_clear_removes_every_entry(self, tmp_path, backend_name):
        cache = SweepCache(tmp_path / backend_name, backend=backend_name)
        cache.store(KEY_A, RECORD)
        cache.store(KEY_B, RECORD)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.lookup(KEY_A) is None

    def test_lookup_never_creates_files(self, tmp_path, backend_name):
        directory = tmp_path / backend_name
        cache = SweepCache(directory, backend=backend_name)
        assert cache.lookup(KEY_A) is None
        assert len(cache) == 0
        assert not directory.exists()

    def test_concurrent_writers_leave_no_torn_records(
        self, tmp_path, backend_name
    ):
        cache = SweepCache(tmp_path / backend_name, backend=backend_name)
        keys = [f"{i:02x}" + "e" * 62 for i in range(16)]
        errors: dict[int, Exception] = {}

        def hammer(worker: int) -> None:
            try:
                for round_index in range(4):
                    for key in keys:
                        cache.store(
                            key,
                            {**RECORD, "worker": worker, "round": round_index},
                        )
            except Exception as exc:  # asserted below
                errors[worker] = exc

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == {}
        assert len(cache) == len(keys)
        for key in keys:
            record = cache.lookup(key)
            assert record is not None
            assert record["label"] == RECORD["label"]
            assert record["worker"] in range(4)


class TestLayouts:
    def test_flat_is_the_default_and_reads_legacy_caches(self, tmp_path):
        legacy = SweepCache(tmp_path)  # pre-backend layout: flat files
        legacy.store(KEY_A, RECORD)
        assert (tmp_path / f"{KEY_A}.json").is_file()
        assert SweepCache(tmp_path).lookup(KEY_A) is not None

    def test_sharded_layout_uses_two_hex_prefix(self, tmp_path):
        cache = SweepCache(tmp_path, backend="sharded")
        cache.store(KEY_A, RECORD)
        assert (tmp_path / KEY_A[:2] / f"{KEY_A}.json").is_file()
        assert cache._path(KEY_A).parent.name == KEY_A[:2]

    def test_sqlite_layout_is_one_database_file(self, tmp_path):
        cache = SweepCache(tmp_path, backend="sqlite")
        cache.store(KEY_A, RECORD)
        cache.store(KEY_B, RECORD)
        assert (tmp_path / SqliteBackend.filename).is_file()
        entries = [
            p for p in tmp_path.iterdir() if p.suffix == ".json"
        ]
        assert entries == []

    def test_backends_do_not_see_each_others_records(self, tmp_path):
        SweepCache(tmp_path, backend="flat").store(KEY_A, RECORD)
        assert SweepCache(tmp_path, backend="sqlite").lookup(KEY_A) is None


class TestSqliteLocking:
    def test_store_waits_out_a_writer_holding_the_lock(self, tmp_path):
        # Another connection holds the write lock of a fresh database.
        # The store must wait on the busy timeout and then succeed; a
        # journal-mode switch would need that lock and fail at once.
        cache = SweepCache(tmp_path, backend="sqlite")
        holder = sqlite3.connect(
            tmp_path / SqliteBackend.filename, isolation_level=None
        )
        holder.execute("BEGIN IMMEDIATE")
        errors: list[Exception] = []

        def store() -> None:
            try:
                cache.store(KEY_A, RECORD)
            except Exception as exc:  # asserted below
                errors.append(exc)

        writer = threading.Thread(target=store)
        writer.start()
        time.sleep(0.3)
        holder.execute("COMMIT")
        holder.close()
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert errors == []
        assert cache.lookup(KEY_A) is not None

    def test_a_wal_mode_database_keeps_working(self, tmp_path):
        database = tmp_path / SqliteBackend.filename
        conn = sqlite3.connect(database)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.close()
        cache = SweepCache(tmp_path, backend="sqlite")
        cache.store(KEY_A, RECORD)
        assert cache.lookup(KEY_A) is not None
        conn = sqlite3.connect(database)
        (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
        conn.close()
        assert mode == "wal"


class TestSelection:
    def test_unknown_backend_name_is_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SweepCache(tmp_path, backend="carrier-pigeon")
        with pytest.raises(ConfigurationError):
            make_backend("carrier-pigeon", tmp_path)

    def test_env_var_selects_the_default_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_BACKEND_ENV, "sharded")
        assert default_backend_name() == "sharded"
        assert SweepCache(tmp_path).backend_name == "sharded"

    def test_env_var_rejects_unknown_names(self, monkeypatch):
        monkeypatch.setenv(CACHE_BACKEND_ENV, "carrier-pigeon")
        with pytest.raises(ConfigurationError):
            default_backend_name()

    def test_explicit_backend_object_wins(self, tmp_path):
        backend = SqliteBackend(tmp_path)
        cache = SweepCache(tmp_path, backend=backend)
        assert cache.backend is backend
        assert cache.backend_name == "sqlite"
