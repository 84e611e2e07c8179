"""Pluggable storage backends for the sweep cache.

One flat directory of ``<hash>.json`` files is fine for a few hundred
sweep points; a million-garment fleet turns it into a directory with a
million entries, which many filesystems handle badly.  The cache
therefore speaks to storage through a small backend protocol:

* ``flat``    — the original one-file-per-key directory (default; old
  caches keep hitting unchanged);
* ``sharded`` — a two-hex-character prefix fan-out
  (``ab/ab12....json``), bounding any single directory at 256 children
  plus the per-shard files;
* ``sqlite``  — a single ``cache.sqlite`` database, one row per key —
  the fewest inodes and the cheapest enumeration at fleet scale.

All backends store the same JSON payload and are safe against
concurrent writers: the directory backends write-then-rename, and the
sqlite backend relies on SQLite's own locking, whose busy timeout
serialises writers.
Records written through one directory backend are invisible to the
other layouts by design — pick a backend per cache directory.
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
import tempfile

from ..errors import ConfigurationError

#: Recognised cache backend names.
CACHE_BACKENDS = ("flat", "sharded", "sqlite")

#: Environment variable overriding the default cache backend.
CACHE_BACKEND_ENV = "ETSIM_CACHE_BACKEND"


def default_backend_name() -> str:
    """``$ETSIM_CACHE_BACKEND`` or ``flat``."""
    name = os.environ.get(CACHE_BACKEND_ENV) or "flat"
    if name not in CACHE_BACKENDS:
        raise ConfigurationError(
            f"unknown cache backend {name!r} in ${CACHE_BACKEND_ENV}; "
            f"expected one of {CACHE_BACKENDS}"
        )
    return name


def make_backend(name: str, directory: pathlib.Path):
    """Instantiate the named backend rooted at ``directory``."""
    if name == "flat":
        return FlatDirBackend(directory)
    if name == "sharded":
        return ShardedDirBackend(directory)
    if name == "sqlite":
        return SqliteBackend(directory)
    raise ConfigurationError(
        f"unknown cache backend {name!r}; expected one of {CACHE_BACKENDS}"
    )


def _atomic_write_json(path: pathlib.Path, payload: dict) -> None:
    """Write-then-rename so readers never observe a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _read_json(path: pathlib.Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return record if isinstance(record, dict) else None


def _is_entry(path: pathlib.Path) -> bool:
    return path.suffix == ".json" and not path.name.startswith(".tmp-")


class FlatDirBackend:
    """One ``<key>.json`` file per entry, all in one directory."""

    name = "flat"

    def __init__(self, directory: pathlib.Path):
        self.directory = pathlib.Path(directory)

    def path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> dict | None:
        return _read_json(self.path(key))

    def save(self, key: str, payload: dict) -> None:
        _atomic_write_json(self.path(key), payload)

    def count(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for p in self.directory.iterdir() if _is_entry(p))

    def clear(self) -> int:
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.iterdir():
                if _is_entry(path):
                    path.unlink(missing_ok=True)
                    removed += 1
        return removed


class ShardedDirBackend:
    """Two-hex-prefix directory fan-out: ``<key[:2]>/<key>.json``.

    Keys are SHA-256 hex digests, so the prefix spreads entries evenly
    over at most 256 shard directories.
    """

    name = "sharded"

    def __init__(self, directory: pathlib.Path):
        self.directory = pathlib.Path(directory)

    def path(self, key: str) -> pathlib.Path:
        shard = key[:2] if len(key) >= 2 else "__"
        return self.directory / shard / f"{key}.json"

    def load(self, key: str) -> dict | None:
        return _read_json(self.path(key))

    def save(self, key: str, payload: dict) -> None:
        _atomic_write_json(self.path(key), payload)

    def _shards(self):
        if not self.directory.is_dir():
            return
        for shard in self.directory.iterdir():
            if shard.is_dir() and not shard.name.startswith(".tmp-"):
                yield shard

    def count(self) -> int:
        return sum(
            1
            for shard in self._shards()
            for p in shard.iterdir()
            if _is_entry(p)
        )

    def clear(self) -> int:
        removed = 0
        for shard in self._shards():
            for path in shard.iterdir():
                if _is_entry(path):
                    path.unlink(missing_ok=True)
                    removed += 1
        return removed


class SqliteBackend:
    """All entries as rows of one ``cache.sqlite`` database.

    A fresh connection per operation keeps the backend safe under any
    threading/multiprocessing pattern; SQLite's busy timeout arbitrates
    concurrent writers from separate invocations.  The connection sets
    no journal mode: switching it needs a lock that, under contention,
    fails at once instead of waiting out the timeout.  A database
    created in WAL mode keeps working in it: SQLite stores the mode in
    the file.
    """

    name = "sqlite"
    filename = "cache.sqlite"

    def __init__(self, directory: pathlib.Path):
        self.directory = pathlib.Path(directory)

    @property
    def database(self) -> pathlib.Path:
        return self.directory / self.filename

    def _connect(self) -> sqlite3.Connection:
        self.directory.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.database, timeout=30.0)
        conn.execute(
            "CREATE TABLE IF NOT EXISTS entries ("
            "key TEXT PRIMARY KEY, payload TEXT NOT NULL)"
        )
        return conn

    def load(self, key: str) -> dict | None:
        if not self.database.is_file():
            return None
        try:
            conn = self._connect()
        except sqlite3.Error:
            return None
        try:
            row = conn.execute(
                "SELECT payload FROM entries WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.Error:
            return None
        finally:
            conn.close()
        if row is None:
            return None
        try:
            record = json.loads(row[0])
        except json.JSONDecodeError:
            return None
        return record if isinstance(record, dict) else None

    def save(self, key: str, payload: dict) -> None:
        text = json.dumps(payload, sort_keys=True)
        with self._connect() as conn:
            conn.execute(
                "INSERT INTO entries (key, payload) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET payload = excluded.payload",
                (key, text),
            )
        conn.close()

    def count(self) -> int:
        if not self.database.is_file():
            return 0
        try:
            conn = self._connect()
        except sqlite3.Error:
            return 0
        try:
            (n,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
        except sqlite3.Error:
            return 0
        finally:
            conn.close()
        return int(n)

    def clear(self) -> int:
        if not self.database.is_file():
            return 0
        with self._connect() as conn:
            cursor = conn.execute("DELETE FROM entries")
        conn.close()
        return cursor.rowcount
