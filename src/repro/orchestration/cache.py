"""Content-addressed result cache for sweep points.

A finished sweep point is summarised by a plain JSON record (the
``SimulationStats.summary()`` dict plus the point's labels).  Because a
run is fully determined by its :class:`~repro.config.SimulationConfig`,
the SHA-256 hash of the canonical JSON form of that configuration is a
sound cache key: repeated benchmark or CI invocations of the same grid
load the stored records instead of re-simulating.

Invalidation is by construction: any change to a configuration value
changes the key, and ``BEHAVIOUR_DIGEST`` — the sha256 of the committed
behaviour lock, which ``scripts/behaviour_fingerprint.py`` writes and
CI checks — is mixed into every key and stamped on every entry.  A
change of simulator behaviour cannot land without a new lock, and a new
lock retires every older entry.  Storage is one flat directory of
``<key>.json`` files, each written to a temporary file and renamed into
place, so concurrent workers and parallel CI jobs can share a cache
directory without ever reading a torn record.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import tempfile
import time
from collections.abc import Iterator

from ..config import SimulationConfig
from ..errors import ConfigurationError

#: The behaviour lock: three hashes per record of a fixed simulation
#: corpus, written and checked by ``scripts/behaviour_fingerprint.py``.
BEHAVIOUR_LOCK = pathlib.Path(__file__).with_name("behaviour.lock")


@functools.cache
def _behaviour_digest() -> str:
    return hashlib.sha256(BEHAVIOUR_LOCK.read_bytes()).hexdigest()


def __getattr__(name: str) -> str:
    # BEHAVIOUR_DIGEST is read on first use, not at import, so the
    # lock's writer can import the package while the file is missing.
    if name == "BEHAVIOUR_DIGEST":
        return _behaviour_digest()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "ETSIM_CACHE_DIR"

#: Default cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".etsim_cache"


def config_hash(config: SimulationConfig) -> str:
    """Stable content hash of one simulation configuration.

    The ``engine`` field is normalised out of the payload whenever it
    resolves to the same engine ``"auto"`` would pick: those runs are
    the same simulation, so they share one key.  Only a genuinely
    overriding engine choice (e.g. ``"vector"`` on a sequential
    workload) enters the hash.
    """
    data = config.to_dict()
    auto = (
        "concurrent"
        if config.workload.kind == "concurrent"
        else "sequential"
    )
    if config.resolved_engine() == auto:
        data.pop("engine", None)
    payload = json.dumps(
        {"behaviour": _behaviour_digest(), "config": data},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def default_cache_dir() -> pathlib.Path:
    """The cache directory: ``$ETSIM_CACHE_DIR`` or ``.etsim_cache``."""
    return pathlib.Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


class SweepCache:
    """Disk-backed config-hash -> summary-record store.

    Each entry is one ``<directory>/<key>.json`` file holding the
    record plus the ``behaviour`` digest it was computed under;
    :meth:`store` writes it atomically.  A missing or unreadable entry,
    or one stamped with any other digest, is a miss.

    Args:
        directory: Cache root; created lazily on first store.
            ``None`` selects :func:`default_cache_dir`.
        backend: Accepts only ``"flat"``, the one layout; any other
            value raises :class:`~repro.errors.ConfigurationError`.  It
            exists for perfbench, whose ``run.py`` passes
            ``backend="flat"`` and changes only with the benchmark.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        backend: str = "flat",
    ):
        if backend != "flat":
            raise ConfigurationError(
                f"unknown cache layout {backend!r}; the sweep cache "
                "has one layout, 'flat'"
            )
        self.directory = pathlib.Path(
            directory if directory is not None else default_cache_dir()
        )
        self.hits = 0
        self.misses = 0
        #: Cumulative wall-clock seconds spent in cache file I/O, kept
        #: always-on (two clock reads per operation are noise next to
        #: the file access they bracket) so sweep and fleet summaries
        #: can report cache cost without a recorder.
        self.time_lookup_s = 0.0
        self.time_store_s = 0.0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def lookup(self, key: str) -> dict | None:
        """Stored record for ``key``; None (and a miss) when absent."""
        started = time.perf_counter()
        try:
            with open(self._path(key), encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            # Absent, unreadable, not UTF-8 or not JSON: a miss.
            record = None
        self.time_lookup_s += time.perf_counter() - started
        if (
            not isinstance(record, dict)
            or record.get("behaviour") != _behaviour_digest()
        ):
            self.misses += 1
            return None
        self.hits += 1
        return record

    def store(self, key: str, record: dict) -> None:
        """Atomically persist one finished point's record.

        The record goes to a ``.tmp-*`` file in the cache directory,
        which is then renamed over the entry: a concurrent reader sees
        the old record or the new one, never a torn file.
        """
        payload = dict(record)
        payload["behaviour"] = _behaviour_digest()
        started = time.perf_counter()
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.time_store_s += time.perf_counter() - started

    # ------------------------------------------------------------------
    def _entries(self) -> Iterator[pathlib.Path]:
        """Stored entry files, skipping in-progress ``.tmp-*`` writes."""
        if not self.directory.is_dir():
            return
        for path in self.directory.iterdir():
            if path.suffix == ".json" and not path.name.startswith(".tmp-"):
                yield path

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed.

        In-progress ``.tmp-*`` files are left alone: a concurrent
        writer mid-``store`` must still be able to complete its rename.
        """
        removed = 0
        for path in self._entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def counters(self) -> dict:
        """JSON-safe snapshot of the cache's activity counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookup_s": round(self.time_lookup_s, 6),
            "store_s": round(self.time_store_s, 6),
        }
