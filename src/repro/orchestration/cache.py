"""Content-addressed result cache for sweep points.

A finished sweep point is summarised by a plain JSON record (the
``SimulationStats.summary()`` dict plus the point's labels).  Because a
run is fully determined by its :class:`~repro.config.SimulationConfig`,
the SHA-256 hash of the canonical JSON form of that configuration is a
sound cache key: repeated benchmark or CI invocations of the same grid
load the stored records instead of re-simulating.

Invalidation is by construction: any change to a configuration value
changes the key, and :data:`CACHE_SCHEMA_VERSION` is mixed into every
key so that simulator-behaviour changes can globally invalidate old
entries with a one-line bump.  Storage is one flat directory of
``<key>.json`` files, each written to a temporary file and renamed into
place, so concurrent workers and parallel CI jobs can share a cache
directory without ever reading a torn record.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import time
from collections.abc import Iterator

from ..config import SimulationConfig
from ..errors import ConfigurationError

#: Bump when simulator behaviour changes in a way that invalidates
#: previously cached summaries (engine semantics, summary fields, ...).
#: v2: fault-injection subsystem — configs carry a ``faults`` section
#: and summaries gained the per-fault accounting counters.
#: v3: correlated tear/moisture profiles, repair events and the
#: wear-aware weight — configs gained ``wear_*`` knobs and fault
#: parameters, summaries gained ``links_repaired``, and the controller
#: energy-accounting fixes (dead-node table diffs, delivered idle leak)
#: changed existing records.
#: v4: energy-harvesting subsystem — configs gained a ``harvest``
#: section, ``harvest_*`` knobs and the fault repair-crew/corrosion
#: parameters; summaries gained ``harvested_pj`` / ``shared_pj`` /
#: ``harvest_events``.
#: v5: heterogeneous harvest hardware and the multi-hop power bus —
#: the ``harvest`` section gained a nested ``hardware`` spec and
#: ``share_max_hops``, the platform gained the ``harvest-proportional``
#: mapping strategy, and summaries gained ``share_hops``.
#: v6: a neutral wear or harvest weight (q == 1) no longer pushes level
#: changes to the controller, so those runs re-plan like reactive EAR.
#: v7: phase 2 routes on per-module shortest-path trees; the canonical
#: hop is the lowest-id tight neighbour (not Floyd–Warshall's first-found
#: successor), a deadlocked node falls back to its best unblocked
#: downhill neighbour, and deadlock escape hops read the module column.
#: v8: a node that flags a deadlock uploads its current level (it used
#: to upload the level it last reported), so concurrent runs with a flag
#: at a level crossing re-plan on the level the node fell to.
CACHE_SCHEMA_VERSION = 8

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
        {"schema": CACHE_SCHEMA_VERSION, "config": data},
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
    record plus its ``schema``; :meth:`store` writes it atomically.  A
    missing, unreadable or stale entry is a miss.

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
            or record.get("schema") != CACHE_SCHEMA_VERSION
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
        payload["schema"] = CACHE_SCHEMA_VERSION
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

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.time_lookup_s = 0.0
        self.time_store_s = 0.0

    def counters(self) -> dict:
        """JSON-safe snapshot of the cache's activity counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookup_s": round(self.time_lookup_s, 6),
            "store_s": round(self.time_store_s, 6),
        }
