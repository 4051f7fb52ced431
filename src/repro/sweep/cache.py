"""Content-hash memoization of sweep results under ``.repro-cache/``.

A point's cache key is the SHA-256 of a *canonical fingerprint* of
everything that determines its outcome:

* the built platform, serialized to SimGrid-style XML (so two specs
  building identical platforms share cache entries, however they were
  written), plus the *contents* of any availability/state profile files
  and the scripted fail/restore events;
* the workload — the application file's bytes (or the builtin factory's
  source), entry point, rank count, parameters and arguments;
* the full resolved :class:`~repro.smpi.SmpiConfig` (defaults included,
  so adding a config field with a new default does not thrash the
  cache).

The fingerprint is serialized with sorted keys and hashed, so identical
specs produce identical keys in any process on any machine; editing any
single axis value — a bandwidth, a workload parameter, one config field
— changes the key and invalidates exactly the affected points
(tests/test_sweep.py pins both properties).

Store layout::

    .repro-cache/objects/<key[:2]>/<key>.json        the result record
    .repro-cache/objects/<key[:2]>/<key>.trace.csv   optional trace artifact

Records carry the :class:`~repro.surf.EngineStats` schema version; a
version bump makes stale entries read as misses instead of misparsing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from ..errors import ConfigError
from ..scenario import build_platform
from ..surf import EngineStats
from . import workloads
from .spec import SweepPoint

__all__ = ["ResultCache", "point_fingerprint", "point_key"]

#: version of the cache record layout (independent of the stats schema)
CACHE_SCHEMA = 1


def _profile_contents(point: SweepPoint, attr: str, base_dir: Path) -> list:
    """The point's ``attr`` profile bindings as ``[resource, file text]``."""
    return [[resource, path.read_text(encoding="utf-8")]
            for kind, resource, path in point.platform.profiles(base_dir)
            if kind == attr]


def _workload_fingerprint(point: SweepPoint, base_dir: Path) -> dict:
    work = point.workload
    if work.builtin is not None:
        source = f"builtin:{work.builtin}:{workloads.fingerprint(work.builtin)}"
    else:
        target = base_dir / work.file
        if not target.exists():
            raise ConfigError(f"workload file {work.file!r} not found")
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        source = f"file:{digest}"
    return {
        "source": source,
        "entry": work.entry,
        "n": work.n,
        "params": work.params,
        "args": work.args,
    }


def point_fingerprint(point: SweepPoint, base_dir: str | Path = ".") -> dict:
    """The canonical content fingerprint a point's cache key hashes.

    Exposed separately from :func:`point_key` so tests (and curious
    users) can see *why* two points do or do not share a key.
    """
    from ..surf.platform_xml import dumps_platform_xml

    base = Path(base_dir)
    platform = build_platform(point.platform.spec, point.workload.n, base)
    config = point.smpi_config()
    return {
        "schema": CACHE_SCHEMA,
        "platform": {
            "xml": dumps_platform_xml(platform),
            "availability": _profile_contents(point, "availability_profile",
                                              base),
            "state_profile": _profile_contents(point, "state_profile", base),
            "fail_at": list(point.platform.fail_at),
            "restore_at": list(point.platform.restore_at),
        },
        "workload": _workload_fingerprint(point, base),
        "config": dataclasses.asdict(config),
    }


def point_key(point: SweepPoint, base_dir: str | Path = ".") -> str:
    """SHA-256 hex key of :func:`point_fingerprint` (canonical JSON)."""
    payload = json.dumps(point_fingerprint(point, base_dir),
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """The on-disk memo store (default root: ``.repro-cache/``)."""

    def __init__(self, root: str | Path = ".repro-cache"):
        self.root = Path(root)

    def _record_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def trace_path(self, key: str) -> Path:
        """Where the optional trace artifact for ``key`` lives."""
        return self.root / "objects" / key[:2] / f"{key}.trace.csv"

    def __contains__(self, key: str) -> bool:
        return self._record_path(key).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("objects/*/*.json"))

    def get(self, key: str) -> dict | None:
        """The cached record for ``key``, or None on miss/stale schema."""
        path = self._record_path(key)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if record.get("schema_version") != CACHE_SCHEMA:
            return None
        stats = record.get("stats")
        if (stats is not None
                and stats.get("schema_version") != EngineStats.SCHEMA_VERSION):
            return None  # counters from an incompatible build
        return record

    def put(self, key: str, record: dict, trace_text: str | None = None) -> Path:
        """Persist ``record`` (and optionally its trace) under ``key``."""
        path = self._record_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema_version": CACHE_SCHEMA, "key": key, **record}
        path.write_text(json.dumps(payload, indent=1, sort_keys=True),
                        encoding="utf-8")
        if trace_text is not None:
            self.trace_path(key).write_text(trace_text, encoding="utf-8")
        return path

    def stats_for(self, record: dict) -> EngineStats | None:
        """Deserialize a record's counters (None when absent)."""
        if record.get("stats") is None:
            return None
        return EngineStats.from_dict(record["stats"])

