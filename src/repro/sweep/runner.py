"""Sweep execution: memo-cache lookup plus process-pool fan-out.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec`, serves
every point whose content hash is already in the
:class:`~repro.sweep.cache.ResultCache`, and simulates the rest on a
``ProcessPoolExecutor``.  Each worker process keeps a module-level
platform cache, so a platform is parsed/built (and its route cache
warmed) once per worker and reused across every point assigned to it —
the per-point cost is the simulation itself, not setup.

``jobs=0`` (or ``1``) runs points inline in the calling process — same
results, no pool — which is what the executable docs and small tests
use.  All cache writes happen in the parent, so concurrent workers never
race on the store.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..errors import ReproError
from ..surf import EngineStats
from .cache import ResultCache, point_key
from .spec import PlatformSpec, SweepPoint, SweepSpec, _thaw

__all__ = ["PointResult", "SweepResult", "run_sweep"]


@dataclass
class PointResult:
    """Outcome of one sweep point — simulated now, or served from cache."""

    point: SweepPoint
    key: str
    cached: bool
    simulated_time: float | None = None
    #: wall-clock seconds the *simulation* took (the original run's cost
    #: when served from cache)
    wall_time: float | None = None
    stats: EngineStats | None = None
    error: str | None = None
    #: per-point trace artifact path (spec-level ``trace = true`` only)
    trace_path: str | None = None
    #: rank 0's app return value, when it is a JSON scalar — the channel
    #: workloads use to report their own figure of merit (e.g. the
    #: ``coll`` builtin's per-iteration latency)
    rank0: float | int | str | bool | None = None

    @property
    def ok(self) -> bool:
        """Whether the point produced a result."""
        return self.error is None


@dataclass
class SweepResult:
    """Everything one :func:`run_sweep` invocation produced.

    The programmatic front door for benches and the auto-tuner: iterate
    ``points``, or feed the whole object to :mod:`repro.sweep.report`
    for flat rows / CSV / JSON.
    """

    spec: SweepSpec
    points: list[PointResult] = field(default_factory=list)
    #: wall-clock seconds for the whole sweep (cache lookups included)
    wall_time: float = 0.0
    #: process-pool workers used (0 = ran inline)
    workers: int = 0

    @property
    def hits(self) -> int:
        """Points served from the memo cache."""
        return sum(1 for p in self.points if p.cached)

    @property
    def misses(self) -> int:
        """Points that had to be simulated."""
        return sum(1 for p in self.points if not p.cached)

    @property
    def errors(self) -> list[PointResult]:
        """Points whose simulation raised."""
        return [p for p in self.points if not p.ok]

    def summary(self) -> str:
        """One line: point count, hit ratio, wall time."""
        n = len(self.points)
        line = (f"{self.spec.name}: {n} points, {self.hits}/{n} from cache, "
                f"{self.wall_time:.2f}s wall")
        if self.errors:
            line += f", {len(self.errors)} FAILED"
        return line


# -- worker side ---------------------------------------------------------------

#: per-worker-process build cache: (platform spec, ranks, base dir) ->
#: Platform with its profiles attached
_PLATFORMS: dict = {}


def _init_worker(parent_path: list[str]) -> None:
    """Process-pool initializer: inherit the parent's import path."""
    for entry in reversed(parent_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _worker_platform(spec: PlatformSpec, n_ranks: int, base_dir: str):
    """Build-or-reuse the worker's platform for ``spec``.

    The expensive parse/build/calibration happens once per worker and
    every later point with the same spec, rank count and base directory
    reuses the object — including its warmed route-resolution cache.
    """
    signature = (spec, n_ranks, base_dir)
    platform = _PLATFORMS.get(signature)
    if platform is None:
        platform = _PLATFORMS[signature] = spec.platform(n_ranks, base_dir)
    return platform


def _simulate_point(point: SweepPoint, key: str, base_dir: str) -> dict:
    """Run one point (in a worker or inline) and return its record."""
    from ..smpi import smpirun

    work = point.workload
    try:
        platform = _worker_platform(point.platform, work.n, base_dir)
        result = smpirun(
            work.app(base_dir), work.n, platform,
            app_args=tuple(_thaw(work.args)), config=point.smpi_config(),
            engine=point.platform.engine(platform),
        )
    except ReproError as exc:
        return {"key": key, "error": f"{type(exc).__name__}: {exc}"}
    record = {
        "key": key,
        "label": point.label(),
        "simulated_time": result.simulated_time,
        "wall_time": result.wall_time,
        "stats": result.stats.to_dict() if result.stats is not None else None,
    }
    if result.returns and isinstance(result.returns[0], (int, float, str, bool)):
        record["rank0"] = result.returns[0]
    if point.trace and result.trace is not None:
        record["trace_text"] = result.trace.to_csv()
    return record


# -- parent side ---------------------------------------------------------------

def _result_from_record(point: SweepPoint, key: str, record: dict,
                        cached: bool, cache: ResultCache | None) -> PointResult:
    stats = None
    if record.get("stats") is not None:
        stats = EngineStats.from_dict(record["stats"])
    trace_path = None
    if cache is not None and cache.trace_path(key).exists():
        trace_path = str(cache.trace_path(key))
    return PointResult(
        point=point, key=key, cached=cached,
        simulated_time=record.get("simulated_time"),
        wall_time=record.get("wall_time"),
        stats=stats, error=record.get("error"), trace_path=trace_path,
        rank0=record.get("rank0"),
    )


def run_sweep(
    spec: SweepSpec,
    jobs: int | None = None,
    cache: ResultCache | str | None = ".repro-cache",
    force: bool = False,
    echo=None,
) -> SweepResult:
    """Execute a sweep spec: cache lookups first, then pool fan-out.

    ``jobs`` is the worker-process count (None = ``os.cpu_count()``
    capped at the number of points to simulate; 0 or 1 = inline, no
    pool).  ``cache`` is a :class:`ResultCache`, a root directory, or
    None to disable memoization entirely; ``force`` re-simulates every
    point and overwrites its cache entry.  ``echo`` (a ``print``-like
    callable) receives one progress line per completed point.
    """
    import os
    from pathlib import Path

    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
    points = spec.expand()
    base_dir = str(spec.base_dir)
    start = time.perf_counter()
    keys = [point_key(p, base_dir) for p in points]

    results: dict[int, PointResult] = {}
    todo: list[tuple[SweepPoint, str]] = []
    for point, key in zip(points, keys):
        record = None if (force or cache is None) else cache.get(key)
        if record is not None:
            results[point.index] = _result_from_record(point, key, record,
                                                       True, cache)
            if echo:
                echo(f"  [cache] {point.label()}")
        else:
            todo.append((point, key))

    workers = 0
    if todo:
        todo_points, todo_keys = zip(*todo)
        dirs = [base_dir] * len(todo)
        if jobs is None:
            jobs = min(len(todo), os.cpu_count() or 2)
        if jobs > 1:
            workers = min(jobs, len(todo))
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker, initargs=(list(sys.path),),
            ) as pool:
                records = list(pool.map(_simulate_point, todo_points,
                                        todo_keys, dirs))
        else:
            records = list(map(_simulate_point, todo_points, todo_keys, dirs))
        for (point, key), record in zip(todo, records):
            trace_text = record.pop("trace_text", None)
            if cache is not None and record.get("error") is None:
                cache.put(key, record, trace_text)
            results[point.index] = _result_from_record(point, key, record,
                                                       False, cache)
            if echo:
                status = "FAILED" if record.get("error") else "done"
                echo(f"  [{status}] {point.label()}")

    ordered = [results[p.index] for p in points]
    return SweepResult(spec=spec, points=ordered,
                       wall_time=time.perf_counter() - start, workers=workers)
