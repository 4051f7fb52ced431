"""Declarative sweep specifications and their deterministic expansion.

A *sweep spec* names the grid the Cornebize & Legrand methodology needs
("Variability Matters", PAPERS.md): platforms x workloads x SMPI-config
axes, written once in TOML or JSON and expanded into an explicit run
matrix.  Expansion is deterministic — platforms and workloads in listed
order, axes in sorted-key order with values in listed order — so point
indices, labels, and memo-cache keys are stable across processes and
machines.

Grammar (TOML shown; the JSON form is the same object tree)::

    name = "eager-sensitivity"

    [[platforms]]
    spec = "cluster:8:125MBps:50us"      # same grammar as --platform

    [[platforms]]
    spec = "griffon"
    availability = ["grif-0-0-l=wave.trace"]   # optional fault scripting
    fail_at = ["0.5:grif-1-0-l"]

    [[workloads]]
    builtin = "pingpong"                 # or  file = "my_app.py"
    n = 2
    params = { size = 65536, reps = 4 }  # builtin knobs / file entry+args

    [axes]                               # each key -> list of values
    eager_threshold = [4096, 65536]
    "coll.alltoall" = ["pairwise", "auto"]

    [options]                            # fixed SmpiConfig fields
    comm_retries = 1

Axis and option keys are, as for ``repro run``'s config flags, what
:meth:`~repro.smpi.config.SmpiConfig.from_options` takes.  Keys, value
types (sizes may be strings: ``"64KiB"``), collectives and algorithms
are checked when the spec loads; value ranges on expansion.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigError
from ..scenario import PlatformSpec, load_app
from ..smpi import SmpiConfig
from ..smpi.config import parse_options

__all__ = ["PlatformSpec", "WorkloadSpec", "SweepPoint", "SweepSpec"]

def _freeze(value):
    """Mappings/lists to sorted tuples so axis values hash and compare."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """Inverse of :func:`_freeze` for key-value tuple trees."""
    if isinstance(value, tuple) and value and all(
        isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
        for item in value
    ):
        return {k: _thaw(v) for k, v in value}
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload axis value: a built-in app or a Python file.

    Built-ins come from :mod:`repro.sweep.workloads` and take ``params``
    keyword knobs; file workloads name an ``entry`` function (default
    ``app``) receiving ``app(mpi, *args)``.  ``n`` is the MPI rank count.
    """

    n: int
    builtin: str | None = None
    file: str | None = None
    entry: str = "app"
    params: tuple = ()
    args: tuple = ()

    def __post_init__(self) -> None:
        if (self.builtin is None) == (self.file is None):
            raise ConfigError(
                "a workload needs exactly one of 'builtin' or 'file'")
        if self.n < 1:
            raise ConfigError("workload rank count 'n' must be >= 1")

    def label(self) -> str:
        """Short human-readable identifier used in tables and reports."""
        base = self.builtin if self.builtin else Path(self.file).stem
        return f"{base}/n{self.n}"

    def app(self, base_dir: str | Path = "."):
        """The rank entry point: a built-in's app or the file's ``entry``."""
        if self.builtin is not None:
            from . import workloads

            return workloads.resolve(self.builtin, _thaw(self.params) or {})
        return load_app(Path(base_dir) / self.file, self.entry)


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the expanded run matrix.

    ``assignment`` holds this point's axis values (sorted by axis key);
    ``fixed`` the spec-wide ``[options]``.  :meth:`smpi_config`
    translates both into the runtime's vocabulary.
    """

    index: int
    platform: PlatformSpec
    workload: WorkloadSpec
    assignment: tuple = ()
    fixed: tuple = ()
    trace: bool = False

    def config_items(self) -> dict:
        """Fixed options overlaid with this point's axis assignment."""
        merged = dict(self.fixed)
        merged.update(dict(self.assignment))
        return {k: _thaw(v) for k, v in merged.items()}

    def smpi_config(self) -> SmpiConfig:
        """The :class:`SmpiConfig` this point simulates under."""
        return SmpiConfig.from_options(self.config_items(),
                                       tracing=self.trace)

    def label(self) -> str:
        """Stable human-readable identifier, e.g. for status listings."""
        parts = [self.platform.label(), self.workload.label()]
        parts += [f"{k}={_thaw(v)}" for k, v in self.assignment]
        return " ".join(parts)


@dataclass
class SweepSpec:
    """A parsed sweep specification (see the module docstring grammar)."""

    name: str
    platforms: list[PlatformSpec]
    workloads: list[WorkloadSpec]
    axes: dict[str, list] = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    trace: bool = False
    #: directory spec-relative paths (workload files, profiles) resolve
    #: against; the directory of the spec file when loaded from disk
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self) -> None:
        if not self.platforms:
            raise ConfigError("sweep spec lists no platforms")
        if not self.workloads:
            raise ConfigError("sweep spec lists no workloads")
        for key, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(
                    f"axis {key!r} must map to a non-empty list of values")
        values = [(k, v) for k, vs in self.axes.items() for v in vs]
        for key, value in values + list(self.options.items()):
            parse_options({key: value}, source="sweep axis")
        self.base_dir = Path(self.base_dir)

    # -- loading ---------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict, base_dir: str | Path = ".") -> "SweepSpec":
        """Build a spec from the TOML/JSON object tree."""
        if not isinstance(data, dict):
            raise ConfigError("sweep spec must be a table/object at top level")
        unknown = set(data) - {"name", "platforms", "workloads", "axes",
                               "options", "trace"}
        if unknown:
            raise ConfigError(f"unknown sweep spec keys: {sorted(unknown)}")
        platforms = []
        for entry in data.get("platforms", []):
            if isinstance(entry, str):
                entry = {"spec": entry}
            bad = set(entry) - {"spec", "availability", "state_profile",
                                "fail_at", "restore_at"}
            if bad or "spec" not in entry:
                raise ConfigError(f"bad platform entry {entry!r}")
            platforms.append(PlatformSpec(**entry))
        workloads = []
        for entry in data.get("workloads", []):
            bad = set(entry) - {"builtin", "file", "entry", "n", "params",
                                "args"}
            if bad:
                raise ConfigError(f"bad workload keys {sorted(bad)}")
            if "n" not in entry:
                raise ConfigError(f"workload {entry!r} misses rank count 'n'")
            workloads.append(WorkloadSpec(
                n=int(entry["n"]),
                builtin=entry.get("builtin"),
                file=entry.get("file"),
                entry=entry.get("entry", "app"),
                params=_freeze(entry.get("params", {})),
                args=_freeze(entry.get("args", [])),
            ))
        return cls(
            name=data.get("name", "sweep"),
            platforms=platforms,
            workloads=workloads,
            axes={k: list(v) for k, v in data.get("axes", {}).items()},
            options=dict(data.get("options", {})),
            trace=bool(data.get("trace", False)),
            base_dir=base_dir,
        )

    @classmethod
    def load(cls, path: str | Path) -> "SweepSpec":
        """Load a ``.toml`` or ``.json`` spec file.

        TOML needs Python 3.11+ (:mod:`tomllib`); JSON works everywhere.
        Relative paths inside the spec resolve against the spec file's
        directory.
        """
        file = Path(path)
        if not file.exists():
            raise ConfigError(f"sweep spec {str(path)!r} not found")
        text = file.read_text(encoding="utf-8")
        if file.suffix == ".toml":
            try:
                import tomllib
            except ImportError:  # pragma: no cover - Python < 3.11 only
                raise ConfigError(
                    "TOML sweep specs need Python 3.11+ (tomllib); "
                    "rewrite the spec as JSON or upgrade")
            try:
                data = tomllib.loads(text)
            except tomllib.TOMLDecodeError as exc:
                raise ConfigError(f"bad TOML in {file.name}: {exc}")
        else:
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad JSON in {file.name}: {exc}")
        return cls.from_dict(data, base_dir=file.parent)

    # -- expansion -------------------------------------------------------------

    def axis_names(self) -> list[str]:
        """Axis keys in expansion (sorted) order."""
        return sorted(self.axes)

    def expand(self) -> list[SweepPoint]:
        """The deterministic run matrix.

        Point order — and therefore point indices — is platforms (listed
        order) x workloads (listed order) x axes (sorted keys, values in
        listed order), so the same spec always yields the same matrix.
        """
        keys = self.axis_names()
        fixed = _freeze(self.options)
        value_grid = [self.axes[k] for k in keys]
        points = []
        for platform, workload in itertools.product(self.platforms,
                                                    self.workloads):
            for combo in itertools.product(*value_grid):
                assignment = tuple(
                    (k, _freeze(v)) for k, v in zip(keys, combo))
                point = SweepPoint(
                    index=len(points), platform=platform, workload=workload,
                    assignment=assignment, fixed=fixed, trace=self.trace,
                )
                point.smpi_config()  # validate axis values eagerly
                points.append(point)
        return points

    def describe(self) -> str:
        """One-line shape summary, e.g. ``12 points (2x1x6)``."""
        n_configs = 1
        for values in self.axes.values():
            n_configs *= len(values)
        total = len(self.platforms) * len(self.workloads) * n_configs
        return (f"{total} points ({len(self.platforms)} platforms x "
                f"{len(self.workloads)} workloads x {n_configs} configs)")
