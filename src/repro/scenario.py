"""Scenarios: a platform plus its availability profiles and scripted faults.

``repro run``/``replay``/``profile`` and every ``[[platforms]]`` entry of
a sweep spec describe the simulated world with one grammar
(docs/faults.md, docs/sweeps.md):

* ``spec`` — ``griffon``, ``gdx``, ``cluster:N[:bw[:lat]]`` or the path
  of a SimGrid-style XML file;
* ``availability`` / ``state_profile`` — ``RESOURCE=FILE`` bindings of
  a capacity or ON/OFF profile file to a link or host;
* ``fail_at`` / ``restore_at`` — ``TIME:RESOURCE`` one-shot events.

:class:`PlatformSpec` parses its entries once, when it is made, and
:meth:`PlatformSpec.build` turns it into the platform and the engine
that carries its scripted events.  Relative paths (the XML file, the
profile files) resolve against the ``base_dir`` the caller passes: the
working directory for the CLI, the spec file's directory for a sweep.
"""

from __future__ import annotations

import functools
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import ConfigError, ReproError
from .platforms import gdx, griffon
from .surf import Engine, Platform, cluster, load_platform_xml, load_profile

__all__ = ["PlatformSpec", "build_platform", "load_app"]


def build_platform(spec: str, n_ranks: int,
                   base_dir: str | Path = ".") -> Platform:
    """Resolve a --platform argument.

    Accepted forms: ``griffon``, ``gdx``, ``cluster:N[:bw[:lat]]``, or a
    path to a SimGrid-style XML file (relative to ``base_dir``).  The
    bare names build just enough nodes for the requested rank count.
    """
    if spec == "griffon":
        return griffon(min(n_ranks, 92)) if n_ranks <= 92 else griffon()
    if spec == "gdx":
        return gdx(min(n_ranks, 312)) if n_ranks <= 312 else gdx()
    if spec.startswith("cluster:"):
        parts = spec.split(":")
        if len(parts) < 2 or len(parts) > 4 or not parts[1].isdigit():
            raise ConfigError(f"bad cluster spec {spec!r} "
                              "(cluster:N[:bandwidth[:latency]])")
        size = int(parts[1])
        bandwidth = parts[2] if len(parts) > 2 else "125MBps"
        latency = parts[3] if len(parts) > 3 else "50us"
        return cluster("cli", size, link_bandwidth=bandwidth,
                       link_latency=latency)
    path = Path(base_dir) / spec
    if path.exists():
        return load_platform_xml(path)
    raise ConfigError(
        f"unknown platform {spec!r}: expected griffon, gdx, cluster:N, "
        "or an existing XML file"
    )


def load_app(path: str | Path, entry: str = "app") -> Callable:
    """Import ``entry`` (default ``app``) from a Python file."""
    file = Path(path)
    if not file.exists():
        raise ConfigError(f"application file {str(path)!r} not found")
    spec = importlib.util.spec_from_file_location(file.stem, file)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    function = getattr(module, entry, None)
    if not callable(function):
        raise ConfigError(
            f"{str(path)!r} does not define a callable {entry!r}")
    return function


def _find_resource(platform: Platform, name: str):
    """A link or host by name (profiles and events accept either)."""
    for getter in (platform.link, platform.host):
        try:
            return getter(name)
        except ReproError:
            continue
    raise ConfigError(f"no link or host named {name!r} on this platform")


def _binding(entry: str, name: str) -> tuple[str, str]:
    """A ``RESOURCE=FILE`` entry of field ``name`` as ``(resource, file)``."""
    resource, sep, file = entry.partition("=")
    if not (sep and resource and file):
        raise ConfigError(f"{name} entry {entry!r} is not RESOURCE=FILE")
    return resource, file


def _event(entry: str, name: str) -> tuple[float, str]:
    """A ``TIME:RESOURCE`` entry of field ``name`` as ``(time, resource)``."""
    when, _, resource = entry.partition(":")
    try:
        if resource:
            return float(when), resource
    except ValueError:
        pass
    raise ConfigError(f"{name} entry {entry!r} is not TIME:RESOURCE")


@dataclass(frozen=True)
class PlatformSpec:
    """A ``--platform`` spec plus its profile bindings and scripted faults.

    ``availability``/``state_profile`` hold ``RESOURCE=FILE`` entries and
    ``fail_at``/``restore_at`` hold ``TIME:RESOURCE`` entries, as written
    (the sweep cache fingerprints them verbatim); a malformed entry is a
    :class:`~repro.errors.ConfigError` when the spec is made.
    """

    spec: str
    availability: tuple[str, ...] = ()
    state_profile: tuple[str, ...] = ()
    fail_at: tuple[str, ...] = ()
    restore_at: tuple[str, ...] = ()
    #: parsed ``(profile attribute, resource, file)`` bindings
    bindings: tuple = field(init=False, repr=False, compare=False)
    #: parsed ``(time, resource, fails)`` events, failures first
    events: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("availability", "state_profile", "fail_at", "restore_at"):
            object.__setattr__(self, name, tuple(getattr(self, name) or ()))
        object.__setattr__(self, "bindings", tuple(
            (attr, *_binding(entry, name))
            for name, attr in (("availability", "availability_profile"),
                               ("state_profile", "state_profile"))
            for entry in getattr(self, name)))
        object.__setattr__(self, "events", tuple(
            (*_event(entry, name), name == "fail_at")
            for name in ("fail_at", "restore_at")
            for entry in getattr(self, name)))

    def label(self) -> str:
        """Short human-readable identifier used in tables and reports."""
        name = self.spec.replace(":", "-")
        if self.is_dynamic():
            name += "+faults"
        return name

    def is_dynamic(self) -> bool:
        """Whether this platform carries profiles or scripted events."""
        return bool(self.bindings or self.events)

    def profiles(self, base_dir: str | Path = "."
                 ) -> list[tuple[str, str, Path]]:
        """``(attribute, resource, path)`` per binding, paths resolved."""
        out = []
        for attr, resource, file in self.bindings:
            path = Path(base_dir) / file
            if not path.exists():
                raise ConfigError(f"profile file {file!r} not found")
            out.append((attr, resource, path))
        return out

    def platform(self, n_ranks: int, base_dir: str | Path = ".") -> Platform:
        """The platform for ``n_ranks`` ranks, its profiles attached."""
        platform = build_platform(self.spec, n_ranks, base_dir)
        for attr, resource, path in self.profiles(base_dir):
            setattr(_find_resource(platform, resource), attr,
                    load_profile(path))
        return platform

    def engine(self, platform: Platform) -> Engine | None:
        """An engine carrying the scripted events, or None without any.

        None lets the runtime build its default engine; profiles live on
        the platform's resources and work either way.
        """
        if not self.events:
            return None
        engine = Engine(platform)
        for when, name, fails in self.events:
            act = engine.fail_resource if fails else engine.restore_resource
            engine.at(when, functools.partial(act,
                                              _find_resource(platform, name)))
        return engine

    def build(self, n_ranks: int, base_dir: str | Path = "."
              ) -> tuple[Platform, Engine | None]:
        """:meth:`platform` and the :meth:`engine` that runs on it."""
        platform = self.platform(n_ranks, base_dir)
        return platform, self.engine(platform)
