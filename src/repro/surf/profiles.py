"""Availability and state profiles: time-varying resource behaviour.

SimGrid platforms attach *traces* to resources: an **availability
profile** scales a link's bandwidth or a host's speed over time (capacity
noise, background load, degraded operation), and a **state profile** turns
the resource OFF (0) and back ON (1) — outages with recovery.  This
module provides the profile representation and the SimGrid-compatible
text format; the engine's :class:`~repro.surf.dynamics.ResourceDynamics`
consumes profiles and turns their points into capacity-change / failure
/ recovery events.

The file format is SimGrid's trace format::

    # comment lines start with '#'
    PERIODICITY 10.0
    0.0  1.0
    5.0  0.5

Each data line is ``time value`` (whitespace-separated).  With a
``PERIODICITY`` directive the point list repeats forever, offset by the
period on each cycle; without one the last value holds until the end of
the simulation.  Availability values are capacity factors (``1.0`` = full
capacity, ``0.5`` = half, ``0.0`` = stalled); state values are booleans
(``0`` = down/failed, anything else = up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ..errors import PlatformError

__all__ = ["Profile", "parse_profile", "load_profile"]


@dataclass(frozen=True)
class Profile:
    """A piecewise-constant time/value trace, optionally periodic.

    ``points`` holds ``(time, value)`` pairs with strictly increasing,
    non-negative times.  With ``period`` set, the point list repeats every
    ``period`` seconds (the period must be positive and no earlier than
    the last point); without it the final value holds forever.
    """

    points: tuple[tuple[float, float], ...]
    period: float | None = None
    #: display label only — two profiles with equal points and period
    #: compare equal regardless of where they were parsed from
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.points:
            raise PlatformError(f"profile {self.name!r}: needs at least one point")
        last = -math.inf
        for t, value in self.points:
            if not math.isfinite(t) or t < 0:
                raise PlatformError(
                    f"profile {self.name!r}: times must be finite and >= 0"
                )
            if t <= last:
                raise PlatformError(
                    f"profile {self.name!r}: times must be strictly increasing"
                )
            if not math.isfinite(value) or value < 0:
                raise PlatformError(
                    f"profile {self.name!r}: values must be finite and >= 0"
                )
            last = t
        if self.period is not None:
            if not math.isfinite(self.period) or self.period <= 0:
                raise PlatformError(
                    f"profile {self.name!r}: period must be finite and > 0"
                )
            if self.period < self.points[-1][0]:
                raise PlatformError(
                    f"profile {self.name!r}: period {self.period} shorter "
                    f"than the last point at {self.points[-1][0]}"
                )

    def value_at(self, t: float) -> float | None:
        """The profile's value in effect at time ``t``.

        Returns None before the first point of a non-periodic profile
        (the resource keeps its nominal behaviour until then).
        """
        if self.period is not None and t >= 0:
            t = t % self.period
            # within a cycle, before the first point the previous cycle's
            # last value is in effect
            if t < self.points[0][0]:
                return self.points[-1][1]
        value = None
        for point_t, point_value in self.points:
            if point_t > t:
                break
            value = point_value
        return value

    def iter_events(self) -> Iterator[tuple[float, float]]:
        """Yield ``(absolute time, value)`` events in time order.

        Finite for one-shot profiles; infinite for periodic ones (each
        cycle offsets the points by another period).  The engine pulls
        one event at a time, so the infinite case is safe.
        """
        offset = 0.0
        while True:
            for t, value in self.points:
                yield offset + t, value
            if self.period is None:
                return
            offset += self.period

    # -- serialisation -------------------------------------------------------

    def dumps(self) -> str:
        """Render in the trace file format :func:`parse_profile` reads."""
        lines = []
        if self.period is not None:
            lines.append(f"PERIODICITY {self.period!r}")
        for t, value in self.points:
            lines.append(f"{t!r} {value!r}")
        return "\n".join(lines) + "\n"


def parse_profile(text: str, name: str = "") -> Profile:
    """Parse the SimGrid trace format (module docstring) into a Profile."""
    period: float | None = None
    points: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0].upper() == "PERIODICITY":
            if len(parts) != 2:
                raise PlatformError(
                    f"profile {name!r} line {lineno}: PERIODICITY takes one value"
                )
            period = float(parts[1])
            continue
        if len(parts) != 2:
            raise PlatformError(
                f"profile {name!r} line {lineno}: expected 'time value', "
                f"got {raw!r}"
            )
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise PlatformError(
                f"profile {name!r} line {lineno}: {exc}"
            ) from None
    return Profile(tuple(points), period=period, name=name)


def load_profile(path: str | Path, name: str | None = None) -> Profile:
    """Read a profile file from disk (:func:`parse_profile` of its text)."""
    path = Path(path)
    return parse_profile(path.read_text(encoding="utf-8"),
                         name=name if name is not None else path.stem)
