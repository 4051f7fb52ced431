"""Per-resource utilization timelines sampled by the simulation kernel.

A :class:`Timeline` holds one step function per resource — the consumed
rate of a link (bytes/s) or the load of a host CPU (flop/s) over
simulated time.  The engine records a sample whenever a max-min re-solve
changes a resource's share (:meth:`repro.surf.Engine.enable_timeline`);
with the incremental solver that is exactly the set of resources inside
re-solved components, so clean components are never even visited.

Samples are stored sparsely: a new point is appended only when the value
actually changed, which keeps all-to-all-sized runs at a few samples per
link per communication phase.  Utilization queries integrate the step
function, treating the resource as idle before its first sample and
holding the last value until the queried horizon.

Each resource's samples are two ``array('d')`` columns, times and
usages, so a sample costs 16 bytes (plus the arrays' growth slack)
instead of a tuple and a float object.  :meth:`Timeline.iter_series`
hands out those columns as they are: ``(name, kind, capacity, times,
usages)``, read-only for the caller, one resource at a time in the
order the resources were first sampled.  :meth:`Timeline.samples` and
:meth:`Timeline.as_rows` still build ``(time, usage)`` tuples for
callers that want them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

__all__ = ["LinkUsage", "Timeline"]


@dataclass(frozen=True)
class LinkUsage:
    """Aggregated utilization of one resource over ``[0, until]``."""

    name: str
    kind: str  # "link" or "host"
    capacity: float
    mean_utilization: float  # time-weighted mean of usage/capacity
    peak_utilization: float
    busy_time: float  # simulated seconds with usage > 0


#: the columns of a resource that has no series
_NO_SERIES = ((), ())


class Timeline:
    """Sparse per-resource usage-over-time samples."""

    def __init__(self) -> None:
        # name -> (times, usages): parallel ``array('d')`` columns in
        # non-decreasing time order
        self._series: dict[str, tuple[array, array]] = {}
        self.capacities: dict[str, float] = {}
        self.kinds: dict[str, str] = {}
        #: per-resource capacity *steps*: ``name -> [(time, capacity), ...]``
        #: recorded by the engine when availability profiles (or
        #: ``set_availability``) change a resource's effective capacity.
        #: ``capacities`` keeps holding the latest value, so utilization
        #: summaries stay meaningful; the step series preserves the history.
        self.capacity_series: dict[str, list[tuple[float, float]]] = {}
        #: total samples stored (mirrored into ``EngineStats.link_samples``)
        self.n_samples = 0

    def __len__(self) -> int:
        return self.n_samples

    def record(self, t: float, name: str, usage: float, capacity: float,
               kind: str = "link") -> None:
        """Append one sample; collapses same-time and same-value samples."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = (array("d"), array("d"))
            self.kinds[name] = kind
        self.capacities[name] = capacity
        times, usages = series
        if times:
            last_u = usages[-1]
            if times[-1] == t:
                if last_u != usage:
                    usages[-1] = usage
                return
            if last_u == usage:
                return
        elif usage == 0.0:
            return  # still idle: keep the implicit leading zero implicit
        times.append(t)
        usages.append(usage)
        self.n_samples += 1

    def record_capacity(self, t: float, name: str, capacity: float,
                        kind: str = "link") -> None:
        """Append one capacity step (effective capacity from ``t`` on)."""
        series = self.capacity_series.setdefault(name, [])
        self.kinds.setdefault(name, kind)
        self.capacities[name] = capacity
        if series and series[-1][0] == t:
            series[-1] = (t, capacity)
            return
        if series and series[-1][1] == capacity:
            return
        series.append((t, capacity))

    def capacity_steps(self, name: str) -> list[tuple[float, float]]:
        """Recorded ``(time, effective capacity)`` steps of one resource."""
        return list(self.capacity_series.get(name, ()))

    def close(self, t: float) -> None:
        """Mark every resource idle at ``t`` (end of simulation).

        The last action's completion ends the run without a further
        re-share, so resources it used would otherwise appear busy
        forever; the runtime calls this once the scheduler drains.
        """
        for name, (_times, usages) in self._series.items():
            if usages and usages[-1] != 0.0:
                self.record(t, name, 0.0, self.capacities[name],
                            self.kinds[name])

    # -- queries -----------------------------------------------------------------

    def names(self, kind: str | None = None) -> list[str]:
        """Sampled resource names, insertion-ordered (optionally by kind)."""
        if kind is None:
            return list(self._series)
        return [n for n in self._series if self.kinds[n] == kind]

    def samples(self, name: str) -> list[tuple[float, float]]:
        """Raw ``(time, consumed rate)`` step points of one resource."""
        return list(zip(*self._series.get(name, _NO_SERIES)))

    def utilization(self, name: str) -> list[tuple[float, float]]:
        """Step points normalised by capacity: ``(time, fraction)``."""
        times, usages = self._series.get(name, _NO_SERIES)
        capacity = self.capacities.get(name, 0.0)
        if capacity <= 0:
            return [(t, 0.0) for t in times]
        return [(t, u / capacity) for t, u in zip(times, usages)]

    def _integrate(self, name: str, until: float) -> tuple[float, float, float]:
        """(integral of usage dt, peak usage, busy seconds) over [0, until]."""
        times, usages = self._series.get(name, _NO_SERIES)
        last = len(times) - 1
        integral = peak = busy = 0.0
        for i, t in enumerate(times):
            if t >= until:
                break
            t_next = times[i + 1] if i < last else until
            span = min(t_next, until) - t
            if span <= 0:
                continue
            usage = usages[i]
            integral += usage * span
            peak = max(peak, usage)
            if usage > 0:
                busy += span
        return integral, peak, busy

    def summarize(self, name: str, until: float) -> LinkUsage:
        """Aggregate one resource's step function over ``[0, until]``."""
        capacity = self.capacities.get(name, 0.0)
        integral, peak, busy = self._integrate(name, max(until, 0.0))
        scale = capacity * until
        return LinkUsage(
            name=name,
            kind=self.kinds.get(name, "link"),
            capacity=capacity,
            mean_utilization=integral / scale if scale > 0 else 0.0,
            peak_utilization=peak / capacity if capacity > 0 else 0.0,
            busy_time=busy,
        )

    def top(self, until: float, k: int = 5, kind: str = "link"
            ) -> list[LinkUsage]:
        """The ``k`` most-utilized resources of ``kind`` over ``[0, until]``."""
        usages = [self.summarize(n, until) for n in self.names(kind)]
        usages.sort(key=lambda u: (-u.mean_utilization, u.name))
        return usages[:k]

    # -- (de)serialisation ---------------------------------------------------------

    def iter_series(self):
        """Yield ``(name, kind, capacity, times, usages)`` per resource.

        ``times`` and ``usages`` are the resource's own columns (see the
        module docstring), in insertion order of the resources; the CSV
        exporters format each resource's constant fields once per series,
        not once per sample.
        """
        kinds, capacities = self.kinds, self.capacities
        for name, (times, usages) in self._series.items():
            yield name, kinds[name], capacities[name], times, usages

    def as_rows(self) -> list[tuple[str, str, float, float, float]]:
        """Flat ``(name, kind, capacity, time, usage)`` rows."""
        return [(name, kind, capacity, t, usage)
                for name, kind, capacity, times, usages in self.iter_series()
                for t, usage in zip(times, usages)]

    def load_row(self, name: str, kind: str, capacity: float,
                 t: float, usage: float) -> None:
        """Re-insert one :meth:`as_rows` row (CSV import path)."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = (array("d"), array("d"))
        self.kinds.setdefault(name, kind)
        self.capacities[name] = capacity
        series[0].append(t)
        series[1].append(usage)
        self.n_samples += 1

    def load_capacity_row(self, name: str, kind: str, t: float,
                          capacity: float) -> None:
        """Re-insert one ``capacity`` CSV row (CSV import path)."""
        self.capacity_series.setdefault(name, []).append((t, capacity))
        self.kinds.setdefault(name, kind)
        self.capacities[name] = capacity
