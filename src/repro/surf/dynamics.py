"""Resource dynamics: failures, recoveries, availability and profiles.

Resources are *dynamic* (see ``docs/faults.md``): availability profiles
scale a link's bandwidth or a host's speed over time, state profiles turn
resources OFF and back ON, and :meth:`ResourceDynamics.fail_resource` /
:meth:`~ResourceDynamics.restore_resource` /
:meth:`~ResourceDynamics.set_availability` script the same transitions
directly.  Capacity changes flow through the incremental solver as
constraint updates: the affected component is re-solved at the next
share and only the flows whose rate changed are re-anchored.

:class:`ResourceDynamics` is the base class of
:class:`~repro.surf.engine.Engine`, so ``engine.fail_resource(...)`` and
the other calls are methods of the engine itself.  It owns the dead set,
the availability map and the profile cursors with their heap of upcoming
points, and it reaches the kernel through two hook families:

* **timed events** — :attr:`~ResourceDynamics._next_point` is the date
  of the earliest upcoming profile point (inf when none), which bounds
  :meth:`~repro.surf.engine.Engine.next_deadline`;
  :meth:`~ResourceDynamics._fire_profiles_due` applies the points due
  once the clock has moved, before expiry; and
  :meth:`~ResourceDynamics._stall_breaker` says whether a scheduled
  point can free or end an action stalled at rate 0;
* **resource state** — :meth:`~ResourceDynamics._capacity_of` scales a
  constraint's nominal capacity by its availability factor, and
  :meth:`~ResourceDynamics._stillborn` says whether an action is born
  on a dead resource.

The kernel reads ``_next_point`` as a plain attribute, so a run without
profiles pays one float compare per event for all of this.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

from ..errors import SimulationError
from .resources import Host, Link

__all__ = ["ResourceDynamics"]


class ResourceDynamics:
    """Failures, availability and profiles of an engine's resources.

    A mixin: it runs on the :class:`~repro.surf.engine.Engine` state
    (``now``, ``pending``, ``stats``, the solver) and is initialised last
    by the engine, since installing a profile may already fail a
    resource.
    """

    def __init__(self) -> None:
        #: names of the resources that are OFF
        self._dead_resources: set[str] = set()
        #: per-resource capacity factor (1.0 when absent); maintained by
        #: :meth:`set_availability` and read everywhere a constraint
        #: capacity is built
        self._availability: dict[str, float] = {}
        #: callbacks ``listener(event, resource, now)`` invoked on every
        #: resource transition — ``event`` is ``"fail"``, ``"restore"`` or
        #: ``"capacity"`` (the SMPI runtime uses these for fault semantics
        #: and failure tracing)
        self.resource_listeners: list = []
        #: installed profile cursors: [resource, kind, event iterator,
        #: points pulled so far, profile] — the pull count is what a
        #: snapshot records, so a restore can re-consume the same prefix
        #: of the (possibly infinite) profile
        self._profile_cursors: list[list] = []
        #: min-heap of (time, cursor index, value) upcoming profile points
        self._profile_heap: list[tuple[float, int, float]] = []
        #: date of the earliest upcoming profile point (inf when none);
        #: kept equal to the heap top so the kernel reads it without a call
        self._next_point = math.inf
        self._install_profiles()

    # -- failure, recovery, availability -----------------------------------------

    def is_dead(self, resource: "Link | Host") -> bool:
        """Whether ``resource`` is currently OFF (failed, not yet restored)."""
        return resource.name in self._dead_resources

    def fail_resource(self, resource: "Link | Host") -> None:
        """Turn a link or host OFF: every action using it fails, now and
        until :meth:`restore_resource` turns it back ON.

        Mirrors SimGrid's resource failures: pending transfers/computes
        crossing the resource turn FAILED (surfacing as errors in the
        waiting ranks), and new actions over it fail immediately.
        Idempotent while the resource is already down.
        """
        if resource.name in self._dead_resources:
            return
        self._dead_resources.add(resource.name)
        self.stats.resource_failures += 1
        for action in self.pending.values():
            if action.is_pending and any(
                res.name == resource.name for res in action.constraints()
            ):
                self._retire(action)
        self._needs_share = True
        self._notify("fail", resource)

    def restore_resource(self, resource: "Link | Host") -> None:
        """Turn a failed link or host back ON (recovery).

        New actions over the resource work again immediately; the actions
        its failure killed stay FAILED (retry is an upper-layer policy —
        see ``SmpiConfig.comm_retries``).  No-op while the resource is up.
        """
        if resource.name not in self._dead_resources:
            return
        self._dead_resources.discard(resource.name)
        self.stats.resource_restores += 1
        self._needs_share = True
        self._notify("restore", resource)

    def set_availability(self, resource: "Link | Host", factor: float) -> None:
        """Scale ``resource``'s capacity by ``factor`` from now on.

        The constraint's capacity becomes ``nominal * factor``; the solver
        re-solves the affected component at the next share and the lazy
        heap re-anchors exactly the flows whose rate changed.  ``0.0``
        stalls flows on the resource without failing them (they resume
        when capacity returns); use :meth:`fail_resource` for hard
        outages.  Unchanged factors are ignored.
        """
        if not math.isfinite(factor) or factor < 0:
            raise SimulationError(
                f"availability of {resource.name!r} must be finite and >= 0, "
                f"got {factor}"
            )
        if factor == self._availability.get(resource.name, 1.0):
            return
        if factor == 1.0:
            self._availability.pop(resource.name, None)
        else:
            self._availability[resource.name] = factor
        self.stats.capacity_events += 1
        if self._solver.has_constraint(resource):
            # updates the registered capacity and marks the constraint
            # dirty, so dependent flows re-solve at the next share
            self._ensure_solver_constraint(resource)
        self._needs_share = True
        if self.timeline is not None:
            self.timeline.record_capacity(
                self.now, resource.name, self._capacity_of(resource),
                kind="link" if isinstance(resource, Link) else "host",
            )
        self._notify("capacity", resource)

    def _notify(self, event: str, resource: "Link | Host") -> None:
        for listener in self.resource_listeners:
            listener(event, resource, self.now)

    # -- resource-state hooks ------------------------------------------------------

    def _capacity_of(self, resource: "Link | Host") -> float:
        """Current constraint capacity: nominal scaled by availability."""
        base = (resource.bandwidth if isinstance(resource, Link)
                else self.cpu_model.capacity(resource))
        factor = self._availability.get(resource.name)
        return base if factor is None else base * factor

    def _stillborn(self, resources) -> bool:
        """Whether an action over ``resources`` is born on a dead one."""
        dead = self._dead_resources
        return bool(dead) and any(r.name in dead for r in resources)

    # -- availability/state profiles ---------------------------------------------

    def attach_profile(self, resource: "Link | Host", profile,
                       kind: str = "availability") -> None:
        """Install a :class:`~repro.surf.profiles.Profile` on ``resource``.

        ``kind`` is ``"availability"`` (points are capacity factors fed to
        :meth:`set_availability`) or ``"state"`` (0 points fail the
        resource, non-zero points restore it).  Points at or before the
        current clock apply immediately; later ones fire as engine events.
        Platform resources carrying ``availability_profile`` /
        ``state_profile`` attributes are installed automatically at engine
        construction.
        """
        if kind not in ("availability", "state"):
            raise SimulationError(
                f"unknown profile kind {kind!r} (availability or state)"
            )
        cursor = len(self._profile_cursors)
        self._profile_cursors.append(
            [resource, kind, profile.iter_events(), 0, profile])
        self._advance_cursor(cursor)
        self._fire_profiles_due()

    def _install_profiles(self) -> None:
        """Install the profiles attached to the platform's resources."""
        for resource in (*self.platform.links, *self.platform.hosts):
            for kind in ("availability", "state"):
                profile = getattr(resource, f"{kind}_profile", None)
                if profile is not None:
                    self.attach_profile(resource, profile, kind)

    def _advance_cursor(self, cursor: int) -> None:
        """Schedule the next point of one profile (pulled one at a time,
        so infinite periodic profiles never materialize)."""
        record = self._profile_cursors[cursor]
        entry = next(record[2], None)
        record[3] += 1
        heap = self._profile_heap
        if entry is not None:
            heappush(heap, (entry[0], cursor, entry[1]))
        # every pop is followed by a call here, so the cached date follows
        # the heap top
        self._next_point = heap[0][0] if heap else math.inf

    # -- timed-event hooks ---------------------------------------------------------

    def _fire_profiles_due(self) -> None:
        """Apply every profile point due at the current clock.

        Same-time points fire in installation order (heap ties break on
        the cursor index), keeping multi-profile scenarios deterministic.
        """
        heap = self._profile_heap
        while heap and heap[0][0] <= self.now:
            _t, cursor, value = heappop(heap)
            resource, kind = self._profile_cursors[cursor][:2]
            if kind == "state":
                if value <= 0.0:
                    self.fail_resource(resource)
                else:
                    self.restore_resource(resource)
            else:
                self.set_availability(resource, value)
            self._advance_cursor(cursor)

    def _stall_breaker(self):
        """A predicate telling whether a scheduled profile point can free
        or end a pending action that runs at rate 0.

        A point frees such an action only with a positive availability
        point on each zero-capacity resource of its path — never when its
        own rate bound is 0 — and ends it with a 0 state point on any
        resource of its path.
        """
        restoring: set[str] = set()
        failing: set[str] = set()
        cursors = self._profile_cursors
        for _date, cursor, _value in self._profile_heap:
            resource, kind, _events, _pulls, profile = cursors[cursor]
            values = [value for _t, value in profile.points]
            if kind == "availability" and max(values) > 0:
                restoring.add(resource.name)
            elif kind == "state" and min(values) <= 0:
                failing.add(resource.name)

        def breaks(action) -> bool:
            path = action.constraints()
            if any(r.name in failing for r in path):
                return True
            if action.rate_bound == 0:
                return False  # held at 0 by its own bound: no capacity frees it
            zero = [r.name for r in path if self._capacity_of(r) == 0.0]
            return not zero or all(name in restoring for name in zero)

        return breaks
