"""The sequential simulation engine (paper section 5.1).

One :class:`Engine` instance owns the simulated clock and every pending
:class:`~repro.surf.action.Action`.  Each step:

1. **share** — build a max-min system from the RUNNING actions and the
   resources they cross, solve it, assign each action its rate;
2. **advance** — jump the clock to the earliest of: a RUNNING action
   finishing at its current rate, or a LATENCY/sleep deadline expiring;
3. **harvest** — mark finished actions DONE and invoke their observers
   (the SIMIX layer uses observers to wake blocked actors).

The engine is deliberately *fully sequential* — the paper's design choice
to sidestep parallel-DES synchronisation — and fast because sharing is one
analytical solve, not per-packet events.  It can run standalone (``run()``)
for model-level studies, or be driven step-by-step by
:class:`repro.simix.context.Scheduler` for on-line application simulation.

Sharing is *incremental* by default: the engine keeps one persistent
:class:`~repro.surf.maxmin.IncrementalMaxMin` system alive across steps.
Action arrivals/departures mark only the resources they touch dirty, and
each share re-solves only the connected components of the flow/resource
graph containing a dirty resource — the 500 flows of an all-to-all that
never cross a completed flow's links keep their rates and completion
estimates untouched.

The step loop itself is *event-driven*: every pending action carries an
absolute ``deadline`` (predicted completion, latency expiry, sleep wake-
up) that is recomputed only when its rate actually changes — the rates
that stayed equal after a re-share, reported by
:attr:`~repro.surf.maxmin.IncrementalMaxMin.last_rate_changed`, keep
their predictions untouched.  The engine keeps those deadlines in a
min-heap of ``(deadline, aid, epoch, action)`` entries: advancing to the
next event is a heap peek, and harvesting is driven by heap pops, so an
event that completes one flow among 2048 costs O(affected · log P)
instead of O(P).  ``(aid, epoch)`` is unique, so two entries never
compare their actions.  Every exit from LATENCY or RUNNING bumps the
action's epoch, so an entry is live exactly when its epoch still equals
its action's: a stale entry (a re-anchored, expired, failed or harvested
action) costs one comparison on pop and is skipped rather than deleted.
A share re-anchors the flows whose rate changed in one loop
(:meth:`Engine._reanchor`), pushing each new deadline as it goes.

Resources are *dynamic* (see ``docs/faults.md``): availability profiles
scale a link's bandwidth or a host's speed over time, state profiles turn
resources OFF and back ON, and :meth:`Engine.fail_resource` /
:meth:`Engine.restore_resource` / :meth:`Engine.set_availability` script
the same transitions directly.  Profile points are ordinary events on the
engine's event loop (a dedicated min-heap of upcoming points feeds
:meth:`Engine.next_deadline`), and capacity changes flow through the
incremental solver as constraint updates — the affected component is
re-solved and only the flows whose rate changed are re-anchored.

The historical scan-everything event loop and rebuild-everything share
survive as test-only oracles (``tests/oracles.py``) that pin this engine
bit-for-bit under any mix of failures, recoveries and capacity noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush
from itertools import islice
from operator import attrgetter

from ..errors import SimulationError
from ..log import bind_clock, get_logger
from .action import Action, ActionState, ComputeAction, NetworkAction, SleepAction
from .action import _ids as _action_ids
from .cpu_model import CpuModel
from .maxmin import IncrementalMaxMin
from .network_model import FactorsNetworkModel, NetworkModel
from .platform import Platform
from .resources import Host, Link, SharingPolicy

__all__ = ["Engine", "EngineStats", "SNAPSHOT_VERSION"]

_log = get_logger("surf")

#: wire-format version of :meth:`Engine.snapshot` payloads; bump on any
#: layout change so stale checkpoints are rejected instead of misread.
#: v2: the ``"sharing"`` field is gone (every share is exact max-min)
SNAPSHOT_VERSION = 2

_INF = math.inf
_by_aid = attrgetter("aid")


class _Harvested:
    """The action of a restored heap entry whose action was harvested
    before the snapshot: its epoch, -1, matches no entry, so the entry
    pops as stale."""

    __slots__ = ()
    epoch = -1


_HARVESTED = _Harvested()


@dataclass
class EngineStats:
    """Counters for the speed evaluation (Figs. 17/18).

    ``partial_shares`` counts the share calls that re-solved only a strict
    subset of the live flows (possibly none); ``flows_resolved`` is the
    total number of flow rates recomputed across all shares, and
    ``components_solved`` the number of connected components those
    re-solves covered.

    ``actions_touched`` counts per-action updates in the event loop: rate
    re-anchors plus heap-popped expiries.  ``heap_pops`` and
    ``stale_heap_entries`` instrument the completion heap itself.
    """

    steps: int = 0
    shares: int = 0
    actions_created: int = 0
    actions_completed: int = 0
    peak_concurrent: int = 0
    partial_shares: int = 0
    flows_resolved: int = 0
    components_solved: int = 0
    #: per-action updates performed by the event loop (see class docstring)
    actions_touched: int = 0
    #: completion-heap entries popped
    heap_pops: int = 0
    #: popped entries whose prediction was stale and skipped
    stale_heap_entries: int = 0
    #: utilization samples recorded on the attached timeline (0 unless
    #: :meth:`Engine.enable_timeline` was called)
    link_samples: int = 0
    #: capacity changes applied (availability profiles + set_availability)
    capacity_events: int = 0
    #: resources turned OFF (state profiles + fail_resource)
    resource_failures: int = 0
    #: resources turned back ON (state profiles + restore_resource)
    resource_restores: int = 0
    #: scheduler resumes of an actor execution context (any backend)
    ctx_switches: int = 0
    #: ctx_switches served by the sole-runnable drain fast path (the
    #: actor was resumed again directly, skipping a deque cycle)
    ctx_fast_resumes: int = 0
    #: progressive-filling rounds spent across all incremental shares (a
    #: direct measure of solver work)
    fill_rounds: int = 0
    #: always 0: every share is solved to the exact max-min fixed point.
    #: Kept only because the e2ebench golden counters pin it; it can go
    #: once that golden file is regenerated
    approx_events: int = 0
    #: pt2pt match-queue entries examined across all matching attempts
    #: (both ``index`` and ``scan`` modes count identically: one probe
    #: per entry looked at, minimum one per attempt) — the cost metric
    #: the matching ablation bench gates on
    match_probes: int = 0
    #: successful matches whose envelope carried no wildcard (the
    #: indexed queues serve these from an O(1) bucket popleft)
    match_fast_hits: int = 0
    #: matching attempts resolved through a wildcard pattern
    #: (ANY_SOURCE/ANY_TAG on either side)
    wildcard_scans: int = 0
    #: Request/Message/_PostedRecv objects served from a free-list pool
    #: instead of freshly allocated (see docs/performance.md)
    pooled_reuses: int = 0
    extra: dict = field(default_factory=dict)

    #: wire-format version stamped into :meth:`to_dict` payloads; bump it
    #: whenever a counter changes meaning (renames/removals/additions), so
    #: stale serialized stats — e.g. sweep memo-cache entries — are
    #: rejected instead of silently misread.  v2: added the match/alloc
    #: counters (match_probes, match_fast_hits, wildcard_scans,
    #: pooled_reuses).
    SCHEMA_VERSION = 2

    def to_dict(self) -> dict:
        """Serialize every counter to a plain-JSON-compatible dict.

        The payload carries a ``schema_version`` field (see
        :data:`SCHEMA_VERSION`) and round-trips exactly through
        :meth:`from_dict`; the sweep memo cache persists it under
        ``.repro-cache/``.
        """
        data = {"schema_version": self.SCHEMA_VERSION}
        for spec in fields(self):
            value = getattr(self, spec.name)
            data[spec.name] = dict(value) if spec.name == "extra" else value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EngineStats":
        """Rebuild an :class:`EngineStats` from a :meth:`to_dict` payload.

        Raises :class:`~repro.errors.SimulationError` when the payload's
        ``schema_version`` is missing or different from
        :data:`SCHEMA_VERSION`, or when it carries counters this version
        does not know — both mean the serialized stats come from an
        incompatible build and must not be trusted.
        """
        payload = dict(data)
        version = payload.pop("schema_version", None)
        if version != cls.SCHEMA_VERSION:
            raise SimulationError(
                f"EngineStats schema_version {version!r} is not the "
                f"supported version {cls.SCHEMA_VERSION}"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SimulationError(
                f"EngineStats payload carries unknown counters {unknown}"
            )
        return cls(**payload)


class Engine:
    """Sequential kernel simulating one platform."""

    def __init__(
        self,
        platform: Platform,
        network_model: NetworkModel | None = None,
        cpu_model: CpuModel | None = None,
    ) -> None:
        platform.freeze()
        self.platform = platform
        self.network_model = network_model or FactorsNetworkModel()
        self.cpu_model = cpu_model or CpuModel()
        self.now = 0.0
        #: pending actions by aid (insertion order == registration order)
        self.pending: dict[int, Action] = {}
        self.stats = EngineStats()
        self._needs_share = True  # resource shares need recomputation
        self._solver = IncrementalMaxMin()
        #: RUNNING actions currently registered as solver flows, by aid
        self._members: dict[int, Action] = {}
        #: zero-duration actions waiting for observer delivery
        self._instant_done: list[Action] = []
        #: min-heap of (deadline, aid, epoch, action) completion
        #: predictions; live while ``epoch == action.epoch``
        self._heap: list[tuple[float, int, int, Action]] = []
        #: actions that reached DONE/FAILED and await observer delivery
        self._finished: list[Action] = []
        #: (completion-heap top, profile-heap top, date) of the last
        #: :meth:`next_deadline`, for the :meth:`step` right after it
        self._peeked: tuple | None = None
        #: actions that entered RUNNING since the last share (to enroll)
        self._newly_running: list[Action] = []
        #: actions that left RUNNING since the last share (to retire)
        self._retired: list[Action] = []
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
        #: per-resource utilization timeline; None (the default) keeps the
        #: share path free of any sampling work
        self.timeline = None
        self._install_profiles()
        bind_clock(lambda: self.now)

    def enable_timeline(self):
        """Attach (and return) a :class:`~repro.trace.Timeline`.

        From then on every share also records the consumed bandwidth of
        the links (and the load of the hosts) whose sharing was
        recomputed.  With the incremental solver this piggybacks on the
        component re-solve — clean components cost nothing extra — and
        with the timeline detached (the default) the sampling code is
        never reached at all.
        """
        if self.timeline is None:
            from ..trace.timeline import Timeline

            self.timeline = Timeline()
            self._solver.track_usage = True
        return self.timeline

    # -- action factories -------------------------------------------------------

    def communicate(
        self,
        src: str,
        dst: str,
        size: float,
        name: str = "comm",
        rate_cap: float = math.inf,
        extra_latency: float = 0.0,
    ) -> NetworkAction:
        """Start a transfer of ``size`` bytes between two hosts.

        The network model decides the start-up latency and the per-flow
        rate bound; ``rate_cap`` lets callers throttle further (SimGrid's
        ``rate`` argument) and ``extra_latency`` adds protocol delays
        (per-message overheads, rendezvous handshakes).  Host-local
        transfers route over the platform's loopback link when one is
        configured (:meth:`~repro.surf.platform.Platform.set_loopback`),
        so the installed network model applies to self-sends too; without
        one they fall back to a fixed high-speed loopback treatment.
        """
        route = self.platform.route(src, dst)
        if route.links:
            params = self.network_model.transfer_params(size, route.params)
            links = route.links if params.shared else ()
            action = NetworkAction(
                name,
                size,
                links,
                latency=params.latency + extra_latency,
                rate_bound=min(params.rate_bound, rate_cap),
                src=src,
                dst=dst,
            )
        else:  # same host, no loopback link configured: constant fallback
            action = NetworkAction(
                name, size, (), latency=1e-7 + extra_latency,
                rate_bound=min(rate_cap, 12.5e9), src=src, dst=dst,
            )
        if self._dead_resources and self._route_is_dead(route.links):
            action.fail()
        self._register(action)
        return action

    def execute(self, host: Host | str, flops: float, name: str = "exec") -> ComputeAction:
        """Start a CPU burst of ``flops`` on ``host``."""
        if isinstance(host, str):
            host = self.platform.host(host)
        action = ComputeAction(name, flops, host, self.cpu_model.action_bound(host))
        if host.name in self._dead_resources:
            action.fail()
        self._register(action)
        return action

    def sleep(self, duration: float, name: str = "sleep") -> SleepAction:
        """Start a pure delay of ``duration`` simulated seconds."""
        action = SleepAction(name, duration)
        self._register(action)
        return action

    def _register(self, action: Action) -> None:
        action.start_time = self.now
        action.last_touched = self.now
        self.stats.actions_created += 1
        if action.state in (ActionState.DONE, ActionState.FAILED):
            # zero-work (or stillborn-failed) actions complete immediately;
            # observers still fire through the normal harvest path
            action.finish_time = self.now
            self._instant_done.append(action)
        else:
            if action.state is ActionState.LATENCY:
                action.deadline = self.now + action.latency_remaining
                self._push(action)
            else:
                # RUNNING from birth: deadline stays inf until a share
                # assigns a rate
                self._newly_running.append(action)
            self.pending[action.aid] = action
            self.stats.peak_concurrent = max(self.stats.peak_concurrent, len(self.pending))
        self._needs_share = True

    def _push(self, action: Action) -> None:
        """Schedule ``action``'s current deadline on the completion heap."""
        if action.deadline < _INF:
            heappush(self._heap,
                     (action.deadline, action.aid, action.epoch, action))

    @property
    def busy(self) -> bool:
        """True while any action remains to progress or deliver."""
        return bool(self.pending or self._instant_done)

    # -- stepping ----------------------------------------------------------------

    def share_resources(self) -> None:
        """Recompute the rates invalidated since the last share.

        The incremental path syncs the persistent solver's flow membership
        with the RUNNING actions (arrivals and departures mark the
        resources they touch dirty) and re-solves only the dirty connected
        components; every other RUNNING action keeps its rate, which is
        still the exact max-min solution of its untouched component.
        """
        self.stats.shares += 1
        self._share_incremental()
        self._needs_share = False

    def _share_incremental(self) -> None:
        solver = self._solver
        members = self._members
        # Membership is synced from the arrival/departure queues the event
        # loop maintains, not by scanning ``pending`` — a share after one
        # completion costs O(affected), however many actions are in flight.
        for action in self._newly_running:
            if action.state is ActionState.RUNNING and action.aid not in members:
                self._enroll(action)
        self._newly_running.clear()
        for action in self._retired:
            if members.pop(action.aid, None) is not None:
                solver.remove_flow(action.aid)
        self._retired.clear()

        solver.solve_dirty()
        # Only the flows whose rate actually changed value are re-anchored
        # and re-scheduled; every other flow's completion prediction is
        # still exact, so its heap entry survives untouched.
        if solver.last_rate_changed:
            self._reanchor(solver.last_rate_changed)
        solved = solver.last_flows_solved
        self.stats.flows_resolved += solved
        self.stats.components_solved += solver.last_components
        self.stats.fill_rounds += solver.last_fill_rounds
        if members and solved < len(members):
            self.stats.partial_shares += 1
        if self.timeline is not None:
            now = self.now
            record_sample = self.timeline.record
            for record, usage in solver.last_usage:
                record_sample(now, record.name, usage, record.capacity,
                              record.kind)
            self.stats.link_samples = self.timeline.n_samples

    def _reanchor(self, rates: dict) -> None:
        """Re-anchor the member flows of ``rates`` (aid -> new rate) and
        push their new deadlines.

        A rate equal to the action's own (a new flow whose first rate is
        0, which the solver reports as changed from never-solved) is
        skipped entirely — the existing prediction stays exact, and
        skipping keeps the floating-point trajectory identical to the
        eager test oracle's, which re-examines every action.
        """
        members = self._members
        heap = self._heap
        now = self.now
        touched = 0
        for aid, rate in rates.items():
            action = members[aid]
            if rate != action.rate:
                touched += 1
                deadline = action.set_rate(rate, now)
                if deadline < _INF:
                    heappush(heap, (deadline, aid, action.epoch, action))
        self.stats.actions_touched += touched

    def _capacity_of(self, resource: "Link | Host") -> float:
        """Current constraint capacity: nominal scaled by availability."""
        base = (resource.bandwidth if isinstance(resource, Link)
                else self.cpu_model.capacity(resource))
        factor = self._availability.get(resource.name)
        return base if factor is None else base * factor

    def _ensure_solver_constraint(self, resource: "Link | Host") -> None:
        """Register (or capacity-update) ``resource`` in the solver."""
        if isinstance(resource, Link):
            self._solver.ensure_constraint(
                resource,
                self._capacity_of(resource),
                shared=resource.sharing is SharingPolicy.SHARED,
                name=resource.name,
            )
        else:
            self._solver.ensure_constraint(
                resource, self._capacity_of(resource), name=resource.name,
                kind="host",
            )

    def _enroll(self, action: Action) -> None:
        """Register a newly-RUNNING action as a solver flow.

        Only resources the solver does not hold yet are registered: a
        held constraint already carries the current capacity, since
        :meth:`set_availability` updates it in place.
        """
        solver = self._solver
        resources = action.constraints()
        for resource in resources:
            if not solver.has_constraint(resource):
                self._ensure_solver_constraint(resource)
        solver.add_flow(action.aid, resources, bound=action.rate_bound,
                        weight=action.weight, name=action.name)
        self._members[action.aid] = action

    def next_deadline(self) -> float:
        """Absolute date of the next scheduled event (inf when none).

        Peeks the completion heap, skipping stale entries.  Upcoming
        profile points (capacity changes, failures, recoveries) are
        events too — a flow stalled at rate 0 by a zero-availability
        phase legitimately waits for the restoring point, so the profile
        horizon bounds the result.
        """
        if self._needs_share:
            self.share_resources()
        horizon = self._next_profile_time()
        heap = self._heap
        stale = 0
        while heap:
            deadline, _aid, epoch, action = heap[0]
            if epoch == action.epoch:
                break
            heappop(heap)
            stale += 1
        if stale:
            stats = self.stats
            stats.heap_pops += stale
            stats.stale_heap_entries += stale
        if heap:
            date = horizon if horizon < deadline else deadline
            profiles = self._profile_heap
            self._peeked = (heap[0], profiles[0] if profiles else None, date)
            return date
        return self._stalled_horizon(horizon)

    def _stalled_horizon(self, horizon: float) -> float:
        """The next event when no pending action can finish on its own.

        Such an action runs at rate 0.  A profile can free it only with a
        positive availability point on each zero-capacity resource of its
        path — never when its own rate bound is 0 — or end it with a 0
        state point on any resource of its path.  When no scheduled profile
        can do either for any pending action, the stall is permanent:
        report inf, or periodic profiles elsewhere would step the clock
        forever.
        """
        if not self.pending or horizon == math.inf:
            return horizon
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
        for action in self.pending.values():
            if not action.is_pending:
                continue
            path = action.constraints()
            if any(r.name in failing for r in path):
                return horizon
            if action.rate_bound == 0:
                continue  # held at 0 by its own bound: no capacity frees it
            zero = [r.name for r in path if self._capacity_of(r) == 0.0]
            if not zero or all(name in restoring for name in zero):
                return horizon
        return math.inf

    def _stalled_error(self) -> SimulationError:
        stalled = ", ".join(a.name for a in islice(self.pending.values(), 8))
        return SimulationError(f"no action can complete: {stalled}")

    def step(self) -> list[Action]:
        """Advance to the next completion; return the finished actions.

        Raises :class:`SimulationError` when pending actions exist but none
        can ever finish (all stalled at rate 0 with no latency running) —
        that indicates an internal inconsistency, since max-min always
        grants positive rates to flows on positive-capacity resources.
        """
        self.stats.steps += 1
        if self._instant_done:
            return self._drain_instant()
        if self._finished:  # e.g. actions cancelled since last step
            return self._harvest()
        if not self.pending:
            return []
        # the scheduler peeks (poll_progress) right before each step: its
        # date stands while no share is due and both heap tops are the
        # same entries, the completion one still live
        peeked, self._peeked = self._peeked, None
        heap, profiles = self._heap, self._profile_heap
        if (peeked is not None and not self._needs_share and heap
                and peeked[0] is heap[0] and heap[0][2] == heap[0][3].epoch
                and peeked[1] is (profiles[0] if profiles else None)):
            date = peeked[2]
        else:
            date = self.next_deadline()
            if math.isinf(date):
                raise self._stalled_error()
        self._advance_to(date)
        return self._harvest()

    def _advance_to(self, date: float) -> None:
        """Move the clock to ``date`` (at most the next event deadline) and
        expire the actions whose deadline has been reached.

        Profile points due at ``date`` are applied after the clock moves
        (the share before it covers the interval the old capacities ruled)
        and before expiry processing, so an action completing exactly at a
        capacity change still completes, deterministically.
        """
        if self._needs_share:
            self.share_resources()
        self.now = date
        self._fire_profiles_due()
        self._expire_lazy()

    def _expire_lazy(self) -> None:
        """Heap-driven event processing: pop exactly the due predictions."""
        now = self.now
        heap = self._heap
        pops = stale = 0
        while heap and heap[0][0] <= now:
            _deadline, _aid, epoch, action = heappop(heap)
            pops += 1
            if epoch != action.epoch:
                stale += 1
                continue
            self._expire(action)
        stats = self.stats
        stats.heap_pops += pops
        stats.stale_heap_entries += stale
        stats.actions_touched += pops - stale

    def _expire(self, action: Action) -> None:
        """Apply one due phase change and queue completions for harvest."""
        action.expire(self.now)
        if action.state is ActionState.DONE:
            self._finished.append(action)
            self._retired.append(action)
        else:  # latency expired: a new flow arrives at the next share
            self._newly_running.append(action)
        # any transition (latency expiry -> new flow, completion ->
        # departure) invalidates the shares of the resources it touches
        self._needs_share = True

    def poll_progress(self) -> bool:
        """True when :meth:`step` can make progress: something to deliver
        now, or a future event scheduled on the heap.  The SIMIX scheduler
        uses this O(1) peek for deadlock detection instead of scanning."""
        if self._instant_done or self._finished:
            return True
        if not self.pending:
            return False
        return not math.isinf(self.next_deadline())

    def advance(self, delta: float) -> None:
        """Progress simulated time by exactly ``delta`` seconds.

        Unlike :meth:`step` this safely crosses any number of event
        boundaries (latency expiries, completions), re-sharing resources
        and delivering observers at each one.  Like :meth:`step` it raises
        :class:`SimulationError` when pending actions exist but none can
        ever finish; the clock only warps to the target when nothing is
        pending.
        """
        if delta < 0:
            raise SimulationError(f"cannot advance time by {delta}")
        target = self.now + delta
        while self.now < target - 1e-15:
            self._harvest()  # deliver cancellations before stall detection
            if not self.pending:
                # nothing left to progress; still replay the profile points
                # inside the window so resource state stays consistent
                date = self._next_profile_time()
                if date > target:
                    break  # idle until the target: warp below
            else:
                date = self.next_deadline()
                if math.isinf(date):
                    raise self._stalled_error()
            self._advance_to(min(date, target))
            self._harvest()
        self.now = max(self.now, target)

    def _harvest(self) -> list[Action]:
        if not self._finished:
            return []
        finished, self._finished = self._finished, []
        # observers fire in registration order, whatever order completions
        # and cancellations were discovered in
        finished.sort(key=_by_aid)
        for action in finished:
            self.pending.pop(action.aid, None)
            action.finish_time = self.now
            self.stats.actions_completed += 1
            if action.observer is not None:
                action.observer(action)
        return finished

    def _drain_instant(self) -> list[Action]:
        instant = self._instant_done
        if not instant:
            return []
        done = list(instant)
        instant.clear()
        for action in done:
            self.stats.actions_completed += 1
            if action.observer is not None:
                action.observer(action)
        return done

    def run(self) -> float:
        """Run standalone until every action completed; return final clock.

        An attached timeline is closed at the final clock, as the SMPI
        runtime does once its scheduler drains.  ``stats.steps`` is
        counted by :meth:`step` itself, so the counter is accurate
        whichever driver (``run()`` or the SIMIX scheduler) paces the
        simulation.
        """
        while self.pending or self._instant_done:
            self.step()
        if self.timeline is not None:
            # the last completion ends the run without a further share,
            # so nothing else marks its resources idle
            self.timeline.close(self.now)
            self.stats.link_samples = self.timeline.n_samples
        return self.now

    def _retire(self, action: Action) -> None:
        """The one external-failure path: mark ``action`` FAILED, queue it
        for observer delivery at the next harvest, and schedule its solver
        departure (its epoch bump staled any live heap entry).

        Both :meth:`cancel` and :meth:`fail_resource` funnel through here
        so lazy-heap and solver membership stay in sync whichever way an
        action dies mid-flight.
        """
        action.fail()
        self._finished.append(action)
        self._retired.append(action)
        self._needs_share = True

    def cancel(self, action: Action) -> None:
        """Fail a pending action; its observer fires on the next harvest."""
        if action.is_pending:
            self._retire(action)

    # -- dynamic resources: failure, recovery, availability ---------------------------

    def at(self, when: float, callback, fire_on_cancel: bool = True) -> Action:
        """Invoke ``callback()`` at absolute simulated time ``when``.

        Implemented as a zero-length sleep whose observer runs the
        callback; useful for injecting failures and other scripted events.
        By default the observer fires even if the sleep is cancelled or a
        resource failure kills it — the historical behavior, which scripted
        fault injection relies on (the injection must happen however the
        scenario unwinds).  Pass ``fire_on_cancel=False`` for watchdog-style
        callbacks that must NOT outlive their trigger: cancelling the
        returned action (:meth:`cancel`) then suppresses the callback.
        """
        delay = max(when - self.now, 0.0)
        action = self.sleep(delay, name=f"at-{when}")

        def observer(fired: Action) -> None:
            if not fire_on_cancel and fired.state is ActionState.FAILED:
                return
            callback()

        action.observer = observer
        return action

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

    def _route_is_dead(self, links) -> bool:
        return any(link.name in self._dead_resources for link in links)

    # -- availability/state profiles ------------------------------------------------

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
        if entry is not None:
            heappush(self._profile_heap, (entry[0], cursor, entry[1]))

    def _next_profile_time(self) -> float:
        """Absolute date of the earliest scheduled profile point."""
        return self._profile_heap[0][0] if self._profile_heap else math.inf

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

    # -- snapshot / restore (docs/scaling.md) -----------------------------------

    def snapshot(self) -> dict:
        """Serialize the engine's full dynamic state as a plain dict.

        The payload is JSON-compatible (Python's ``json`` round-trips the
        ``inf``/``nan`` values the numeric fields legitimately hold) and
        :meth:`restore` rebuilds an engine from it that continues the run
        **bit-identically** to the uninterrupted one: action ids, heap
        tie-breaks, solver re-solve order and float trajectories are all
        preserved.  Observers are *not* captured — they are closures into
        the layer driving the engine, and that layer (see
        ``repro.offline.snapshot``) re-attaches its own observers to the
        actions :meth:`restore` returns.

        A snapshot is only taken at a *quiescent* cut: every completion
        already delivered.  The capture refuses (raising
        :class:`SimulationError`) when undelivered completions are queued,
        when an :meth:`at` callback is pending (its closure cannot be
        serialized), when a timeline is attached (utilization series are
        streamed, not checkpointed).
        """
        if self._instant_done or self._finished:
            raise SimulationError(
                "engine is not quiescent: completions await delivery "
                "(step once more, then capture)"
            )
        if self.timeline is not None:
            raise SimulationError(
                "snapshot does not capture the utilization timeline; "
                "checkpoint runs with tracing disabled"
            )
        for action in self.pending.values():
            if action.name.startswith("at-"):
                raise SimulationError(
                    f"pending scheduled callback {action.name!r} cannot be "
                    "snapshotted (its closure is not serializable)"
                )

        solver = self._solver
        members = []
        for aid in solver.flow_keys_in_seq_order():
            try:
                rate = solver.rate(aid)
            except KeyError:  # enrolled but never solved (NaN sentinel)
                rate = None
            members.append([aid, rate])
        retired_aids = {a.aid for a in self._retired}
        actions = [self._serialize_action(a) for a in self.pending.values()]
        actions += [self._serialize_action(a) for a in self._retired
                    if a.aid not in self.pending]
        return {
            "version": SNAPSHOT_VERSION,
            "now": self.now,
            "stats": self.stats.to_dict(),
            "availability": dict(self._availability),
            "dead_resources": sorted(self._dead_resources),
            "next_aid": _action_ids.peek,
            "actions": actions,
            "pending": list(self.pending),
            "heap": [[deadline, aid, epoch]
                     for deadline, aid, epoch, _action in self._heap],
            "newly_running": [a.aid for a in self._newly_running],
            "retired": sorted(retired_aids),
            "needs_share": self._needs_share,
            "members": members,
            "dirty_cons": sorted(self._resource_ref(key)
                                 for key in solver.dirty_constraint_keys()),
            "dirty_flows": sorted(solver._dirty_flows),
            "profiles": [
                {"resource": self._resource_ref(record[0]),
                 "kind": record[1], "pulls": record[3]}
                for record in self._profile_cursors
            ],
            "profile_heap": [list(entry) for entry in self._profile_heap],
        }

    @staticmethod
    def _resource_ref(resource: "Link | Host") -> list:
        return ["host" if isinstance(resource, Host) else "link",
                resource.name]

    def _resource_by_ref(self, ref) -> "Link | Host":
        rtype, name = ref
        return (self.platform.host(name) if rtype == "host"
                else self.platform.link(name))

    def _serialize_action(self, action: Action) -> dict:
        data = {
            "aid": action.aid,
            "name": action.name,
            "state": action.state.name,
            "remaining": action.remaining,
            "latency_remaining": action.latency_remaining,
            "rate": action.rate,
            "rate_bound": action.rate_bound,
            "weight": action.weight,
            "start_time": action.start_time,
            "finish_time": action.finish_time,
            "last_touched": action.last_touched,
            "deadline": action.deadline,
            "epoch": action.epoch,
        }
        if isinstance(action, NetworkAction):
            data["kind"] = "network"
            data["src"] = action.src
            data["dst"] = action.dst
            data["size"] = action.size
            data["routed"] = bool(action.links)
        elif isinstance(action, ComputeAction):
            data["kind"] = "compute"
            data["host"] = action.host.name
        elif isinstance(action, SleepAction):
            data["kind"] = "sleep"
        else:
            raise SimulationError(
                f"cannot snapshot action of type {type(action).__name__}"
            )
        return data

    def _revive_action(self, data: dict) -> Action:
        """Rebuild one serialized action, observer-less, slots verbatim."""
        kind = data["kind"]
        if kind == "network":
            action = NetworkAction.__new__(NetworkAction)
            if data["routed"]:
                # re-derive the link tuple from the (frozen, hence
                # identical) platform topology; the numeric state is
                # never re-derived from the network model
                action.links = self.platform.route(
                    data["src"], data["dst"]).links
            else:
                action.links = ()
            action.src = data["src"]
            action.dst = data["dst"]
            action.size = float(data["size"])
            action.payload = None
        elif kind == "compute":
            action = ComputeAction.__new__(ComputeAction)
            action.host = self.platform.host(data["host"])
        elif kind == "sleep":
            action = SleepAction.__new__(SleepAction)
        else:
            raise SimulationError(f"unknown serialized action kind {kind!r}")
        action.aid = data["aid"]
        action.name = data["name"]
        action.state = ActionState[data["state"]]
        action.remaining = data["remaining"]
        action.latency_remaining = data["latency_remaining"]
        action.rate = data["rate"]
        action.rate_bound = data["rate_bound"]
        action.weight = data["weight"]
        action.start_time = data["start_time"]
        action.finish_time = data["finish_time"]
        action.last_touched = data["last_touched"]
        action.deadline = data["deadline"]
        action.epoch = data["epoch"]
        action.observer = None
        return action

    @classmethod
    def restore(
        cls,
        platform: Platform,
        snap: dict,
        network_model: NetworkModel | None = None,
        cpu_model: CpuModel | None = None,
    ) -> tuple["Engine", dict]:
        """Rebuild an engine from a :meth:`snapshot` payload.

        Returns ``(engine, actions)`` where ``actions`` maps each
        serialized aid to its revived :class:`Action` so the driving
        layer can re-attach observers.  ``platform`` must be the platform
        the snapshot was taken on (same topology and nominal capacities),
        and ``network_model``/``cpu_model`` must equal the original run's
        for the continuation to stay bit-identical — the snapshot stores
        every in-flight action's *numeric* state verbatim, but actions
        created after the restore consult the models again.
        """
        version = snap.get("version")
        if version != SNAPSHOT_VERSION:
            raise SimulationError(
                f"engine snapshot version {version!r} is not the supported "
                f"version {SNAPSHOT_VERSION}"
            )
        engine = cls(platform, network_model=network_model,
                     cpu_model=cpu_model)
        # undo the construction-time profile install; cursors are re-wound
        # to their serialized positions below
        engine._profile_cursors = []
        engine._profile_heap = []

        engine.now = snap["now"]
        engine.stats = EngineStats.from_dict(snap["stats"])
        engine._availability = dict(snap["availability"])
        engine._dead_resources = set(snap["dead_resources"])
        engine._needs_share = snap["needs_share"]

        actions: dict[int, Action] = {}
        for data in snap["actions"]:
            action = engine._revive_action(data)
            actions[action.aid] = action
        engine.pending = {aid: actions[aid] for aid in snap["pending"]}
        # an entry of an action the snapshot does not hold (harvested
        # before the cut) is stale: bind it to an action it never matches
        engine._heap = [(deadline, aid, epoch, actions.get(aid, _HARVESTED))
                        for deadline, aid, epoch in snap["heap"]]
        engine._newly_running = [actions[aid]
                                 for aid in snap["newly_running"]]
        engine._retired = [actions[aid] for aid in snap["retired"]]

        # Solver: re-enroll every member flow in original seq order (so
        # component re-solves sort members identically), seed the solved
        # rates, then reset dirtiness to exactly the serialized cut.
        # Component solves run progressive filling from scratch, so this
        # state is indistinguishable from having solved its way here.
        solver = engine._solver
        for aid, rate in snap["members"]:
            engine._enroll(actions[aid])
            if rate is not None:
                solver.seed_rate(aid, rate)
        solver.clear_dirty()
        for ref in snap["dirty_cons"]:
            solver.mark_dirty(engine._resource_by_ref(ref))
        for aid in snap["dirty_flows"]:
            solver.mark_flow_dirty(aid)

        # Profiles: re-open each (platform-attached) profile and discard
        # the consumed prefix; the upcoming-point heap is restored
        # verbatim so firing order and tie-breaks are preserved.
        for spec in snap["profiles"]:
            resource = engine._resource_by_ref(spec["resource"])
            profile = getattr(resource, f"{spec['kind']}_profile", None)
            if profile is None:
                raise SimulationError(
                    f"snapshot references a {spec['kind']} profile on "
                    f"{resource.name!r} that the platform does not carry"
                )
            events = profile.iter_events()
            for _ in range(spec["pulls"]):
                next(events, None)
            engine._profile_cursors.append(
                [resource, spec["kind"], events, spec["pulls"], profile])
        engine._profile_heap = [tuple(entry)
                                for entry in snap["profile_heap"]]

        # continue numbering where the original left off: heap ties break
        # on aid and harvests deliver aid-sorted, so ids must line up
        _action_ids.advance_to(snap["next_aid"])
        return engine, actions
