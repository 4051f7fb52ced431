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

This module is the kernel only: action factories and registration, the
completion heap, the share, and the step loop.  Everything else that an
engine does lives beside it and reaches it through narrow hooks:

* resource failures, availability and profiles —
  :class:`~repro.surf.dynamics.ResourceDynamics`, the engine's base
  class, which feeds the step loop its timed events (the next profile
  point, what is due once the clock moves, whether a point can end a
  stall) and the resource state (a constraint's capacity, the dead check
  of a new action);
* the counter record — :class:`~repro.surf.stats.EngineStats`.

The historical scan-everything event loop and rebuild-everything share
survive as test-only oracles (``tests/oracles.py``) that pin this engine
bit-for-bit under any mix of failures, recoveries and capacity noise.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import islice
from operator import attrgetter

from ..errors import SimulationError
from ..log import bind_clock, get_logger
from .action import Action, ActionState, ComputeAction, NetworkAction, SleepAction
from .cpu_model import CpuModel
from .dynamics import ResourceDynamics
from .maxmin import IncrementalMaxMin
from .network_model import FactorsNetworkModel, NetworkModel
from .platform import Platform
from .resources import Host, Link, SharingPolicy
from .stats import EngineStats

__all__ = ["Engine"]

_log = get_logger("surf")

_INF = math.inf
_by_aid = attrgetter("aid")


class Engine(ResourceDynamics):
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
        #: (completion-heap top, next profile point, date) of the last
        #: :meth:`next_deadline`, for the :meth:`step` right after it
        self._peeked: tuple | None = None
        #: actions that entered RUNNING since the last share (to enroll)
        self._newly_running: list[Action] = []
        #: actions that left RUNNING since the last share (to retire)
        self._retired: list[Action] = []
        #: per-resource utilization timeline; None (the default) keeps the
        #: share path free of any sampling work
        self.timeline = None
        # resource dynamics last: installing a profile may already fail a
        # resource, which needs the state above
        super().__init__()
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
        if self._stillborn(route.links):
            action.fail()
        self._register(action)
        return action

    def execute(self, host: Host | str, flops: float, name: str = "exec") -> ComputeAction:
        """Start a CPU burst of ``flops`` on ``host``."""
        if isinstance(host, str):
            host = self.platform.host(host)
        action = ComputeAction(name, flops, host, self.cpu_model.action_bound(host))
        if self._stillborn((host,)):
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
        phase legitimately waits for the restoring point, so the next
        point bounds the result.
        """
        if self._needs_share:
            self.share_resources()
        horizon = self._next_point
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
            self._peeked = (heap[0], horizon, date)
            return date
        return self._stalled_horizon(horizon)

    def _stalled_horizon(self, horizon: float) -> float:
        """The next event when no pending action can finish on its own.

        Such an action runs at rate 0, and only a scheduled profile point
        can free or end it (:meth:`_stall_breaker`).  When no point can do
        either for any pending action, the stall is permanent: report inf,
        or periodic profiles elsewhere would step the clock forever.
        """
        if not self.pending or horizon == _INF:
            return horizon
        breaks = self._stall_breaker()
        for action in self.pending.values():
            if action.is_pending and breaks(action):
                return horizon
        return _INF

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
        # date stands while no share is due, the completion-heap top is
        # the same live entry and the next profile point is unchanged
        peeked, self._peeked = self._peeked, None
        heap = self._heap
        if (peeked is not None and not self._needs_share and heap
                and peeked[0] is heap[0] and heap[0][2] == heap[0][3].epoch
                and peeked[1] == self._next_point):
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
        if self._next_point <= date:
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
                date = self._next_point
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
