"""The scheduler: drives actors and the SURF engine in lock-step.

The main loop (:meth:`Scheduler.run`) alternates two phases until every
actor has finished:

1. **drain** — resume every runnable actor, one at a time, until each has
   blocked on an activity or terminated.  New actors spawned meanwhile
   join the queue and run in the same phase (same simulated instant).
2. **advance** — ask the engine for the next completing actions; their
   observers mark waiting actors runnable again.  If nothing can complete
   while actors are still blocked, the application has deadlocked and a
   :class:`~repro.errors.DeadlockError` describes who waits on what.

Because phase 1 runs actors strictly sequentially, the whole simulation is
deterministic: the actor execution order is the queue order, which is
itself determined by completion order and spawn order.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Any, Callable

from ..errors import ActorFailure, ContextLeakError, DeadlockError
from ..log import get_logger
from ..surf.engine import Engine
from ..surf.resources import Host
from .activity import CommActivity, ExecActivity, SleepActivity
from .actor import Actor
from .contexts import context_for

__all__ = ["Scheduler"]

_log = get_logger("simix")


class Scheduler:
    """Cooperative scheduler over one SURF engine.

    Each actor runs on the execution context its entry function calls
    for (:func:`repro.simix.contexts.context_for`).
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.actors: list[Actor] = []
        #: actors added and not yet finished; an actor finishes only
        #: inside its own resume, so the drain loop keeps this exact
        self._live = 0
        self._runnable: deque[Actor] = deque()
        self._current: Actor | None = None
        self._running = False
        #: optional callback invoked at every *quiescent cut* of the main
        #: loop: every live actor is blocked on an activity, no actor is
        #: runnable, and the engine has not yet stepped.  Checkpointing
        #: hooks in here (see repro.offline.snapshot) — the callback may
        #: observe but must not mutate simulation state.
        self.on_quiescent: Callable[[], None] | None = None

    # -- setup ------------------------------------------------------------------

    def add_actor(
        self,
        name: str,
        host: Host | str,
        func: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> Actor:
        """Register a simulated process; it starts when ``run()`` drains it."""
        if isinstance(host, str):
            host = self.engine.platform.host(host)
        actor = Actor(self, name, host, func, args, kwargs)
        actor._context = context_for(actor)
        self.actors.append(actor)
        self._live += 1
        self.wake(actor)
        return actor

    # -- actor services (called from actor threads) --------------------------------

    @property
    def current(self) -> Actor:
        """The actor currently holding the baton."""
        assert self._current is not None, "no actor is running"
        return self._current

    def communicate(
        self,
        src: str,
        dst: str,
        size: int,
        name: str = "comm",
        extra_latency: float = 0.0,
        rate_cap: float = float("inf"),
    ) -> CommActivity:
        action = self.engine.communicate(
            src, dst, size, name, rate_cap=rate_cap, extra_latency=extra_latency
        )
        return CommActivity(self, action, src, dst, size, name)

    def execute(self, actor: Actor, flops: float, name: str = "exec") -> ExecActivity:
        action = self.engine.execute(actor.host, flops, name)
        return ExecActivity(self, action, name)

    def sleep_activity(self, duration: float, name: str = "sleep") -> SleepActivity:
        action = self.engine.sleep(duration, name)
        return SleepActivity(self, action, name)

    def wake(self, actor: Actor) -> None:
        """Mark a blocked actor runnable (idempotent)."""
        if not actor.finished and not actor.scheduled:
            actor.scheduled = True
            self._runnable.append(actor)

    def _on_suspend(self, actor: Actor) -> None:
        actor.scheduled = False

    def _on_yield(self, actor: Actor) -> None:
        actor.scheduled = True
        self._runnable.append(actor)

    # -- main loop -----------------------------------------------------------------

    def run(self) -> float:
        """Simulate until every actor finished; return the final clock."""
        self._running = True
        try:
            while True:
                self._drain_runnable()
                if not self._live:
                    break
                if self.on_quiescent is not None:
                    self.on_quiescent()
                # Step the engine until some completion made an actor
                # runnable again (several steps may only expire latency
                # phases or finish activities nobody waits on).  The
                # poll is an O(1) peek at the engine's completion heap:
                # when no scheduled event can ever fire, stepping would
                # never wake anyone, so bail out to the deadlock report
                # instead of scanning (or spinning on) the pending set.
                while not self._runnable and self.engine.poll_progress():
                    self.engine.step()
                if not self._runnable:
                    self._raise_deadlock()
            return self.engine.now
        finally:
            self._running = False
            self._teardown()

    def _drain_runnable(self) -> None:
        runnable = self._runnable
        stats = self.engine.stats
        while runnable:
            actor = runnable.popleft()
            while True:
                if actor.finished:
                    break
                self._current = actor
                actor.resume()
                self._current = None
                stats.ctx_switches += 1
                if actor.finished:
                    self._live -= 1
                if actor.exception is not None:
                    raise ActorFailure(
                        actor.name, actor.exception
                    ) from actor.exception
                # Fast path: the actor merely yielded (or woke itself) and
                # is the sole runnable — resume it again immediately
                # instead of cycling it through the deque and re-entering
                # the outer scan.
                if len(runnable) == 1 and runnable[0] is actor:
                    runnable.popleft()
                    stats.ctx_fast_resumes += 1
                    continue
                break

    def _raise_deadlock(self) -> None:
        # Engine may still hold latency-phase actions even when nothing is
        # RUNNING; poll_progress() would have reported those, so reaching
        # here means a genuine application deadlock.  Each actor records
        # the activity it blocked on, so the report can say who waits on
        # what (the classic unmatched-recv shows up by name).
        def describe(actor: Actor) -> str:
            activity = actor.waiting_on
            if activity is not None:
                return f"{actor.name} (waiting on {activity.name!r})"
            reason = actor.waiting_reason
            if callable(reason):
                reason = reason()
            if reason:
                return f"{actor.name} ({reason})"
            return actor.name

        alive = [a for a in self.actors if not a.finished]
        names = ", ".join(describe(a) for a in alive[:16])
        more = "" if len(alive) <= 16 else f" (+{len(alive) - 16} more)"
        raise DeadlockError(
            f"all {len(alive)} remaining actors are blocked with no pending "
            f"activity: {names}{more}"
        )

    def _teardown(self) -> None:
        """Unwind every still-alive actor context so nothing leaks.

        Contexts that survive the kill+resume+join cycle (e.g. user code
        swallowing :class:`~repro.simix.actor.ActorKilled`, or a wedged
        actor thread) used to leak silently; now they raise a
        :class:`~repro.errors.ContextLeakError` naming the culprits — or
        log it when teardown is already unwinding a primary error, so the
        diagnostic never masks the real failure.
        """
        for actor in self.actors:
            if not actor.finished:
                actor.kill()
                actor.resume()
            actor.join_context()
        leaks = [
            f"{actor.name} ({actor.context_kind})"
            for actor in self.actors
            if actor.context_alive
        ]
        if leaks:
            error = ContextLeakError(leaks)
            if sys.exc_info()[0] is None:
                raise error
            _log.error("%s", error)
