"""Activities: engine actions wrapped for actor-level waiting.

An :class:`Activity` ties a SURF action to the set of actors waiting on
it.  When the engine completes the action, the activity's observer flips
``done`` and wakes every registered waiter through the scheduler.  The MPI
layer builds its request objects on top of these.

``CommActivity`` additionally carries the message payload so that data
really moves between ranks (on-line simulation): the payload set by the
sender is what the receiver's buffer is filled from at completion time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..seq import Sequencer
from ..surf.action import Action, ActionState
from .contexts import run_blocking

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .actor import Actor
    from .context import Scheduler

__all__ = ["Activity", "CommActivity", "ExecActivity", "SleepActivity"]

_ids = Sequencer()


class Activity:
    """Base: completion flag + waiter wake-up for one engine action."""

    def __init__(self, scheduler: "Scheduler", action: Action | None, name: str = ""):
        self.aid = next(_ids)
        self.scheduler = scheduler
        self.action = action
        self.name = name or (action.name if action else f"activity-{self.aid}")
        self.done = False
        self.failed = False
        self.finish_time = float("nan")
        self._waiters: list["Actor"] = []
        #: extra callables invoked (before waiter wake-up) at completion
        self.callbacks: list = []
        if action is not None:
            action.observer = self._on_action_done

    # -- engine callback ----------------------------------------------------------

    def _on_action_done(self, action: Action) -> None:
        # the bound method closes a cycle (activity -> action -> observer
        # -> activity): break it, so refcounting frees the finished pair
        action.observer = None
        self.done = True
        self.failed = action.state is ActionState.FAILED
        self.finish_time = action.finish_time
        self._wake_all()

    def _wake_all(self) -> None:
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback()
        waiters, self._waiters = self._waiters, []
        for actor in waiters:
            if actor.waiting_on is self:
                actor.waiting_on = None
            self.scheduler.wake(actor)

    # -- actor side -----------------------------------------------------------------

    def add_waiter(self, actor: "Actor") -> None:
        if actor not in self._waiters:
            self._waiters.append(actor)
        actor.waiting_on = self

    def wait(self, actor: "Actor") -> None:
        """Block ``actor`` until this activity completes."""
        run_blocking(self.co_wait(actor), lambda: actor)

    def co_wait(self, actor: "Actor"):
        """Generator twin of :meth:`wait` — ``yield from`` to block.

        This is the canonical implementation (:meth:`wait` drives it), so
        both dialects suspend at exactly the same points: the activity
        ``wait()`` seam is where every MPI-blocking call reaches the
        execution contexts.
        """
        while not self.done:
            self.add_waiter(actor)
            yield from actor.co_suspend()

    def cancel(self) -> None:
        if self.action is not None and not self.done:
            self.scheduler.engine.cancel(self.action)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "pending"
        return f"{type(self).__name__}({self.name!r} {state})"


class CommActivity(Activity):
    """A point-to-point transfer carrying a payload end-to-end."""

    def __init__(
        self,
        scheduler: "Scheduler",
        action: Action | None,
        src: str,
        dst: str,
        size: int,
        name: str = "",
    ) -> None:
        super().__init__(scheduler, action, name)
        self.src = src
        self.dst = dst
        self.size = size
        self.payload: Any = None


class ExecActivity(Activity):
    """A CPU burst on the actor's host."""


class SleepActivity(Activity):
    """A pure simulated delay."""
