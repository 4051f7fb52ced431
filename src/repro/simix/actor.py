"""Simulated processes, strictly sequential, on pluggable execution contexts.

An :class:`Actor` is the scheduler-facing identity of one simulated
process: its bookkeeping (runnable/blocked state, result, exception) plus
the blocking primitives user code calls.  *How* its frames are parked
between resumes is delegated to an
:class:`~repro.simix.contexts.ExecutionContext` — an OS thread with a
baton of Events, or a generator continuation resumed on the
scheduler's own stack (see :mod:`repro.simix.contexts.base`).

Each blocking primitive exists in two dialects with identical scheduler
interactions:

* synchronous — ``suspend()``, ``yield_now()``, ``wait_for()`` — parks
  the real stack via ``context.block()``; needs a thread context.
* generator — ``co_suspend()``, ``co_yield_now()``, ``co_wait_for()`` —
  does the same bookkeeping, then ``yield``\\ s; works on every context,
  and is the *only* way to block on a coroutine context.

An actor blocks by suspending; anything that might unblock it calls
:meth:`Scheduler.wake`.  Waits are predicate-based (the waker may be
spurious) which keeps the MPI layer's matching logic simple and correct.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Generator

from ..log import get_logger
from ..surf.resources import Host

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import Scheduler
    from .contexts import ExecutionContext

__all__ = ["Actor", "ActorKilled"]

_log = get_logger("simix")
_ids = itertools.count()


class ActorKilled(BaseException):
    """Raised *inside* an actor's frames to unwind it at simulation teardown.

    Derives from BaseException so user ``except Exception`` blocks cannot
    swallow it.
    """


class Actor:
    """One simulated process pinned to one host."""

    def __init__(
        self,
        scheduler: "Scheduler",
        name: str,
        host: Host,
        func: Callable[..., Any],
        args: tuple = (),
        kwargs: dict | None = None,
    ) -> None:
        self.aid = next(_ids)
        self.scheduler = scheduler
        self.name = name
        self.host = host
        self.func = func
        self.args = args
        self.kwargs = kwargs or {}

        self.finished = False
        self.exception: BaseException | None = None
        self.result: Any = None
        self._killed = False
        #: True while the actor sits in the scheduler's runnable queue
        self.scheduled = False
        #: the activity this actor is blocked on, if any (maintained by
        #: :meth:`repro.simix.activity.Activity.add_waiter`; used by the
        #: scheduler's deadlock report to say who waits on what)
        self.waiting_on = None
        #: human-readable label of a predicate wait (set by
        #: :meth:`wait_for`), or a callable returning it; the deadlock
        #: report falls back to it when there is no activity to name
        self.waiting_reason: str | Callable[[], str] | None = None
        #: the execution context carrying this actor's frames; attached by
        #: :meth:`Scheduler.add_actor` from the entry function's kind
        self._context: "ExecutionContext" = None  # type: ignore[assignment]

    # -- scheduler side ---------------------------------------------------------

    @property
    def context_kind(self) -> str:
        """Kind of this actor's execution context (e.g. ``thread``)."""
        return self._context.kind

    def resume(self) -> None:
        """Run the actor until it blocks or finishes; then return."""
        self._context.resume()

    def kill(self) -> None:
        """Unwind the actor (teardown); must be resumed once after.

        Idempotent on every context: repeated kills, or killing an actor
        that already finished, are no-ops.
        """
        self._killed = True

    def join_context(self, timeout: float | None = 5.0) -> None:
        """Wait for the context's kernel resources (if any) to unwind."""
        self._context.join(timeout)

    @property
    def context_alive(self) -> bool:
        """True while the context still holds live frames after teardown."""
        return self._context.alive

    # -- actor side: synchronous dialect ------------------------------------------

    def suspend(self) -> None:
        """Block until some event wakes this actor (possibly spuriously)."""
        self.scheduler._on_suspend(self)
        self._context.block()

    def yield_now(self) -> None:
        """Stay runnable but let the scheduler process other actors first."""
        self.scheduler._on_yield(self)
        self._context.block()

    def wait_for(self, predicate: Callable[[], bool],
                 reason: str | Callable[[], str] | None = None) -> None:
        """Suspend until ``predicate()`` holds; tolerant of spurious wakes.

        ``reason`` labels the wait in deadlock reports — predicate waits
        have no activity whose name could be shown otherwise.  A callable
        reason is called only when a report is written.
        """
        if reason is not None:
            self.waiting_reason = reason
        try:
            while not predicate():
                self.suspend()
        finally:
            if reason is not None:
                self.waiting_reason = None

    # -- actor side: generator dialect ---------------------------------------------

    def co_suspend(self) -> Generator[None, None, None]:
        """Generator twin of :meth:`suspend` (``yield from`` to block)."""
        self.scheduler._on_suspend(self)
        yield

    def co_yield_now(self) -> Generator[None, None, None]:
        """Generator twin of :meth:`yield_now`."""
        self.scheduler._on_yield(self)
        yield

    def co_wait_for(self, predicate: Callable[[], bool],
                    reason: str | Callable[[], str] | None = None,
                    ) -> Generator[None, None, None]:
        """Generator twin of :meth:`wait_for` — same bookkeeping, same order."""
        if reason is not None:
            self.waiting_reason = reason
        try:
            while not predicate():
                self.scheduler._on_suspend(self)
                yield
        finally:
            if reason is not None:
                self.waiting_reason = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "alive"
        return f"Actor(#{self.aid} {self.name!r} on {self.host.name} {state})"
