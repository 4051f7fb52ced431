"""The thread context: one OS thread per actor, baton-passed with Locks.

Actors whose entry is a plain function run here, since only a real stack
can park plain frames; run on generator functions too, it is the
bit-identical equivalence oracle of the coroutine context.  The scheduler
thread and the actor thread share a pair of :class:`threading.Lock`
objects, each created held, and at any instant exactly one of them holds
the baton.  A side hands the baton over by releasing the other side's
lock and waits for it back by acquiring its own, so every switch costs
one release and one blocking acquire — which is what the coroutine
context exists to retire.
"""

from __future__ import annotations

import inspect
import threading

from ...log import get_logger
from ..actor import ActorKilled
from .base import ExecutionContext, drive_on_stack

_log = get_logger("simix")

__all__ = ["ThreadContext"]


class ThreadContext(ExecutionContext):
    """Parks the actor's frames on a dedicated daemon thread."""

    kind = "thread"

    def __init__(self, actor) -> None:
        super().__init__(actor)
        # each lock is created held; releasing it lets its side run
        self._baton_actor = threading.Lock()
        self._baton_actor.acquire()
        self._baton_sched = threading.Lock()
        self._baton_sched.acquire()
        self._thread = threading.Thread(
            target=self._bootstrap, name=f"actor-{actor.name}", daemon=True
        )
        self._started = False

    # -- scheduler side ----------------------------------------------------------

    def resume(self) -> None:
        if self.actor.finished:
            return
        if not self._started:
            self._started = True
            self._thread.start()
        self._baton_actor.release()
        self._baton_sched.acquire()

    def join(self, timeout: float | None = None) -> None:
        if self._started:
            self._thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self._started and self._thread.is_alive()

    # -- actor side --------------------------------------------------------------

    def block(self) -> None:
        self._baton_sched.release()
        self._baton_actor.acquire()
        if self.actor._killed:
            raise ActorKilled()

    def _bootstrap(self) -> None:
        actor = self.actor
        try:
            self._baton_actor.acquire()
            if actor._killed:
                raise ActorKilled()
            if inspect.isgeneratorfunction(actor.func):
                # a generator actor on the thread oracle: the thread
                # itself trampolines the continuation, blocking in-stack
                # at each yield.
                gen = actor.func(*actor.args, **actor.kwargs)
                actor.result = drive_on_stack(self, gen)
            else:
                actor.result = actor.func(*actor.args, **actor.kwargs)
        except ActorKilled:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to the scheduler
            actor.exception = exc
        finally:
            actor.finished = True
            self._baton_sched.release()
