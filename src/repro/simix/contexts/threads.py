"""The thread backend: one OS thread per actor, baton-passed with Events.

This is the historical execution model, retained as the bit-identical
equivalence oracle: the scheduler thread and the actor thread share a
pair of :class:`threading.Event` objects, and at any instant exactly one
of them holds the baton.  Every
switch costs two kernel wait/set round-trips — which is precisely what
the coroutine backend exists to retire.
"""

from __future__ import annotations

import inspect
import threading

from ...log import get_logger
from .base import ExecutionContext, drive_on_stack

_log = get_logger("simix")

__all__ = ["ThreadContext"]


class ThreadContext(ExecutionContext):
    """Parks the actor's frames on a dedicated daemon thread."""

    kind = "thread"

    def __init__(self, actor) -> None:
        super().__init__(actor)
        self._baton_actor = threading.Event()  # set -> actor may run
        self._baton_sched = threading.Event()  # set -> scheduler may run
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
        self._baton_sched.clear()
        self._baton_actor.set()
        self._baton_sched.wait()

    def join(self, timeout: float | None = None) -> None:
        if self._started:
            self._thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self._started and self._thread.is_alive()

    # -- actor side --------------------------------------------------------------

    def block(self) -> None:
        from ..actor import ActorKilled

        self._baton_sched.set()
        self._baton_actor.wait()
        self._baton_actor.clear()
        if self.actor._killed:
            raise ActorKilled()

    def _bootstrap(self) -> None:
        from ..actor import ActorKilled

        actor = self.actor
        try:
            self._baton_actor.wait()
            self._baton_actor.clear()
            if actor._killed:
                raise ActorKilled()
            if inspect.isgeneratorfunction(actor.func):
                # generator-dialect actors run on every backend: here the
                # thread itself trampolines the continuation, blocking
                # in-stack at each yield.
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
            self._baton_sched.set()
