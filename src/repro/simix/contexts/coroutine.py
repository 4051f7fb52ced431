"""The coroutine context: actors as generator continuations.

Every actor whose entry point is a generator function runs here; every
blocking library call it makes is a ``co_*`` generator twin reached
through ``yield from``.  A bare ``yield`` therefore always means "my
suspension bookkeeping is done — return to the scheduler", and
``resume()`` is a single ``gen.send(None)`` on the scheduler's own
stack: no kernel objects, no lock round-trips, switch cost is one
Python frame activation.

Kill semantics mirror the thread oracle exactly: a killed actor has
:class:`~repro.simix.actor.ActorKilled` thrown *into* its continuation at
the next resume, so ``finally`` blocks along the whole ``yield from``
chain run in the same order a real stack unwind would run them.
"""

from __future__ import annotations

from ..actor import ActorKilled
from .base import ExecutionContext, blocking_unsupported

__all__ = ["CoroutineContext"]


class CoroutineContext(ExecutionContext):
    """Parks the actor as a suspended generator; resumes via ``send``."""

    kind = "coroutine"

    def __init__(self, actor) -> None:
        super().__init__(actor)
        self._gen = None
        self._started = False

    # -- scheduler side ----------------------------------------------------------

    def resume(self) -> None:
        actor = self.actor
        if actor.finished:
            return
        try:
            if not self._started:
                self._started = True
                if actor._killed:
                    raise ActorKilled()
                self._gen = actor.func(*actor.args, **actor.kwargs)
            if actor._killed:
                self._gen.throw(ActorKilled())
            else:
                self._gen.send(None)
        except StopIteration as stop:
            actor.result = stop.value
            self._finish()
        except ActorKilled:
            self._finish()
        except BaseException as exc:  # noqa: BLE001 - reported to the scheduler
            actor.exception = exc
            self._finish()

    def _finish(self) -> None:
        self.actor.finished = True
        self._gen = None

    @property
    def alive(self) -> bool:
        return self._started and not self.actor.finished

    # -- actor side --------------------------------------------------------------

    def block(self) -> None:
        raise blocking_unsupported(self.actor)
