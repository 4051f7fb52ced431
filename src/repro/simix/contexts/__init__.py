"""Execution contexts for SIMIX actors.

See :mod:`repro.simix.contexts.base` for the model.  An actor's context
follows its entry function (:func:`context_for`): a generator function
runs on a :class:`CoroutineContext`, any other callable on a
:class:`ThreadContext`.
"""

from __future__ import annotations

import inspect

from .base import ExecutionContext, drive_on_stack, run_blocking
from .coroutine import CoroutineContext
from .threads import ThreadContext

__all__ = [
    "CoroutineContext",
    "ExecutionContext",
    "ThreadContext",
    "context_for",
    "drive_on_stack",
    "run_blocking",
]


def context_for(actor) -> ExecutionContext:
    """The context carrying ``actor``'s frames: a coroutine for a
    generator function, which speaks the dialect, and a thread for
    anything else, whose plain frames only a real stack can park."""
    if inspect.isgeneratorfunction(actor.func):
        return CoroutineContext(actor)
    return ThreadContext(actor)
