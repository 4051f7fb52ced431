"""Execution-context backends: how an actor's frames are suspended.

The scheduler is backend-agnostic: it calls ``resume()`` on an actor and
gets control back when the actor blocks or finishes.  *How* the actor's
call stack is parked meanwhile is the backend's business:

``thread``
    One OS thread per actor, parked on a pair of ``threading.Event``
    objects (two kernel round-trips per switch).  Any Python code can
    block anywhere — this is the semantics oracle, kept bit-identical.

``coroutine``
    The actor is a generator-based continuation resumed directly on the
    scheduler's own stack (``gen.send``): zero kernel objects, zero Event
    round-trips.  The price is the *generator dialect*: every frame
    between the actor's entry point and a blocking call must be a
    generator (``yield from``).  The MPI layer ships such continuations
    for its entire blocking surface, so applications written as generator
    functions run here unmodified.

Actors with different context kinds coexist in one simulation because
execution is strictly sequential — exactly one actor (or the scheduler)
runs at any instant regardless of how its stack is parked.
"""

from __future__ import annotations

import inspect
import os
from typing import TYPE_CHECKING, Any, Callable, Generator

from ...errors import ConfigError, ContextError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..actor import Actor

__all__ = [
    "ContextBackend",
    "ExecutionContext",
    "available_backends",
    "drive_on_stack",
    "run_blocking",
    "select_backend",
]

#: Environment variable overriding the default backend (same values as
#: the ``--ctx`` CLI flag).  CI uses ``REPRO_CTX=thread`` to run the
#: whole suite under the oracle backend.
CTX_ENV_VAR = "REPRO_CTX"


class ExecutionContext:
    """Per-actor strategy for parking and resuming the actor's frames."""

    #: short backend tag shown in stats / diagnostics
    kind = "?"

    def __init__(self, actor: "Actor") -> None:
        self.actor = actor

    # -- scheduler side ----------------------------------------------------------

    def resume(self) -> None:
        """Run the actor until it blocks or finishes; then return."""
        raise NotImplementedError

    def join(self, timeout: float | None = None) -> None:
        """Wait for any kernel resources to unwind after the actor finished."""

    @property
    def alive(self) -> bool:
        """True while the context still holds live frames or kernel objects."""
        raise NotImplementedError

    # -- actor side --------------------------------------------------------------

    def block(self) -> None:
        """Park the *currently running* actor in-stack until next resume.

        Only the stack-capable thread backend implements this;
        the coroutine backend cannot suspend plain frames and raises
        :class:`~repro.errors.ContextError` with a pointer at the
        generator dialect instead.
        """
        raise NotImplementedError


def drive_on_stack(context: ExecutionContext, gen: Generator) -> Any:
    """Run a generator continuation to completion on the current stack.

    Each ``yield`` means "the suspension bookkeeping is done — park me";
    we park via ``context.block()`` which only returns once the scheduler
    resumes the actor.  Used by stack-capable backends to host generator
    actors, and by :func:`run_blocking` to give the canonical generator
    implementations of the MPI blocking calls a synchronous face.
    """
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    return drive_on_stack_resumed(context, gen)


def run_blocking(gen: Generator, get_actor: Callable[[], "Actor"]) -> Any:
    """Drive a blocking-call continuation from synchronous code.

    The fast path — the continuation completes without ever suspending
    (already-complete request, zero-flop execute) — touches neither the
    actor nor its context, so it also works outside any simulation.
    """
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    return drive_on_stack_resumed(get_actor()._context, gen)


def drive_on_stack_resumed(context: ExecutionContext, gen: Generator) -> Any:
    """Continuation of :func:`drive_on_stack` after the first ``yield``."""
    while True:
        try:
            context.block()
        except BaseException:
            # ActorKilled (teardown) or anything else: run the
            # continuation's ``finally`` blocks now, deterministically,
            # mirroring how a real stack would unwind through them.
            gen.close()
            raise
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value


class ContextBackend:
    """Factory choosing the :class:`ExecutionContext` for each new actor."""

    #: registry name (what ``--ctx`` and ``REPRO_CTX`` accept)
    name = "?"

    def create(self, actor: "Actor") -> ExecutionContext:
        """Build the execution context carrying ``actor``'s frames."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class ThreadBackend(ContextBackend):
    """One OS thread per actor — the bit-identical equivalence oracle."""

    name = "thread"

    def create(self, actor: "Actor") -> ExecutionContext:
        from .threads import ThreadContext

        return ThreadContext(actor)


class CoroutineBackend(ContextBackend):
    """Generator continuations on the scheduler's stack (pure Python)."""

    name = "coroutine"

    def create(self, actor: "Actor") -> ExecutionContext:
        from .coroutine import CoroutineContext

        return CoroutineContext(actor)


class AutoBackend(ContextBackend):
    """Pick the cheapest context each actor supports.

    Generator functions get the coroutine backend (they speak the
    dialect); plain functions get the thread backend — never the
    coroutine backend, which cannot suspend plain frames.
    """

    name = "auto"

    def create(self, actor: "Actor") -> ExecutionContext:
        if inspect.isgeneratorfunction(actor.func):
            from .coroutine import CoroutineContext

            return CoroutineContext(actor)
        from .threads import ThreadContext

        return ThreadContext(actor)


_BACKENDS: dict[str, type[ContextBackend]] = {
    "auto": AutoBackend,
    "coroutine": CoroutineBackend,
    "thread": ThreadBackend,
}


def available_backends() -> list[str]:
    """Names accepted by :func:`select_backend` (and ``--ctx``)."""
    return list(_BACKENDS)


def select_backend(ctx: str | ContextBackend | None = None) -> ContextBackend:
    """Resolve a backend spec: instance, name, ``REPRO_CTX``, or auto."""
    if isinstance(ctx, ContextBackend):
        return ctx
    if ctx is None:
        ctx = os.environ.get(CTX_ENV_VAR) or "auto"
    try:
        cls = _BACKENDS[ctx]
    except KeyError:
        names = ", ".join(sorted(_BACKENDS))
        raise ConfigError(f"unknown ctx backend {ctx!r} (expected one of {names})")
    return cls()


def blocking_unsupported(actor: "Actor") -> ContextError:
    """The diagnostic for a plain synchronous block under ``coroutine``."""
    return ContextError(
        f"actor {actor.name!r} runs on the coroutine backend but tried to "
        "block from a plain (non-generator) call; write the blocking path "
        "in the generator dialect (yield from the co_* twin) or run this "
        "actor on a stack-capable backend (--ctx thread or auto)"
    )
