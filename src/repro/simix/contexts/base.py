"""Execution contexts: how an actor's frames are suspended.

The scheduler calls ``resume()`` on an actor and gets control back when
the actor blocks or finishes.  *How* the actor's call stack is parked
meanwhile is its context's business, and the actor's entry function
decides which context it gets (:func:`repro.simix.contexts.context_for`):

``coroutine`` (generator functions)
    The actor is a generator-based continuation resumed directly on the
    scheduler's own stack (``gen.send``): zero kernel objects, zero lock
    round-trips.  The price is the *generator dialect*: every frame
    between the actor's entry point and a blocking call must be a
    generator (``yield from``).  The MPI layer ships such continuations
    for its entire blocking surface, so applications written as generator
    functions run here unmodified.

``thread`` (any other callable)
    One OS thread per actor, parked on a pair of ``threading.Lock``
    objects (a release and a blocking acquire per switch).  Any Python
    code can block anywhere.  Run on generator functions too, it is the
    bit-identical semantics oracle (``tests/oracles.py``).

Actors with different context kinds coexist in one simulation because
execution is strictly sequential — exactly one actor (or the scheduler)
runs at any instant regardless of how its stack is parked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

from ...errors import ContextError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..actor import Actor

__all__ = ["ExecutionContext", "drive_on_stack", "run_blocking"]


class ExecutionContext:
    """Per-actor strategy for parking and resuming the actor's frames."""

    #: short context tag shown in stats / diagnostics
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

        Only the stack-capable thread context implements this;
        a coroutine context cannot suspend plain frames and raises
        :class:`~repro.errors.ContextError` with a pointer at the
        generator dialect instead.
        """
        raise NotImplementedError


def drive_on_stack(context: ExecutionContext, gen: Generator) -> Any:
    """Run a generator continuation to completion on the current stack.

    Each ``yield`` means "the suspension bookkeeping is done — park me";
    we park via ``context.block()`` which only returns once the scheduler
    resumes the actor.  Used by the thread context to host generator
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


def blocking_unsupported(actor: "Actor") -> ContextError:
    """The diagnostic for a plain synchronous block on a coroutine."""
    return ContextError(
        f"actor {actor.name!r} runs on a coroutine (its entry is a "
        "generator function) but tried to block from a plain "
        "(non-generator) call; write the blocking path in the generator "
        "dialect (yield from the co_* twin), or make the entry a plain "
        "function so the actor runs on a thread"
    )
