"""MPI requests: the nonblocking and persistent operation handles.

The paper's SMPI supports Send_init, Recv_init, Start, Startall, Isend,
Irecv, Test, Testany, Wait, Waitany, Waitall and Waitsome; all are here,
plus Testall/Testsome for completeness.  A request completes when the
underlying message protocol (:mod:`repro.smpi.pt2pt`) says so; completion
wakes the owning actor, and the Wait/Test family is implemented as
predicate waits so spurious wake-ups are harmless.

Persistent requests hold their arguments and can be (re)activated with
``Start`` any number of times; per the MPI standard, completing a
persistent request makes it *inactive* rather than freeing it.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Any, Callable

from ..errors import MpiError
from ..simix.contexts import run_blocking
from . import constants
from .status import Status

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pt2pt import Message
    from .runtime import SmpiWorld

__all__ = [
    "Request",
    "PersistentRequest",
    "REQUEST_NULL",
    "wait",
    "test",
    "waitall",
    "testall",
    "waitany",
    "testany",
    "waitsome",
    "testsome",
    "startall",
    "co_wait",
    "co_test",
    "co_waitall",
    "co_settle",
    "co_testall",
    "co_waitany",
    "co_testany",
    "co_waitsome",
    "co_testsome",
]

_ids = itertools.count()


class Request:
    """Handle of one in-flight point-to-point operation.

    Slotted and pooled: completed requests recycle through
    :meth:`~repro.smpi.runtime.SmpiWorld.release_request` /
    ``acquire_request`` free lists.  A recycled request draws a *fresh*
    ``rid`` from the module counter, so the rid stream is identical with
    and without pooling.
    """

    __slots__ = (
        "rid", "world", "kind", "owner_rank", "complete", "cancelled",
        "source", "tag", "received_bytes", "message", "trace_id", "meta",
        "error_exc", "raw_data", "_recv_buffer", "_on_complete",
    )

    def __init__(self, world: "SmpiWorld | None", kind: str, owner_rank: int):
        #: deferred buffer delivery, run at completion (receiver side)
        self._on_complete: list[Callable[[], None]] = []
        self._reset(world, kind, owner_rank)

    def _reset(self, world: "SmpiWorld | None", kind: str,
               owner_rank: int) -> None:
        """(Re)initialize for one operation; the pool's reuse hook."""
        self.rid = next(_ids)
        self.world = world
        self.kind = kind  # "send" | "recv" | "null"
        self.owner_rank = owner_rank
        self.complete = False
        self.cancelled = False
        #: filled by the protocol at completion time
        self.source = constants.ANY_SOURCE
        self.tag = constants.ANY_TAG
        self.received_bytes = 0
        self.message: "Message | None" = None
        #: id in the recorded time-independent trace, if recording
        self.trace_id: int | None = None
        #: interned envelope metadata ``(kind, tag, ctx, nbytes)`` stamped
        #: by the protocol — one tuple object per distinct envelope shape,
        #: however many requests carry it (see :mod:`repro.smpi.intern`)
        self.meta: tuple | None = None
        #: delivery-time failure (e.g. truncation), re-raised in the
        #: owning rank when it waits/tests the request
        self.error_exc: BaseException | None = None
        #: payload of a raw-bytes (object-API) receive, set at delivery
        self.raw_data = None
        #: receive-buffer spec stashed by the protocol at match time
        self._recv_buffer = None

    # -- protocol side ---------------------------------------------------------------

    def add_completion_hook(self, hook: Callable[[], None]) -> None:
        if self.complete:
            hook()
        else:
            self._on_complete.append(hook)

    def finish(self) -> None:
        """Mark complete and wake the owning actor."""
        if self.complete:
            return
        self.complete = True
        hooks, self._on_complete = self._on_complete, []
        for hook in hooks:
            hook()
        if self.world is not None:
            self.world.wake_rank(self.owner_rank)

    # -- user side -----------------------------------------------------------------------

    @property
    def is_null(self) -> bool:
        return self.kind == "null"

    def make_status(self) -> Status:
        if self.error_exc is not None:
            raise self.error_exc
        return Status(
            source=self.source,
            tag=self.tag,
            error=constants.SUCCESS,
            count_bytes=self.received_bytes,
            cancelled=self.cancelled,
        )

    def fill_status(self, status: Status) -> None:
        """Write a completed receive's envelope into a caller's ``status``."""
        status.source, status.tag = self.source, self.tag
        status.error, status.count_bytes = constants.SUCCESS, self.received_bytes

    def cancel(self) -> None:
        """MPI_Cancel: only not-yet-matched receives can be cancelled."""
        if self.complete or self.is_null:
            return
        if self.kind != "recv" or self.message is not None:
            raise MpiError(
                constants.ERR_REQUEST, "only unmatched receives can be cancelled"
            )
        assert self.world is not None
        self.world.protocol.cancel_recv(self)
        self.cancelled = True
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "complete" if self.complete else "pending"
        return f"Request(#{self.rid} {self.kind} {state})"


#: The null request: always complete, empty status (MPI_REQUEST_NULL).
REQUEST_NULL = Request(None, "null", -1)
REQUEST_NULL.complete = True


class PersistentRequest(Request):
    """MPI_Send_init / MPI_Recv_init handle.

    Holds a thunk that performs one activation; ``Start`` runs it and
    grafts the resulting live request's completion onto this handle.
    """

    __slots__ = ("_activate", "active", "_live")

    def __init__(
        self,
        world: "SmpiWorld",
        kind: str,
        owner_rank: int,
        activate: Callable[[], Request],
    ) -> None:
        super().__init__(world, kind, owner_rank)
        self._activate = activate
        self.active = False
        self.complete = True  # inactive persistent requests test as complete
        self._live: Request | None = None

    def start(self) -> None:
        """MPI_Start: begin one round of the stored operation."""
        if self.active:
            raise MpiError(constants.ERR_REQUEST, "request already active")
        stale, self._live = self._live, None
        if stale is not None and self.world is not None:
            # the previous round's live request is done and unreachable
            self.world.release_request(stale)
        self.active = True
        self.complete = False
        live = self._activate()
        self._live = live
        self.trace_id = live.trace_id

        def on_done() -> None:
            self.source = live.source
            self.tag = live.tag
            self.received_bytes = live.received_bytes
            self.active = False
            self.finish()

        live.add_completion_hook(on_done)


# -- wait / test family ------------------------------------------------------------------
# These are module-level functions operating on request lists; the
# Communicator exposes bound versions.  All run on the calling actor's
# execution context; ``world.current_actor`` supplies the waiter.  Each
# blocking call has one canonical implementation, a ``co_*`` generator
# that works on every execution context; the synchronous name is
# generated from it (``sync_twin`` below) and drives that same generator
# in-stack, so both dialects suspend at identical points and contexts
# stay bit-identical.


def _record_wait(requests: list[Request]) -> None:
    """Append a wait dependency to the TI trace, if one is being recorded."""
    for req in requests:
        if req.trace_id is not None:  # stamped only while recording
            world = req.world
            world.recorder.wait(world.current_rank, [
                r.trace_id for r in requests if r.trace_id is not None])
            return


def _world_of(requests: list[Request]) -> "SmpiWorld":
    for req in requests:
        if req.world is not None:
            return req.world
    raise MpiError(constants.ERR_REQUEST, "no live request to wait on")


def _describe_requests(requests: list[Request]) -> str:
    """Short label of what is being waited on, for deadlock reports.

    The waits pass it inside a lambda: only a deadlock report calls it.
    """

    def one(req: Request) -> str:
        message = req.message
        if message is not None:
            return f"{req.kind} {message.src}->{message.dst} tag {message.tag}"
        if req.meta is not None:  # envelope known even before matching
            _kind, tag, _ctx, *_rest = req.meta
            return f"unmatched {req.kind} tag {tag}"
        return f"unmatched {req.kind}"

    parts = [one(r) for r in requests[:4]]
    if len(requests) > 4:
        parts.append(f"+{len(requests) - 4} more")
    return ", ".join(parts)


def co_wait(request: Request):
    """Generator twin of :func:`wait` (canonical implementation)."""
    yield from co_settle([request], "MPI_Wait")
    return request.make_status()


def co_test(request: Request):
    """Generator twin of :func:`test` (canonical implementation)."""
    if request.is_null:
        return True, request.make_status()
    if request.complete:
        _record_wait([request])
        return True, request.make_status()
    # Let simulated time progress a little (SMPI's smpi/test knob);
    # a pure context-yield would let a Test spin-loop stall the clock.
    assert request.world is not None
    yield from request.world.co_tiny_progress()
    if request.complete:
        _record_wait([request])
        return True, request.make_status()
    return False, None


def co_settle(requests: list[Request], call: str = "MPI_Waitall"):
    """Wait until every request completes, building no status.

    The body of :func:`co_wait` and :func:`co_waitall`, and the whole wait
    of a caller that reads no status (a collective round, a trace
    replay).  The first delivery error in request order still raises.
    Completion is monotone, so waiting for each request in turn suspends
    exactly when one is still pending.  ``call`` names the wait in a
    deadlock report.
    """
    _record_wait(requests)
    actor = None
    try:
        for req in requests:
            while not req.complete:
                if actor is None:
                    actor = req.world.current_actor
                    actor.waiting_reason = lambda: f"in {call}: " + \
                        _describe_requests([r for r in requests
                                            if not r.complete])
                yield from actor.co_suspend()
    finally:
        if actor is not None:
            actor.waiting_reason = None
    for req in requests:
        if req.error_exc is not None:
            raise req.error_exc


def co_waitall(requests: list[Request]):
    """Generator twin of :func:`waitall` (canonical implementation)."""
    yield from co_settle(requests)
    return [r.make_status() for r in requests]


def co_testall(requests: list[Request]):
    """Generator twin of :func:`testall` (canonical implementation)."""
    if all(r.is_null or r.complete for r in requests):
        return True, [r.make_status() for r in requests]
    live = [r for r in requests if r.world is not None]
    if live:
        yield from _world_of(live).co_tiny_progress()
        if all(r.is_null or r.complete for r in requests):
            return True, [r.make_status() for r in requests]
    return False, None


def co_waitany(requests: list[Request]):
    """Generator twin of :func:`waitany` (canonical implementation)."""
    if all(r.is_null for r in requests):
        return constants.UNDEFINED, Status()

    def ready() -> int | None:
        for index, req in enumerate(requests):
            if not req.is_null and req.complete:
                return index
        return None

    idx = ready()
    if idx is None:
        actor = _world_of(requests).current_actor
        yield from actor.co_wait_for(
            lambda: ready() is not None,
            reason=lambda: f"in MPI_Waitany: {_describe_requests(requests)}")
        idx = ready()
    assert idx is not None
    _record_wait([requests[idx]])
    return idx, requests[idx].make_status()


def co_testany(requests: list[Request]):
    """Generator twin of :func:`testany` (canonical implementation)."""
    if all(r.is_null for r in requests):
        return True, constants.UNDEFINED, Status()
    for index, req in enumerate(requests):
        if not req.is_null and req.complete:
            return True, index, req.make_status()
    yield from _world_of(requests).co_tiny_progress()
    for index, req in enumerate(requests):
        if not req.is_null and req.complete:
            return True, index, req.make_status()
    return False, constants.UNDEFINED, None


def co_waitsome(requests: list[Request]):
    """Generator twin of :func:`waitsome` (canonical implementation)."""
    if all(r.is_null for r in requests):
        return [], []

    def done_indices() -> list[int]:
        return [
            i for i, r in enumerate(requests) if not r.is_null and r.complete
        ]

    indices = done_indices()
    if not indices:
        actor = _world_of(requests).current_actor
        yield from actor.co_wait_for(
            lambda: bool(done_indices()),
            reason=lambda: f"in MPI_Waitsome: {_describe_requests(requests)}")
        indices = done_indices()
    _record_wait([requests[i] for i in indices])
    return indices, [requests[i].make_status() for i in indices]


def co_testsome(requests: list[Request]):
    """Generator twin of :func:`testsome` (canonical implementation)."""
    if all(r.is_null for r in requests):
        return [], []
    yield from _world_of(requests).co_tiny_progress()
    indices = [i for i, r in enumerate(requests) if not r.is_null and r.complete]
    return indices, [requests[i].make_status() for i in indices]


def sync_twin(co: Callable, name: str, doc: str,
              actor_of: Callable) -> Callable:
    """The synchronous ``name``: generator ``co`` driven in-stack.

    ``actor_of(*args)`` names the actor that blocks, looked up only if
    the generator suspends; ``doc`` is the generated function's docstring.
    """
    @functools.wraps(co)
    def blocking(*args):
        return run_blocking(co(*args), lambda: actor_of(*args))

    blocking.__name__ = name
    blocking.__qualname__ = co.__qualname__.replace("co_" + name, name)
    blocking.__doc__ = doc
    return blocking


def _waiter(requests: Request | list[Request]):
    """The actor blocking on ``requests`` (one request or a list)."""
    if isinstance(requests, Request):
        requests = [requests]
    return _world_of(requests).current_actor


# every blocking call has one hand-written body, its ``co_`` twin; the
# plain name is generated from it
for _name, _doc in (
    ("wait", "MPI_Wait: block until the request completes; returns its "
             "status."),
    ("test", "MPI_Test: non-blocking completion check."),
    ("waitall", "MPI_Waitall."),
    ("testall", "MPI_Testall."),
    ("waitany", "MPI_Waitany: index of the first completing request + its "
                "status."),
    ("testany", "MPI_Testany -> (flag, index, status)."),
    ("waitsome", "MPI_Waitsome: indices of every completed request (at "
                 "least one)."),
    ("testsome", "MPI_Testsome: possibly-empty list of completed indices."),
):
    globals()[_name] = sync_twin(globals()["co_" + _name], _name, _doc,
                                 _waiter)
del _name, _doc


def startall(requests: list[Request]) -> None:
    """MPI_Startall."""
    for req in requests:
        if not isinstance(req, PersistentRequest):
            raise MpiError(
                constants.ERR_REQUEST, "Startall needs persistent requests"
            )
        req.start()
