"""Point-to-point protocol engine: matching, eager and rendezvous modes.

The protocol follows what the paper observes about real MPI
implementations (section 4.1): below the *eager threshold* a send is
buffered — its transfer starts immediately and the send completes when the
bytes have left, whether or not the receive is posted; above the
threshold the *rendezvous* protocol holds the data until the receive is
posted, paying a handshake round-trip, and both sides complete with the
transfer.  The 64 KiB protocol switch is precisely where the piece-wise
linear model places a segment boundary.

Matching is MPI-conformant: per (context, destination) there is a posted-
receive queue and an unexpected-message queue; ``ANY_SOURCE``/``ANY_TAG``
wildcards are supported; messages between the same (source, destination,
tag) triple are non-overtaking because every queue entry carries its
arrival order.  The seqno-bucketed match queues of
:mod:`repro.simix.mailbox` implement this with O(1) exact matches.
Matching is predicate-free on the hot path — envelopes travel as
``(source, tag)`` ints, not closures.

Allocation churn is bounded the same way: ``Message`` and ``_PostedRecv``
are slotted dataclasses recycled through free-list pools (a message
returns to :meth:`SmpiWorld.release_message` when it *closes* — payload
delivered or terminally failed), and completed requests recycle through
:meth:`SmpiWorld.release_request`.  Pooled objects draw fresh
``mid``/``rid`` numbers on reuse, so id streams — and therefore simulated
clocks and traces — are bit-identical with and without
pooling.

Payload bytes are copied once per message.  :meth:`Protocol.start_send`
takes the send buffer's :class:`~repro.smpi.buffer.BufferSpec` and, from
the same eager decision that sets the timing, either snapshots it
(``pack``: eager and buffered sends, strided or cast layouts) or borrows
it (``view``: a rendezvous send of one contiguous run).  A borrowed
payload is read only by the delivery copy into the receive buffer, which
runs in the engine callback that completes the send, before the sender
can resume — so a blocking ``Send`` that returned has been delivered and
its buffer is the application's again.

Everything here runs inside actor threads under the scheduler's baton, so
there is no concurrency to guard against — the code reads like the
sequential protocol automaton it is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import MpiError
from ..log import get_logger
from ..simix.mailbox import IndexedMessageQueue, IndexedRecvQueue
from . import constants
from .buffer import BufferSpec
from .intern import PayloadEntry, intern_meta, payload_key
from .request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import SmpiWorld

__all__ = ["Message", "Protocol"]

_log = get_logger("smpi.pt2pt")

#: the payload sentinel pooled messages park on between lives
EMPTY_PAYLOAD = np.zeros(0, dtype=np.uint8)

@dataclass(slots=True)
class Message:
    """One in-flight message: envelope + payload + protocol state.

    Under ``zero_copy`` the payload is an empty sentinel while
    ``wire_bytes`` still drives the simulated transfer timing.
    """

    src: int  # world rank
    dst: int  # world rank
    tag: int
    ctx: int
    #: payload bytes (uint8): a snapshot, or a read-only view of the
    #: sender's buffer when ``borrowed``; empty when zero-copy
    data: np.ndarray
    eager: bool
    wire_bytes: int
    #: drawn from the world's counter, so runs are reproducible within
    #: one process
    mid: int
    send_req: Request | None = None
    recv_req: Request | None = None
    #: set when the wire transfer has finished
    delivered: bool = False
    #: the network activity, once started
    transfer: object = None
    #: transfer attempts so far (retry accounting, ``comm_retries``)
    attempts: int = 0
    #: the last attempt was cancelled by the ``comm_timeout`` watchdog
    timed_out: bool = False
    #: the armed watchdog action (``engine.at`` sleep), disarmed on
    #: completion so a stale watchdog can never outlive its transfer
    watchdog: object = None
    #: whether the transfer pays the rendezvous handshake (memoised so
    #: retries reproduce the protocol timing of the original attempt)
    handshake: bool = False
    #: pool entry of the interned payload (None when the payload was not
    #: interned); released back to the world's pool at delivery/failure
    payload_key: PayloadEntry | None = None
    #: terminal state: payload consumed or terminally failed; the only
    #: state a pooled message may be recycled from
    closed: bool = False
    #: surfaced to the application by Probe/Iprobe — such a message may
    #: be user-held and is never recycled
    probed: bool = False
    #: ``data`` views the sender's buffer, which the sender gets back
    #: when the send completes: only delivery may read it
    borrowed: bool = False

    @property
    def nbytes(self) -> int:
        return self.wire_bytes


@dataclass(slots=True)
class _PostedRecv:
    """A receive waiting in the posted queue."""

    source: int
    tag: int
    ctx: int
    request: Request | None
    buffer: BufferSpec | None  # None => raw-bytes receive (object API)


def _message_envelope(message: Message) -> tuple[int, int]:
    """Queue key extractor for unexpected messages (concrete envelope)."""
    return message.src, message.tag


def _recv_pattern(recv: _PostedRecv) -> tuple[int, int]:
    """Queue key extractor for posted receives (possibly-wildcard)."""
    return recv.source, recv.tag


class Protocol:
    """Owns the match queues and drives message life cycles."""

    def __init__(self, world: "SmpiWorld") -> None:
        self.world = world
        #: the engine's counter sink (duck-typed kernels share the class)
        self._stats = world.engine.stats
        # (ctx, dst_world_rank) -> queues
        self._posted: dict[tuple[int, int], object] = {}
        self._unexpected: dict[tuple[int, int], object] = {}
        # actors blocked in Probe, keyed like the queues
        self._probe_waiters: dict[tuple[int, int], list] = {}
        #: queue keys by destination rank, so a dead-rank purge touches
        #: only the affected rank's queues instead of every queue pair
        self._keys_by_dst: dict[int, list[tuple[int, int]]] = {}
        #: queue keys holding receives pinned to a concrete source, by
        #: that source rank — the other half of the dead-rank index
        self._posted_sources: dict[int, dict[tuple[int, int], None]] = {}
        #: free list recycling _PostedRecv envelopes
        self._recv_pool: list[_PostedRecv] = []

    def _queues(self, ctx: int, dst: int):
        key = (ctx, dst)
        posted = self._posted.get(key)
        if posted is None:
            posted = IndexedRecvQueue(
                f"posted-{key}", _recv_pattern,
                any_source=constants.ANY_SOURCE,
                any_tag=constants.ANY_TAG, stats=self._stats)
            unexpected = IndexedMessageQueue(
                f"unexpected-{key}", _message_envelope,
                any_source=constants.ANY_SOURCE,
                any_tag=constants.ANY_TAG, stats=self._stats)
            self._posted[key] = posted
            self._unexpected[key] = unexpected
            self._keys_by_dst.setdefault(dst, []).append(key)
        return posted, self._unexpected[key]

    # -- posted-receive envelope pool ----------------------------------------------------

    def _acquire_recv(self, source: int, tag: int, ctx: int,
                      request: Request, buffer: BufferSpec | None
                      ) -> _PostedRecv:
        pool = self._recv_pool
        if pool:
            recv = pool.pop()
            _PostedRecv.__init__(recv, source, tag, ctx, request, buffer)
            self._stats.pooled_reuses += 1
            return recv
        return _PostedRecv(source, tag, ctx, request, buffer)

    def _release_recv(self, recv: _PostedRecv) -> None:
        recv.request = None
        recv.buffer = None
        if len(self._recv_pool) < 4096:
            self._recv_pool.append(recv)

    # -- send side ---------------------------------------------------------------------

    def start_send(
        self,
        src: int,
        dst: int,
        tag: int,
        ctx: int,
        data: BufferSpec | np.ndarray,
        request: Request,
        wire_bytes: int | None = None,
        mode: str = "standard",
    ) -> None:
        """Initiate a send; the request completes per protocol rules.

        ``data`` is the send buffer's spec, or uint8 wire bytes nobody
        else writes (a pickle, or the empty zero-copy sentinel).  A spec
        is packed for an eager send and viewed in place for a rendezvous
        one whenever :meth:`BufferSpec.view` can.  ``wire_bytes``
        (zero-copy mode) sets the simulated message size when ``data`` is
        an empty payload sentinel.  ``mode`` selects the MPI send mode:
        ``standard`` follows the eager threshold, ``synchronous`` (Ssend)
        always uses rendezvous, ``buffered`` (Bsend) always eager,
        ``ready`` (Rsend) behaves like standard (its constraint is on the
        application, not the timing).
        """
        cfg = self.world.config
        spec = data if isinstance(data, BufferSpec) else None
        if spec is not None:
            nbytes = spec.nbytes
        else:
            nbytes = int(data.size) if wire_bytes is None else wire_bytes
        if mode == "synchronous":
            eager = False
        elif mode == "buffered":
            eager = True
        else:
            eager = nbytes <= cfg.eager_threshold
        borrowed = False
        if spec is not None:
            # an eager sender reuses its buffer as soon as the call
            # returns, so only a rendezvous send may borrow it
            data = None if eager else spec.view()
            borrowed = data is not None
            if not borrowed:
                data = spec.pack()
        world = self.world
        if world.deferring and world.has_deferred():
            # only plain calls arrive with deferred compute: the blocking
            # twins charge it on the generator path before calling in
            world.flush_deferred()
        if dst in world.dead_ranks:
            raise MpiError(
                constants.ERR_PROC_FAILED,
                f"cannot send to rank {dst}: peer is dead (host failure)",
            )
        request.meta = intern_meta("send", tag, ctx, nbytes, eager)
        entry: PayloadEntry | None = None
        if cfg.payload_interning and data.size:
            # Fold byte-identical payloads: the array becomes pool-owned
            # and read-only (receivers only copy out of it), so 10k ranks
            # sending the same panel share one copy.  A borrowed view
            # stays borrowed until a second message folds onto it.
            entry = world.payload_pool.acquire(payload_key(data), data,
                                               borrowed)
            data = entry.value
            borrowed = entry.borrowed
        message = world.acquire_message(
            src, dst, tag, ctx, data, eager, nbytes, request, entry,
            borrowed)
        if world.recorder is not None:
            request.trace_id = world.recorder.send(src, dst, nbytes, tag, ctx)
        request.message = message
        request.source = src
        request.tag = tag

        posted, unexpected = self._queues(ctx, dst)
        recv = posted.pop(src, tag)
        if recv is not None:
            self._bind(message, recv.request, recv.buffer)
            self._release_recv(recv)
            self._start_transfer(message, handshake=not eager)
        else:
            unexpected.push(message)
            if self._probe_waiters:
                self._wake_probers(ctx, dst)
            if eager:
                # buffered mode: bytes start flowing immediately
                self._start_transfer(message, handshake=False)
            # rendezvous: wait for the receive; only the envelope travelled

    # -- receive side -------------------------------------------------------------------

    def start_recv(
        self,
        dst: int,
        source: int,
        tag: int,
        ctx: int,
        buffer: BufferSpec | None,
        request: Request,
    ) -> None:
        """Post a receive; matches an unexpected message or queues up."""
        world = self.world
        if world.deferring and world.has_deferred():  # see start_send
            world.flush_deferred()
        if source != constants.ANY_SOURCE and source in world.dead_ranks:
            raise MpiError(
                constants.ERR_PROC_FAILED,
                f"cannot receive from rank {source}: peer is dead "
                f"(host failure)",
            )
        if world.recorder is not None:
            request.trace_id = world.recorder.recv(dst, source, tag, ctx)
        request.meta = intern_meta(
            "recv", tag, ctx,
            -1 if buffer is None else buffer.nbytes,
        )
        posted, unexpected = self._queues(ctx, dst)
        message = unexpected.pop(source, tag)
        if message is None:
            posted.push(self._acquire_recv(source, tag, ctx, request, buffer))
            if source != constants.ANY_SOURCE:
                self._posted_sources.setdefault(source, {})[(ctx, dst)] = None
            return
        self._bind(message, request, buffer)
        if message.eager:
            if message.delivered:
                self._deliver(message)
            # else: transfer in flight; _on_transfer_done delivers
        else:
            self._start_transfer(message, handshake=True)

    def cancel_recv(self, request: Request) -> None:
        """Remove a not-yet-matched posted receive (MPI_Cancel)."""
        meta = request.meta
        if meta is not None and meta[0] == "recv":
            keys = ((meta[2], request.owner_rank),)
        else:  # request never reached start_recv; search everywhere
            keys = tuple(self._posted)
        for key in keys:
            queue = self._posted.get(key)
            if queue is None:
                continue
            recv = queue.remove_first(lambda r: r.request is request)
            if recv is not None:
                self._release_recv(recv)
                return

    # -- probing (extension beyond the paper's subset) ----------------------------------

    def iprobe(self, dst: int, source: int, tag: int, ctx: int
               ) -> Message | None:
        """Non-destructive check for a matching announced message."""
        _posted, unexpected = self._queues(ctx, dst)
        message = unexpected.peek(source, tag)
        if message is not None:
            # the application may hold this envelope: never recycle it
            message.probed = True
        return message

    def co_probe(self, dst: int, source: int, tag: int, ctx: int):
        """Block until a matching message is announced; returns it."""
        actor = self.world.current_actor
        while True:
            message = self.iprobe(dst, source, tag, ctx)
            if message is not None:
                return message
            waiters = self._probe_waiters.setdefault((ctx, dst), [])
            if actor not in waiters:
                waiters.append(actor)
            yield from actor.co_suspend()

    def _wake_probers(self, ctx: int, dst: int) -> None:
        waiters = self._probe_waiters.pop((ctx, dst), [])
        for actor in waiters:
            self.world.scheduler.wake(actor)

    # -- internals -----------------------------------------------------------------------

    def _release_payload(self, message: Message) -> None:
        """Drop the message's pool reference once its payload was consumed."""
        entry, message.payload_key = message.payload_key, None
        if entry is not None:
            self.world.payload_pool.release(entry)

    def _close_message(self, message: Message) -> None:
        """Terminal point of a message's life: detach and recycle.

        Both endpoint requests are complete here (delivery and terminal
        failure finish them first), so dropping their ``message`` link is
        safe — nothing reads it after completion — and required: a
        recycled envelope must not be reachable from old handles.
        """
        if message.payload_key is not None:
            self._release_payload(message)
        message.closed = True
        send_req, recv_req = message.send_req, message.recv_req
        if send_req is not None and send_req.complete \
                and send_req.message is message:
            send_req.message = None
        if recv_req is not None and recv_req.complete \
                and recv_req.message is message:
            recv_req.message = None
        self.world.release_message(message)

    def _bind(self, message: Message, request: Request,
              buffer: BufferSpec | None) -> None:
        message.recv_req = request
        request.message = message
        request.source = message.src
        request.tag = message.tag
        # stash the buffer on the request for delivery time
        request._recv_buffer = buffer

    def _start_transfer(self, message: Message, handshake: bool) -> None:
        world = self.world
        cfg = world.config
        hosts = world.rank_hosts
        src_host = hosts[message.src]
        dst_host = hosts[message.dst]
        nbytes = message.wire_bytes
        extra = cfg.send_overhead + cfg.recv_overhead
        rate_cap = math.inf
        if handshake or cfg.wire_efficiency < 1.0:
            # only these read the route; the engine resolves it anyway
            route = world.engine.platform.route(src_host, dst_host)
            if cfg.wire_efficiency < 1.0 and route.links:
                rate_cap = cfg.wire_efficiency * route.bandwidth
        if message.eager:
            # buffered mode pays extra copies proportional to the payload
            extra += nbytes / cfg.eager_copy_bandwidth
        elif handshake:
            extra += cfg.handshake_rtts * 2.0 * route.latency
        activity = world.scheduler.communicate(
            src_host,
            dst_host,
            max(nbytes, 1),
            name=f"msg-{message.mid}:{message.src}->{message.dst}",
            extra_latency=extra,
            rate_cap=rate_cap,
        )
        message.transfer = activity
        message.attempts += 1
        message.handshake = handshake
        if cfg.tracing and message.attempts == 1:
            world.trace.comm_start(message)
        if cfg.comm_timeout is not None:
            self._arm_timeout(message, activity, cfg.comm_timeout)
        if activity.done:
            self._on_transfer_done(message)
        else:
            activity.callbacks.append(
                functools.partial(self._on_transfer_done, message))

    def _arm_timeout(self, message: Message, activity, timeout: float) -> None:
        """Cancel the attempt if it is still in flight after ``timeout``."""
        engine = self.world.scheduler.engine
        at = getattr(engine, "at", None)
        if at is None:  # duck-typed kernels without scheduled observers
            return

        def expire() -> None:
            if not activity.done:
                message.timed_out = True
                activity.cancel()

        # fire_on_cancel=False: disarming (cancelling the sleep) must also
        # suppress the callback, so a watchdog cancelled at completion time
        # can never expire a later attempt's activity
        message.watchdog = at(engine.now + timeout, expire,
                              fire_on_cancel=False)

    def _on_transfer_done(self, message: Message) -> None:
        watchdog = message.watchdog
        if watchdog is not None:  # cancel a still-pending comm_timeout
            message.watchdog = None
            cancel = getattr(self.world.scheduler.engine, "cancel", None)
            if cancel is not None and getattr(watchdog, "is_pending", False):
                cancel(watchdog)
        transfer = message.transfer
        if transfer is not None and getattr(transfer, "failed", False):
            self._on_transfer_failed(message)
            return
        message.delivered = True
        if self.world.config.tracing:
            self.world.trace.comm_end(message)
        if message.send_req is not None:
            message.send_req.finish()
        if message.recv_req is not None:
            self._deliver(message)

    def _on_transfer_failed(self, message: Message) -> None:
        """A transfer attempt died (link failure or timeout cancel).

        With retries budgeted, re-issue the transfer after an exponential
        backoff; otherwise surface the error in both ranks.  Runs in
        engine-callback context (no actor holds the baton), exactly like
        the completion path.
        """
        world = self.world
        cfg = world.config
        if message.attempts <= cfg.comm_retries:
            delay = cfg.retry_backoff * (2.0 ** (message.attempts - 1))
            _log.debug(
                "msg %d attempt %d failed; retrying in %g s",
                message.mid, message.attempts, delay,
            )
            message.timed_out = False
            message.transfer = None
            handshake = message.handshake

            def retry() -> None:
                self._start_transfer(message, handshake=handshake)

            at = getattr(world.scheduler.engine, "at", None)
            if at is not None and delay > 0:
                at(world.scheduler.engine.now + delay, retry)
            else:
                retry()
            return
        if cfg.tracing:
            world.trace.comm_fail(message)
        if message.timed_out:
            error = MpiError(
                constants.ERR_OTHER,
                f"message {message.src}->{message.dst} (tag {message.tag}) "
                f"timed out after {message.attempts} attempt(s)",
            )
        else:
            error = MpiError(
                constants.ERR_OTHER,
                f"network failure while transferring message "
                f"{message.src}->{message.dst} (tag {message.tag})",
            )
        for req in (message.send_req, message.recv_req):
            if req is not None:
                req.error_exc = error
                req.finish()
        self._close_message(message)

    def fail_peer(self, rank: int) -> None:
        """Fail every pending operation talking to a now-dead rank.

        Called by the runtime when ``on_host_down="kill-rank"`` terminates
        the ranks of a failed host: receives posted *from* the dead rank
        and unmatched rendezvous sends *to* it complete with
        MPI_ERR_PROC_FAILED in their (live) owner ranks; queues owned by
        the dead rank itself are simply dropped.  Only the queues the
        dead-rank indexes name are touched — a kill at 16k ranks no
        longer walks every queue pair in the world.
        """
        error = MpiError(
            constants.ERR_PROC_FAILED,
            f"peer rank {rank} died (host failure)",
        )
        # receives posted by live ranks naming the dead rank as source
        for key in self._posted_sources.pop(rank, ()):
            if key[1] == rank:
                continue  # the dead rank's own queues are dropped below
            posted = self._posted.get(key)
            if posted is None:
                continue
            while True:
                recv = posted.pop_source(rank)
                if recv is None:
                    break
                recv.request.error_exc = error
                recv.request.finish()
                self._release_recv(recv)
        # the dead rank's own queue pairs
        for key in self._keys_by_dst.get(rank, ()):
            for recv in self._posted[key].drain():
                self._release_recv(recv)
            unexpected = self._unexpected[key]
            while True:  # rendezvous senders still holding their payload
                message = unexpected.pop_if(lambda m: not m.eager)
                if message is None:
                    break
                if message.send_req is not None:
                    message.send_req.error_exc = error
                    message.send_req.finish()
                self._close_message(message)

    def _deliver(self, message: Message) -> None:
        """Copy payload into the receive buffer and complete the recv."""
        request = message.recv_req
        assert request is not None
        if request.complete:
            return
        buffer: BufferSpec | None = request._recv_buffer
        try:
            if int(message.data.size) != message.wire_bytes:
                pass  # zero-copy: payload was never carried (results wrong)
            elif buffer is not None:
                buffer.unpack(message.data)
            elif message.borrowed:
                # the raw bytes outlive the send: take them off its buffer
                request.raw_data = message.data.copy()
            else:
                request.raw_data = message.data
        except Exception as exc:  # delivery failure: report in the owner rank
            request.error_exc = exc
        finally:
            # buffered deliveries copied the bytes out; raw-data receives
            # hold their own array reference, so the pool ref can drop
            if message.payload_key is not None:
                self._release_payload(message)
        request.received_bytes = message.wire_bytes
        request.finish()
        self._close_message(message)
