"""Communicators: the MPI user-facing object (paper section 5.1).

Follows mpi4py's well-known convention: **upper-case** methods move NumPy
buffers (``Send``, ``Recv``, ``Isend`` ...), **lower-case** methods move
arbitrary picklable Python objects (``send``, ``recv``, ``bcast`` ...).
Collective operations are *not* monolithic: every one dispatches to an
algorithm built from point-to-point messages (:mod:`repro.smpi.coll`), so
collective traffic contends in the simulated network exactly as the paper
prescribes (section 4.2).

Every blocking operation is written once, as a generator (``_co_Send``
...), reachable as ``comm.co.Send``; the synchronous ``comm.Send`` is
generated from it and drives it in-stack (see ``_blocking`` below).

Communicator management covers ``Dup``, ``Create``, ``Split`` (an
extension — the paper's subset excludes split), ``Free`` and the group
accessors.  Each communicator owns two context ids: an even one for
point-to-point traffic and the next odd one for collective-internal
traffic, which keeps the two planes from ever matching each other —
the standard MPICH2 trick.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import MpiError
from ..simix.contexts import run_blocking
from . import coll, constants, request as rq
from .constants import IN_PLACE
from .buffer import BufferSpec, pack_object, resolve, unpack_object
from .datatype import BYTE
from .group import Group
from .op import Op, SUM
from .request import PersistentRequest, Request
from .status import Status

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import SmpiWorld

__all__ = ["Communicator", "CoCommunicator"]

#: shared sentinel for zero-copy sends (never read)
_EMPTY_PAYLOAD = np.zeros(0, dtype=np.uint8)
#: the buffer of an object receive: the raw bytes land on the request
_OBJECT = object()


class Communicator:
    """A process group plus an isolated communication context."""

    def __init__(self, world: "SmpiWorld", group: Group, ctx: int, name: str = ""):
        self.world = world
        self.group = group
        self.ctx = ctx  # even: pt2pt plane; ctx+1: collective plane
        self.name = name or f"comm-{ctx}"
        self.freed = False

    # -- identity -------------------------------------------------------------------

    def Get_size(self) -> int:
        return self.group.size

    @property
    def size(self) -> int:
        return self.group.size

    def Get_rank(self) -> int:
        """Rank of the *calling* actor in this communicator."""
        return self.group.rank_of(self.world.current_rank)

    @property
    def rank(self) -> int:
        return self.Get_rank()

    def Get_group(self) -> Group:
        return self.group

    def _check(self) -> None:
        if self.freed:
            raise MpiError(constants.ERR_COMM, f"{self.name} was freed")

    def _world_rank(self, local: int, what: str = "rank") -> int:
        if local == constants.PROC_NULL:
            return constants.PROC_NULL
        ranks = self.group.ranks
        if not 0 <= local < len(ranks):
            raise MpiError(
                constants.ERR_RANK,
                f"{what} {local} out of range [0,{len(ranks)}) in {self.name}",
            )
        return ranks[local]

    def _caller(self) -> int:
        """World rank of the calling rank, which must be a member."""
        me = self.world.current_rank
        if not self.group.contains(me):
            raise MpiError(constants.ERR_RANK,
                           f"rank {me} is not a member of {self.name}")
        return me

    def _source_rank(self, source: int) -> int:
        """World rank of a receive's ``source``; wildcards pass through."""
        if source == constants.ANY_SOURCE:
            return constants.ANY_SOURCE
        return self._world_rank(source, "source")

    def _check_tag(self, tag: int, allow_any: bool) -> None:
        if tag == constants.ANY_TAG:
            if allow_any:
                return
            raise MpiError(constants.ERR_TAG, "ANY_TAG is only valid for receives")
        if not 0 <= tag <= constants.TAG_UB:
            raise MpiError(constants.ERR_TAG, f"tag {tag} out of range")

    def _run(self, gen):
        """Drive a canonical ``_co_*`` generator to completion (sync dialect)."""
        return run_blocking(gen, lambda: self.world.current_actor)

    @property
    def co(self) -> "CoCommunicator":
        """Generator-dialect view: ``yield from comm.co.Send(...)``.

        Every blocking method of the communicator has a generator twin
        reachable through this view; nonblocking calls (``Isend`` & co)
        need no twin and stay on the communicator itself.
        """
        return CoCommunicator(self)

    # =====================================================================
    # point-to-point, buffer flavour
    # =====================================================================

    def Isend(self, buf: Any, dest: int, tag: int = 0,
              _ctx: int | None = None, _mode: str = "standard") -> Request:
        """Nonblocking buffered/rendezvous send of a NumPy buffer."""
        self._check()
        if _ctx is None:  # the collective plane's tags are reserved
            self._check_tag(tag, allow_any=False)
        dst_world = self._world_rank(dest, "destination")
        world = self.world
        me = self._caller()
        req = world.acquire_request("send", me)
        if dst_world == constants.PROC_NULL:
            req.finish()
            return req
        spec = resolve(buf)
        if world.config.zero_copy:
            data, wire = _EMPTY_PAYLOAD, spec.nbytes
        else:
            data, wire = spec, None
        world.protocol.start_send(
            src=me,
            dst=dst_world,
            tag=tag,
            ctx=self.ctx if _ctx is None else _ctx,
            data=data,
            request=req,
            wire_bytes=wire,
            mode=_mode,
        )
        return req

    # -- explicit send modes (MPI_Ssend/Bsend/Rsend family) -------------------------

    def Issend(self, buf: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking synchronous send: always rendezvous — completes
        only once the matching receive is posted, whatever the size."""
        return self.Isend(buf, dest, tag, _mode="synchronous")

    def _co_Ssend(self, buf: Any, dest: int, tag: int = 0):
        return self._co_Send(buf, dest, tag, _mode="synchronous")

    def Ibsend(self, buf: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking buffered send: always eager, never waits for the
        receiver (the attach-buffer bookkeeping of MPI_Bsend is implicit —
        simulated buffering is unbounded)."""
        return self.Isend(buf, dest, tag, _mode="buffered")

    def _co_Bsend(self, buf: Any, dest: int, tag: int = 0):
        return self._co_Send(buf, dest, tag, _mode="buffered")

    def Irsend(self, buf: Any, dest: int, tag: int = 0) -> Request:
        """Ready send: timing-wise a standard send (the "receive must be
        posted" obligation is on the application, per the standard)."""
        return self.Isend(buf, dest, tag, _mode="ready")

    def _co_Rsend(self, buf: Any, dest: int, tag: int = 0):
        return self._co_Send(buf, dest, tag, _mode="ready")

    def Irecv(
        self,
        buf: Any,
        source: int = constants.ANY_SOURCE,
        tag: int = constants.ANY_TAG,
        _ctx: int | None = None,
    ) -> Request:
        """Nonblocking receive into a NumPy buffer."""
        self._check()
        if _ctx is None:
            self._check_tag(tag, allow_any=True)
        world = self.world
        me = self._caller()
        req = world.acquire_request("recv", me)
        if source == constants.PROC_NULL:
            req.finish()
            return req
        world.protocol.start_recv(
            dst=me,
            source=self._source_rank(source),
            tag=tag,
            ctx=self.ctx if _ctx is None else _ctx,
            buffer=None if buf is _OBJECT else resolve(buf),
            request=req,
        )
        if not self.group.identity:  # report the source as a local rank
            req.add_completion_hook(lambda: self._localise_source(req))
        return req

    def _localise_source(self, req: Request) -> None:
        if req.source >= 0:
            req.source = self.group.rank_of(req.source)

    def _co_Send(self, buf: Any, dest: int, tag: int = 0,
                 _mode: str = "standard"):
        """Blocking send (eager below the threshold, rendezvous above)."""
        # a real generator (not a wait pass-through) so the completed
        # request can go back to the world's free list
        req = self.Isend(buf, dest, tag, _mode=_mode)
        yield from rq.co_settle([req], "MPI_Wait")
        self.world.release_request(req)

    def _co_Recv(
        self,
        buf: Any,
        source: int = constants.ANY_SOURCE,
        tag: int = constants.ANY_TAG,
        status: Status | None = None,
    ):
        """Blocking receive."""
        req = self.Irecv(buf, source, tag)
        yield from rq.co_settle([req], "MPI_Wait")
        if status is not None:
            req.fill_status(status)
        self.world.release_request(req)

    def _co_Sendrecv(
        self,
        sendbuf: Any,
        dest: int,
        sendtag: int = 0,
        recvbuf: Any = None,
        source: int = constants.ANY_SOURCE,
        recvtag: int = constants.ANY_TAG,
        status: Status | None = None,
    ):
        """Simultaneous send and receive (deadlock-free by construction)."""
        recv_req = self.Irecv(recvbuf, source, recvtag)
        send_req = self.Isend(sendbuf, dest, sendtag)
        yield from rq.co_settle([recv_req, send_req])
        if status is not None:
            recv_req.fill_status(status)
        self.world.release_request(recv_req)
        self.world.release_request(send_req)

    def _co_Iprobe(self, source: int = constants.ANY_SOURCE,
                   tag: int = constants.ANY_TAG, status: Status | None = None):
        """MPI_Iprobe (extension): has a matching message been announced?

        Costs one test-poll of simulated time, like MPI_Test, so Iprobe
        spin-loops cannot stall the simulated clock.
        """
        self._check()
        me_world = self._caller()
        src_world = self._source_rank(source)
        message = self.world.protocol.iprobe(me_world, src_world, tag, self.ctx)
        if message is None:
            yield from self.world.co_tiny_progress()
            message = self.world.protocol.iprobe(me_world, src_world, tag, self.ctx)
        if message is None:
            return False
        if status is not None:
            status.source = self.group.rank_of(message.src)
            status.tag = message.tag
            status.count_bytes = message.nbytes
        return True

    def _co_Probe(self, source: int = constants.ANY_SOURCE,
                  tag: int = constants.ANY_TAG, status: Status | None = None):
        """MPI_Probe (extension): block until a matching message arrives."""
        self._check()
        me_world = self._caller()
        src_world = self._source_rank(source)
        message = yield from self.world.protocol.co_probe(
            me_world, src_world, tag, self.ctx
        )
        if status is not None:
            status.source = self.group.rank_of(message.src)
            status.tag = message.tag
            status.count_bytes = message.nbytes

    # -- persistent requests -------------------------------------------------------------

    def Send_init(self, buf: Any, dest: int, tag: int = 0) -> PersistentRequest:
        """MPI_Send_init: build a reusable send request (paper list)."""
        self._check()
        me_world = self._caller()
        return PersistentRequest(
            self.world, "send", me_world, lambda: self.Isend(buf, dest, tag)
        )

    def Recv_init(
        self,
        buf: Any,
        source: int = constants.ANY_SOURCE,
        tag: int = constants.ANY_TAG,
    ) -> PersistentRequest:
        """MPI_Recv_init: build a reusable receive request."""
        self._check()
        me_world = self._caller()
        return PersistentRequest(
            self.world, "recv", me_world, lambda: self.Irecv(buf, source, tag)
        )

    # =====================================================================
    # point-to-point, generic-object flavour (pickle, mpi4py-style)
    # =====================================================================

    def isend(self, obj: Any, dest: int, tag: int = 0,
              _ctx: int | None = None) -> Request:
        self._check()
        if _ctx is None:
            self._check_tag(tag, allow_any=False)
        me_world = self._caller()
        dst_world = self._world_rank(dest, "destination")
        req = self.world.acquire_request("send", me_world)
        if dst_world == constants.PROC_NULL:
            req.finish()
            return req
        self.world.protocol.start_send(
            src=me_world, dst=dst_world, tag=tag,
            ctx=self.ctx if _ctx is None else _ctx,
            data=pack_object(obj).array, request=req,
        )
        return req

    def irecv(
        self, source: int = constants.ANY_SOURCE, tag: int = constants.ANY_TAG,
        _ctx: int | None = None,
    ) -> Request:
        """Object receive; the object comes back from ``wait``-side helpers."""
        return self.Irecv(_OBJECT, source, tag, _ctx)

    def _co_send(self, obj: Any, dest: int, tag: int = 0):
        req = self.isend(obj, dest, tag)
        yield from rq.co_settle([req], "MPI_Wait")
        self.world.release_request(req)

    def _co_recv(self, source: int = constants.ANY_SOURCE,
                 tag: int = constants.ANY_TAG, status: Status | None = None):
        req = self.irecv(source, tag)
        yield from rq.co_settle([req], "MPI_Wait")
        if status is not None:
            req.fill_status(status)
        raw = req.raw_data  # consume before the request goes back to the pool
        self.world.release_request(req)
        return unpack_object(raw) if raw is not None else None

    def _co_sendrecv(self, obj: Any, dest: int, sendtag: int = 0,
                     source: int = constants.ANY_SOURCE,
                     recvtag: int = constants.ANY_TAG):
        recv_req = self.irecv(source, recvtag)
        send_req = self.isend(obj, dest, sendtag)
        yield from rq.co_settle([recv_req, send_req])
        raw = recv_req.raw_data
        self.world.release_request(recv_req)
        self.world.release_request(send_req)
        return unpack_object(raw) if raw is not None else None

    # =====================================================================
    # collectives (implemented over point-to-point in repro.smpi.coll)
    # =====================================================================

    def _co_Barrier(self):
        self._check()
        return coll.barrier(self)

    def _co_Bcast(self, buf: Any, root: int = 0):
        self._check()
        return coll.bcast(self, resolve(buf), self._check_root(root))

    def _inplace_block(self, recvbuf: Any, block_rank: int) -> BufferSpec:
        """A view of ``recvbuf``'s per-rank block (IN_PLACE helpers)."""
        spec = resolve(recvbuf)
        chunk = spec.count // self.group.size
        flat = np.asarray(spec.array).reshape(-1)
        view = flat[block_rank * chunk : (block_rank + 1) * chunk]
        return resolve([view, chunk, spec.datatype])

    def _check_root_in_place(self, root: int, side: str) -> None:
        if self.Get_rank() != root:
            raise MpiError(constants.ERR_BUFFER,
                           f"IN_PLACE {side} only valid at the root")

    def _co_Scatter(self, sendbuf: Any, recvbuf: Any, root: int = 0):
        self._check()
        root = self._check_root(root)
        if recvbuf is IN_PLACE:
            self._check_root_in_place(root, "recv")
            recvbuf = self._inplace_block(sendbuf, root).array
        return coll.scatter(self, sendbuf, resolve(recvbuf), root)

    def _co_Scatterv(self, sendbuf: Any, counts: list[int], displs: list[int],
                     recvbuf: Any, root: int = 0):
        self._check()
        return coll.scatterv(
            self, sendbuf, list(counts), list(displs), resolve(recvbuf),
            self._check_root(root),
        )

    def _co_Gather(self, sendbuf: Any, recvbuf: Any, root: int = 0):
        self._check()
        root = self._check_root(root)
        if sendbuf is IN_PLACE:
            self._check_root_in_place(root, "send")
            sendbuf = self._inplace_block(recvbuf, root).array
        spec = None if recvbuf is None else resolve(recvbuf)
        return coll.gather(self, resolve(sendbuf), spec, root)

    def _co_Gatherv(self, sendbuf: Any, recvbuf: Any, counts: list[int],
                    displs: list[int], root: int = 0):
        self._check()
        spec = None if recvbuf is None else resolve(recvbuf)
        return coll.gatherv(
            self, resolve(sendbuf), spec, list(counts), list(displs),
            self._check_root(root),
        )

    def _co_Allgather(self, sendbuf: Any, recvbuf: Any):
        self._check()
        if sendbuf is IN_PLACE:
            sendbuf = self._inplace_block(recvbuf, self.Get_rank()).array
        return coll.allgather(self, resolve(sendbuf), resolve(recvbuf))

    def _co_Allgatherv(self, sendbuf: Any, recvbuf: Any, counts: list[int],
                       displs: list[int]):
        self._check()
        return coll.allgatherv(
            self, resolve(sendbuf), resolve(recvbuf), list(counts), list(displs)
        )

    def _co_Reduce(self, sendbuf: Any, recvbuf: Any, op: Op = SUM, root: int = 0):
        self._check()
        root = self._check_root(root)
        if sendbuf is IN_PLACE:
            self._check_root_in_place(root, "send")
            sendbuf = recvbuf
        spec = None if recvbuf is None else resolve(recvbuf)
        return coll.reduce(self, resolve(sendbuf), spec, op, root)

    def _co_Allreduce(self, sendbuf: Any, recvbuf: Any, op: Op = SUM):
        self._check()
        if sendbuf is IN_PLACE:
            sendbuf = recvbuf
        return coll.allreduce(self, resolve(sendbuf), resolve(recvbuf), op)

    def _co_Scan(self, sendbuf: Any, recvbuf: Any, op: Op = SUM):
        self._check()
        return coll.scan(self, resolve(sendbuf), resolve(recvbuf), op)

    def _co_Exscan(self, sendbuf: Any, recvbuf: Any, op: Op = SUM):
        self._check()
        return coll.exscan(self, resolve(sendbuf), resolve(recvbuf), op)

    def _co_Reduce_scatter(self, sendbuf: Any, recvbuf: Any, counts: list[int],
                           op: Op = SUM):
        self._check()
        return coll.reduce_scatter(
            self, resolve(sendbuf), resolve(recvbuf), list(counts), op
        )

    def _co_Alltoall(self, sendbuf: Any, recvbuf: Any):
        self._check()
        return coll.alltoall(self, resolve(sendbuf), resolve(recvbuf))

    def _co_Alltoallv(self, sendbuf: Any, sendcounts: list[int],
                      sdispls: list[int], recvbuf: Any, recvcounts: list[int],
                      rdispls: list[int]):
        self._check()
        return coll.alltoallv(
            self, resolve(sendbuf), list(sendcounts), list(sdispls),
            resolve(recvbuf), list(recvcounts), list(rdispls),
        )

    def _check_root(self, root: int) -> int:
        if not 0 <= root < self.group.size:
            raise MpiError(constants.ERR_ROOT, f"root {root} out of range")
        return root

    # -- object-flavour collectives --------------------------------------------------

    def _co_bcast(self, obj: Any, root: int = 0):
        """Broadcast a picklable object; returns it on every rank."""
        self._check()
        return coll.bcast_object(self, obj, self._check_root(root))

    def _co_scatter(self, objs: list[Any] | None, root: int = 0):
        self._check()
        return coll.scatter_object(self, objs, self._check_root(root))

    def _co_gather(self, obj: Any, root: int = 0):
        self._check()
        return coll.gather_object(self, obj, self._check_root(root))

    def _co_allgather(self, obj: Any):
        self._check()
        return coll.allgather_object(self, obj)

    def _co_alltoall(self, objs: list[Any]):
        self._check()
        return coll.alltoall_object(self, objs)

    def _co_reduce(self, obj: Any, op=None, root: int = 0):
        """Object reduce with a Python callable (default: +)."""
        self._check()
        return coll.reduce_object(self, obj, op, self._check_root(root))

    def _co_allreduce(self, obj: Any, op=None):
        self._check()
        return coll.allreduce_object(self, obj, op)

    _co_barrier = _co_Barrier

    # =====================================================================
    # communicator management
    # =====================================================================

    def Dup(self) -> "Communicator":
        """MPI_Comm_dup: same group, fresh agreed-upon context (collective)."""
        self._check()
        token = self.world.comm_token("dup", self.ctx)
        return self.world.new_communicator(self.group, f"{self.name}+dup", token)

    def Create(self, group: Group) -> "Communicator | None":
        """MPI_Comm_create: new communicator over a subgroup (collective).

        Returns None on ranks outside ``group`` (MPI_COMM_NULL).
        """
        self._check()
        for world_rank in group.ranks:
            if not self.group.contains(world_rank):
                raise MpiError(
                    constants.ERR_GROUP,
                    "Comm_create group must be a subset of the communicator",
                )
        token = self.world.comm_token("create", self.ctx)
        new = self.world.new_communicator(group, f"{self.name}+create", token)
        if not group.contains(self.world.current_rank):
            return None
        return new

    def _co_Split(self, color: int, key: int = 0):
        """MPI_Comm_split — an extension over the paper's subset.

        All ranks of the communicator must call; ranks sharing a ``color``
        end up in the same new communicator, ordered by ``key`` then by
        original rank.  ``color = UNDEFINED`` opts out (returns None).
        """
        self._check()
        me = self.Get_rank()
        contributions = yield from coll.allgather_object(
            self, (color, key, me)
        )
        token = self.world.comm_token("split", self.ctx, extra=color)
        if color == constants.UNDEFINED:
            return None
        members = sorted((k, r) for (c, k, r) in contributions if c == color)
        group = Group(tuple(self.group.world_rank(r) for _, r in members))
        return self.world.new_communicator(
            group, f"{self.name}+split({color})", token
        )

    def _co_Split_type(self, kind: str = "shared", key: int = 0):
        """MPI_Comm_split_type-flavoured topology split (collective).

        ``kind`` picks the grouping granularity:

        * ``"shared"`` — ranks placed on the same *host* end up together
          (the MPI_COMM_TYPE_SHARED behaviour);
        * ``"cabinet"`` — ranks whose hosts hang off the same cabinet
          switch end up together.  Cabinet membership comes from the
          host's ``group`` label, which the hierarchical platform
          builders set; hosts without one fall back to grouping by host
          name, so the split degrades to ``"shared"`` on flat clusters.

        Every rank receives a communicator (no UNDEFINED opt-out), with
        members ordered by ``key`` then original rank, as in ``Split``.
        """
        self._check()
        color = self._split_type_color(kind)
        return (yield from self._co_Split(color, key))

    def _split_type_color(self, kind: str) -> int:
        """Dense split color of the calling rank for a topology ``kind``.

        Simulator state is global, so every rank derives the identical
        label→color mapping locally (first-appearance order over the
        communicator's ranks) without exchanging messages; the collective
        agreement still happens inside :meth:`Split`'s allgather.
        """
        if kind not in ("shared", "cabinet"):
            raise MpiError(
                constants.ERR_ARG,
                f"unknown split type {kind!r}; expected 'shared' or 'cabinet'",
            )
        platform = self.world.engine.platform

        def label(world_rank: int) -> str:
            hostname = self.world.host_of(world_rank)
            if kind == "shared":
                return hostname
            group = getattr(platform.host(hostname), "group", None)
            return group if group is not None else hostname

        colors: dict[str, int] = {}
        for world_rank in self.group.ranks:
            colors.setdefault(label(world_rank), len(colors))
        return colors[label(self._caller())]

    def Free(self) -> None:
        """MPI_Comm_free: mark unusable (the world forgets it)."""
        self.freed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator({self.name!r}, size={self.group.size})"


#: blocking operations exposed through the :attr:`Communicator.co` view
_CO_OPS = frozenset({
    "Ssend", "Bsend", "Rsend", "Send", "Recv", "Sendrecv",
    "Iprobe", "Probe", "send", "recv", "sendrecv",
    "Barrier", "Bcast", "Scatter", "Scatterv", "Gather", "Gatherv",
    "Allgather", "Allgatherv", "Reduce", "Allreduce", "Scan", "Exscan",
    "Reduce_scatter", "Alltoall", "Alltoallv",
    "bcast", "scatter", "gather", "allgather", "alltoall",
    "reduce", "allreduce", "barrier", "Split", "Split_type",
})

#: blocking operations whose synchronous face returns the twin's value;
#: the others return None, whatever their twin yields back
_VALUE_OPS = frozenset({
    "Iprobe", "recv", "sendrecv", "bcast", "scatter", "gather",
    "allgather", "alltoall", "reduce", "allreduce", "Split", "Split_type",
})


def _flushing(co):
    """``co`` with the calling rank's deferred compute charged first.

    Bypassed sample sites defer their compute (``SmpiWorld.defer_flops``)
    until the rank next enters the pt2pt protocol.  The protocol's own
    flush can only block in-stack, which a coroutine rank cannot do, so
    the twins pay the debt on the generator path before entering it; a
    rank with nothing deferred gets the twin's generator untouched.
    """
    def after_flush(world: "SmpiWorld", gen):
        yield from world.co_flush_deferred()
        return (yield from gen)

    @functools.wraps(co)
    def twin(self, *args, **kwargs):
        gen = co(self, *args, **kwargs)
        world = self.world
        if world.deferring and world.has_deferred():
            return after_flush(world, gen)
        return gen

    return twin


def _blocking(name: str, co):
    """The synchronous ``name``: its generator twin ``co`` driven in-stack."""
    if name in _VALUE_OPS:
        def method(self, *args, **kwargs):
            return self._run(co(self, *args, **kwargs))
    else:
        def method(self, *args, **kwargs):
            self._run(co(self, *args, **kwargs))
    functools.update_wrapper(method, co)
    method.__name__, method.__qualname__ = name, f"Communicator.{name}"
    return method


# every blocking operation has one hand-written body, its ``_co_`` twin;
# the plain name is generated from it.  Probes never enter the protocol,
# so they never flush.
for _name in sorted(_CO_OPS):
    _co = getattr(Communicator, "_co_" + _name)
    if _name not in ("Iprobe", "Probe"):
        _co = _flushing(_co)
        setattr(Communicator, "_co_" + _name, _co)
    setattr(Communicator, _name, _blocking(_name, _co))
del _name, _co


class CoCommunicator:
    """Generator-dialect twin of :class:`Communicator` (see ``comm.co``).

    ``comm.co.<op>(...)`` returns the canonical generator that the plain
    blocking method drives, so generator-dialect applications write
    ``yield from comm.co.Recv(buf)`` and suspend cooperatively instead of
    blocking an execution context in-stack.  Only the blocking subset is
    exposed; nonblocking operations (``Isend``, ``Irecv``, ...) never
    suspend and remain on the communicator itself.
    """

    __slots__ = ("_comm",)

    def __init__(self, comm: Communicator):
        self._comm = comm

    def __getattr__(self, name: str):
        if name not in _CO_OPS:
            raise AttributeError(
                f"{name!r} has no generator twin (nonblocking calls live on "
                f"the Communicator itself)"
            )
        return getattr(self._comm, "_co_" + name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoCommunicator({self._comm.name!r})"
