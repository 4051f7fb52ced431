"""Generic-object (pickle) collectives — the mpi4py "lower-case" flavour.

These move pickled payloads through the same point-to-point protocol
(:meth:`Communicator.isend`), so their simulated timing reflects the
actual serialised sizes; like every object call they carry the pickle
itself, even under ``zero_copy``.  Schedules are simple (binomial where
natural, linear otherwise); applications that care about collective
performance should use the buffer flavour.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable

from .. import request as rq
from ..buffer import unpack_object
from .util import coll_tag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..comm import Communicator

__all__ = [
    "bcast_object",
    "scatter_object",
    "gather_object",
    "allgather_object",
    "alltoall_object",
    "reduce_object",
    "allreduce_object",
]


def _send_obj(comm: "Communicator", obj: Any, dest: int) -> None:
    req = comm.isend(obj, dest, coll_tag("object"), _ctx=comm.ctx + 1)
    yield from rq.co_settle([req], "MPI_Wait")
    comm.world.release_request(req)


def _recv_obj(comm: "Communicator", source: int) -> Any:
    req = comm.irecv(source, coll_tag("object"), _ctx=comm.ctx + 1)
    yield from rq.co_settle([req], "MPI_Wait")
    raw = req.raw_data  # consume before recycling the request
    comm.world.release_request(req)
    return unpack_object(raw) if raw is not None else None


def bcast_object(comm: "Communicator", obj: Any, root: int) -> Any:
    """Binomial-tree broadcast of one pickled object."""
    size = comm.size
    if size == 1:
        return obj
    rank = comm.Get_rank()
    relative = (rank - root) % size
    mask = 1
    if relative != 0:
        while not (relative & mask):
            mask <<= 1
        obj = yield from _recv_obj(comm, (relative - mask + root) % size)
        mask >>= 1
    else:
        while mask < size:
            mask <<= 1
        mask >>= 1
    while mask >= 1:
        child_rel = relative + mask
        if child_rel < size:
            yield from _send_obj(comm, obj, (child_rel + root) % size)
        mask >>= 1
    return obj


def scatter_object(comm: "Communicator", objs: list[Any] | None, root: int) -> Any:
    """Linear object scatter: root sends item i to rank i."""
    size = comm.size
    rank = comm.Get_rank()
    if rank == root:
        if objs is None or len(objs) != size:
            from ...errors import MpiError
            from .. import constants

            raise MpiError(
                constants.ERR_COUNT, f"scatter needs a list of {size} objects at root"
            )
        for dest in range(size):
            if dest != root:
                yield from _send_obj(comm, objs[dest], dest)
        return objs[root]
    return (yield from _recv_obj(comm, root))


def gather_object(comm: "Communicator", obj: Any, root: int) -> list[Any] | None:
    """Linear object gather (root receives in rank order)."""
    rank = comm.Get_rank()
    if rank == root:
        out = []
        for src in range(comm.size):
            out.append(obj if src == root
                       else (yield from _recv_obj(comm, src)))
        return out
    yield from _send_obj(comm, obj, root)
    return None


def allgather_object(comm: "Communicator", obj: Any) -> list[Any]:
    """Gather to 0, then broadcast the list."""
    gathered = yield from gather_object(comm, obj, 0)
    return (yield from bcast_object(comm, gathered, 0))


def alltoall_object(comm: "Communicator", objs: list[Any]) -> list[Any]:
    """Pairwise object exchange: item i of my list goes to rank i."""
    size = comm.size
    rank = comm.Get_rank()
    if len(objs) != size:
        from ...errors import MpiError
        from .. import constants

        raise MpiError(constants.ERR_COUNT, f"alltoall needs {size} objects")
    out: list[Any] = [None] * size
    out[rank] = objs[rank]
    for step in range(1, size):
        dst = (rank + step) % size
        src = (rank - step) % size
        sreq = comm.isend(objs[dst], dst, coll_tag("object"),
                          _ctx=comm.ctx + 1)
        rreq = comm.irecv(src, coll_tag("object"), _ctx=comm.ctx + 1)
        yield from rq.co_settle([sreq, rreq])
        raw = rreq.raw_data
        comm.world.release_request(sreq)
        comm.world.release_request(rreq)
        out[src] = unpack_object(raw) if raw is not None else None
    return out


def reduce_object(
    comm: "Communicator", obj: Any, op: Callable[[Any, Any], Any] | None, root: int
) -> Any:
    """Gather to root, fold in rank order with ``op`` (default ``+``)."""
    fold = op or operator.add
    gathered = yield from gather_object(comm, obj, root)
    if gathered is None:
        return None
    acc = gathered[0]
    for item in gathered[1:]:
        acc = fold(acc, item)
    return acc


def allreduce_object(
    comm: "Communicator", obj: Any, op: Callable[[Any, Any], Any] | None
) -> Any:
    result = yield from reduce_object(comm, obj, op, 0)
    return (yield from bcast_object(comm, result, 0))
