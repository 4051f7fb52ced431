"""Shared helpers for collective algorithms.

Collectives operate on :class:`~repro.smpi.buffer.BufferSpec`s.  The
helpers here give element-level views into those buffers and wrap the
point-to-point calls with the *collective context* (``comm.ctx + 1``) so
that collective-internal traffic can never match application receives.

All data movement inside collectives goes through these functions, which
keeps each algorithm file focused on its communication schedule — the
thing the paper actually models.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ...errors import MpiError
from .. import constants
from ..buffer import BufferSpec
from ..datatype import PredefinedDatatype, from_numpy_dtype
from ..request import Request, co_settle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..comm import Communicator

__all__ = [
    "base_dtype",
    "flat_view",
    "elements_of",
    "isend_view",
    "irecv_view",
    "co_send_view",
    "co_recv_view",
    "co_complete",
    "coll_tag",
]

# one reserved tag per collective kind (readability of traces; correctness
# comes from the separate context and MPI's non-overtaking rule)
_TAGS = {
    "barrier": 1,
    "bcast": 2,
    "gather": 3,
    "gatherv": 4,
    "scatter": 5,
    "scatterv": 6,
    "allgather": 7,
    "allgatherv": 8,
    "reduce": 9,
    "allreduce": 10,
    "reduce_scatter": 11,
    "scan": 12,
    "exscan": 13,
    "alltoall": 14,
    "alltoallv": 15,
    "object": 16,
    "split": 17,
}


def coll_tag(kind: str) -> int:
    return constants.TAG_UB - _TAGS[kind]


def base_dtype(spec: BufferSpec) -> PredefinedDatatype:
    """The predefined element type backing a buffer spec."""
    datatype = spec.datatype
    while not isinstance(datatype, PredefinedDatatype):
        inner = getattr(datatype, "base", None)
        if inner is None:
            raise MpiError(
                constants.ERR_TYPE,
                f"collectives need an array-backed datatype, got {datatype.name}",
            )
        datatype = inner
    return datatype


def elements_of(spec: BufferSpec) -> int:
    """Number of *base* elements covered by the spec's count."""
    return spec.nbytes // base_dtype(spec).size


def flat_view(spec: BufferSpec) -> np.ndarray:
    """1-D element view of the spec's array (no copy)."""
    arr = np.asarray(spec.array)
    if not arr.flags.c_contiguous:
        raise MpiError(
            constants.ERR_BUFFER, "collective buffers must be C-contiguous"
        )
    return arr.reshape(-1)


def _sub(spec_or_array, offset: int, count: int) -> BufferSpec:
    """The ready spec of ``count`` elements at ``offset`` (a view)."""
    if isinstance(spec_or_array, BufferSpec):
        arr = flat_view(spec_or_array)
    else:
        arr = np.asarray(spec_or_array)
        if not arr.flags.c_contiguous:
            raise MpiError(
                constants.ERR_BUFFER, "collective buffers must be C-contiguous"
            )
        arr = arr.reshape(-1)
    if offset < 0 or count < 0 or offset + count > arr.size:
        raise MpiError(
            constants.ERR_COUNT,
            f"slice [{offset},{offset + count}) outside buffer of {arr.size}",
        )
    view = arr[offset : offset + count]  # a non-integral count raises
    return BufferSpec(view, int(count), from_numpy_dtype(arr.dtype))


def isend_view(
    comm: "Communicator", src_arr, offset: int, count: int, dest: int, kind: str
) -> Request:
    """Nonblocking send of ``count`` elements at ``offset`` of an array."""
    return comm.Isend(_sub(src_arr, offset, count), dest,
                      constants.TAG_UB - _TAGS[kind], _ctx=comm.ctx + 1)


def irecv_view(
    comm: "Communicator", dst_arr, offset: int, count: int, source: int, kind: str
) -> Request:
    """Nonblocking receive into ``count`` elements at ``offset``."""
    return comm.Irecv(_sub(dst_arr, offset, count), source,
                      constants.TAG_UB - _TAGS[kind], _ctx=comm.ctx + 1)


def co_send_view(comm, src_arr, offset, count, dest, kind):
    """Blocking send of a buffer slice (``yield from``)."""
    return co_complete(comm, [isend_view(comm, src_arr, offset, count,
                                         dest, kind)])


def co_recv_view(comm, dst_arr, offset, count, source, kind):
    """Blocking receive into a buffer slice (``yield from``)."""
    return co_complete(comm, [irecv_view(comm, dst_arr, offset, count,
                                         source, kind)])


def co_complete(comm, requests):
    """Wait on a batch of collective-internal requests, then recycle them.

    The algorithm files pair ``isend_view``/``irecv_view`` batches with a
    single wait; routing it through here returns every request to the
    world's free list once its round is over.  It builds no status; the
    first delivery error in request order still raises.
    """
    yield from co_settle(requests)
    release = comm.world.release_request
    for req in requests:
        release(req)
