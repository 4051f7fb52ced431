"""MPI datatypes, predefined and derived.

A :class:`Datatype` knows its element size and, for the predefined types,
the matching NumPy dtype so buffers can be checked and copied with
vectorised operations.  Derived types — ``Contiguous`` and ``Vector``,
an extension beyond the paper's predefined-only subset — describe
non-contiguous layouts through pack/unpack methods operating on flat
NumPy views.

The pack/view/unpack path is the single place where message bytes are
marshalled, so the on-line property (real data movement, applications
compute correct results in simulation) is concentrated here and heavily
tested.  A send reaches the wire one of two ways:

* :meth:`Datatype.pack` snapshots the send buffer — one copy, taken at
  the send call.  Eager and buffered sends need it (the sender may reuse
  its buffer as soon as the call returns), and so does any layout a flat
  view cannot express: a strided (``Vector``) type, a buffer that is not
  C-contiguous, or one whose NumPy dtype differs from the MPI type (the
  copy casts).
* :meth:`Datatype.view` borrows the send buffer as a read-only uint8
  view.  A rendezvous send of one contiguous run of a predefined type
  travels this way: MPI owns a rendezvous send buffer until the send
  completes, and the simulated send completes only after delivery, so
  the bytes are read once, when delivery copies them into the receive
  buffer.

:meth:`Datatype.unpack` is the receiving copy in both cases.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import MpiError
from . import constants

__all__ = [
    "Datatype",
    "PredefinedDatatype",
    "ContiguousDatatype",
    "VectorDatatype",
    "BYTE",
    "CHAR",
    "SHORT",
    "INT",
    "LONG",
    "LONG_LONG",
    "UNSIGNED",
    "UNSIGNED_LONG",
    "FLOAT",
    "DOUBLE",
    "C_BOOL",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
    "UINT8",
    "UINT16",
    "UINT32",
    "UINT64",
    "COMPLEX",
    "DOUBLE_COMPLEX",
    "PACKED",
    "from_numpy_dtype",
]

_ids = itertools.count()


class Datatype:
    """Base class: a recipe for interpreting a buffer."""

    def __init__(self, name: str, size: int, extent: int | None = None):
        self.tid = next(_ids)
        self.name = name
        #: bytes of actual data per element (what travels on the network)
        self.size = int(size)
        #: bytes the element spans in memory (>= size for strided types)
        self.extent = int(extent if extent is not None else size)
        self.committed = True

    def commit(self) -> None:
        """MPI_Type_commit (no-op here, kept for API fidelity)."""
        self.committed = True

    def free(self) -> None:
        """MPI_Type_free (no-op; garbage collection handles storage)."""
        self.committed = False

    # -- marshalling ---------------------------------------------------------------

    def pack(self, buf: np.ndarray, count: int) -> np.ndarray:
        """Serialise ``count`` elements of ``buf`` into contiguous bytes."""
        raise NotImplementedError

    def view(self, buf: np.ndarray, count: int) -> np.ndarray | None:
        """Read-only uint8 view of ``count`` elements of ``buf``, in place.

        ``None`` when the elements are not one contiguous run of ``buf``
        in this type's own representation; :meth:`pack` then copies.
        """
        return None

    def unpack(self, data: np.ndarray, buf: np.ndarray, count: int) -> None:
        """Write ``count`` elements from contiguous bytes into ``buf``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, size={self.size})"


class PredefinedDatatype(Datatype):
    """A basic type backed by one NumPy dtype."""

    def __init__(self, name: str, np_dtype: str):
        self.np_dtype = np.dtype(np_dtype)
        super().__init__(name, self.np_dtype.itemsize)

    def _check(self, buf: np.ndarray, count: int) -> np.ndarray:
        arr = np.asarray(buf)
        flat = arr.reshape(-1)
        if flat.size < count:
            raise MpiError(
                constants.ERR_COUNT,
                f"buffer holds {flat.size} elements, {count} requested",
            )
        return flat

    def pack(self, buf: np.ndarray, count: int) -> np.ndarray:
        flat = self._check(buf, count)
        # one copy, taken at the send call: the snapshot an eager send
        # needs, and the cast when the buffer's dtype is not this type's
        out = np.empty(count, dtype=self.np_dtype)
        out[:] = flat[:count]
        return out.view(np.uint8).reshape(-1)

    def view(self, buf: np.ndarray, count: int) -> np.ndarray | None:
        arr = np.asarray(buf)
        if arr.dtype != self.np_dtype or not arr.flags.c_contiguous:
            return None  # pack casts or gathers, and raises what it must
        # no copy: the sender's bytes, read at delivery; only this view is
        # frozen, the sender's own array stays writable
        out = self._check(arr, count)[:count].view(np.uint8)
        out.setflags(write=False)
        return out

    def unpack(self, data: np.ndarray, buf: np.ndarray, count: int) -> None:
        if not np.asarray(buf).flags.c_contiguous:
            # a reshape(-1) of a non-contiguous array is a copy, so writes
            # would be lost silently — reject instead
            raise MpiError(
                constants.ERR_BUFFER, "receive buffers must be C-contiguous"
            )
        flat = self._check(buf, count)
        if flat.dtype != self.np_dtype:
            raise MpiError(
                constants.ERR_TYPE,
                f"receive buffer dtype {flat.dtype} != {self.np_dtype}",
            )
        if not flat.flags.writeable:
            raise MpiError(constants.ERR_BUFFER, "receive buffer is read-only")
        # the receiving copy: wire bytes (a snapshot or the sender's own
        # buffer) into the receive buffer
        wire = np.ascontiguousarray(data[: count * self.size])
        flat[:count] = wire.view(self.np_dtype)


class ContiguousDatatype(Datatype):
    """MPI_Type_contiguous: ``count`` consecutive elements of a base type."""

    def __init__(self, count: int, base: Datatype, name: str = ""):
        if count < 1:
            raise MpiError(constants.ERR_COUNT, "contiguous count must be >= 1")
        self.base = base
        self.count = count
        super().__init__(
            name or f"contig({count},{base.name})",
            count * base.size,
            count * base.extent,
        )
        self.committed = False

    def pack(self, buf: np.ndarray, count: int) -> np.ndarray:
        return self.base.pack(buf, count * self.count)

    def view(self, buf: np.ndarray, count: int) -> np.ndarray | None:
        return self.base.view(buf, count * self.count)

    def unpack(self, data: np.ndarray, buf: np.ndarray, count: int) -> None:
        self.base.unpack(data, buf, count * self.count)


class VectorDatatype(Datatype):
    """MPI_Type_vector: ``count`` blocks of ``blocklength`` elements, the
    starts of consecutive blocks ``stride`` elements apart."""

    def __init__(
        self, count: int, blocklength: int, stride: int, base: PredefinedDatatype,
        name: str = "",
    ) -> None:
        if count < 1 or blocklength < 1:
            raise MpiError(constants.ERR_COUNT, "vector count/blocklength >= 1")
        if stride < blocklength:
            raise MpiError(constants.ERR_ARG, "overlapping vector stride")
        if not isinstance(base, PredefinedDatatype):
            raise MpiError(constants.ERR_TYPE, "vector base must be predefined")
        self.base = base
        self.count = count
        self.blocklength = blocklength
        self.stride = stride
        span = ((count - 1) * stride + blocklength) * base.extent
        super().__init__(
            name or f"vector({count},{blocklength},{stride},{base.name})",
            count * blocklength * base.size,
            span,
        )
        self.committed = False

    def _indices(self, count: int) -> np.ndarray:
        """Flat element indices covered by ``count`` vector elements."""
        one = (
            np.arange(self.count)[:, None] * self.stride
            + np.arange(self.blocklength)[None, :]
        ).reshape(-1)
        span_elems = (self.count - 1) * self.stride + self.blocklength
        reps = one[None, :] + np.arange(count)[:, None] * span_elems
        return reps.reshape(-1)

    def pack(self, buf: np.ndarray, count: int) -> np.ndarray:
        flat = np.asarray(buf).reshape(-1)
        idx = self._indices(count)
        if flat.size < int(idx[-1]) + 1:
            raise MpiError(constants.ERR_COUNT, "buffer too small for vector type")
        picked = np.empty(idx.size, dtype=self.base.np_dtype)
        picked[:] = flat[idx]
        return picked.view(np.uint8).reshape(-1)

    def unpack(self, data: np.ndarray, buf: np.ndarray, count: int) -> None:
        flat = np.asarray(buf).reshape(-1)
        idx = self._indices(count)
        if flat.size < int(idx[-1]) + 1:
            raise MpiError(constants.ERR_COUNT, "buffer too small for vector type")
        wire = np.ascontiguousarray(data[: idx.size * self.base.size])
        flat[idx] = wire.view(self.base.np_dtype)


# -- predefined instances ------------------------------------------------------------

BYTE = PredefinedDatatype("MPI_BYTE", "uint8")
CHAR = PredefinedDatatype("MPI_CHAR", "int8")
SHORT = PredefinedDatatype("MPI_SHORT", "int16")
INT = PredefinedDatatype("MPI_INT", "int32")
LONG = PredefinedDatatype("MPI_LONG", "int64")
LONG_LONG = PredefinedDatatype("MPI_LONG_LONG", "int64")
UNSIGNED = PredefinedDatatype("MPI_UNSIGNED", "uint32")
UNSIGNED_LONG = PredefinedDatatype("MPI_UNSIGNED_LONG", "uint64")
FLOAT = PredefinedDatatype("MPI_FLOAT", "float32")
DOUBLE = PredefinedDatatype("MPI_DOUBLE", "float64")
C_BOOL = PredefinedDatatype("MPI_C_BOOL", "bool")
INT8 = PredefinedDatatype("MPI_INT8_T", "int8")
INT16 = PredefinedDatatype("MPI_INT16_T", "int16")
INT32 = PredefinedDatatype("MPI_INT32_T", "int32")
INT64 = PredefinedDatatype("MPI_INT64_T", "int64")
UINT8 = PredefinedDatatype("MPI_UINT8_T", "uint8")
UINT16 = PredefinedDatatype("MPI_UINT16_T", "uint16")
UINT32 = PredefinedDatatype("MPI_UINT32_T", "uint32")
UINT64 = PredefinedDatatype("MPI_UINT64_T", "uint64")
COMPLEX = PredefinedDatatype("MPI_COMPLEX", "complex64")
DOUBLE_COMPLEX = PredefinedDatatype("MPI_DOUBLE_COMPLEX", "complex128")
PACKED = PredefinedDatatype("MPI_PACKED", "uint8")

_BY_NP_DTYPE = {
    dtype.np_dtype: dtype
    for dtype in (
        CHAR, SHORT, INT, LONG, UNSIGNED, UNSIGNED_LONG, FLOAT, DOUBLE,
        C_BOOL, UINT8, UINT16, COMPLEX, DOUBLE_COMPLEX,
    )
}
_BY_NP_DTYPE[np.dtype("uint8")] = BYTE


def from_numpy_dtype(dtype: np.dtype) -> PredefinedDatatype:
    """Automatic datatype discovery for NumPy buffers (mpi4py-style)."""
    dt = np.dtype(dtype)
    try:
        return _BY_NP_DTYPE[dt]
    except KeyError:
        raise MpiError(
            constants.ERR_TYPE, f"no MPI datatype for numpy dtype {dt}"
        ) from None
