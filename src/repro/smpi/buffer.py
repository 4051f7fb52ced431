"""Buffer-specification handling (mpi4py conventions).

The "upper-case" MPI calls take buffer arguments that may be

* a NumPy array — count and datatype inferred (automatic discovery),
* ``[array, count]`` — datatype inferred from the array dtype,
* ``[array, count, datatype]`` — fully explicit,
* ``[array, datatype]`` — count inferred from the array size.

:func:`resolve` normalises all of these to a :class:`BufferSpec`.  For
generic-object ("lower-case") calls the payload is pickled into a byte
array by :func:`pack_object` / :func:`unpack_object`.

A spec reaches the wire through :meth:`BufferSpec.pack` (a snapshot, one
copy at the send call) or :meth:`BufferSpec.view` (the sender's own
bytes, read-only, no copy); the protocol picks one per send, see
:mod:`repro.smpi.datatype`.  A pickle is private and immutable, so it
travels as is.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import MpiError
from . import constants
from .datatype import BYTE, Datatype, from_numpy_dtype

__all__ = ["BufferSpec", "resolve", "pack_object", "unpack_object"]


@dataclass
class BufferSpec:
    """A normalised (array, count, datatype) triple."""

    array: np.ndarray
    count: int
    datatype: Datatype

    @property
    def nbytes(self) -> int:
        return self.count * self.datatype.size

    def pack(self) -> np.ndarray:
        """Contiguous uint8 snapshot of the data to send (one copy)."""
        return self.datatype.pack(self.array, self.count)

    def view(self) -> np.ndarray | None:
        """Read-only uint8 view of the data to send, or ``None``.

        ``None`` when only :meth:`pack` can produce the bytes: a strided
        datatype, a buffer that is not C-contiguous, or one whose NumPy
        dtype differs from the MPI type.  A short buffer raises the same
        ``ERR_COUNT`` as :meth:`pack`.
        """
        return self.datatype.view(self.array, self.count)

    def unpack(self, data: np.ndarray) -> None:
        """Fill the buffer from received bytes (truncation is an error)."""
        received = data.size
        if received > self.nbytes:
            raise MpiError(
                constants.ERR_TRUNCATE,
                f"message of {received} B overflows buffer of {self.nbytes} B",
            )
        if received == 0:
            return
        if received % self.datatype.size != 0:
            raise MpiError(
                constants.ERR_TYPE,
                f"{received} B is not a whole number of {self.datatype.name}",
            )
        self.datatype.unpack(data, self.array, received // self.datatype.size)


def resolve(buf: Any, default_count: int | None = None) -> BufferSpec:
    """Normalise any accepted buffer argument to a :class:`BufferSpec`.

    A spec is already normal and comes back as is: collectives hand
    their block views to ``Isend``/``Irecv`` ready-made.
    """
    if isinstance(buf, BufferSpec):
        return buf
    count: int | None = default_count
    datatype: Datatype | None = None

    if isinstance(buf, (list, tuple)):
        if not buf or not 1 <= len(buf) <= 3:
            raise MpiError(constants.ERR_BUFFER, f"bad buffer spec of length {len(buf)}")
        array = buf[0]
        for extra in buf[1:]:
            if isinstance(extra, Datatype):
                datatype = extra
            elif isinstance(extra, (int, np.integer)):
                count = int(extra)
            else:
                raise MpiError(
                    constants.ERR_BUFFER,
                    f"buffer spec extras must be count/datatype, got {type(extra).__name__}",
                )
    else:
        array = buf

    array = np.asarray(array)
    if datatype is None:
        datatype = from_numpy_dtype(array.dtype)
    if count is None:
        if datatype.extent == 0:
            raise MpiError(constants.ERR_TYPE, "zero-extent datatype needs a count")
        count = (array.size * array.itemsize) // datatype.extent
    if count < 0:
        raise MpiError(constants.ERR_COUNT, f"negative count {count}")
    return BufferSpec(array, count, datatype)


def pack_object(obj: Any) -> BufferSpec:
    """Pickle a Python object into a byte BufferSpec (lower-case API).

    The array is a read-only view of the pickle itself: nobody else holds
    those bytes, so they can be sent without a further copy.
    """
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    arr = np.frombuffer(raw, dtype=np.uint8)
    return BufferSpec(arr, arr.size, BYTE)


def unpack_object(data: np.ndarray) -> Any:
    """Reconstruct a Python object from received bytes."""
    return pickle.loads(memoryview(data))
