"""MPI-IO — simulated parallel file I/O (paper section 8 future work).

The paper names I/O simulation as a planned extension ("A long-term goal
is for SMPI to simulate I/O resources and I/O operations, such as those
implemented in MPI-IO", citing MPI-SIM's I/O support).  This module
provides it in the same spirit as the network layer:

* every host owns a simulated **disk** — a bandwidth/latency resource the
  engine shares max-min between concurrent I/O actions on that host, so
  co-located ranks writing simultaneously contend like real processes on
  one spindle/SSD;
* file *contents are real* (the on-line property): bytes written are
  bytes read back, so applications using files for exchange compute
  correct results;
* the API follows mpi4py's ``MPI.File``: ``File.Open``, ``Read_at``,
  ``Write_at``, the collective ``_all`` variants, ``Seek`` /
  ``Get_position`` / ``Get_size``, ``Close``.

Files live in a world-level namespace (a simulated shared filesystem à la
NFS); an optional shared **filesystem backbone** bandwidth models the file
server link that all hosts' I/O crosses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import MpiError
from ..surf.action import NetworkAction
from ..surf.resources import Link
from . import constants
from .buffer import resolve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .comm import Communicator
    from .runtime import SmpiWorld

__all__ = ["File", "FileSystem", "MODE_RDONLY", "MODE_WRONLY", "MODE_RDWR",
           "MODE_CREATE", "MODE_EXCL", "MODE_APPEND"]

MODE_RDONLY = 1
MODE_RDWR = 2
MODE_WRONLY = 4
MODE_CREATE = 8
MODE_EXCL = 16
MODE_APPEND = 32


class FileSystem:
    """The simulated shared filesystem of one SMPI world.

    Holds file contents (real bytes) and the I/O resources: one disk
    resource per host plus an optional shared server link.
    """

    def __init__(
        self,
        world: "SmpiWorld",
        disk_bandwidth: float = 200e6,  # ~2010 SATA streaming rate
        disk_latency: float = 2e-3,  # seek/queue per operation
        server_bandwidth: float | None = 500e6,  # shared NFS-ish backbone
    ) -> None:
        self.world = world
        self.disk_bandwidth = disk_bandwidth
        self.disk_latency = disk_latency
        self._disks: dict[str, Link] = {}
        self._server: Link | None = (
            Link("fs-server", server_bandwidth, 0.0)
            if server_bandwidth is not None
            else None
        )
        #: filename -> bytearray of real contents
        self._files: dict[str, bytearray] = {}

    # -- resource plumbing ---------------------------------------------------------------

    def _disk(self, host: str) -> Link:
        disk = self._disks.get(host)
        if disk is None:
            disk = self._disks[host] = Link(
                f"disk-{host}", self.disk_bandwidth, self.disk_latency
            )
        return disk

    def io_action(self, nbytes: int, label: str) -> None:
        """Block the calling rank for one disk transfer of ``nbytes``."""
        world = self.world
        rank = world.current_rank
        host = world.host_of(rank)
        links = (self._disk(host),) + (
            (self._server,) if self._server is not None else ()
        )
        action = NetworkAction(
            f"io-{label}-r{rank}", max(nbytes, 1), links,
            latency=self.disk_latency,
        )
        engine = world.engine
        if hasattr(engine, "_register"):
            engine._register(action)
        else:  # packet engine: model I/O as a plain delay
            duration = self.disk_latency + max(nbytes, 1) / self.disk_bandwidth
            action = engine.sleep(duration, name=f"io-{label}-r{rank}")
        from ..simix.activity import Activity

        activity = Activity(world.scheduler, action, f"io-{label}")
        activity.wait(world.current_actor)

    # -- contents -------------------------------------------------------------------------

    def storage(self, name: str) -> bytearray:
        data = self._files.get(name)
        if data is None:
            data = self._files[name] = bytearray()
        return data

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        self._files.pop(name, None)


class File:
    """An open simulated file (MPI_File)."""

    def __init__(self, fs: FileSystem, comm: "Communicator", name: str,
                 amode: int):
        self._fs = fs
        self._comm = comm
        self.name = name
        self.amode = amode
        self.closed = False
        #: per-rank individual file pointer (bytes)
        self._offsets: dict[int, int] = {}

    # -- lifecycle ------------------------------------------------------------------------

    @classmethod
    def Open(cls, comm: "Communicator", name: str, amode: int = MODE_RDONLY
             ) -> "File":
        """Collective open; all ranks of ``comm`` must call."""
        fs = comm.world.filesystem
        if amode & MODE_EXCL and fs.exists(name):
            raise MpiError(constants.ERR_OTHER, f"file {name!r} exists (EXCL)")
        if not (amode & MODE_CREATE) and not fs.exists(name):
            if not (amode & (MODE_WRONLY | MODE_RDWR)):
                raise MpiError(constants.ERR_OTHER, f"file {name!r} not found")
        fs.storage(name)  # materialise
        comm.Barrier()  # open is collective
        handle = cls(fs, comm, name, amode)
        if amode & MODE_APPEND:
            size = len(fs.storage(name))
            for rank in range(comm.size):
                handle._offsets[rank] = size
        return handle

    def Close(self) -> None:
        """Collective close."""
        self._check_open()
        self._comm.Barrier()
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise MpiError(constants.ERR_OTHER, f"file {self.name!r} is closed")

    def _check_mode(self, writing: bool) -> None:
        if writing and not self.amode & (MODE_WRONLY | MODE_RDWR):
            raise MpiError(constants.ERR_OTHER, "file not opened for writing")
        if not writing and not self.amode & (MODE_RDONLY | MODE_RDWR):
            raise MpiError(constants.ERR_OTHER, "file not opened for reading")

    # -- pointer --------------------------------------------------------------------------

    def Get_position(self) -> int:
        self._check_open()
        return self._offsets.get(self._comm.Get_rank(), 0)

    def Seek(self, offset: int, whence: int = 0) -> None:
        """whence: 0=set, 1=current, 2=end (byte offsets)."""
        self._check_open()
        rank = self._comm.Get_rank()
        base = {0: 0, 1: self._offsets.get(rank, 0),
                2: len(self._fs.storage(self.name))}[whence]
        position = base + offset
        if position < 0:
            raise MpiError(constants.ERR_ARG, "seek before start of file")
        self._offsets[rank] = position

    def Get_size(self) -> int:
        self._check_open()
        return len(self._fs.storage(self.name))

    # -- explicit-offset I/O ----------------------------------------------------------------

    def Write_at(self, offset: int, buf: Any) -> int:
        """Write at an explicit offset; returns bytes written."""
        self._check_open()
        self._check_mode(writing=True)
        spec = resolve(buf)
        # the copy into the file reads the buffer in place when it is one
        # contiguous run, else its packed snapshot
        data = spec.view()
        if data is None:
            data = spec.pack()
        nbytes = int(data.size)
        storage = self._fs.storage(self.name)
        end = offset + nbytes
        if len(storage) < end:
            storage.extend(b"\0" * (end - len(storage)))
        self._fs.io_action(nbytes, "write")
        storage[offset:end] = memoryview(data)
        return nbytes

    def Read_at(self, offset: int, buf: Any) -> int:
        """Read into ``buf`` from an explicit offset; returns bytes read."""
        self._check_open()
        self._check_mode(writing=False)
        spec = resolve(buf)
        storage = self._fs.storage(self.name)
        available = max(0, len(storage) - offset)
        nbytes = min(spec.nbytes, available)
        self._fs.io_action(nbytes, "read")
        if nbytes:
            raw = np.frombuffer(
                bytes(storage[offset : offset + nbytes]), dtype=np.uint8
            )
            spec.unpack(raw)
        return nbytes

    # -- individual-pointer I/O ---------------------------------------------------------------

    def Write(self, buf: Any) -> int:
        rank = self._comm.Get_rank()
        offset = self._offsets.get(rank, 0)
        written = self.Write_at(offset, buf)
        self._offsets[rank] = offset + written
        return written

    def Read(self, buf: Any) -> int:
        rank = self._comm.Get_rank()
        offset = self._offsets.get(rank, 0)
        read = self.Read_at(offset, buf)
        self._offsets[rank] = offset + read
        return read

    # -- collective I/O ----------------------------------------------------------------------

    def Write_at_all(self, offset: int, buf: Any) -> int:
        """Collective write: all ranks participate, synchronised."""
        self._check_open()
        self._comm.Barrier()
        written = self.Write_at(offset, buf)
        self._comm.Barrier()
        return written

    def Read_at_all(self, offset: int, buf: Any) -> int:
        """Collective read."""
        self._check_open()
        self._comm.Barrier()
        read = self.Read_at(offset, buf)
        self._comm.Barrier()
        return read

    def Write_all(self, buf: Any) -> int:
        self._comm.Barrier()
        written = self.Write(buf)
        self._comm.Barrier()
        return written

    def Read_all(self, buf: Any) -> int:
        self._comm.Barrier()
        read = self.Read(buf)
        self._comm.Barrier()
        return read
