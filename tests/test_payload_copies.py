"""When payload bytes are read: one copy per rendezvous byte.

An eager or buffered send snapshots its buffer at the send call; a
rendezvous send of one contiguous run borrows the sender's buffer and
delivery copies it once, straight into the receive buffer.  These tests
pin the MPI semantics both ways must keep: what a receiver gets is the
send buffer's content at the send call, whatever the sender does with
its buffer once the send has completed, and whatever other message
folded onto the same bytes in the payload pool.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MpiError
from repro.smpi import DOUBLE, SmpiConfig, VectorDatatype, constants, smpirun
from repro.smpi import request as rq
from repro.smpi.buffer import resolve
from repro.smpi.intern import PayloadPool, payload_key
from repro.surf import cluster

#: a 1 MiB payload: far above the default 64 KiB eager threshold
MIB_DOUBLES = 131_072


def run(app, n, config=None):
    return smpirun(app, n, cluster("pc", max(n, 2)), config=config)


class TestBorrowedSendBuffer:
    def test_overwrite_after_blocking_send_keeps_received_bytes(self):
        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                buf = np.arange(MIB_DOUBLES, dtype=np.float64)
                comm.Send(buf, 1, 0)
                buf[:] = -1.0  # the buffer is the application's again
                return buf.flags.writeable
            out = np.zeros(MIB_DOUBLES)
            req = comm.Irecv(out, 0, 0)
            mpi.sleep(1.0)  # wait only after the sender has overwritten
            rq.wait(req)
            return out

        sender_writable, received = run(app, 2).returns
        assert sender_writable is True
        assert np.array_equal(received, np.arange(MIB_DOUBLES, dtype=np.float64))

    def test_fold_onto_borrowed_payload_copies_it(self):
        """Rank 1's payload folds onto rank 0's borrowed one; rank 0 then
        gets its buffer back and zeroes it before rank 1's is delivered."""

        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank in (0, 1):
                buf = np.arange(MIB_DOUBLES, dtype=np.float64)
                comm.Send(buf, 2, 0)
                buf[:] = 0.0
                return None
            first = np.zeros(MIB_DOUBLES)
            second = np.zeros(MIB_DOUBLES)
            comm.Recv(first, 0, 0)
            mpi.execute(1e9)
            comm.Recv(second, 1, 0)
            return first, second

        result = run(app, 3)
        expected = np.arange(MIB_DOUBLES, dtype=np.float64)
        first, second = result.returns[2]
        assert np.array_equal(first, expected)
        assert np.array_equal(second, expected)
        assert result.stats.extra["interning"]["payload"]["hits"] == 1

    def test_object_receive_of_borrowed_payload_owns_its_bytes(self):
        """A raw (object) receive keeps the bytes past the send's end."""
        payload = pickle.dumps(list(range(40_000)))

        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                buf = np.frombuffer(payload, dtype=np.uint8).copy()
                comm.Send(buf, 1, 0)
                buf[:] = 0
                return None
            req = comm.irecv(0, 0)
            mpi.sleep(1.0)
            rq.wait(req)
            return pickle.loads(memoryview(req.raw_data))

        assert len(payload) > 64 * 1024
        assert run(app, 2).returns[1] == list(range(40_000))


class TestViewChoice:
    """Which sends borrow and which snapshot, seen from the pool."""

    @pytest.fixture(autouse=True)
    def _spy(self, monkeypatch):
        self.borrowed = []
        original = PayloadPool.acquire

        def spy(pool, key, data, borrowed=False):
            self.borrowed.append(borrowed)
            return original(pool, key, data, borrowed)

        monkeypatch.setattr(PayloadPool, "acquire", spy)

    def _borrowed(self, buf, threshold=0, mode="standard") -> bool:
        """Did rank 0's one send of ``buf`` borrow it?"""
        self.borrowed.clear()

        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                send = {"standard": comm.Send, "buffered": comm.Bsend}[mode]
                send(buf, 1, 0)
            else:
                comm.Recv(np.zeros(4096, dtype=np.uint8), 0, 0)

        run(app, 2, SmpiConfig(eager_threshold=threshold))
        (borrowed,) = self.borrowed
        return borrowed

    def test_rendezvous_contiguous_send_borrows(self):
        assert self._borrowed(np.arange(64, dtype=np.float64))

    @pytest.mark.parametrize("buf", [
        [np.arange(128, dtype=np.float64), 1,
         VectorDatatype(64, 1, 2, DOUBLE)],
        np.arange(128, dtype=np.float64)[::2],
        [np.arange(64, dtype=np.int32), 64, DOUBLE],
    ], ids=["vector", "non-c-contiguous", "dtype-cast"])
    def test_layouts_a_view_cannot_express_are_packed(self, buf):
        assert not self._borrowed(buf)

    def test_eager_and_buffered_sends_snapshot(self):
        buf = np.arange(64, dtype=np.float64)
        assert not self._borrowed(buf, threshold=1 << 20)
        assert not self._borrowed(buf, mode="buffered")

    def test_view_is_read_only_and_sender_stays_writable(self):
        buf = np.arange(8, dtype=np.float64)
        view = resolve(buf).view()
        assert np.shares_memory(view, buf)
        assert not view.flags.writeable and buf.flags.writeable
        assert view.tobytes() == buf.tobytes()

    def test_view_raises_like_pack_on_a_short_buffer(self):
        spec = resolve([np.zeros(4), 8])
        for method in (spec.pack, spec.view):
            with pytest.raises(MpiError) as err:
                method()
            assert err.value.code == constants.ERR_COUNT


class TestPoolBorrowedEntries:
    def test_fold_onto_borrowed_entry_takes_a_pool_owned_copy(self):
        sender = np.arange(1024, dtype=np.uint8)
        view = sender[:]
        view.setflags(write=False)
        pool = PayloadPool()
        first = pool.acquire(payload_key(view), view, borrowed=True)
        assert first.borrowed and first.value is view
        twin = np.arange(1024, dtype=np.uint8)[:]
        twin.setflags(write=False)
        second = pool.acquire(payload_key(twin), twin, borrowed=True)
        assert second is first and not first.borrowed
        assert not np.shares_memory(first.value, sender)
        assert not np.shares_memory(first.value, twin)
        sender[:] = 0
        assert first.value.tobytes() == bytes(range(256)) * 4

    def test_fold_of_a_snapshot_adopts_it(self):
        view = np.arange(1024, dtype=np.uint8)[:]
        view.setflags(write=False)
        pool = PayloadPool()
        entry = pool.acquire(payload_key(view), view, borrowed=True)
        snapshot = np.arange(1024, dtype=np.uint8)
        assert pool.acquire(payload_key(snapshot), snapshot) is entry
        assert entry.value is snapshot and not snapshot.flags.writeable

    def test_release_of_a_shared_borrowed_entry_is_refused(self):
        view = np.arange(16, dtype=np.uint8)
        pool = PayloadPool()
        entry = pool.acquire(payload_key(view), view, borrowed=True)
        entry.refcount = 2  # what a fold without the copy would leave
        with pytest.raises(AssertionError, match="borrowed"):
            pool.release(entry)


# -- the property: received bytes are the send buffer at the send call --------------

THRESHOLD = 1024
#: doubles per message: below, at and above the 1 KiB eager threshold
COUNTS = [THRESHOLD // 8 - 1, THRESHOLD // 8, THRESHOLD // 8 + 1, 512]
SEND = {
    ("standard", True): "Send", ("standard", False): "Isend",
    ("synchronous", True): "Ssend", ("synchronous", False): "Issend",
    ("buffered", True): "Bsend", ("buffered", False): "Ibsend",
}


def _send_buffer(layout: str, values: np.ndarray):
    """(buffer argument, array to overwrite) holding ``values`` as doubles."""
    n = values.size
    if layout == "contiguous":
        arr = values.copy()
        return arr, arr
    if layout == "vector":
        arr = np.full(2 * n, -5.0)
        arr[::2] = values
        return [arr, 1, VectorDatatype(n, 1, 2, DOUBLE)], arr
    if layout == "non-c-contiguous":
        arr = np.full(2 * n, -5.0)
        arr[::2] = values
        return arr[::2], arr
    arr = values.astype(np.int64)  # dtype-cast: int64 elements as MPI_DOUBLE
    return [arr, n, DOUBLE], arr


@settings(max_examples=60, deadline=None)
@given(
    count=st.sampled_from(COUNTS),
    mode=st.sampled_from(["standard", "synchronous", "buffered"]),
    blocking=st.booleans(),
    layout=st.sampled_from(
        ["contiguous", "vector", "non-c-contiguous", "dtype-cast"]),
    fold=st.booleans(),
)
def test_received_bytes_are_the_buffer_at_the_send_call(
        count, mode, blocking, layout, fold):
    """Ranks 0 and 1 send to rank 2, then overwrite their buffers; rank 2
    posts its receives late, the second after a compute burst.  With
    ``fold`` both payloads are byte-equal, so the pool folds them."""

    def values(rank):
        base = np.arange(count, dtype=np.float64) * 3.0 + 1.0
        return base if fold else base + 1000.0 * rank

    def app(mpi):
        comm = mpi.COMM_WORLD
        if mpi.rank < 2:
            buf, arr = _send_buffer(layout, values(mpi.rank))
            send = getattr(comm, SEND[(mode, blocking)])
            if blocking:
                send(buf, 2, 7)
            else:
                rq.wait(send(buf, 2, 7))
            arr[...] = -9  # the send completed: the buffer is free again
            return None
        mpi.sleep(0.5)
        first, second = np.zeros(count), np.zeros(count)
        comm.Recv(first, 0, 7)
        mpi.execute(1e9)
        comm.Recv(second, 1, 7)
        return first, second

    result = run(app, 3, SmpiConfig(eager_threshold=THRESHOLD))
    first, second = result.returns[2]
    assert np.array_equal(first, values(0))
    assert np.array_equal(second, values(1))
