"""Tests for the request machinery: nonblocking, persistent, wait/test."""

from __future__ import annotations

import numpy as np
import pytest

from repro.smpi import (
    REQUEST_NULL,
    SmpiConfig,
    constants,
    smpirun,
    startall,
)
from repro.smpi import request as rq
from repro.surf import cluster


def run(app, n=2, config=None):
    return smpirun(app, n, cluster("rq", max(n, 2)), config=config)


class TestNonblocking:
    def test_isend_irecv_wait(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                req = comm.Isend(np.arange(4, dtype=np.float64), 1, 0)
                rq.wait(req)
            else:
                buf = np.zeros(4)
                req = comm.Irecv(buf, 0, 0)
                status = rq.wait(req)
                return (buf.tolist(), status.source)

        result = run_app(app, 2)
        assert result.returns[1] == ([0.0, 1.0, 2.0, 3.0], 0)

    def test_overlapping_communication_and_compute(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                req = comm.Isend(np.zeros(100_000, dtype=np.uint8), 1, 0)
                mpi.execute(5e8)  # 0.5 s of compute overlapping the send
                rq.wait(req)
                return mpi.wtime()
            buf = np.zeros(100_000, dtype=np.uint8)
            rq.wait(comm.Irecv(buf, 0, 0))
            return mpi.wtime()

        result = run_app(app, 2)
        # rank 0's time is dominated by compute, not compute + transfer
        assert result.returns[0] == pytest.approx(0.5, rel=0.1)

    def test_test_polls_without_blocking(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                mpi.sleep(0.2)
                comm.Send(np.zeros(1), 1, 0)
            else:
                buf = np.zeros(1)
                req = comm.Irecv(buf, 0, 0)
                polls = 0
                while True:
                    done, _status = rq.test(req)
                    polls += 1
                    if done:
                        break
                return polls

        result = run_app(app, 2)
        assert result.returns[1] > 1  # really polled several times

    def test_waitall_multiple_sources(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 3:
                bufs = [np.zeros(2) for _ in range(3)]
                reqs = [comm.Irecv(bufs[i], i, 0) for i in range(3)]
                statuses = rq.waitall(reqs)
                return ([b[0] for b in bufs], [s.source for s in statuses])
            comm.Send(np.full(2, float(mpi.rank)), 3, 0)

        result = run_app(app, 4)
        values, sources = result.returns[3]
        assert values == [0.0, 1.0, 2.0]
        assert sources == [0, 1, 2]

    def test_waitany_returns_earliest(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 2:
                bufs = [np.zeros(1), np.zeros(1)]
                reqs = [comm.Irecv(bufs[i], i, 0) for i in range(2)]
                index, status = rq.waitany(reqs)
                rq.wait(reqs[1 - index])
                return (index, status.source)
            mpi.sleep(0.3 if mpi.rank == 0 else 0.0)
            comm.Send(np.zeros(1), 2, 0)

        result = run_app(app, 3)
        assert result.returns[2] == (1, 1)  # rank 1 sent immediately

    def test_waitsome_collects_completions(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 3:
                bufs = [np.zeros(1) for _ in range(3)]
                reqs = [comm.Irecv(bufs[i], i, 0) for i in range(3)]
                collected = []
                while len(collected) < 3:
                    indices, _ = rq.waitsome(reqs)
                    for i in indices:
                        if i not in collected:
                            collected.append(i)
                        reqs[i] = REQUEST_NULL
                return sorted(collected)
            comm.Send(np.zeros(1), 3, 0)

        assert run_app(app, 4).returns[3] == [0, 1, 2]

    def test_testany_and_testall(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                mpi.sleep(0.1)
                comm.Send(np.zeros(1), 1, 0)
            else:
                buf = np.zeros(1)
                req = comm.Irecv(buf, 0, 0)
                flag, _, _ = rq.testany([req])
                all_flag, _ = rq.testall([req])
                rq.wait(req)
                done_flag, _ = rq.testall([req])
                return (flag, all_flag, done_flag)

        result = run_app(app, 2)
        flag, all_flag, done_flag = result.returns[1]
        assert not flag and not all_flag and done_flag

    def test_null_requests_in_families(self):
        assert rq.wait(REQUEST_NULL).source == constants.ANY_SOURCE
        done, _status = rq.test(REQUEST_NULL)
        assert done
        idx, _ = rq.waitany([REQUEST_NULL, REQUEST_NULL])
        assert idx == constants.UNDEFINED
        indices, _ = rq.waitsome([REQUEST_NULL])
        assert indices == []

    def test_cancel_unmatched_recv(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                buf = np.zeros(1)
                req = comm.Irecv(buf, 1, 99)
                req.cancel()
                status = rq.wait(req)
                return status.is_cancelled()
            return None

        assert run_app(app, 2).returns[0] is True


class TestLeanPath:
    """What the collectives' message path relies on."""

    def test_resolve_returns_a_spec_as_is(self):
        from repro.smpi.buffer import BufferSpec, resolve
        from repro.smpi.datatype import DOUBLE

        spec = BufferSpec(np.zeros(4), 3, DOUBLE)
        assert resolve(spec) is spec
        built = resolve([spec.array, 3])
        assert (built.array, built.count, built.datatype) == \
            (spec.array, 3, DOUBLE)

    def test_settle_raises_the_first_error_in_request_order(self, monkeypatch):
        def no_status(_req):
            raise AssertionError("settling builds no status")

        monkeypatch.setattr(rq.Request, "make_status", no_status)
        reqs = [rq.Request(None, "send", 0) for _ in range(3)]
        for req in reqs:
            req.finish()
        first, second = (RuntimeError("first"), RuntimeError("second"))
        reqs[1].error_exc, reqs[2].error_exc = first, second
        with pytest.raises(RuntimeError) as info:
            list(rq.co_settle(reqs))
        assert info.value is first
        assert list(rq.co_settle(reqs[:1])) == []


class TestPersistent:
    def test_send_recv_init_start_roundtrips(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            rounds = 3
            if mpi.rank == 0:
                buf = np.zeros(4)
                req = comm.Send_init(buf, 1, 0)
                for round_no in range(rounds):
                    buf[:] = round_no
                    req.start()
                    rq.wait(req)
            else:
                buf = np.zeros(4)
                req = comm.Recv_init(buf, 0, 0)
                seen = []
                for _ in range(rounds):
                    req.start()
                    rq.wait(req)
                    seen.append(buf[0])
                return seen

        assert run_app(app, 2).returns[1] == [0.0, 1.0, 2.0]

    def test_startall(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                a = comm.Send_init(np.array([1.0]), 1, 1)
                b = comm.Send_init(np.array([2.0]), 1, 2)
                startall([a, b])
                rq.waitall([a, b])
            else:
                buf1, buf2 = np.zeros(1), np.zeros(1)
                r1 = comm.Recv_init(buf1, 0, 1)
                r2 = comm.Recv_init(buf2, 0, 2)
                startall([r1, r2])
                rq.waitall([r1, r2])
                return (buf1[0], buf2[0])

        assert run_app(app, 2).returns[1] == (1.0, 2.0)

    def test_double_start_raises(self, run_app):
        from repro.errors import MpiError

        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                req = comm.Recv_init(np.zeros(1), 1, 0)
                req.start()
                try:
                    req.start()
                except MpiError:
                    req.cancel()
                    return "caught"
            else:
                return None

        assert run_app(app, 2).returns[0] == "caught"

    def test_inactive_persistent_tests_complete(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            req = comm.Send_init(np.zeros(1), 1 - mpi.rank, 0)
            done, _ = rq.test(req)
            return done

        assert run_app(app, 2).returns == [True, True]


#: the eight blocking calls generated from their ``co_`` bodies, each
#: with whether it takes a list of requests
_GENERATED = {"wait": False, "test": False, "waitall": True, "testall": True,
              "waitany": True, "testany": True, "waitsome": True,
              "testsome": True}


def _exchange(mpi, op, many):
    """Two tagged messages 0 -> 1; ``op`` runs on the fresh requests."""
    comm = mpi.COMM_WORLD
    if mpi.rank == 0:
        reqs = [comm.Isend(np.full(4, float(t)), 1, t) for t in range(2)]
    else:
        reqs = [comm.Irecv(np.zeros(4), 0, t) for t in range(2)]
    value = op(reqs if many else reqs[0])
    rq.waitall(reqs)
    return value, mpi.wtime()


class TestGeneratedSurface:
    def test_every_blocking_call_is_generated(self):
        assert set(_GENERATED) | {"startall"} == {
            name for name in rq.__all__ if not name.startswith("co_")
            and name[0].islower()}
        for name in _GENERATED:
            sync, twin = getattr(rq, name), getattr(rq, "co_" + name)
            assert sync.__wrapped__ is twin
            assert (sync.__name__, sync.__qualname__) == (name, name)
            assert sync.__doc__.startswith("MPI_")
            assert f":func:`{name}`" in twin.__doc__

    @pytest.mark.parametrize("name", sorted(_GENERATED))
    def test_sync_name_drives_its_twin(self, name):
        sync, twin = getattr(rq, name), getattr(rq, "co_" + name)
        many = _GENERATED[name]

        def app(mpi):  # a plain function: runs on a stack-capable context
            comm = mpi.COMM_WORLD
            return (_exchange(mpi, sync, many),
                    _exchange(mpi, lambda r: comm._run(twin(r)), many))

        for (sync_value, sync_t), (twin_value, twin_t) in run(app).returns:
            assert sync_value == twin_value
            assert twin_t > sync_t

    def test_null_requests_need_no_simulation(self):
        assert rq.wait(REQUEST_NULL).source == constants.ANY_SOURCE
        assert rq.waitall([REQUEST_NULL]) == [rq.wait(REQUEST_NULL)]
        assert rq.testany([REQUEST_NULL])[:2] == (True, constants.UNDEFINED)

    def test_world_compute_calls_drive_their_twins(self):
        from repro.smpi import SmpiWorld

        for name in ("flush_deferred", "execute_flops"):
            sync = getattr(SmpiWorld, name)
            assert sync.__wrapped__ is getattr(SmpiWorld, "co_" + name)
            assert sync.__qualname__ == f"SmpiWorld.{name}"
            assert sync.__doc__

        def app(mpi):
            world = mpi._world
            t0 = mpi.wtime()
            world.execute_flops(1e8)
            t1 = mpi.wtime()
            mpi.COMM_WORLD._run(world.co_execute_flops(1e8))
            t2 = mpi.wtime()
            world.defer_flops(1e8)
            world.flush_deferred()
            return t1 - t0, t2 - t1, mpi.wtime() - t2

        for sync_dt, twin_dt, flushed_dt in run(app).returns:
            assert sync_dt > 0
            assert twin_dt == pytest.approx(sync_dt)
            assert flushed_dt == pytest.approx(sync_dt)

    def test_persistent_requests_finish_like_any_request(self):
        assert rq.PersistentRequest.finish is rq.Request.finish
