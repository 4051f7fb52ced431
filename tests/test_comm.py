"""Communicator management: dup, create, split, groups, object collectives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ActorFailure, MpiError
from repro.smpi import Communicator, Group, Status, constants, smpirun
from repro.smpi.comm import _CO_OPS, _VALUE_OPS
from repro.surf import cluster


def run(app, n=4):
    return smpirun(app, n, cluster("cm", n))


class TestIdentity:
    def test_rank_and_size(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            return (comm.Get_rank(), comm.Get_size(), comm.rank, comm.size)

        result = run_app(app, 3)
        assert result.returns == [(0, 3, 0, 3), (1, 3, 1, 3), (2, 3, 2, 3)]

    def test_group_accessor(self, run_app):
        def app(mpi):
            return mpi.COMM_WORLD.Get_group().ranks

        assert run_app(app, 3).returns == [(0, 1, 2)] * 3


class TestDup:
    def test_dup_isolates_traffic(self, run_app):
        """A message on the dup cannot be received on the original."""

        def app(mpi):
            comm = mpi.COMM_WORLD
            dup = comm.Dup()
            if mpi.rank == 0:
                comm.Send(np.array([1.0]), 1, 5)
                dup.Send(np.array([2.0]), 1, 5)
            elif mpi.rank == 1:
                buf_dup = np.zeros(1)
                dup.Recv(buf_dup, 0, 5)  # must get the dup message
                buf = np.zeros(1)
                comm.Recv(buf, 0, 5)
                return (buf[0], buf_dup[0])

        result = run_app(app, 2)
        assert result.returns[1] == (1.0, 2.0)

    def test_dup_shares_context_across_ranks(self, run_app):
        def app(mpi):
            dup = mpi.COMM_WORLD.Dup()
            return dup.ctx

        result = run_app(app, 4)
        assert len(set(result.returns)) == 1

    def test_sequential_dups_get_distinct_contexts(self, run_app):
        def app(mpi):
            a = mpi.COMM_WORLD.Dup()
            b = mpi.COMM_WORLD.Dup()
            return (a.ctx, b.ctx)

        result = run_app(app, 2)
        assert result.returns[0] == result.returns[1]
        assert result.returns[0][0] != result.returns[0][1]


class TestCreateAndSplit:
    def test_create_subgroup(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            evens = Group(tuple(r for r in range(mpi.size) if r % 2 == 0))
            sub = comm.Create(evens)
            if mpi.rank % 2 == 0:
                assert sub is not None
                data = np.array([float(mpi.rank)])
                out = np.zeros(1)
                sub.Allreduce(data, out)
                return out[0]
            assert sub is None
            return None

        result = run_app(app, 4)
        assert result.returns == [2.0, None, 2.0, None]

    def test_create_rejects_foreign_ranks(self, run_app):
        def app(mpi):
            mpi.COMM_WORLD.Create(Group((0, 99)))

        with pytest.raises(ActorFailure):
            run_app(app, 2)

    def test_split_by_parity(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            sub = comm.Split(color=mpi.rank % 2, key=0)
            assert sub is not None
            data = np.array([1.0])
            out = np.zeros(1)
            sub.Allreduce(data, out)
            return (sub.Get_rank(), sub.Get_size(), out[0])

        result = run_app(app, 6)
        for rank, (sub_rank, sub_size, count) in enumerate(result.returns):
            assert sub_size == 3 and count == 3.0
            assert sub_rank == rank // 2

    def test_split_key_orders_ranks(self, run_app):
        def app(mpi):
            # reverse order via key
            sub = mpi.COMM_WORLD.Split(color=0, key=-mpi.rank)
            return sub.Get_rank()

        result = run_app(app, 4)
        assert result.returns == [3, 2, 1, 0]

    def test_irecv_reports_local_sources(self, run_app):
        """World ranks travel on the wire.  A receive on a communicator
        whose local ranks differ from the world's reports the local rank;
        one on an identity group (local rank = world rank) needs no
        translation and reports the same number."""
        from repro.smpi import request as rq

        def app(mpi):
            # key=-rank reverses each parity pair: local 0 is world 2 or 3
            sub = mpi.COMM_WORLD.Split(color=mpi.rank % 2, key=-mpi.rank)
            whole = mpi.COMM_WORLD.Split(color=0, key=mpi.rank)
            sources = []
            for comm in (sub, whole):
                me, size = comm.Get_rank(), comm.Get_size()
                buffers = [comm.Irecv(np.zeros(1), constants.ANY_SOURCE, 5),
                           comm.Isend(np.zeros(1), (me + 1) % size, 5)]
                objects = [comm.irecv(constants.ANY_SOURCE, 6),
                           comm.isend(me, (me + 1) % size, 6)]
                sources += [rq.waitall(buffers)[0].source,
                            rq.waitall(objects)[0].source]
            return sources, sub.group.identity, whole.group.identity

        result = run_app(app, 4)
        for rank, (sources, sub_identity, whole_identity) in \
                enumerate(result.returns):
            sub_left = rank // 2  # the other member of the reversed pair
            left = (rank - 1) % 4
            assert sources == [sub_left, sub_left, left, left]
            assert (sub_identity, whole_identity) == (False, True)

    def test_split_undefined_opts_out(self, run_app):
        def app(mpi):
            color = 0 if mpi.rank < 2 else constants.UNDEFINED
            sub = mpi.COMM_WORLD.Split(color)
            if sub is None:
                return None
            return sub.Get_size()

        result = run_app(app, 4)
        assert result.returns == [2, 2, None, None]

    def test_freed_comm_is_unusable(self, run_app):
        def app(mpi):
            dup = mpi.COMM_WORLD.Dup()
            dup.Free()
            try:
                dup.Barrier()
            except MpiError:
                return "caught"

        assert run_app(app, 2).returns == ["caught", "caught"]


class TestObjectCollectives:
    def test_bcast_object(self, run_app):
        def app(mpi):
            payload = {"data": list(range(10))} if mpi.rank == 1 else None
            return mpi.COMM_WORLD.bcast(payload, root=1)

        result = run_app(app, 4)
        assert all(r == {"data": list(range(10))} for r in result.returns)

    def test_scatter_gather_objects(self, run_app):
        def app(mpi):
            comm = mpi.COMM_WORLD
            items = [f"item-{i}" for i in range(mpi.size)] if mpi.rank == 0 else None
            mine = comm.scatter(items, root=0)
            collected = comm.gather((mpi.rank, mine), root=0)
            return collected

        result = run_app(app, 3)
        assert result.returns[0] == [(0, "item-0"), (1, "item-1"), (2, "item-2")]
        assert result.returns[1] is None

    def test_allgather_object(self, run_app):
        def app(mpi):
            return mpi.COMM_WORLD.allgather(mpi.rank * 10)

        result = run_app(app, 4)
        assert all(r == [0, 10, 20, 30] for r in result.returns)

    def test_alltoall_object(self, run_app):
        def app(mpi):
            objs = [(mpi.rank, dst) for dst in range(mpi.size)]
            return mpi.COMM_WORLD.alltoall(objs)

        result = run_app(app, 3)
        for rank, got in enumerate(result.returns):
            assert got == [(src, rank) for src in range(3)]

    def test_reduce_allreduce_objects(self, run_app):
        def app(mpi):
            total = mpi.COMM_WORLD.allreduce([mpi.rank])  # list concat via +
            root_total = mpi.COMM_WORLD.reduce(mpi.rank + 1, op=lambda a, b: a * b)
            return (total, root_total)

        result = run_app(app, 4)
        for rank, (total, root_total) in enumerate(result.returns):
            assert total == [0, 1, 2, 3]
            assert root_total == (24 if rank == 0 else None)

    def test_scatter_requires_full_list(self, run_app):
        def app(mpi):
            items = ["only-one"] if mpi.rank == 0 else None
            mpi.COMM_WORLD.scatter(items, root=0)

        with pytest.raises(ActorFailure):
            run_app(app, 3)


# ---------------------------------------------------------------------------
# the synchronous surface generated from the generator twins
# ---------------------------------------------------------------------------


def _send_to_1(comm, op):
    if comm.rank == 0:
        return op(np.arange(4.0), 1, 3)
    comm.Recv(np.zeros(4), 0, 3)


def _recv_from_0(comm, op):
    if comm.rank == 0:
        comm.Send(np.arange(4.0), 1, 3)
    else:
        return op(np.zeros(4), 0, 3, Status())


def _probe_0(comm, op):
    if comm.rank == 0:
        comm.Send(np.arange(4.0), 1, 3)
        return None
    comm.Probe(0, 3)  # the message is announced: Iprobe is deterministic
    got = op(0, 3, Status())
    comm.Recv(np.zeros(4), 0, 3)
    return got


def _send_obj_to_1(comm, op):
    if comm.rank == 0:
        return op({"a": 1}, 1, 3)
    comm.recv(0, 3)


def _recv_obj_from_0(comm, op):
    if comm.rank == 0:
        comm.send({"a": 1}, 1, 3)
    else:
        return op(0, 3)


#: one valid call of every blocking operation on two ranks; ``op`` is the
#: operation under test, the partner side uses other calls
_SCENARIOS = {
    "Ssend": _send_to_1, "Bsend": _send_to_1, "Rsend": _send_to_1,
    "Send": _send_to_1, "Recv": _recv_from_0,
    "Sendrecv": lambda c, op: op(np.arange(4.0), 1 - c.rank, 3,
                                 np.zeros(4), 1 - c.rank, 3),
    "Iprobe": _probe_0, "Probe": _probe_0,
    "send": _send_obj_to_1, "recv": _recv_obj_from_0,
    "sendrecv": lambda c, op: op({"r": c.rank}, 1 - c.rank, 3, 1 - c.rank, 3),
    "Barrier": lambda c, op: op(), "barrier": lambda c, op: op(),
    "Bcast": lambda c, op: op(np.arange(4.0), 0),
    "Scatter": lambda c, op: op(np.arange(4.0), np.zeros(2), 0),
    "Scatterv": lambda c, op: op(np.arange(4.0), [2, 2], [0, 2],
                                 np.zeros(2), 0),
    "Gather": lambda c, op: op(np.arange(2.0), np.zeros(4), 0),
    "Gatherv": lambda c, op: op(np.arange(2.0), np.zeros(4), [2, 2],
                                [0, 2], 0),
    "Allgather": lambda c, op: op(np.arange(2.0), np.zeros(4)),
    "Allgatherv": lambda c, op: op(np.arange(2.0), np.zeros(4), [2, 2],
                                   [0, 2]),
    "Reduce": lambda c, op: op(np.arange(4.0), np.zeros(4)),
    "Allreduce": lambda c, op: op(np.arange(4.0), np.zeros(4)),
    "Scan": lambda c, op: op(np.arange(4.0), np.zeros(4)),
    "Exscan": lambda c, op: op(np.arange(4.0), np.zeros(4)),
    "Reduce_scatter": lambda c, op: op(np.arange(4.0), np.zeros(2), [2, 2]),
    "Alltoall": lambda c, op: op(np.arange(4.0), np.zeros(4)),
    "Alltoallv": lambda c, op: op(np.arange(4.0), [2, 2], [0, 2],
                                  np.zeros(4), [2, 2], [0, 2]),
    "bcast": lambda c, op: op({"x": 1} if c.rank == 0 else None, 0),
    "scatter": lambda c, op: op([10, 11] if c.rank == 0 else None, 0),
    "gather": lambda c, op: op(c.rank, 0),
    "allgather": lambda c, op: op(c.rank),
    "alltoall": lambda c, op: op([10 * c.rank, 10 * c.rank + 1]),
    "reduce": lambda c, op: op(c.rank + 1),
    "allreduce": lambda c, op: op(c.rank + 1),
    "Split": lambda c, op: op(c.rank % 2),
    "Split_type": lambda c, op: op("shared"),
}


def _comparable(value):
    """Communicators from two separate splits compare by membership."""
    return value.group.ranks if isinstance(value, Communicator) else value


class TestGeneratedSurface:
    def test_return_contract_partitions_the_blocking_ops(self):
        assert set(_SCENARIOS) == _CO_OPS
        assert len(_CO_OPS) == 36 and len(_VALUE_OPS) == 12
        assert _VALUE_OPS <= _CO_OPS

    @pytest.mark.parametrize("name", sorted(_CO_OPS))
    def test_sync_name_drives_its_twin(self, name):
        sync = getattr(Communicator, name)
        twin = getattr(Communicator, "_co_" + name)
        assert sync.__doc__ == twin.__doc__
        scenario = _SCENARIOS[name]

        def app(mpi):  # a plain function: runs on a stack-capable context
            comm = mpi.COMM_WORLD
            co_op = getattr(comm.co, name)
            resolves = co_op.__func__ is twin
            sync_value = scenario(comm, getattr(comm, name))
            twin_value = scenario(comm, lambda *a: comm._run(co_op(*a)))
            return resolves, sync_value, twin_value

        for resolves, sync_value, twin_value in run(app, 2).returns:
            assert resolves
            if name in _VALUE_OPS:
                assert _comparable(sync_value) == _comparable(twin_value)
            else:
                assert sync_value is None
