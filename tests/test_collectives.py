"""Correctness of every collective, across algorithms and communicator
sizes.  Each algorithm is forced through the configuration table and its
result compared with a directly-computed reference — proving the paper's
claim that collectives decomposed into point-to-point messages still
compute the right thing on-line."""

from __future__ import annotations

import numpy as np
import pytest

from repro.smpi import MAX, SUM, SmpiConfig, smpirun
from repro.smpi import op as op_mod
from repro.smpi.coll import ALGORITHMS, binomial_tree_edges, pairwise_schedule
from repro.surf import cluster

SIZES = [1, 2, 3, 4, 5, 7, 8, 13, 16]


def run_coll(app, n_ranks, algorithm_table=None, n_elems=6):
    config = SmpiConfig(coll_algorithms=algorithm_table or {})
    platform = cluster("coll", n_ranks)
    return smpirun(app, n_ranks, platform, app_args=(n_elems,), config=config)


# ---------------------------------------------------------------- bcast


@pytest.mark.parametrize("algo", sorted(ALGORITHMS["bcast"]))
@pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast(algo, n, root):
    root_rank = 0 if root == 0 else n - 1

    def app(mpi, elems):
        buf = (
            np.arange(elems, dtype=np.float64) + 100.0
            if mpi.rank == root_rank
            else np.zeros(elems)
        )
        mpi.COMM_WORLD.Bcast(buf, root=root_rank)
        return buf.tolist()

    result = run_coll(app, n, {"bcast": algo}, n_elems=32)
    expected = (np.arange(32, dtype=np.float64) + 100.0).tolist()
    for rank_result in result.returns:
        assert rank_result == expected


def test_bcast_scatter_allgather_large_buffer():
    def app(mpi, elems):
        buf = (
            np.arange(elems, dtype=np.float64)
            if mpi.rank == 0
            else np.zeros(elems)
        )
        mpi.COMM_WORLD.Bcast(buf, root=0)
        return float(buf.sum())

    result = run_coll(app, 6, {"bcast": "scatter_allgather"}, n_elems=10_000)
    expected = float(np.arange(10_000, dtype=np.float64).sum())
    assert all(v == expected for v in result.returns)


# ---------------------------------------------------------------- barrier


@pytest.mark.parametrize("algo", sorted(ALGORITHMS["barrier"]))
@pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
def test_barrier_synchronises(algo, n):
    def app(mpi, _elems):
        mpi.sleep(0.01 * mpi.rank)  # stagger arrivals
        mpi.COMM_WORLD.Barrier()
        return mpi.wtime()

    result = run_coll(app, n, {"barrier": algo})
    latest_arrival = 0.01 * (n - 1)
    for t in result.returns:
        assert t >= latest_arrival - 1e-9  # nobody left before the last arrived


# ---------------------------------------------------------------- scatter / gather


@pytest.mark.parametrize("algo", sorted(ALGORITHMS["scatter"]))
@pytest.mark.parametrize("n", [1, 2, 4, 7, 16])
@pytest.mark.parametrize("root", [0, "mid"])
def test_scatter(algo, n, root):
    root_rank = 0 if root == 0 else n // 2

    def app(mpi, elems):
        send = (
            np.arange(mpi.size * elems, dtype=np.float64)
            if mpi.rank == root_rank
            else None
        )
        recv = np.zeros(elems)
        mpi.COMM_WORLD.Scatter(send, recv, root=root_rank)
        return recv.tolist()

    elems = 5
    result = run_coll(app, n, {"scatter": algo}, n_elems=elems)
    for rank, got in enumerate(result.returns):
        expected = np.arange(rank * elems, (rank + 1) * elems, dtype=float)
        assert got == expected.tolist()


@pytest.mark.parametrize("algo", sorted(ALGORITHMS["gather"]))
@pytest.mark.parametrize("n", [1, 2, 4, 7, 16])
@pytest.mark.parametrize("root", [0, "mid"])
def test_gather(algo, n, root):
    root_rank = 0 if root == 0 else n // 2

    def app(mpi, elems):
        send = np.full(elems, float(mpi.rank))
        recv = np.zeros(mpi.size * elems) if mpi.rank == root_rank else None
        mpi.COMM_WORLD.Gather(send, recv, root=root_rank)
        return None if recv is None else recv.tolist()

    elems = 3
    result = run_coll(app, n, {"gather": algo}, n_elems=elems)
    got = result.returns[root_rank]
    expected = np.repeat(np.arange(n, dtype=float), elems).tolist()
    assert got == expected


def test_scatterv_gatherv_uneven():
    def app(mpi, _elems):
        comm = mpi.COMM_WORLD
        size = mpi.size
        counts = [i + 1 for i in range(size)]
        displs = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(int).tolist()
        total = sum(counts)
        send = np.arange(total, dtype=np.float64) if mpi.rank == 0 else None
        recv = np.zeros(counts[mpi.rank])
        comm.Scatterv(send, counts, displs, recv, root=0)

        back = np.zeros(total) if mpi.rank == 0 else None
        comm.Gatherv(recv, back, counts, displs, root=0)
        if mpi.rank == 0:
            return back.tolist()
        return recv.tolist()

    result = run_coll(app, 5)
    assert result.returns[0] == np.arange(15, dtype=float).tolist()
    assert result.returns[2] == [3.0, 4.0, 5.0]


# ---------------------------------------------------------------- allgather


@pytest.mark.parametrize("algo", sorted(ALGORITHMS["allgather"]))
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_allgather(algo, n):
    if algo == "recursive_doubling" and n & (n - 1):
        pytest.skip("recursive doubling needs a power of two")

    def app(mpi, elems):
        send = np.full(elems, float(mpi.rank))
        recv = np.zeros(mpi.size * elems)
        mpi.COMM_WORLD.Allgather(send, recv)
        return recv.tolist()

    elems = 4
    result = run_coll(app, n, {"allgather": algo}, n_elems=elems)
    expected = np.repeat(np.arange(n, dtype=float), elems).tolist()
    for got in result.returns:
        assert got == expected


def test_allgather_bruck_odd_size():
    def app(mpi, elems):
        send = np.full(elems, float(mpi.rank))
        recv = np.zeros(mpi.size * elems)
        mpi.COMM_WORLD.Allgather(send, recv)
        return recv.tolist()

    result = run_coll(app, 7, {"allgather": "bruck"}, n_elems=2)
    expected = np.repeat(np.arange(7, dtype=float), 2).tolist()
    assert all(got == expected for got in result.returns)


def test_allgatherv():
    def app(mpi, _elems):
        comm = mpi.COMM_WORLD
        counts = [i + 1 for i in range(mpi.size)]
        displs = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(int).tolist()
        send = np.full(counts[mpi.rank], float(mpi.rank))
        recv = np.zeros(sum(counts))
        comm.Allgatherv(send, recv, counts, displs)
        return recv.tolist()

    result = run_coll(app, 4)
    expected = [0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]
    assert all(got == expected for got in result.returns)


# ---------------------------------------------------------------- reductions


@pytest.mark.parametrize("algo", sorted(ALGORITHMS["reduce"]))
@pytest.mark.parametrize("n", [1, 2, 4, 7, 16])
def test_reduce_sum(algo, n):
    def app(mpi, elems):
        send = np.arange(elems, dtype=np.float64) * (mpi.rank + 1)
        recv = np.zeros(elems) if mpi.rank == 0 else None
        mpi.COMM_WORLD.Reduce(send, recv, op=SUM, root=0)
        return None if recv is None else recv.tolist()

    elems = 4
    result = run_coll(app, n, {"reduce": algo}, n_elems=elems)
    factor = n * (n + 1) / 2
    expected = (np.arange(elems, dtype=float) * factor).tolist()
    assert result.returns[0] == pytest.approx(expected)


def test_reduce_max_nonzero_root():
    def app(mpi, elems):
        send = np.full(elems, float(mpi.rank))
        recv = np.zeros(elems) if mpi.rank == 2 else None
        mpi.COMM_WORLD.Reduce(send, recv, op=MAX, root=2)
        return None if recv is None else recv.tolist()

    result = run_coll(app, 5, n_elems=3)
    assert result.returns[2] == [4.0, 4.0, 4.0]


def _matmul_op():
    """2x2 matrix product on flattened buffers: associative (as MPI
    requires) but NOT commutative — rank order must be preserved."""

    def fold(a, b):
        return (np.asarray(a).reshape(2, 2) @ np.asarray(b).reshape(2, 2)).reshape(-1)

    return op_mod.create(fold, commute=False, name="matmul")


def _rank_matrix(rank):
    return np.array([[1.0, rank + 1.0], [0.0, 1.0]])


def test_reduce_noncommutative_preserves_order():
    fold = _matmul_op()

    def app(mpi, _elems):
        send = _rank_matrix(mpi.rank).reshape(-1)
        recv = np.zeros(4) if mpi.rank == 0 else None
        mpi.COMM_WORLD.Reduce(send, recv, op=fold, root=0)
        return None if recv is None else recv.tolist()

    n = 5
    result = run_coll(app, n)
    expected = np.eye(2)
    for rank in range(n):
        expected = expected @ _rank_matrix(rank)
    assert result.returns[0] == pytest.approx(expected.reshape(-1).tolist())


@pytest.mark.parametrize("algo", sorted(ALGORITHMS["allreduce"]))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 13])
def test_allreduce(algo, n):
    def app(mpi, elems):
        send = np.full(elems, float(mpi.rank + 1))
        recv = np.zeros(elems)
        mpi.COMM_WORLD.Allreduce(send, recv, op=SUM)
        return recv.tolist()

    elems = 3
    result = run_coll(app, n, {"allreduce": algo}, n_elems=elems)
    expected = [n * (n + 1) / 2] * elems
    for got in result.returns:
        assert got == pytest.approx(expected)


def test_allreduce_noncommutative_falls_back():
    fold = _matmul_op()

    def app(mpi, _elems):
        send = _rank_matrix(mpi.rank).reshape(-1)
        recv = np.zeros(4)
        mpi.COMM_WORLD.Allreduce(send, recv, op=fold)
        return recv.tolist()

    n = 4
    result = run_coll(app, n)
    expected = np.eye(2)
    for rank in range(n):
        expected = expected @ _rank_matrix(rank)
    for got in result.returns:
        assert got == pytest.approx(expected.reshape(-1).tolist())


@pytest.mark.parametrize("n", [1, 2, 4, 5, 8])
def test_scan(n):
    def app(mpi, elems):
        send = np.full(elems, float(mpi.rank + 1))
        recv = np.zeros(elems)
        mpi.COMM_WORLD.Scan(send, recv, op=SUM)
        return recv.tolist()

    result = run_coll(app, n, n_elems=2)
    for rank, got in enumerate(result.returns):
        expected = sum(range(1, rank + 2))
        assert got == [expected, expected]


def test_scan_noncommutative():
    fold = _matmul_op()

    def app(mpi, _elems):
        send = _rank_matrix(mpi.rank).reshape(-1)
        recv = np.zeros(4)
        mpi.COMM_WORLD.Scan(send, recv, op=fold)
        return recv.tolist()

    n = 4
    result = run_coll(app, n)
    prefix = np.eye(2)
    for rank in range(n):
        prefix = prefix @ _rank_matrix(rank)
        assert result.returns[rank] == pytest.approx(prefix.reshape(-1).tolist())


@pytest.mark.parametrize("n", [2, 4, 5, 8])
def test_exscan(n):
    def app(mpi, elems):
        send = np.full(elems, float(mpi.rank + 1))
        recv = np.full(elems, -1.0)
        mpi.COMM_WORLD.Exscan(send, recv, op=SUM)
        return recv.tolist()

    result = run_coll(app, n, n_elems=1)
    assert result.returns[0] == [-1.0]  # rank 0 untouched
    for rank in range(1, n):
        assert result.returns[rank] == [sum(range(1, rank + 1))]


@pytest.mark.parametrize("algo", sorted(ALGORITHMS["reduce_scatter"]))
@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_reduce_scatter(algo, n):
    def app(mpi, elems):
        counts = [elems] * mpi.size
        send = np.tile(np.arange(mpi.size * elems, dtype=np.float64), 1)
        recv = np.zeros(elems)
        mpi.COMM_WORLD.Reduce_scatter(send, recv, counts, op=SUM)
        return recv.tolist()

    elems = 2
    result = run_coll(app, n, {"reduce_scatter": algo}, n_elems=elems)
    for rank, got in enumerate(result.returns):
        base = np.arange(n * elems, dtype=float)[rank * elems : (rank + 1) * elems]
        assert got == pytest.approx((base * n).tolist())


# ---------------------------------------------------------------- alltoall


@pytest.mark.parametrize("algo", sorted(ALGORITHMS["alltoall"]))
@pytest.mark.parametrize("n", [1, 2, 4, 5, 8, 16])
def test_alltoall(algo, n):
    def app(mpi, elems):
        size = mpi.size
        send = np.arange(size * elems, dtype=np.float64) + 1000.0 * mpi.rank
        recv = np.zeros(size * elems)
        mpi.COMM_WORLD.Alltoall(send, recv)
        return recv.tolist()

    elems = 3
    result = run_coll(app, n, {"alltoall": algo}, n_elems=elems)
    for rank, got in enumerate(result.returns):
        for peer in range(n):
            block = got[peer * elems : (peer + 1) * elems]
            expected = (
                np.arange(rank * elems, (rank + 1) * elems, dtype=float)
                + 1000.0 * peer
            )
            assert block == expected.tolist(), (rank, peer)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS["alltoallv"]))
def test_alltoallv_uneven(algo):
    def app(mpi, _elems):
        comm = mpi.COMM_WORLD
        size = mpi.size
        # rank r sends r+1 elements to every peer
        sendcounts = [mpi.rank + 1] * size
        sdispls = [i * (mpi.rank + 1) for i in range(size)]
        send = np.arange(size * (mpi.rank + 1), dtype=np.float64) + 100.0 * mpi.rank
        recvcounts = [p + 1 for p in range(size)]
        rdispls = np.concatenate([[0], np.cumsum(recvcounts)[:-1]]).astype(int).tolist()
        recv = np.zeros(sum(recvcounts))
        comm.Alltoallv(send, sendcounts, sdispls, recv, recvcounts, rdispls)
        return recv.tolist()

    n = 4
    result = run_coll(app, n, {"alltoallv": algo})
    for rank, got in enumerate(result.returns):
        offset = 0
        for peer in range(n):
            count = peer + 1
            expected = (
                np.arange(rank * count, (rank + 1) * count, dtype=float)
                + 100.0 * peer
            )
            assert got[offset : offset + count] == expected.tolist()
            offset += count


def test_alltoallv_pairwise_skips_zero_counts():
    """The pairwise schedule must stay matched when some counts are 0."""

    def app(mpi, _elems):
        comm = mpi.COMM_WORLD
        size = mpi.size
        # rank r sends only to peers with the opposite parity
        sendcounts = [2 if (mpi.rank + p) % 2 else 0 for p in range(size)]
        sdispls = np.concatenate([[0], np.cumsum(sendcounts)[:-1]]).astype(int).tolist()
        send = np.full(sum(sendcounts), float(mpi.rank))
        recvcounts = [2 if (mpi.rank + p) % 2 else 0 for p in range(size)]
        rdispls = np.concatenate([[0], np.cumsum(recvcounts)[:-1]]).astype(int).tolist()
        recv = np.full(sum(recvcounts), -1.0)
        comm.Alltoallv(send, sendcounts, sdispls, recv, recvcounts, rdispls)
        return recv.tolist()

    n = 4
    result = run_coll(app, n, {"alltoallv": "pairwise"})
    for rank, got in enumerate(result.returns):
        expected = []
        for peer in range(n):
            if (rank + peer) % 2:
                expected.extend([float(peer)] * 2)
        assert got == expected, rank


# ---------------------------------------------------------------- rendezvous

#: the root of the rooted collectives below (not 0, to move the tree)
_ROOT = 1


def _data(rank, n):
    return np.arange(n, dtype=np.float64) + 100.0 * rank


def _alltoallv_counts(rank, size):
    """Rank q sends q+1 elements to every peer."""
    sendcounts = [rank + 1] * size
    recvcounts = [p + 1 for p in range(size)]
    return (sendcounts, [i * (rank + 1) for i in range(size)],
            recvcounts, np.cumsum([0] + recvcounts[:-1]).tolist())


def _run_collective(comm, collective, rank, size, elems):
    mine = _data(rank, elems)
    if collective == "barrier":
        comm.Barrier()
        return rank
    if collective == "bcast":
        buf = mine if rank == _ROOT else np.zeros(elems)
        comm.Bcast(buf, root=_ROOT)
        return buf
    if collective == "scatter":
        send = np.concatenate([_data(r, elems) for r in range(size)])
        recv = np.zeros(elems)
        comm.Scatter(send if rank == _ROOT else None, recv, root=_ROOT)
        return recv
    if collective in ("gather", "reduce"):
        recv = np.zeros(size * elems if collective == "gather" else elems)
        if collective == "gather":
            comm.Gather(mine, recv if rank == _ROOT else None, root=_ROOT)
        else:
            comm.Reduce(mine, recv if rank == _ROOT else None, op=SUM,
                        root=_ROOT)
        return recv if rank == _ROOT else None
    if collective == "allgather":
        recv = np.zeros(size * elems)
        comm.Allgather(mine, recv)
        return recv
    if collective == "allreduce":
        recv = np.zeros(elems)
        comm.Allreduce(mine, recv, op=SUM)
        return recv
    if collective == "reduce_scatter":
        recv = np.zeros(elems)
        comm.Reduce_scatter(_data(rank, size * elems), recv, [elems] * size,
                            op=SUM)
        return recv
    if collective == "alltoall":
        recv = np.zeros(size * elems)
        comm.Alltoall(_data(rank, size * elems), recv)
        return recv
    assert collective == "alltoallv"
    scounts, sdispls, rcounts, rdispls = _alltoallv_counts(rank, size)
    recv = np.zeros(sum(rcounts))
    comm.Alltoallv(_data(rank, size * (rank + 1)), scounts, sdispls,
                   recv, rcounts, rdispls)
    return recv


def _reference(collective, rank, size, elems):
    """What ``_run_collective`` returns on ``rank``, computed directly."""
    everyone = [_data(r, elems) for r in range(size)]
    if collective == "barrier":
        return rank
    if collective == "bcast":
        return everyone[_ROOT]
    if collective == "scatter":
        return everyone[rank]
    if collective in ("gather", "reduce"):
        if rank != _ROOT:
            return None
        if collective == "gather":
            return np.concatenate(everyone)
        return np.sum(everyone, axis=0)
    if collective == "allgather":
        return np.concatenate(everyone)
    if collective == "allreduce":
        return np.sum(everyone, axis=0)
    block = slice(rank * elems, (rank + 1) * elems)
    if collective == "reduce_scatter":
        return np.sum([_data(q, size * elems)[block] for q in range(size)],
                      axis=0)
    if collective == "alltoall":
        return np.concatenate([_data(q, size * elems)[block]
                               for q in range(size)])
    return np.concatenate([
        _data(q, size * (q + 1))[rank * (q + 1):(rank + 1) * (q + 1)]
        for q in range(size)])


@pytest.mark.parametrize("collective, algo", [
    (collective, algo)
    for collective in sorted(ALGORITHMS)
    for algo in sorted(ALGORITHMS[collective])
])
@pytest.mark.parametrize("n", [4, 7])
def test_every_algorithm_at_rendezvous_sizes(collective, algo, n):
    """With ``eager_threshold=0`` every message is rendezvous, so each
    send borrows its buffer until delivery instead of snapshotting it."""
    if (collective, algo) == ("allgather", "recursive_doubling") and n & (n - 1):
        pytest.skip("recursive doubling needs a power of two")
    elems = 10

    def app(mpi):
        return _run_collective(mpi.COMM_WORLD, collective, mpi.rank,
                               mpi.size, elems)

    config = SmpiConfig(eager_threshold=0, coll_algorithms={collective: algo})
    result = smpirun(app, n, cluster("rdv", n), config=config)
    for rank, got in enumerate(result.returns):
        expected = _reference(collective, rank, n, elems)
        if expected is None or collective == "barrier":
            assert got == expected
        else:
            assert np.array_equal(got, expected), rank


# ---------------------------------------------------------------- schedules


class TestSchedules:
    def test_binomial_tree_matches_paper_figure6(self):
        """Fig. 6: with 16 processes, root 0 sends 8 chunks to 8, 4 to 4,
        2 to 2, 1 to 1; process 8 sends 4 chunks to 12, etc."""
        edges = binomial_tree_edges(16)
        as_set = set(edges)
        for expected in [(0, 8, 8), (0, 4, 4), (0, 2, 2), (0, 1, 1),
                         (8, 12, 4), (8, 10, 2), (8, 9, 1),
                         (4, 6, 2), (4, 5, 1), (12, 14, 2), (12, 13, 1),
                         (2, 3, 1), (6, 7, 1), (10, 11, 1), (14, 15, 1)]:
            assert expected in as_set
        assert len(edges) == 15  # spanning tree of 16 nodes

    def test_binomial_tree_chunk_conservation(self):
        """Conservation: what a node receives = its own chunk + everything
        it forwards; the root injects all ``size`` chunks."""
        for size in (2, 3, 5, 8, 16, 21, 43):
            edges = binomial_tree_edges(size)
            assert len(edges) == size - 1  # spanning tree
            received = {dst: chunks for _src, dst, chunks in edges}
            sent: dict[int, int] = {}
            for src, _dst, chunks in edges:
                sent[src] = sent.get(src, 0) + chunks
            assert sent.get(0, 0) == size - 1  # root distributes all but its own
            for node in range(1, size):
                assert received[node] == 1 + sent.get(node, 0), (size, node)

    def test_pairwise_schedule_is_permutation_each_step(self):
        """Fig. 10: at every step the sends form a permutation of ranks."""
        for size in (2, 4, 7, 16):
            steps = pairwise_schedule(size)
            assert len(steps) == size
            for step in steps:
                senders = [s for s, _ in step]
                receivers = [r for _, r in step]
                assert sorted(senders) == list(range(size))
                assert sorted(receivers) == list(range(size))

    def test_unknown_algorithm_raises(self):
        from repro.errors import ConfigError

        def app(mpi, _elems):
            mpi.COMM_WORLD.Barrier()

        with pytest.raises(ActorOrConfigError):
            run_coll(app, 2, {"barrier": "telepathy"})


from repro.errors import ActorFailure, ConfigError  # noqa: E402

ActorOrConfigError = (ActorFailure, ConfigError)


class TestErrorsInsideCollectives:
    """A collective's rounds build no status, but a failed message still
    raises in the rank that waits on it."""

    RING = {"allreduce": "ring"}

    def test_truncation_raises(self):
        from repro.errors import MpiError
        from repro.smpi.constants import ERR_TRUNCATE

        def app(mpi, _elems):
            # rank 0's blocks hold 4 elements, rank 1's hold 2: rank 1's
            # first receive overflows
            n = 8 if mpi.rank == 0 else 4
            mpi.COMM_WORLD.Allreduce(np.ones(n), np.zeros(n))

        with pytest.raises(ActorFailure) as info:
            run_coll(app, 2, self.RING)
        cause = info.value.__cause__
        assert isinstance(cause, MpiError) and cause.code == ERR_TRUNCATE

    def test_dead_peer_raises(self):
        from repro.errors import MpiError
        from repro.smpi.constants import ERR_PROC_FAILED
        from repro.surf import Engine

        platform = cluster("coll-dead", 2)
        engine = Engine(platform)
        engine.at(1e-3, lambda: engine.fail_resource(platform.host("node-1")))

        def app(mpi):
            if mpi.rank == 1:
                mpi.execute(1e12)  # dies at t=1e-3, inside the compute
                return "unreachable"
            try:  # its receive from rank 1 is posted before the failure
                mpi.COMM_WORLD.Allreduce(np.ones(4), np.zeros(4))
            except MpiError as exc:
                return exc.code
            return "reduced?"

        config = SmpiConfig(coll_algorithms=self.RING,
                            on_host_down="kill-rank")
        result = smpirun(app, 2, platform, engine=engine, config=config)
        assert result.returns == [ERR_PROC_FAILED, None]
