"""Property-based fuzzing of whole simulations.

These tests generate random applications (message patterns, collective
sequences, buffer sizes) and assert semantic invariants that must hold
for *any* program: on-line results equal a direct computation, simulated
clocks never run backwards, both kernels deliver identical data, traces
replay exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.packetsim import PacketEngine
from repro.smpi import SUM, SmpiConfig, smpirun
from repro.surf import cluster
from tests.oracles import oracle_engine

_FUZZ = settings(max_examples=20, deadline=None)


# -- random pt2pt exchanges -----------------------------------------------------------------

exchange = st.tuples(
    st.integers(0, 3),  # src
    st.integers(0, 3),  # dst
    st.integers(1, 5000),  # bytes
    st.integers(0, 3),  # tag
)


@given(st.lists(exchange, min_size=1, max_size=12), st.integers(0, 1000))
@_FUZZ
def test_random_message_pattern_delivers_exact_payloads(pattern, seed):
    """Any (deadlock-free) pattern delivers every payload bit-exactly.

    The pattern is made deadlock-free by construction: receivers post
    nonblocking receives first, then all sends, then everyone waits.
    """
    pattern = [(s, d, n, t) for (s, d, n, t) in pattern if s != d]
    if not pattern:
        return
    rng = np.random.default_rng(seed)
    payloads = [
        rng.integers(0, 256, n).astype(np.uint8) for (_s, _d, n, _t) in pattern
    ]

    def app(mpi):
        from repro.smpi import request as rq

        comm = mpi.COMM_WORLD
        recvs = []
        bufs = []
        for index, (src, dst, nbytes, tag) in enumerate(pattern):
            if mpi.rank == dst:
                buf = np.zeros(nbytes, dtype=np.uint8)
                # tag disambiguated by index so duplicates stay ordered
                recvs.append(comm.Irecv(buf, src, tag * 100 + index))
                bufs.append((index, buf))
        sends = []
        for index, (src, dst, nbytes, tag) in enumerate(pattern):
            if mpi.rank == src:
                sends.append(
                    comm.Isend(payloads[index], dst, tag * 100 + index)
                )
        rq.waitall(recvs + sends)
        return {i: buf.tobytes() for i, buf in bufs}

    result = smpirun(app, 4, cluster("fz", 4))
    for index, (_src, dst, _n, _tag) in enumerate(pattern):
        got = result.returns[dst][index]
        assert got == payloads[index].tobytes()


@given(st.lists(exchange, min_size=1, max_size=8), st.integers(0, 100))
@_FUZZ
def test_both_kernels_deliver_identical_data(pattern, seed):
    """Flow and packet kernels must agree on *data*, whatever the timing."""
    pattern = [(s, d, n, t) for (s, d, n, t) in pattern if s != d]
    if not pattern:
        return
    rng = np.random.default_rng(seed)
    payloads = [
        rng.integers(0, 256, n).astype(np.uint8) for (_s, _d, n, _t) in pattern
    ]

    def app(mpi):
        from repro.smpi import request as rq

        comm = mpi.COMM_WORLD
        recvs, bufs, sends = [], [], []
        for index, (src, dst, nbytes, tag) in enumerate(pattern):
            if mpi.rank == dst:
                buf = np.zeros(nbytes, dtype=np.uint8)
                recvs.append(comm.Irecv(buf, src, index))
                bufs.append(buf)
        for index, (src, dst, nbytes, tag) in enumerate(pattern):
            if mpi.rank == src:
                sends.append(comm.Isend(payloads[index], dst, index))
        rq.waitall(recvs + sends)
        return b"".join(buf.tobytes() for buf in bufs)

    flow = smpirun(app, 4, cluster("fk", 4))
    packet_platform = cluster("pk", 4)
    packet = smpirun(app, 4, packet_platform,
                     engine=PacketEngine(packet_platform))
    assert flow.returns == packet.returns


# -- random collective sequences ----------------------------------------------------------------

collective_step = st.sampled_from(["allreduce", "bcast", "gather", "alltoall",
                                   "barrier", "scan"])


@given(
    st.lists(collective_step, min_size=1, max_size=5),
    st.integers(2, 6),
    st.integers(1, 40),
)
@_FUZZ
def test_random_collective_sequences_compute_correctly(steps, n_ranks, elems):
    """Any sequence of collectives yields the directly-computed values."""

    def app(mpi):
        comm = mpi.COMM_WORLD
        value = np.arange(elems, dtype=np.float64) + mpi.rank
        checks = []
        for step_no, step in enumerate(steps):
            if step == "allreduce":
                out = np.zeros(elems)
                comm.Allreduce(value, out, op=SUM)
                expected = (
                    np.arange(elems) * mpi.size + sum(range(mpi.size))
                )
                checks.append(np.allclose(out, expected))
            elif step == "bcast":
                buf = value.copy() if mpi.rank == step_no % mpi.size else np.zeros(elems)
                comm.Bcast(buf, root=step_no % mpi.size)
                expected = np.arange(elems) + step_no % mpi.size
                checks.append(np.allclose(buf, expected))
            elif step == "gather":
                recv = np.zeros(mpi.size * elems) if mpi.rank == 0 else None
                comm.Gather(value, recv, root=0)
                if mpi.rank == 0:
                    expected = np.concatenate(
                        [np.arange(elems) + r for r in range(mpi.size)]
                    )
                    checks.append(np.allclose(recv, expected))
            elif step == "alltoall":
                send = np.tile(value, mpi.size)
                recv = np.zeros(mpi.size * elems)
                comm.Alltoall(send, recv)
                expected = np.concatenate(
                    [np.arange(elems) + r for r in range(mpi.size)]
                )
                checks.append(np.allclose(recv, expected))
            elif step == "barrier":
                comm.Barrier()
                checks.append(True)
            elif step == "scan":
                out = np.zeros(elems)
                comm.Scan(value, out, op=SUM)
                expected = (
                    np.arange(elems) * (mpi.rank + 1) + sum(range(mpi.rank + 1))
                )
                checks.append(np.allclose(out, expected))
        return all(checks)

    result = smpirun(app, n_ranks, cluster("fc", n_ranks))
    assert all(result.returns)


# -- timing invariants ----------------------------------------------------------------------------


@given(st.integers(2, 6), st.integers(100, 200_000), st.integers(0, 3))
@_FUZZ
def test_clock_monotone_and_deterministic(n_ranks, nbytes, tag):
    """The same program simulates to the same clock, twice."""

    def app(mpi):
        comm = mpi.COMM_WORLD
        times = [mpi.wtime()]
        comm.Barrier()
        times.append(mpi.wtime())
        if mpi.rank == 0:
            comm.Send(np.zeros(nbytes, dtype=np.uint8), 1, tag)
        elif mpi.rank == 1:
            comm.Recv(np.zeros(nbytes, dtype=np.uint8), 0, tag)
        times.append(mpi.wtime())
        assert times == sorted(times), "clock ran backwards"
        return times[-1]

    a = smpirun(app, n_ranks, cluster("dt1", n_ranks))
    b = smpirun(app, n_ranks, cluster("dt2", n_ranks))
    assert a.returns == b.returns
    assert a.simulated_time == b.simulated_time


@given(st.integers(1, 6), st.floats(1e6, 1e9))
@_FUZZ
def test_compute_time_scales_with_flops(n_ranks, flops):
    def app(mpi):
        mpi.execute(flops)
        return mpi.wtime()

    result = smpirun(app, n_ranks, cluster("ct", n_ranks))
    for t in result.returns:
        assert t == pytest.approx(flops / 1e9)  # 1 Gf hosts


@given(st.lists(st.integers(1, 100_000), min_size=1, max_size=6))
@_FUZZ
def test_offline_replay_matches_online_for_random_chains(sizes):
    """Record/replay equivalence holds for arbitrary send chains."""
    from repro.offline import record_trace, replay_trace

    def app(mpi):
        comm = mpi.COMM_WORLD
        for index, nbytes in enumerate(sizes):
            if mpi.rank == index % 2:
                comm.Send(np.zeros(nbytes, dtype=np.uint8), 1 - mpi.rank, index)
            else:
                comm.Recv(np.zeros(nbytes, dtype=np.uint8), 1 - mpi.rank, index)

    online, trace = record_trace(app, 2, cluster("or1", 2))
    replayed = replay_trace(trace, cluster("or2", 2))
    assert replayed.simulated_time == pytest.approx(
        online.simulated_time, rel=1e-12
    )


# -- incremental vs full re-sharing ---------------------------------------------------


@given(st.lists(exchange, min_size=1, max_size=10), st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_incremental_sharing_is_invisible(pattern, seed):
    """For any message pattern, the incremental dirty-set kernel and the
    full re-share kernel produce bit-identical simulated times."""
    pattern = [(s, d, n, t) for (s, d, n, t) in pattern if s != d]
    if not pattern:
        return

    def app(mpi):
        from repro.smpi import request as rq

        comm = mpi.COMM_WORLD
        reqs = []
        for index, (src, dst, nbytes, tag) in enumerate(pattern):
            if mpi.rank == dst:
                buf = np.zeros(nbytes, dtype=np.uint8)
                reqs.append(comm.Irecv(buf, src, tag * 100 + index))
        for index, (src, dst, nbytes, tag) in enumerate(pattern):
            if mpi.rank == src:
                payload = np.full(nbytes, index % 251, dtype=np.uint8)
                reqs.append(comm.Isend(payload, dst, tag * 100 + index))
        rq.waitall(reqs)
        if seed % 2:
            mpi.execute(1e6 * (mpi.rank + 1))
        return mpi.wtime()

    times = {}
    for full in (False, True):
        platform = cluster("inv", 4, split_duplex=bool(seed % 3))
        engine = oracle_engine(platform, full=full)
        result = smpirun(app, 4, platform, engine=engine)
        times[full] = (result.simulated_time, tuple(result.returns))
    assert times[False] == times[True]
