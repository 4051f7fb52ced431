"""End-to-end equivalence of the indexed matcher and the scan oracle.

The indexed match queues and the linear-scan oracle of tests/oracles.py
must be *bit-identical*: same per-rank receive transcripts, same
simulated clocks, on coroutines and on the thread oracle, faults
included.  These tests fuzz whole simulations over random wildcard/exact
receive mixes.

The receive mixes are deadlock-free **by layered construction**: every
rank posts its exact receives first, then single-wildcard receives of
one kind per test case (all ``(src, ANY_TAG)`` or all ``(ANY_SOURCE,
tag)`` — mixing the two kinds can cross-steal), then ``(ANY_SOURCE,
ANY_TAG)`` receives.  Because messages from one source arrive in order
and an older-posted exact receive always wins while it is available,
every matching order completes — whichever queue implementation
resolves it.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.smpi import SmpiConfig, Status, smpirun
from repro.smpi.constants import ANY_SOURCE, ANY_TAG, ERR_PROC_FAILED
from repro.surf import Engine, cluster
from tests.oracles import matching, thread_contexts

_FUZZ = settings(max_examples=15, deadline=None)

N_RANKS = 4

# one send: (src 1..3, tag 0..2, nbytes, claim class)
send_spec = st.tuples(
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(1, 2000),
    st.sampled_from(["exact", "wild", "any"]),
)


def _recv_layers(sends, wild_kind):
    """The layered receive plan for rank 0 (see module docstring).

    Returns ``[(source, tag, nbytes), ...]`` in posting order: exact
    receives first, then the single-wildcard layer, then ANY/ANY.
    """
    exact, wild, anyany = [], [], []
    for src, tag, nbytes, claim in sends:
        if claim == "exact":
            exact.append((src, tag, nbytes))
        elif claim == "wild":
            if wild_kind == "src":
                wild.append((src, ANY_TAG, nbytes))
            else:
                wild.append((ANY_SOURCE, tag, nbytes))
        else:
            anyany.append((ANY_SOURCE, ANY_TAG, nbytes))
    return exact + wild + anyany


def _matching_app(sends, wild_kind):
    """Rank 0 posts the layered receive plan; ranks 1..3 send in order.

    Each payload is filled with the send's index, so the per-slot
    transcript identifies exactly which message matched which receive.
    The ranks are generators, so they run on coroutines.
    """
    plan = _recv_layers(sends, wild_kind)

    def app(mpi):
        from repro.smpi import request as rq

        comm = mpi.COMM_WORLD
        if mpi.rank == 0:
            recvs, bufs = [], []
            for source, tag, nbytes in plan:
                # receive buffers sized for the largest send: wildcards
                # may legally match any message of the claim class
                buf = np.zeros(2000, dtype=np.uint8)
                recvs.append(comm.Irecv(buf, source, tag))
                bufs.append(buf)
            statuses = yield from rq.co_waitall(recvs)
            return [
                (int(buf[0]), s.source, s.tag, s.count_bytes)
                for buf, s in zip(bufs, statuses)
            ]
        sends_here = []
        for index, (src, tag, nbytes, _claim) in enumerate(sends):
            if mpi.rank == src:
                payload = np.full(nbytes, index % 251, dtype=np.uint8)
                sends_here.append(comm.Isend(payload, 0, tag))
        yield from rq.co_waitall(sends_here)
        return (yield from mpi.co.wtime())

    return app


def _run(app, mode, oracle=False):
    with matching(mode), thread_contexts() if oracle else nullcontext():
        result = smpirun(app, N_RANKS, cluster("fm", N_RANKS))
    return result.returns, result.simulated_time


@given(st.lists(send_spec, min_size=1, max_size=14),
       st.sampled_from(["src", "tag"]))
@_FUZZ
def test_index_and_scan_are_bit_identical(sends, wild_kind):
    """Random exact/wildcard mixes: transcripts AND clocks must agree."""
    app = _matching_app(sends, wild_kind)
    assert _run(app, "index") == _run(app, "scan")


@given(st.lists(send_spec, min_size=1, max_size=10),
       st.sampled_from(["src", "tag"]))
@settings(max_examples=8, deadline=None)
def test_backends_agree_under_the_index(sends, wild_kind):
    """Coroutines and the thread oracle resolve matches identically."""
    app = _matching_app(sends, wild_kind)
    base = _run(app, "index")
    assert _run(app, "index", oracle=True) == base
    assert _run(app, "scan", oracle=True) == base


def test_duplicate_envelopes_stay_ordered():
    """Many identical (src, tag) envelopes: FIFO per envelope, both modes."""
    sends = [(1, 0, 64, "exact")] * 6 + [(1, 0, 64, "wild")] * 4
    app = _matching_app(sends, "src")
    index, scan = _run(app, "index"), _run(app, "scan")
    assert index == scan
    transcript = index[0][0]
    assert sorted(t[0] for t in transcript) == list(range(10))


@pytest.mark.parametrize("mode", ["index", "scan"])
def test_repeat_runs_are_deterministic_with_pooling(mode):
    """Recycled requests draw fresh ids, so repeats are byte-identical."""
    sends = [(s, t, 512, c)
             for s in (1, 2, 3) for t in (0, 1)
             for c in ("exact", "any")]
    app = _matching_app(sends, "src")
    assert _run(app, mode) == _run(app, mode)


@pytest.mark.parametrize("mode", ["index", "scan"])
def test_fail_peer_sweeps_only_the_dead_source(mode):
    """kill-rank faults resolve identically through both matchers."""

    def app(mpi):
        comm = mpi.COMM_WORLD
        if mpi.rank == 0:
            # one pending receive per peer; node-1's rank dies mid-run
            buf = np.zeros(8, dtype=np.uint8)
            comm.Recv(buf, 2, 0)
            try:
                comm.Recv(buf, 1, 0)
            except Exception as exc:  # MpiError(ERR_PROC_FAILED)
                return getattr(exc, "code", None)
            return "delivered"
        if mpi.rank == 1:
            mpi.sleep(1.0)  # killed long before this send happens
            comm.Send(np.zeros(8, dtype=np.uint8), 0, 0)
        if mpi.rank == 2:
            comm.Send(np.zeros(8, dtype=np.uint8), 0, 0)

    platform = cluster("fp", N_RANKS)
    engine = Engine(platform)
    engine.at(1e-3, lambda: engine.fail_resource(platform.host("node-1")))
    with matching(mode):
        result = smpirun(
            app, N_RANKS, platform, engine=engine,
            config=SmpiConfig(on_host_down="kill-rank"),
        )
    assert result.returns[0] == ERR_PROC_FAILED
    assert result.returns[1] is None  # killed, not returned


@pytest.mark.parametrize("mode", ["index", "scan"])
def test_iprobe_sees_the_unexpected_queue(mode):
    """Iprobe answers through the same index the matcher uses."""

    def app(mpi):
        comm = mpi.COMM_WORLD
        if mpi.rank == 0:
            status = Status()
            while not comm.Iprobe(ANY_SOURCE, ANY_TAG, status):
                pass
            probed = (status.source, status.tag, status.count_bytes)
            buf = np.zeros(status.count_bytes, dtype=np.uint8)
            comm.Recv(buf, status.source, status.tag)
            return probed, int(buf[0])
        if mpi.rank == 1:
            comm.Send(np.full(32, 7, dtype=np.uint8), 0, 5)

    with matching(mode):
        result = smpirun(app, 2, cluster("ip", 2))
    assert result.returns[0] == ((1, 5, 32), 7)


def test_match_counters_land_in_engine_stats():
    """The deterministic counters are always on and index beats scan."""
    sends = [(src, 0, 128, "exact") for src in (1, 2, 3)] * 8

    def probes(mode):
        app = _matching_app(sends, "src")
        platform = cluster("mc", N_RANKS)
        with matching(mode):
            result = smpirun(app, N_RANKS, platform)
        stats = result.stats
        assert stats.match_probes > 0
        return stats.match_probes

    assert probes("index") <= probes("scan")
