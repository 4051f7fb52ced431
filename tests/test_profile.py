"""The span recorder: exclusive per-layer wall time, installed from outside."""

from __future__ import annotations

import importlib.util
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro.profile import LAYERS, SpanRecorder, _own, targets
from repro.smpi import request as rq
from repro.smpi import smpirun
from repro.surf import Engine, cluster
from tests.oracles import thread_contexts

N_RANKS = 4


def co_ring(mpi):
    """Generator-dialect ring exchange with some compute in between."""
    comm = mpi.COMM_WORLD
    right, left = (mpi.rank + 1) % mpi.size, (mpi.rank - 1) % mpi.size
    out = np.zeros(2048)
    for step in range(3):
        yield from mpi.co.execute(1e6)
        yield from comm.co.Sendrecv(np.full(2048, float(step)), right,
                                    recvbuf=out, source=left)
    total = np.zeros(1)
    yield from comm.co.Allreduce(np.array([out[0]]), total)
    return float(total[0])


def plain_ring(mpi):
    """The same ring written as a plain function (thread backend)."""
    comm = mpi.COMM_WORLD
    right, left = (mpi.rank + 1) % mpi.size, (mpi.rank - 1) % mpi.size
    out = np.zeros(2048)
    for step in range(3):
        mpi.execute(1e6)
        comm.Sendrecv(np.full(2048, float(step)), right, recvbuf=out,
                      source=left)
    total = np.zeros(1)
    comm.Allreduce(np.array([out[0]]), total)
    return float(total[0])


def deferred_isend(mpi):
    """Sampled compute is deferred; the following ``Isend`` flushes it.

    The flush suspends the calling rank inside ``Protocol.start_send``,
    so a span opened around that call would stay open across a context
    switch and corrupt every enclosing span's self time.
    """
    comm = mpi.COMM_WORLD
    peer = mpi.rank ^ 1
    buf = np.zeros(4096)
    for _ in range(3):
        for _ in mpi.sample_local("busy", 2):
            deadline = time.perf_counter() + 0.002
            while time.perf_counter() < deadline:
                pass
        req = comm.Isend(np.full(4096, float(mpi.rank)), dest=peer)
        comm.Recv(buf, source=peer)
        rq.wait(req)
    return float(buf[0])


#: (run on the thread oracle, app): plain apps always run on threads
CASES = [
    pytest.param(False, co_ring, id="coroutine-generator"),
    pytest.param(False, plain_ring, id="thread-plain"),
    pytest.param(True, co_ring, id="thread-generator"),
    pytest.param(False, deferred_isend, id="thread-deferred-isend"),
]


@pytest.mark.parametrize("oracle, app", CASES)
def test_layers_are_exclusive_and_restored(oracle, app):
    originals = {(owner, name): _own(owner, name)
                 for _layer, owner, name in targets()}
    with SpanRecorder() as spans, \
            thread_contexts() if oracle else nullcontext():
        smpirun(app, N_RANKS, cluster("c", N_RANKS))
    table = spans.table()
    assert spans.stack == []
    assert all(seconds >= 0.0 for seconds in table.values()), table
    assert sum(table.values()) == pytest.approx(spans.wall, rel=0.01)
    assert {"simix.sched_s", "simix.resume_s", "engine.step_s",
            "maxmin.share_s", "match.s", "pt2pt.s"} <= set(table)
    for (owner, name), original in originals.items():
        assert _own(owner, name) is original, (owner, name)
    assert Engine.__dict__["step"] is originals[(Engine, "step")]


@pytest.mark.parametrize("app", [
    pytest.param(co_ring, id="coroutine-co_ring"),
    pytest.param(plain_ring, id="thread-plain_ring"),
])
def test_profiling_does_not_change_the_run(app):
    with SpanRecorder():
        profiled = smpirun(app, N_RANKS, cluster("c", N_RANKS))
    plain = smpirun(app, N_RANKS, cluster("c", N_RANKS))
    assert profiled.simulated_time == plain.simulated_time
    assert profiled.returns == plain.returns
    assert profiled.stats.steps == plain.stats.steps


def test_originals_restored_when_the_run_raises():
    originals = {(owner, name): _own(owner, name)
                 for _layer, owner, name in targets()}

    def broken(mpi):
        if mpi.rank == 1:
            raise RuntimeError("boom")
        yield from mpi.COMM_WORLD.co.Barrier()

    with pytest.raises(Exception):
        with SpanRecorder() as spans:
            smpirun(broken, 2, cluster("c", 2))
    assert spans.stack == []
    for (owner, name), original in originals.items():
        assert _own(owner, name) is original, (owner, name)


def test_report_lists_layers_other_and_total():
    with SpanRecorder() as spans:
        smpirun(co_ring, N_RANKS, cluster("c", N_RANKS))
    lines = spans.report().splitlines()
    names = [line.split()[0] for line in lines[1:]]
    assert names[-1] == "total"
    assert "other" in names and "engine.step_s" in names
    assert set(names) - {"other", "total"} <= set(LAYERS)


def _e2ebench_layers():
    path = Path(__file__).resolve().parents[1] / "e2ebench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_e2ebench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_e2ebench_span_targets_still_resolve():
    """The basket's wrapper silently skips a name its owner lost; every
    target it lists must still be an own attribute of its owner."""
    missing = []
    for layer, entries in _e2ebench_layers().items():
        for module_name, attr, names in entries:
            module = importlib.import_module(module_name)
            owner = module if attr is None else getattr(module, attr)
            for name in names:
                found = (name in owner.__dict__ if isinstance(owner, type)
                         else hasattr(owner, name))
                if not found:
                    missing.append(f"{layer}: {module_name}.{attr}.{name}")
    assert not missing, missing
