"""Property-based equivalence of the lazy-heap and eager event loops.

The lazy engine (completion-date heap, actions re-anchored only on rate
change) is a pure optimisation: for *any* workload it must produce the
same simulated clocks, the same completion order, and the same final
states as the historical eager engine that scans every pending action at
every event (kept as a test-only oracle in tests/oracles.py).  These tests drive randomized workloads — mixed transfers,
computes, sleeps, cancellations and resource failures — through both and
assert bit-identical results (``==``, not ``approx``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.smpi import smpirun
from repro.surf import cluster
from tests.oracles import oracle_engine, thread_contexts

_FUZZ = settings(max_examples=20, deadline=None)

N_HOSTS = 6

# one randomized workload item: (kind, a, b, amount)
work_item = st.tuples(
    st.sampled_from(["comm", "exec", "sleep", "cancel", "fail_link"]),
    st.integers(0, N_HOSTS - 1),
    st.integers(0, N_HOSTS - 1),
    st.integers(1, 5_000_000),
)


def _drive(engine, platform, items):
    """Run one scripted workload; return a full observable transcript."""
    actions = []
    completion_order = []

    def observe(action):
        completion_order.append((action.name, engine.now))

    for step_no, (kind, a, b, amount) in enumerate(items):
        if kind == "comm" and a != b:
            action = engine.communicate(f"node-{a}", f"node-{b}", amount,
                                        name=f"comm-{step_no}")
        elif kind == "exec":
            action = engine.execute(f"node-{a}", amount * 100,
                                    name=f"exec-{step_no}")
        elif kind == "sleep":
            action = engine.sleep(amount * 1e-9, name=f"sleep-{step_no}")
        elif kind == "cancel" and actions:
            engine.cancel(actions[a % len(actions)])
            engine.advance(amount * 1e-7)
            continue
        elif kind == "fail_link":
            engine.fail_resource(platform.links[a % len(platform.links)])
            engine.advance(amount * 1e-7)
            continue
        elif kind == "avail":  # a capacity change: factor 0.25 to 1.5
            engine.set_availability(platform.links[a % len(platform.links)],
                                    (b + 1) / 4)
            engine.advance(amount * 1e-7)
            continue
        else:
            continue
        action.observer = observe
        actions.append(action)
        # stagger arrivals so shares interleave with running flows
        if step_no % 2:
            engine.advance(amount * 1e-7)
    final = engine.run()
    return {
        "final_clock": final,
        "order": completion_order,
        "states": [(a.name, a.state.value, a.finish_time, a.remaining)
                   for a in actions],
    }


@given(st.lists(work_item, min_size=1, max_size=20), st.integers(0, 3))
@_FUZZ
def test_lazy_and_eager_engines_are_bit_identical(items, topology):
    """Any workload mix yields the same clocks, orders, and rates."""
    results = {}
    for eager in (False, True):
        platform = cluster("fzl", N_HOSTS,
                           backbone_bandwidth=None if topology % 2 else "1.25GBps",
                           split_duplex=topology >= 2)
        engine = oracle_engine(platform, eager=eager)
        results[eager] = _drive(engine, platform, items)
    assert results[False] == results[True]


@given(st.lists(work_item, min_size=1, max_size=20), st.integers(0, 3))
@_FUZZ
def test_full_reshare_is_still_invisible_under_lazy_updates(items, topology):
    """The two solver paths stay equivalent now that both feed the heap."""
    results = {}
    for full in (False, True):
        platform = cluster("fzf", N_HOSTS,
                           backbone_bandwidth=None if topology % 2 else "1.25GBps",
                           split_duplex=topology >= 2)
        engine = oracle_engine(platform, full=full)
        results[full] = _drive(engine, platform, items)
    assert results[False] == results[True]


@given(st.lists(work_item, min_size=1, max_size=16), st.integers(0, 3))
@settings(max_examples=12, deadline=None)
def test_sharing_exact_is_bit_identical_across_engine_grid(items, topology):
    """The vectorised exact solver is a pure speedup: all four engine
    combinations (lazy/eager event loop × incremental/full share path)
    produce bit-identical transcripts under exact max-min sharing, pinning
    the persistent solver's partial re-solves to a fresh whole-system
    solve at every share."""
    results = {}
    for eager in (False, True):
        for full in (False, True):
            platform = cluster("fzg", N_HOSTS,
                               backbone_bandwidth=None if topology % 2 else "1.25GBps",
                               split_duplex=topology >= 2)
            engine = oracle_engine(platform, eager=eager, full=full)
            results[(eager, full)] = _drive(engine, platform, items)
    oracle = results[(False, False)]
    assert all(r == oracle for r in results.values())


exchange = st.tuples(
    st.integers(0, 3),  # src
    st.integers(0, 3),  # dst
    st.integers(1, 100_000),  # bytes
)


@given(st.lists(exchange, min_size=1, max_size=8), st.integers(0, 20))
@settings(max_examples=15, deadline=None)
def test_smpirun_matches_between_event_loops(pattern, seed):
    """Whole MPI applications simulate to identical clocks either way."""
    pattern = [(s, d, n) for (s, d, n) in pattern if s != d]
    if not pattern:
        return

    def app(mpi):
        from repro.smpi import request as rq

        comm = mpi.COMM_WORLD
        reqs = []
        for index, (src, dst, nbytes) in enumerate(pattern):
            if mpi.rank == dst:
                reqs.append(comm.Irecv(np.zeros(nbytes, dtype=np.uint8),
                                       src, index))
        for index, (src, dst, nbytes) in enumerate(pattern):
            if mpi.rank == src:
                payload = np.full(nbytes, index % 251, dtype=np.uint8)
                reqs.append(comm.Isend(payload, dst, index))
        rq.waitall(reqs)
        if seed % 2:
            mpi.execute(1e6 * (mpi.rank + 1))
        return mpi.wtime()

    times = {}
    for eager in (False, True):
        platform = cluster("fzm", 4, split_duplex=bool(seed % 3))
        engine = oracle_engine(platform, eager=eager)
        result = smpirun(app, 4, platform, engine=engine)
        times[eager] = (result.simulated_time, tuple(result.returns))
    assert times[False] == times[True]


@given(st.lists(exchange, min_size=1, max_size=8), st.integers(0, 20))
@settings(max_examples=15, deadline=None)
def test_smpirun_matches_between_context_backends(pattern, seed):
    """Coroutines and the thread oracle are bit-identical on random workloads.

    The same generator-dialect application — nonblocking exchanges, a
    waitall, optional computes — must produce the same simulated clock,
    per-rank return values and wtime readings whether its ranks run as
    coroutine continuations or parked OS threads.
    """
    pattern = [(s, d, n) for (s, d, n) in pattern if s != d]
    if not pattern:
        return

    def app(mpi):
        from repro.smpi import request as rq

        comm = mpi.COMM_WORLD
        reqs = []
        for index, (src, dst, nbytes) in enumerate(pattern):
            if mpi.rank == dst:
                reqs.append(comm.Irecv(np.zeros(nbytes, dtype=np.uint8),
                                       src, index))
        for index, (src, dst, nbytes) in enumerate(pattern):
            if mpi.rank == src:
                payload = np.full(nbytes, index % 251, dtype=np.uint8)
                reqs.append(comm.Isend(payload, dst, index))
        yield from rq.co_waitall(reqs)
        if seed % 2:
            yield from mpi.co.execute(1e6 * (mpi.rank + 1))
        return (yield from mpi.co.wtime())

    result = smpirun(app, 4, cluster("fzc", 4, split_duplex=bool(seed % 3)))
    with thread_contexts():
        oracle = smpirun(app, 4,
                         cluster("fzc", 4, split_duplex=bool(seed % 3)))
    assert result.simulated_time == oracle.simulated_time
    assert result.returns == oracle.returns
