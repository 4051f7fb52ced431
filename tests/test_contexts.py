"""Tests for the pluggable execution-context backends.

Covers backend selection (name / instance / REPRO_CTX / auto), the
coroutine backend's generator dialect, kill idempotency, context-leak
diagnostics, the switch counters, and cross-backend bit-identity of
simulated time.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import ActorFailure, ConfigError, ContextError, DeadlockError
from repro.simix import (
    Actor,
    AutoBackend,
    CoroutineBackend,
    Scheduler,
    ThreadBackend,
    available_backends,
    select_backend,
)
from repro.simix.actor import ActorKilled
from repro.smpi import smpirun
from repro.surf import Engine, cluster

#: every execution-context backend
BACKENDS = ["coroutine", "thread"]


def make_scheduler(n=4, ctx=None):
    return Scheduler(Engine(cluster("ctx", n)), ctx=ctx)


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------


class TestSelection:
    def test_available_backends(self):
        names = available_backends()
        assert set(names) == {"auto", "coroutine", "thread"}

    def test_select_by_name(self):
        assert select_backend("thread").name == "thread"
        assert select_backend("coroutine").name == "coroutine"
        assert select_backend("auto").name == "auto"

    def test_select_instance_passthrough(self):
        backend = ThreadBackend()
        assert select_backend(backend) is backend

    def test_select_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_CTX", raising=False)
        assert select_backend(None).name == "auto"

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CTX", "thread")
        assert select_backend(None).name == "thread"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown ctx backend"):
            select_backend("fibers")

    def test_greenlet_backend_unavailable_raises(self):
        # there is no greenlet backend: the name is refused like any other
        with pytest.raises(ConfigError,
                           match="unknown ctx backend 'greenlet' .*"
                                 "auto, coroutine, thread"):
            select_backend("greenlet")

    def test_auto_picks_coroutine_for_generator_funcs(self):
        sched = make_scheduler(ctx="auto")

        def gen_app():
            yield from sched.current.co_yield_now()

        actor = sched.add_actor("g", "node-0", gen_app)
        assert actor.context_kind == "coroutine"

    def test_auto_picks_stack_backend_for_plain_funcs(self):
        sched = make_scheduler(ctx="auto")
        actor = sched.add_actor("p", "node-0", lambda: None)
        assert actor.context_kind == "thread"


# ---------------------------------------------------------------------------
# coroutine backend semantics
# ---------------------------------------------------------------------------


class TestCoroutineBackend:
    def test_generator_actor_runs_without_threads(self):
        sched = make_scheduler(ctx="coroutine")
        before = threading.active_count()

        def app():
            me = sched.current
            activity = sched.sleep_activity(1.0)
            yield from activity.co_wait(me)
            return "done"

        actor = sched.add_actor("a", "node-0", app)
        assert sched.run() == pytest.approx(1.0)
        assert actor.result == "done"
        assert threading.active_count() == before

    def test_plain_nonblocking_func_allowed(self):
        sched = make_scheduler(ctx="coroutine")
        actor = sched.add_actor("p", "node-0", lambda: 7)
        sched.run()
        assert actor.result == 7

    def test_plain_blocking_func_raises_context_error(self):
        sched = make_scheduler(ctx="coroutine")

        def app():
            me = sched.current
            sched.sleep_activity(1.0).wait(me)  # sync dialect: must fail

        sched.add_actor("bad", "node-0", app)
        with pytest.raises(ActorFailure) as err:
            sched.run()
        assert isinstance(err.value.__cause__, ContextError)
        assert "generator dialect" in str(err.value.__cause__)

    def test_finally_blocks_run_on_teardown_kill(self):
        sched = make_scheduler(ctx="coroutine")
        events = []

        def sleeper():
            me = sched.current
            try:
                yield from sched.sleep_activity(100.0).co_wait(me)
            finally:
                events.append("unwound")

        def failer():
            yield from sched.current.co_yield_now()
            raise RuntimeError("boom")

        sched.add_actor("s", "node-0", sleeper)
        sched.add_actor("f", "node-1", failer)
        with pytest.raises(ActorFailure):
            sched.run()
        assert events == ["unwound"]


# ---------------------------------------------------------------------------
# kill / teardown semantics across backends
# ---------------------------------------------------------------------------


class TestKillSemantics:
    @pytest.mark.parametrize("ctx", BACKENDS)
    def test_kill_is_idempotent(self, ctx):
        sched = make_scheduler(ctx=ctx)

        def app():
            me = sched.current
            yield from sched.sleep_activity(100.0).co_wait(me)

        actor = sched.add_actor("k", "node-0", app)
        # repeated kills before, during, and after unwind are no-ops
        actor.kill()
        actor.kill()
        sched._teardown()
        assert actor.finished
        actor.kill()  # after finish: still a no-op
        assert not actor.context_alive

    @pytest.mark.parametrize("ctx", BACKENDS)
    def test_kill_finished_actor_is_noop(self, ctx):
        sched = make_scheduler(ctx=ctx)
        actor = sched.add_actor("done", "node-0", lambda: 1 if ctx != "coroutine" else 1)
        sched.run()
        actor.kill()
        actor.resume()
        assert actor.result == 1 and not actor.context_alive

    def test_leaked_context_is_reported(self):
        """An actor swallowing ActorKilled survives teardown and is named."""
        import logging

        sched = make_scheduler(ctx="coroutine")

        def stubborn():
            me = sched.current
            while True:
                try:
                    yield from me.co_suspend()  # nothing ever wakes us
                except ActorKilled:
                    continue  # refuse to die

        sched.add_actor("immortal", "node-0", stubborn)
        sched.add_actor("quick", "node-1", lambda: None)
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        handler = Capture(level=logging.ERROR)
        logger = logging.getLogger("repro.simix")
        logger.addHandler(handler)
        try:
            with pytest.raises(DeadlockError):
                sched.run()
        finally:
            logger.removeHandler(handler)
        assert any("immortal" in msg and "coroutine" in msg
                   for msg in records)


# ---------------------------------------------------------------------------
# switch counters
# ---------------------------------------------------------------------------


class TestCounters:
    def test_ctx_switches_counted(self):
        sched = make_scheduler(ctx="coroutine")

        def app():
            me = sched.current
            for _ in range(3):
                yield from sched.sleep_activity(1.0).co_wait(me)

        sched.add_actor("c", "node-0", app)
        sched.run()
        # 1 initial resume + 3 post-sleep resumes
        assert sched.engine.stats.ctx_switches >= 4

    def test_fast_resume_path_counted(self):
        """A sole runnable actor that yields is resumed without deque churn."""
        sched = make_scheduler(ctx="coroutine")

        def app():
            me = sched.current
            for _ in range(5):
                yield from me.co_yield_now()

        sched.add_actor("y", "node-0", app)
        sched.run()
        assert sched.engine.stats.ctx_fast_resumes >= 5


# ---------------------------------------------------------------------------
# cross-backend bit-identity at the SMPI level
# ---------------------------------------------------------------------------


def _ring_app(mpi, elems=256):
    """Generator-dialect ring exchange + allreduce; runs on every backend."""
    comm = mpi.COMM_WORLD
    rank, size = comm.rank, comm.size
    out = np.full(elems, float(rank))
    buf = np.zeros(elems)
    right, left = (rank + 1) % size, (rank - 1) % size
    yield from comm.co.Sendrecv(out, right, 1, buf, left, 1)
    yield from mpi.co.execute(1e6)
    total = np.zeros(1)
    yield from comm.co.Allreduce(np.array([buf.sum()]), total)
    t = yield from mpi.co.wtime()
    return (float(total[0]), t)


def _normalize(csv_text):
    """Renumber message ids (a process-global counter) to appearance order.

    Everything else — timestamps, endpoints, sizes — must match bit-for-bit
    between backends.
    """
    remap = {}
    out = []
    for line in csv_text.splitlines():
        fields = line.split(",")
        if fields and fields[0] == "comm":
            mid = fields[1]
            fields[1] = remap.setdefault(mid, str(len(remap)))
        out.append(",".join(fields))
    return "\n".join(out)


class TestBackendEquivalence:
    @pytest.mark.parametrize("ctx", BACKENDS)
    def test_ring_matches_thread_oracle(self, ctx):
        platform = cluster("eq", 4)
        oracle = smpirun(_ring_app, 4, cluster("eq", 4), ctx="thread")
        result = smpirun(_ring_app, 4, platform, ctx=ctx)
        assert result.simulated_time == oracle.simulated_time  # bit-identical
        assert result.returns == oracle.returns

    @pytest.mark.parametrize("ctx", BACKENDS)
    def test_trace_bit_identical(self, ctx):
        from repro.smpi import SmpiConfig

        config = SmpiConfig(tracing=True)
        oracle = smpirun(_ring_app, 4, cluster("eq", 4), config=config,
                         ctx="thread")
        result = smpirun(_ring_app, 4, cluster("eq", 4), config=config,
                         ctx=ctx)
        assert _normalize(result.trace.to_csv()) == _normalize(
            oracle.trace.to_csv()
        )


def _sampled_app(mpi, collective):
    """Bypassed samples defer compute, then the rank enters the protocol."""
    comm = mpi.COMM_WORLD
    for _ in range(5):
        for _ in mpi.sample_local("k", 2):
            pass
    buf = np.arange(4.0)
    if collective:
        out = np.zeros(4)
        yield from comm.co.Allreduce(buf, out)
        buf = out
    elif mpi.rank == 0:
        yield from comm.co.Send(buf, 1)
    else:
        buf = np.zeros(4)
        yield from comm.co.Recv(buf, 0)
    t = yield from mpi.co.wtime()
    return (t, buf.tolist())


class TestDeferredComputeFlush:
    """Sampled compute is charged on the generator path, not in-stack."""

    @pytest.mark.parametrize("collective", [False, True],
                             ids=["send_recv", "allreduce"])
    def test_coroutine_matches_thread_oracle(self, monkeypatch, collective):
        import itertools
        import types

        from repro.smpi import sampling

        def run(ctx):
            # a fake host clock: every executed sample measures 1 ms
            ticks = itertools.count()
            monkeypatch.setattr(sampling, "time", types.SimpleNamespace(
                perf_counter=lambda: next(ticks) * 1e-3))
            return smpirun(_sampled_app, 2, cluster("c", 2),
                           app_args=(collective,), ctx=ctx)

        oracle = run("thread")
        result = run("coroutine")
        assert oracle.simulated_time > 0.001  # the deferred compute counted
        assert result.simulated_time == oracle.simulated_time
        assert result.returns == oracle.returns
