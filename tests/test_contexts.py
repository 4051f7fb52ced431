"""Tests for the execution contexts.

Covers the rule that picks an actor's context from its entry function,
the refusal of ``ctx=`` values other than ``None``/``"coroutine"``, the
coroutine context's generator dialect, kill idempotency, context-leak
diagnostics, the switch counters, and bit-identity of simulated time
against the thread oracle (:func:`tests.oracles.thread_contexts`).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ActorFailure, ConfigError, ContextError, DeadlockError
from repro.offline import record_trace, replay_trace
from repro.simix import Scheduler
from repro.simix import context as scheduler_module
from repro.simix.actor import ActorKilled
from repro.smpi import smpirun
from repro.surf import Engine, cluster
from tests.oracles import thread_contexts

#: run a block on the contexts the product picks (generator functions on
#: coroutines), or on the thread oracle
CONTEXTS = {"coroutine": nullcontext, "thread": thread_contexts}


def make_scheduler(n=4):
    return Scheduler(Engine(cluster("ctx", n)))


@pytest.fixture
def context_kinds(monkeypatch):
    """Actor name -> kind of the context each new actor gets."""
    kinds = {}
    choose = scheduler_module.context_for

    def recording(actor):
        context = choose(actor)
        kinds[actor.name] = context.kind
        return context

    monkeypatch.setattr(scheduler_module, "context_for", recording)
    return kinds


# ---------------------------------------------------------------------------
# the entry function picks the context
# ---------------------------------------------------------------------------


def _gen_rank(mpi):
    yield from mpi.COMM_WORLD.co.Barrier()
    return mpi.rank


def _plain_rank(mpi):
    mpi.COMM_WORLD.Barrier()
    return mpi.rank


def _pingpong(mpi):
    buf = np.zeros(64_000, dtype=np.uint8)
    comm = mpi.COMM_WORLD
    for _ in range(3):
        if mpi.rank == 0:
            comm.Send(buf, 1, 0)
            comm.Recv(buf, 1, 0)
        else:
            comm.Recv(buf, 0, 0)
            comm.Send(buf, 0, 0)


class TestSelection:
    """An actor's context follows its entry function; nothing else picks."""

    @pytest.mark.coroutine_contexts
    def test_auto_picks_coroutine_for_generator_funcs(self):
        sched = make_scheduler()

        def gen_app():
            yield from sched.current.co_yield_now()

        actor = sched.add_actor("g", "node-0", gen_app)
        assert actor.context_kind == "coroutine"

    def test_auto_picks_stack_backend_for_plain_funcs(self):
        sched = make_scheduler()
        actor = sched.add_actor("p", "node-0", lambda: None)
        assert actor.context_kind == "thread"

    @pytest.mark.coroutine_contexts
    def test_select_default_is_auto(self, context_kinds):
        """smpirun ranks: generator functions on coroutines, plain ones on
        threads."""
        assert smpirun(_gen_rank, 3, cluster("c", 3)).returns == [0, 1, 2]
        assert set(context_kinds.values()) == {"coroutine"}
        context_kinds.clear()
        assert smpirun(_plain_rank, 3, cluster("c", 3)).returns == [0, 1, 2]
        assert set(context_kinds.values()) == {"thread"}
        assert len(context_kinds) == 3

    @pytest.mark.coroutine_contexts
    def test_replayers_run_on_coroutines(self, context_kinds):
        # the recorded application is plain: its ranks run on threads
        _online, trace = record_trace(_pingpong, 2, cluster("c", 2))
        assert set(context_kinds.values()) == {"thread"}
        context_kinds.clear()
        replay_trace(trace, cluster("c", 2))
        assert context_kinds == {"replay-0": "coroutine",
                                 "replay-1": "coroutine"}

    def test_env_var_override(self):
        """The thread oracle runs generator functions on threads; under
        REPRO_CTX=thread the suite runs inside it."""
        def app(mpi):
            yield from mpi.COMM_WORLD.co.Barrier()
            return mpi._world.current_actor.context_kind

        with thread_contexts():
            oracle = smpirun(app, 2, cluster("c", 2))
        assert oracle.returns == ["thread", "thread"]
        expected = ("thread" if os.environ.get("REPRO_CTX") == "thread"
                    else "coroutine")
        assert smpirun(app, 2, cluster("c", 2)).returns == [expected] * 2

    def test_unknown_backend_rejected(self):
        """A typo in REPRO_CTX stops the run instead of running the
        default."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, REPRO_CTX="threads",
                   PYTHONPATH=str(root / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "tests/test_contexts.py::TestCtxKeyword"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode != 0
        assert "unknown REPRO_CTX='threads'" in result.stdout + result.stderr

    def test_greenlet_backend_unavailable_raises(self):
        # no ctx= value picks a context: every other name is refused
        with pytest.raises(ConfigError, match="ctx='greenlet'"):
            smpirun(_gen_rank, 2, cluster("c", 2), ctx="greenlet")


class TestCtxKeyword:
    """``ctx=`` survives on smpirun/replay_trace only as a no-op."""

    def test_coroutine_and_none_are_accepted(self):
        for ctx in (None, "coroutine"):
            assert smpirun(_gen_rank, 2, cluster("c", 2),
                           ctx=ctx).returns == [0, 1]

    @pytest.mark.parametrize("ctx", ["thread", "auto"])
    def test_other_values_are_refused(self, ctx):
        with pytest.raises(ConfigError, match="tests/oracles.thread_contexts"):
            smpirun(_gen_rank, 2, cluster("c", 2), ctx=ctx)
        _online, trace = record_trace(_pingpong, 2, cluster("c", 2))
        with pytest.raises(ConfigError, match="tests/oracles.thread_contexts"):
            replay_trace(trace, cluster("c", 2), ctx=ctx)


# ---------------------------------------------------------------------------
# coroutine context semantics
# ---------------------------------------------------------------------------


@pytest.mark.coroutine_contexts
class TestCoroutineBackend:
    def test_generator_actor_runs_without_threads(self):
        sched = make_scheduler()
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

    def test_plain_blocking_func_raises_context_error(self):
        """A generator actor that blocks through a plain (sync) call."""
        sched = make_scheduler()

        def app():
            me = sched.current
            sched.sleep_activity(1.0).wait(me)  # sync dialect: must fail
            yield from me.co_yield_now()

        sched.add_actor("bad", "node-0", app)
        with pytest.raises(ActorFailure) as err:
            sched.run()
        assert isinstance(err.value.__cause__, ContextError)
        assert "generator dialect" in str(err.value.__cause__)

    def test_finally_blocks_run_on_teardown_kill(self):
        sched = make_scheduler()
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
# kill / teardown semantics on every context
# ---------------------------------------------------------------------------


class TestKillSemantics:
    @pytest.mark.parametrize("ctx", CONTEXTS)
    def test_kill_is_idempotent(self, ctx):
        sched = make_scheduler()

        def app():
            me = sched.current
            yield from sched.sleep_activity(100.0).co_wait(me)

        with CONTEXTS[ctx]():
            actor = sched.add_actor("k", "node-0", app)
        # repeated kills before, during, and after unwind are no-ops
        actor.kill()
        actor.kill()
        sched._teardown()
        assert actor.finished
        actor.kill()  # after finish: still a no-op
        assert not actor.context_alive

    @pytest.mark.parametrize("ctx", ["coroutine", "thread"])
    def test_kill_finished_actor_is_noop(self, ctx):
        """A generator entry (coroutine) or a plain one (thread)."""
        sched = make_scheduler()

        def gen():
            yield from sched.current.co_yield_now()
            return 1

        actor = sched.add_actor("done", "node-0",
                                gen if ctx == "coroutine" else lambda: 1)
        sched.run()
        actor.kill()
        actor.resume()
        assert actor.result == 1 and not actor.context_alive

    @pytest.mark.coroutine_contexts
    def test_leaked_context_is_reported(self):
        """An actor swallowing ActorKilled survives teardown and is named."""
        import logging

        sched = make_scheduler()

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
        sched = make_scheduler()

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
        sched = make_scheduler()

        def app():
            me = sched.current
            for _ in range(5):
                yield from me.co_yield_now()

        sched.add_actor("y", "node-0", app)
        sched.run()
        assert sched.engine.stats.ctx_fast_resumes >= 5


# ---------------------------------------------------------------------------
# bit-identity with the thread oracle at the SMPI level
# ---------------------------------------------------------------------------


def _ring_app(mpi, elems=256):
    """Generator-dialect ring exchange + allreduce; runs on every context."""
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
    between contexts.
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
    @pytest.mark.parametrize("ctx", CONTEXTS)
    def test_ring_matches_thread_oracle(self, ctx):
        with thread_contexts():
            oracle = smpirun(_ring_app, 4, cluster("eq", 4))
        with CONTEXTS[ctx]():
            result = smpirun(_ring_app, 4, cluster("eq", 4))
        assert result.simulated_time == oracle.simulated_time  # bit-identical
        assert result.returns == oracle.returns

    @pytest.mark.parametrize("ctx", CONTEXTS)
    def test_trace_bit_identical(self, ctx):
        from repro.smpi import SmpiConfig

        config = SmpiConfig(tracing=True)
        with thread_contexts():
            oracle = smpirun(_ring_app, 4, cluster("eq", 4), config=config)
        with CONTEXTS[ctx]():
            result = smpirun(_ring_app, 4, cluster("eq", 4), config=config)
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

        def run():
            # a fake host clock: every executed sample measures 1 ms
            ticks = itertools.count()
            monkeypatch.setattr(sampling, "time", types.SimpleNamespace(
                perf_counter=lambda: next(ticks) * 1e-3))
            return smpirun(_sampled_app, 2, cluster("c", 2),
                           app_args=(collective,))

        with thread_contexts():
            oracle = run()
        result = run()
        assert oracle.simulated_time > 0.001  # the deferred compute counted
        assert result.simulated_time == oracle.simulated_time
        assert result.returns == oracle.returns
