"""SMPI fault semantics over dynamic platforms (docs/faults.md).

Covers the configurable reactions to resource failures: fail-fast MPI
errors (the default), transparent retry with exponential backoff,
transfer timeouts, and the ``kill-rank`` host-down policy with
MPI_ERR_PROC_FAILED at surviving peers — plus the observability hooks
(failed comms in Paje/CSV traces) and the lazy-vs-eager regression for
mid-flight kills.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.errors import ActorFailure, ConfigError, DeadlockError, MpiError
from repro.smpi import SmpiConfig, smpirun
from repro.smpi.constants import ERR_OTHER, ERR_PROC_FAILED
from repro.surf import Engine, cluster
from repro.surf.action import ActionState
from repro.trace import Tracer, export_paje, parse_paje
from tests.oracles import oracle_engine, thread_contexts


def _flaky_window(platform, engine, link_name, down_at, up_at):
    """Script a transient outage of one link on ``engine``."""
    link = platform.link(link_name)
    engine.at(down_at, lambda: engine.fail_resource(link))
    engine.at(up_at, lambda: engine.restore_resource(link))


class TestRetry:
    def _pingpong(self, nbytes=1_000_000):
        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                comm.Send(np.zeros(nbytes, dtype=np.uint8), 1, 0)
                return "sent"
            comm.Recv(np.zeros(nbytes, dtype=np.uint8), 0, 0)
            return "received"

        return app

    def test_retry_rides_out_a_transient_outage(self):
        platform = cluster("rt1", 2)
        engine = Engine(platform)
        _flaky_window(platform, engine, "rt1-backbone", 1e-4, 2e-3)
        result = smpirun(self._pingpong(), 2, platform, engine=engine,
                         config=SmpiConfig(comm_retries=3))
        assert result.returns == ["sent", "received"]
        # the successful attempt started after the link came back
        assert result.simulated_time > 2e-3

    def test_no_retries_fails_fast(self):
        platform = cluster("rt2", 2)
        engine = Engine(platform)
        _flaky_window(platform, engine, "rt2-backbone", 1e-4, 2e-3)
        with pytest.raises(ActorFailure) as info:
            smpirun(self._pingpong(), 2, platform, engine=engine)
        assert isinstance(info.value.original, MpiError)
        assert info.value.original.code == ERR_OTHER
        assert "network failure" in str(info.value.original)

    def test_retries_exhaust_on_permanent_failure(self):
        platform = cluster("rt3", 2)
        engine = Engine(platform)
        link = platform.link("rt3-backbone")
        engine.at(1e-4, lambda: engine.fail_resource(link))  # never restored
        with pytest.raises(ActorFailure) as info:
            smpirun(self._pingpong(), 2, platform, engine=engine,
                    config=SmpiConfig(comm_retries=2, retry_backoff=1e-4))
        assert "network failure" in str(info.value.original)

    def test_backoff_doubles_between_attempts(self):
        # with a permanent failure the clock advances by the sum of the
        # backoff delays, so a 4x base delay separates the two runs
        clocks = {}
        for backoff in (1e-3, 4e-3):
            platform = cluster("rt4", 2)
            engine = Engine(platform)
            link = platform.link("rt4-backbone")
            engine.at(1e-4, lambda e=engine, l=link: e.fail_resource(l))
            with pytest.raises(ActorFailure):
                smpirun(self._pingpong(), 2, platform, engine=engine,
                        config=SmpiConfig(comm_retries=2,
                                          retry_backoff=backoff))
            clocks[backoff] = engine.now
        # delays: b + 2b = 3b, so the gap between runs is 3*(4e-3 - 1e-3)
        assert clocks[4e-3] - clocks[1e-3] == pytest.approx(9e-3, rel=1e-3)


class TestTimeout:
    def test_stalled_transfer_times_out(self):
        platform = cluster("to1", 2)
        engine = Engine(platform)
        link = platform.link("to1-backbone")
        # stall (capacity 0) rather than fail: only the watchdog can end it
        engine.at(1e-4, lambda: engine.set_availability(link, 0.0))

        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                comm.Send(np.zeros(1_000_000, dtype=np.uint8), 1, 0)
            else:
                comm.Recv(np.zeros(1_000_000, dtype=np.uint8), 0, 0)

        with pytest.raises(ActorFailure) as info:
            smpirun(app, 2, platform, engine=engine,
                    config=SmpiConfig(comm_timeout=0.05))
        assert "timed out" in str(info.value.original)
        assert engine.now == pytest.approx(0.05, rel=1e-6)

    def test_timeout_plus_retry_recovers_after_restore(self):
        platform = cluster("to2", 2)
        engine = Engine(platform)
        link = platform.link("to2-backbone")
        engine.at(1e-4, lambda: engine.set_availability(link, 0.0))
        engine.at(0.02, lambda: engine.set_availability(link, 1.0))

        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                comm.Send(np.zeros(1_000_000, dtype=np.uint8), 1, 0)
                return "sent"
            comm.Recv(np.zeros(1_000_000, dtype=np.uint8), 0, 0)
            return "received"

        result = smpirun(app, 2, platform, engine=engine,
                         config=SmpiConfig(comm_timeout=0.01, comm_retries=3,
                                           retry_backoff=5e-3))
        assert result.returns == ["sent", "received"]
        assert result.simulated_time > 0.02

    def test_stale_watchdog_is_disarmed_on_completion(self):
        """A fast message must not leave its timeout watchdog pending:
        the stale ``engine.at`` sleep used to keep the simulation alive
        (and the clock running) until the timeout deadline."""
        platform = cluster("to3", 2)
        engine = Engine(platform)

        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                comm.Send(np.zeros(1000, dtype=np.uint8), 1, 0)
            else:
                comm.Recv(np.zeros(1000, dtype=np.uint8), 0, 0)
            return mpi.wtime()

        result = smpirun(app, 2, platform, engine=engine,
                         config=SmpiConfig(comm_timeout=10.0))
        # well under the 10 s watchdog deadline
        assert result.simulated_time < 1.0
        # harvesting the cancelled watchdog must not advance the clock to
        # its 10 s deadline (the old behavior) nor fire its callback
        engine.run()
        assert engine.now < 1.0
        assert not engine.pending


class TestHostDown:
    def test_default_policy_fails_the_ranks_operations(self):
        platform = cluster("hd1", 2)
        engine = Engine(platform)
        engine.at(1e-3,
                  lambda: engine.fail_resource(platform.host("node-1")))

        def app(mpi):
            # rank 1 is mid-compute on node-1 when the host dies
            mpi.execute(1e12 if mpi.rank == 1 else 1e6)
            return "done"

        with pytest.raises(ActorFailure) as info:
            smpirun(app, 2, platform, engine=engine)
        assert info.value.actor_name == "rank-1"

    def test_kill_rank_send_to_dead_peer_raises_proc_failed(self):
        platform = cluster("hd2", 2)
        engine = Engine(platform)
        engine.at(1e-3,
                  lambda: engine.fail_resource(platform.host("node-1")))

        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                mpi.execute(1e7)  # outlive the failure at t=1e-3
                try:
                    comm.Send(np.zeros(100, dtype=np.uint8), 1, 0)
                except MpiError as exc:
                    return exc.code
                return "sent?"
            mpi.execute(1e12)  # rank 1 dies mid-compute
            return "unreachable"

        result = smpirun(app, 2, platform, engine=engine,
                         config=SmpiConfig(on_host_down="kill-rank"))
        assert result.returns[0] == ERR_PROC_FAILED
        assert result.returns[1] is None  # killed, not returned

    def test_kill_rank_fails_pre_posted_recv_from_dead_peer(self):
        platform = cluster("hd3", 2)
        engine = Engine(platform)
        engine.at(1e-3,
                  lambda: engine.fail_resource(platform.host("node-1")))

        def app(mpi):
            from repro.smpi import request as rq

            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                req = comm.Irecv(np.zeros(100, dtype=np.uint8), 1, 0)
                try:
                    rq.wait(req)
                except MpiError as exc:
                    return exc.code
                return "received?"
            mpi.execute(1e12)
            return "unreachable"

        result = smpirun(app, 2, platform, engine=engine,
                         config=SmpiConfig(on_host_down="kill-rank"))
        assert result.returns[0] == ERR_PROC_FAILED

    def test_kill_rank_other_ranks_finish_normally(self):
        platform = cluster("hd4", 4)
        engine = Engine(platform)
        engine.at(1e-3,
                  lambda: engine.fail_resource(platform.host("node-3")))

        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 3:
                mpi.execute(1e12)
                return "unreachable"
            mpi.execute(1e7)
            # ranks 0-2 exchange among themselves, avoiding the dead rank
            peer = (mpi.rank + 1) % 3
            src = (mpi.rank - 1) % 3
            from repro.smpi import request as rq

            reqs = [comm.Irecv(np.zeros(100, dtype=np.uint8), src, 0),
                    comm.Isend(np.zeros(100, dtype=np.uint8), peer, 0)]
            rq.waitall(reqs)
            return "ok"

        result = smpirun(app, 4, platform, engine=engine,
                         config=SmpiConfig(on_host_down="kill-rank"))
        assert result.returns[:3] == ["ok", "ok", "ok"]
        assert result.returns[3] is None


class TestDeadlockReporting:
    def test_wait_on_never_sent_message_names_the_call(self):
        platform = cluster("dl1", 2)

        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                comm.Recv(np.zeros(100, dtype=np.uint8), 1, 0)
            return "done"

        with pytest.raises(DeadlockError) as info:
            smpirun(app, 2, platform)
        message = str(info.value)
        assert "rank-0" in message
        assert "in MPI_Wait: unmatched recv" in message

    def test_waits_format_no_text_without_a_deadlock(self, monkeypatch):
        from repro.smpi import request as rq

        calls = []
        describe = rq._describe_requests
        monkeypatch.setattr(rq, "_describe_requests",
                            lambda reqs: calls.append(reqs) or describe(reqs))

        def app(mpi):
            comm = mpi.COMM_WORLD
            peer = 1 - mpi.rank
            reqs = [comm.Irecv(np.zeros(10, dtype=np.uint8), peer, 0),
                    comm.Isend(np.zeros(10, dtype=np.uint8), peer, 0)]
            rq.waitall(reqs)
            comm.Sendrecv(np.zeros(10, dtype=np.uint8), peer, 1,
                          np.zeros(10, dtype=np.uint8), peer, 1)
            return "ok"

        assert smpirun(app, 2, cluster("dl0", 2)).returns == ["ok", "ok"]
        assert calls == []

    def test_waitall_deadlock_describes_pending_requests(self):
        platform = cluster("dl2", 2)

        def app(mpi):
            from repro.smpi import request as rq

            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                reqs = [comm.Irecv(np.zeros(10, dtype=np.uint8), 1, t)
                        for t in range(2)]
                rq.waitall(reqs)
            return "done"

        with pytest.raises(DeadlockError) as info:
            smpirun(app, 2, platform)
        assert "in MPI_Waitall" in str(info.value)


class TestMidFlightKillRegression:
    """fail_resource and cancel must look identical lazy vs eager."""

    @pytest.mark.parametrize("how", ["fail", "cancel"])
    def test_kill_paths_identical_between_event_loops(self, how):
        outcomes = {}
        for eager in (False, True):
            platform = cluster("mk", 3, backbone_bandwidth=None)
            engine = oracle_engine(platform, eager=eager)
            victim = engine.communicate("node-0", "node-1", 10_000_000)
            survivor = engine.communicate("node-1", "node-2", 2_000_000)
            if how == "fail":
                engine.at(1e-3, lambda: engine.fail_resource(
                    platform.link("mk-l0")))
            else:
                engine.at(1e-3, lambda: engine.cancel(victim))
            final = engine.run()
            outcomes[eager] = (
                final,
                (victim.state.value, victim.finish_time, victim.remaining),
                (survivor.state.value, survivor.finish_time,
                 survivor.remaining),
            )
        assert outcomes[False] == outcomes[True]
        assert outcomes[False][1][0] == ActionState.FAILED.value
        assert outcomes[False][2][0] == ActionState.DONE.value


class TestFaultTracing:
    def _traced_failure(self):
        """Run an app whose transfer dies mid-flight, tracing enabled."""
        platform = cluster("ft", 2)
        engine = Engine(platform)
        link = platform.link("ft-backbone")
        engine.at(2e-3, lambda: engine.fail_resource(link))
        engine.at(5e-3, lambda: engine.restore_resource(link))

        def app(mpi):
            comm = mpi.COMM_WORLD
            try:
                if mpi.rank == 0:
                    comm.Send(np.zeros(10_000_000, dtype=np.uint8), 1, 0)
                else:
                    comm.Recv(np.zeros(10_000_000, dtype=np.uint8), 0, 0)
            except MpiError:
                mpi.execute(1e7)  # linger past the restore at t=5e-3
                return "lost"
            return "ok"

        result = smpirun(app, 2, platform, engine=engine,
                         config=SmpiConfig(tracing=True))
        assert result.returns == ["lost", "lost"]
        return result.trace

    def test_failed_comm_is_a_distinct_paje_state(self):
        trace = self._traced_failure()
        assert any(r.failed for r in trace.comms)
        text = export_paje(trace, n_ranks=2)
        assert '"failed"' in text  # the entity value is declared...
        loaded, n_ranks = parse_paje(text)
        assert n_ranks == 2
        assert any(r.failed for r in loaded.comms)  # ...and round-trips

    def test_resource_events_export_to_paje(self):
        trace = self._traced_failure()
        events = [(e.name, e.event) for e in trace.resource_events]
        assert ("ft-backbone", "fail") in events
        assert ("ft-backbone", "restore") in events
        loaded, _ = parse_paje(export_paje(trace, n_ranks=2))
        assert ([(e.name, e.kind, e.event, e.t) for e in trace.resource_events]
                == [(e.name, e.kind, e.event, e.t)
                    for e in loaded.resource_events])

    def test_csv_round_trip_is_lossless(self):
        trace = self._traced_failure()
        loaded = Tracer.from_csv(trace.to_csv())
        assert loaded.comms == trace.comms
        assert loaded.computes == trace.computes
        assert loaded.resource_events == trace.resource_events
        if trace.timeline is not None:
            assert loaded.timeline.capacity_series \
                == trace.timeline.capacity_series


class TestConfigValidation:
    @pytest.mark.parametrize("options", [
        {"comm_retries": -1},
        {"retry_backoff": -0.5},
        {"comm_timeout": 0.0},
        {"comm_timeout": -1.0},
        {"on_host_down": "panic"},
    ])
    def test_bad_fault_options_are_rejected(self, options):
        with pytest.raises(ConfigError):
            SmpiConfig(**options)


# ---------------------------------------------------------------------------
# fault semantics are context-independent
# ---------------------------------------------------------------------------


#: run a block on the contexts the product picks (generator ranks on
#: coroutines), or on the thread oracle
CONTEXTS = {"coroutine": nullcontext, "thread": thread_contexts}


class TestFaultsAcrossBackends:
    """The fault machinery behaves identically on every execution context.

    Each scenario is a generator-dialect twin of a case above, run on
    coroutines and on the thread oracle; simulated clocks and per-rank
    outcomes must match the oracle exactly (``==``, not ``approx``).
    """

    def _run_everywhere(self, make_setup, n_ranks, config):
        outcomes = {}
        for ctx, contexts in CONTEXTS.items():
            app, platform, engine = make_setup()
            with contexts():
                result = smpirun(app, n_ranks, platform, engine=engine,
                                 config=config)
            outcomes[ctx] = (result.simulated_time, tuple(result.returns))
        oracle = outcomes["thread"]
        assert all(o == oracle for o in outcomes.values()), outcomes
        return oracle

    def test_retry_rides_out_outage_on_all_backends(self):
        def make_setup():
            def app(mpi):
                comm = mpi.COMM_WORLD
                if mpi.rank == 0:
                    yield from comm.co.Send(
                        np.zeros(1_000_000, dtype=np.uint8), 1, 0)
                    return "sent"
                yield from comm.co.Recv(
                    np.zeros(1_000_000, dtype=np.uint8), 0, 0)
                return "received"

            platform = cluster("xrt", 2)
            engine = Engine(platform)
            _flaky_window(platform, engine, "xrt-backbone", 1e-4, 2e-3)
            return app, platform, engine

        clock, returns = self._run_everywhere(
            make_setup, 2, SmpiConfig(comm_retries=3))
        assert returns == ("sent", "received")
        assert clock > 2e-3

    def test_timeout_fails_identically_on_all_backends(self):
        def make_setup():
            def app(mpi):
                comm = mpi.COMM_WORLD
                try:
                    if mpi.rank == 0:
                        yield from comm.co.Send(
                            np.zeros(1_000_000, dtype=np.uint8), 1, 0)
                    else:
                        yield from comm.co.Recv(
                            np.zeros(1_000_000, dtype=np.uint8), 0, 0)
                except MpiError as exc:
                    return ("timeout", "timed out" in str(exc))
                return "done?"

            platform = cluster("xto", 2)
            engine = Engine(platform)
            link = platform.link("xto-backbone")
            engine.at(1e-4, lambda: engine.set_availability(link, 0.0))
            return app, platform, engine

        clock, returns = self._run_everywhere(
            make_setup, 2, SmpiConfig(comm_timeout=0.05))
        assert set(returns) == {("timeout", True)}
        assert clock == pytest.approx(0.05, rel=1e-6)

    def test_kill_rank_on_all_backends(self):
        def make_setup():
            def app(mpi):
                comm = mpi.COMM_WORLD
                if mpi.rank == 0:
                    yield from mpi.co.execute(1e7)  # outlive the failure
                    try:
                        yield from comm.co.Send(
                            np.zeros(100, dtype=np.uint8), 1, 0)
                    except MpiError as exc:
                        return exc.code
                    return "sent?"
                yield from mpi.co.execute(1e12)  # rank 1 dies mid-compute
                return "unreachable"

            platform = cluster("xhd", 2)
            engine = Engine(platform)
            engine.at(1e-3,
                      lambda: engine.fail_resource(platform.host("node-1")))
            return app, platform, engine

        _, returns = self._run_everywhere(
            make_setup, 2, SmpiConfig(on_host_down="kill-rank"))
        assert returns == (ERR_PROC_FAILED, None)

    @pytest.mark.parametrize("ctx", CONTEXTS)
    def test_deadlock_report_names_the_waiter(self, ctx):
        platform = cluster(f"xdl-{ctx}", 2)

        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                yield from comm.co.Recv(np.zeros(8, dtype=np.uint8), 1, 7)
            # rank 1 never sends: rank 0 deadlocks

        with pytest.raises(DeadlockError) as info, CONTEXTS[ctx]():
            smpirun(app, 2, platform)
        assert "rank-0" in str(info.value)
