"""Tests for the SIMIX process layer: actors, scheduling, activities."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ActorFailure, DeadlockError
from repro.simix import Scheduler
from repro.surf import Engine, cluster


def make_scheduler(n=4):
    return Scheduler(Engine(cluster("sx", n)))


class TestScheduling:
    def test_actor_runs_and_returns(self):
        sched = make_scheduler()
        actor = sched.add_actor("a", "node-0", lambda: 42)
        sched.run()
        assert actor.finished and actor.result == 42

    def test_actors_run_in_registration_order_initially(self):
        sched = make_scheduler()
        order = []
        for i in range(4):
            sched.add_actor(f"a{i}", f"node-{i}", lambda i=i: order.append(i))
        sched.run()
        assert order == [0, 1, 2, 3]

    def test_exactly_one_thread_runs_at_a_time(self):
        """Between blocking points, no two actor threads execute user code
        simultaneously — the strictly-sequential guarantee of §5.1."""
        sched = make_scheduler()
        flag = {"busy": False}
        violations = []

        def body():
            me = sched.current
            for _ in range(3):
                if flag["busy"]:
                    violations.append("overlap")
                flag["busy"] = True
                # non-blocking section: nobody else may run in here
                flag["busy"] = False
                sched.sleep_activity(0.01).wait(me)

        for i in range(4):
            sched.add_actor(f"a{i}", f"node-{i}", body)
        sched.run()
        assert violations == []

    def test_simulated_time_advances_with_sleep(self):
        sched = make_scheduler()

        def body():
            me = sched.current
            sched.sleep_activity(1.5).wait(me)
            return sched.engine.now

        actor = sched.add_actor("a", "node-0", body)
        final = sched.run()
        assert actor.result == pytest.approx(1.5)
        assert final == pytest.approx(1.5)

    def test_parallel_sleeps_overlap(self):
        sched = make_scheduler()

        def body(duration):
            me = sched.current
            sched.sleep_activity(duration).wait(me)

        sched.add_actor("a", "node-0", body, 1.0)
        sched.add_actor("b", "node-1", body, 1.0)
        assert sched.run() == pytest.approx(1.0)  # not 2.0

    def test_actor_exception_propagates(self):
        sched = make_scheduler()

        def boom():
            raise ValueError("kaput")

        sched.add_actor("a", "node-0", boom)
        with pytest.raises(ActorFailure) as info:
            sched.run()
        assert isinstance(info.value.original, ValueError)

    def test_deadlock_detected(self):
        sched = make_scheduler()
        sched.add_actor("a", "node-0", lambda: sched.current.suspend())
        with pytest.raises(DeadlockError):
            sched.run()

    def test_deadlock_report_names_waited_on_activity(self):
        sched = make_scheduler()

        def stuck():
            # an activity nothing will ever complete (no engine action)
            from repro.simix.activity import Activity

            Activity(sched, None, name="phantom-recv").wait(sched.current)

        sched.add_actor("a", "node-0", stuck)
        with pytest.raises(DeadlockError, match="'phantom-recv'"):
            sched.run()

    def test_threads_are_cleaned_up(self):
        before = threading.active_count()
        sched = make_scheduler()
        for i in range(3):
            sched.add_actor(f"a{i}", "node-0", lambda: None)
        sched.run()
        assert threading.active_count() == before

    def test_threads_cleaned_up_after_deadlock(self):
        before = threading.active_count()
        sched = make_scheduler()
        sched.add_actor("a", "node-0", lambda: sched.current.suspend())
        sched.add_actor("b", "node-1", lambda: sched.current.suspend())
        with pytest.raises(DeadlockError):
            sched.run()
        assert threading.active_count() == before

    def test_wait_for_predicate_with_spurious_wakeups(self):
        sched = make_scheduler()
        state = {"ready": False}

        def waiter():
            me = sched.current
            me.wait_for(lambda: state["ready"])
            return sched.engine.now

        def setter():
            me = sched.current
            sched.wake(waiter_actor)  # spurious: predicate still false
            sched.sleep_activity(0.5).wait(me)
            state["ready"] = True
            sched.wake(waiter_actor)

        waiter_actor = sched.add_actor("w", "node-0", waiter)
        sched.add_actor("s", "node-1", setter)
        sched.run()
        assert waiter_actor.result == pytest.approx(0.5)

    def test_actor_spawned_mid_run_executes(self):
        sched = make_scheduler()
        ran = []

        def parent():
            sched.add_actor("child", "node-1", lambda: ran.append("child"))
            me = sched.current
            sched.sleep_activity(0.1).wait(me)

        sched.add_actor("p", "node-0", parent)
        sched.run()
        assert ran == ["child"]


class TestActivities:
    def test_comm_activity_completes_with_payload_slot(self):
        sched = make_scheduler()
        out = {}

        def body():
            me = sched.current
            activity = sched.communicate("node-0", "node-1", 1000, "t")
            activity.payload = b"hello"
            activity.wait(me)
            out["done"] = activity.done
            out["ft"] = activity.finish_time

        sched.add_actor("a", "node-0", body)
        sched.run()
        assert out["done"] and out["ft"] > 0

    def test_exec_activity_charges_host(self):
        sched = make_scheduler()

        def body():
            me = sched.current
            sched.execute(me, 5e8).wait(me)  # hosts are 1 Gf
            return sched.engine.now

        actor = sched.add_actor("a", "node-0", body)
        sched.run()
        assert actor.result == pytest.approx(0.5)

    def test_finished_activities_need_no_cycle_collector(self):
        """A fired observer is dropped, so no action<->activity cycle is
        left: reference counting alone frees a finished activity."""
        import gc
        import weakref
        from types import SimpleNamespace

        sched = make_scheduler()
        engine = sched.engine
        comm = sched.communicate("node-0", "node-1", 1000, "t")
        owner = SimpleNamespace(host=engine.platform.host("node-2"))
        burst = sched.execute(owner, 1e6, "x")
        refs = [weakref.ref(comm), weakref.ref(burst)]
        del comm, burst
        gc.disable()
        try:
            while engine.busy:
                engine.step()
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_activity_callbacks_fire_before_wakeup(self):
        sched = make_scheduler()
        events = []

        def body():
            me = sched.current
            activity = sched.sleep_activity(0.1)
            activity.callbacks.append(lambda: events.append("callback"))
            activity.wait(me)
            events.append("woke")

        sched.add_actor("a", "node-0", body)
        sched.run()
        assert events == ["callback", "woke"]

    def test_multiple_waiters_all_wake(self):
        sched = make_scheduler()
        woken = []
        activity_holder = {}

        def creator():
            me = sched.current
            activity_holder["act"] = sched.sleep_activity(0.2)
            activity_holder["act"].wait(me)
            woken.append("creator")

        def joiner():
            me = sched.current
            sched.sleep_activity(0.05).wait(me)  # let creator start
            activity_holder["act"].wait(me)
            woken.append("joiner")

        sched.add_actor("c", "node-0", creator)
        sched.add_actor("j", "node-1", joiner)
        sched.run()
        assert sorted(woken) == ["creator", "joiner"]
