"""Engine + replay snapshot/restore: the scale path's checkpoint layer.

The contract under test is *bit-identity*: a run resumed from a
checkpoint must finish with exactly the simulated clock (and engine
completion counts) of the uninterrupted run — not approximately, since
the whole point is that warm-started sweep points are indistinguishable
from cold ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.nas import dt_app, dt_graph
from repro.offline import (load_checkpoint, record_trace, replay_trace,
                           resume_replay, save_checkpoint)
from repro.offline.snapshot import (CHECKPOINT_VERSION, restore_engine,
                                    snapshot_engine)
from repro.platforms import griffon
from repro.smpi import SmpiConfig
from repro.surf import cluster
from repro.surf.engine import Engine


def pingpong(mpi, size=200_000, reps=4):
    comm = mpi.COMM_WORLD
    buf = np.zeros(size, dtype=np.uint8)
    for _ in range(reps):
        if mpi.rank == 0:
            comm.Send(buf, 1, 0)
            comm.Recv(buf, 1, 0)
        else:
            comm.Recv(buf, 0, 0)
            comm.Send(buf, 0, 0)
    return mpi.wtime()


def overlap_app(mpi):
    """Nonblocking overlap: checkpoints cut through in-flight transfers."""
    from repro.smpi import request as rq

    comm = mpi.COMM_WORLD
    n = mpi.size
    right = (mpi.rank + 1) % n
    left = (mpi.rank - 1) % n
    for rep in range(3):
        rr = comm.Irecv(np.zeros(100_000, dtype=np.uint8), left, rep)
        rs = comm.Isend(np.zeros(100_000, dtype=np.uint8), right, rep)
        mpi.execute(5e8)
        rq.waitall([rr, rs])
    return mpi.wtime()


class TestEngineSnapshot:
    """The engine layer alone: solver arrays, heap, actions, profiles."""

    def _mid_run_engine(self):
        engine = Engine(cluster("es", 4))
        acts = [
            engine.communicate("node-0", "node-1", 1_000_000, "a"),
            engine.communicate("node-2", "node-3", 500_000, "b"),
            engine.execute(engine.platform.host("node-1"), 2e9, "c"),
            engine.sleep(0.5, "d"),
        ]
        engine.step()  # finish latency phases, get real progress
        return engine, acts

    def test_snapshot_roundtrips_clock_and_actions(self):
        engine, _ = self._mid_run_engine()
        snap = snapshot_engine(engine)
        restored, actions = restore_engine(cluster("es", 4), snap)
        assert restored.now == engine.now
        assert set(restored.pending) == set(engine.pending)
        for aid, action in engine.pending.items():
            twin = actions[aid]
            assert twin.remaining == action.remaining
            assert twin.latency_remaining == action.latency_remaining
            assert twin.rate == action.rate
            assert twin.state is action.state

    def test_restored_engine_finishes_identically(self):
        engine, _ = self._mid_run_engine()
        snap = snapshot_engine(engine)
        restored, _ = restore_engine(cluster("es", 4), snap)
        while engine.poll_progress():
            engine.step()
        while restored.poll_progress():
            restored.step()
        assert restored.now == engine.now
        assert (restored.stats.actions_completed
                == engine.stats.actions_completed)

    def test_restored_heap_keeps_stale_entries_of_harvested_actions(self):
        # flows sharing one backbone speed up as others finish, so a
        # finished flow leaves its older, later-dated entries behind; the
        # sleep outlasts them all, so the continuation pops every one
        def engine_at_cut(engine):
            engine.sleep(1.0, name="tail")
            for i in range(6):
                engine.communicate(f"node-{i}", f"node-{(i + 3) % 6}",
                                   200_000 * (i + 1), name=f"s{i}")
            while True:
                engine.step()
                engine.poll_progress()  # the share retires the finished
                harvested = [aid for _deadline, aid, _epoch, _action
                             in engine._heap if aid not in engine.pending]
                if harvested and len(engine.pending) > 1:
                    return engine, len(harvested)
                assert engine.pending, "the run ended without such a cut"

        def finish(engine):
            while engine.poll_progress():
                engine.step()
            return engine.stats

        engine, harvested = engine_at_cut(Engine(cluster("hs", 6)))
        stale_at_cut = engine.stats.stale_heap_entries
        snap = snapshot_engine(engine)
        assert all(len(entry) == 3 for entry in snap["heap"])
        held = {data["aid"] for data in snap["actions"]}
        assert sum(aid not in held for _d, aid, _e in snap["heap"]) == harvested
        restored, _ = restore_engine(cluster("hs", 6), snap)
        whole, resumed = finish(engine), finish(restored)
        assert restored.now == engine.now == 1.0
        assert whole.stale_heap_entries >= stale_at_cut + harvested
        for counter in ("heap_pops", "stale_heap_entries", "actions_touched",
                        "steps", "actions_completed"):
            assert getattr(resumed, counter) == getattr(whole, counter), counter

    def test_snapshot_survives_json(self):
        import json

        engine, _ = self._mid_run_engine()
        snap = json.loads(json.dumps(snapshot_engine(engine)))
        restored, _ = restore_engine(cluster("es", 4), snap)
        while engine.poll_progress():
            engine.step()
        while restored.poll_progress():
            restored.step()
        assert restored.now == engine.now

    def test_snapshot_refuses_what_it_cannot_carry(self):
        """Undelivered completions, an attached timeline and a pending
        ``at`` callback each make the capture refuse."""
        engine = Engine(cluster("rf", 2))
        engine.sleep(0.0, "instant")  # delivered only by the next step
        with pytest.raises(SimulationError, match="not quiescent"):
            snapshot_engine(engine)
        engine.step()
        engine.at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="scheduled callback"):
            snapshot_engine(engine)
        traced = Engine(cluster("rf", 2))
        traced.enable_timeline()
        with pytest.raises(SimulationError, match="timeline"):
            snapshot_engine(traced)

    def test_dynamics_survive_a_json_round_trip(self):
        """Profiles, availability and failures ride in the snapshot: the
        restored engine fires the same points and finishes identically."""
        import json

        from repro.surf.profiles import Profile

        def platform():
            plat = cluster("dy", 4)
            plat.link("dy-l0").availability_profile = Profile(
                ((0.0, 1.0), (0.002, 0.5)), period=0.004)
            plat.host("node-3").state_profile = Profile(
                ((0.0, 1.0), (0.003, 0.0), (0.005, 1.0)), period=0.007)
            return plat

        engine = Engine(platform())
        engine.set_availability(engine.platform.link("dy-l2"), 0.25)
        engine.communicate("node-0", "node-1", 1_000_000, "over-profile")
        engine.communicate("node-2", "node-1", 400_000, "over-quarter")
        engine.execute("node-3", 5e8, "on-flaky-host")
        engine.execute("node-2", 5e6, "steady")
        engine.sleep(0.004, "nap")
        engine.step()
        engine.fail_resource(engine.platform.link("dy-l3"))
        engine.communicate("node-3", "node-0", 1000, "born-dead")
        for _ in range(3):
            engine.step()
        snap = json.loads(json.dumps(snapshot_engine(engine)))
        assert snap["availability"]["dy-l2"] == 0.25
        assert snap["dead_resources"] == ["dy-l3", "node-3"]
        assert [p["kind"] for p in snap["profiles"]] == ["availability",
                                                         "state"]
        assert snap["profile_heap"]
        restored, _ = restore_engine(platform(), snap)
        engine.run()
        restored.run()
        assert restored.now.hex() == engine.now.hex() == "0x1.a75cd0bb6ed68p-7"
        assert restored.stats == engine.stats
        assert engine.stats.capacity_events > 1
        assert engine.stats.resource_failures > 1


class TestReplayCheckpoint:
    def test_checkpoint_run_completes_like_cold_run(self):
        """Arming a checkpoint must not perturb the run it captures."""
        _online, trace = record_trace(pingpong, 2, griffon(2))
        cold = replay_trace(trace, griffon(2))
        armed = replay_trace(trace, griffon(2),
                             checkpoint_at=cold.simulated_time / 2)
        assert armed.simulated_time == cold.simulated_time
        assert armed.checkpoint is not None

    def test_resume_is_bit_identical(self):
        _online, trace = record_trace(pingpong, 2, griffon(2))
        cold = replay_trace(trace, griffon(2))
        ck = replay_trace(trace, griffon(2),
                          checkpoint_at=cold.simulated_time / 2).checkpoint
        warm = resume_replay(trace, griffon(2), ck)
        assert warm.simulated_time == cold.simulated_time
        assert warm.stats.actions_completed <= cold.stats.actions_completed

    def test_resume_fuzz_random_cut_points(self):
        """Bit-identity must hold wherever the cut lands (incl. mid-comm)."""
        import random

        rng = random.Random(0xC0FFEE)
        _online, trace = record_trace(overlap_app, 4, griffon(4))
        cold = replay_trace(trace, griffon(4))
        for _ in range(6):
            frac = rng.uniform(0.05, 0.95)
            result = replay_trace(
                trace, griffon(4),
                checkpoint_at=cold.simulated_time * frac)
            assert result.simulated_time == cold.simulated_time
            ck = result.checkpoint
            if ck is None:
                continue  # cut landed after the last quiescent point
            warm = resume_replay(trace, griffon(4), ck)
            assert warm.simulated_time == cold.simulated_time, frac

    def test_resume_dt_graph(self):
        """A real task-graph workload (NAS DT) across a checkpoint."""
        graph = dt_graph("BH", "S")
        _online, trace = record_trace(
            dt_app, graph.n_ranks, griffon(graph.n_ranks),
            app_args=(graph,))
        cold = replay_trace(trace, griffon(graph.n_ranks))
        ck = replay_trace(
            trace, griffon(graph.n_ranks),
            checkpoint_at=cold.simulated_time * 0.4).checkpoint
        assert ck is not None
        warm = resume_replay(trace, griffon(graph.n_ranks), ck)
        assert warm.simulated_time == cold.simulated_time

    def test_disk_round_trip(self, tmp_path):
        _online, trace = record_trace(pingpong, 2, griffon(2))
        cold = replay_trace(trace, griffon(2))
        ck = replay_trace(trace, griffon(2),
                          checkpoint_at=cold.simulated_time / 3).checkpoint
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(ck, path)
        warm = resume_replay(trace, griffon(2), load_checkpoint(path))
        assert warm.simulated_time == cold.simulated_time

    def test_resume_respects_checkpoint_config(self):
        """The captured protocol config rides in the checkpoint."""
        _online, trace = record_trace(pingpong, 2, griffon(2),
                                      app_args=(200_000, 2))
        config = SmpiConfig(eager_threshold=1024)  # rendezvous path
        cold = replay_trace(trace, griffon(2), config=config)
        ck = replay_trace(trace, griffon(2), config=config,
                          checkpoint_at=cold.simulated_time / 2).checkpoint
        warm = resume_replay(trace, griffon(2), ck)
        assert warm.simulated_time == cold.simulated_time

    def test_checkpoint_rejects_tracing(self):
        _online, trace = record_trace(pingpong, 2, griffon(2))
        with pytest.raises(ConfigError):
            replay_trace(trace, griffon(2),
                         config=SmpiConfig(tracing=True),
                         checkpoint_at=0.001)

    def test_checkpoint_rejects_watchdogs(self):
        _online, trace = record_trace(pingpong, 2, griffon(2))
        with pytest.raises(ConfigError):
            replay_trace(trace, griffon(2),
                         config=SmpiConfig(comm_timeout=10.0),
                         checkpoint_at=0.001)

    def test_resume_rejects_wrong_trace(self):
        _online, trace = record_trace(pingpong, 2, griffon(2))
        cold = replay_trace(trace, griffon(2))
        ck = replay_trace(trace, griffon(2),
                          checkpoint_at=cold.simulated_time / 2).checkpoint
        _other_online, other = record_trace(pingpong, 2, griffon(2),
                                            app_args=(100, 1))
        with pytest.raises(ConfigError):
            resume_replay(other, griffon(2), ck)

    def test_resume_rejects_stale_config_keys(self):
        """A checkpoint saved with a since-removed SmpiConfig field is
        refused with a ConfigError naming the field, not a TypeError."""
        _online, trace = record_trace(pingpong, 2, griffon(2))
        cold = replay_trace(trace, griffon(2))
        for key, value in (("match", None), ("sharing", "approx")):
            ck = replay_trace(trace, griffon(2),
                              checkpoint_at=cold.simulated_time / 2).checkpoint
            ck["config"][key] = value
            with pytest.raises(ConfigError,
                               match=f"checkpoint config is stale.*'{key}'"):
                resume_replay(trace, griffon(2), ck)

    def test_resume_rejects_profile_key_of_older_checkpoints(self, tmp_path):
        """Checkpoints written while ``SmpiConfig`` still had a ``profile``
        field carry ``"profile": false``; they are refused as stale."""
        from repro.offline import load_checkpoint, save_checkpoint

        _online, trace = record_trace(pingpong, 2, griffon(2))
        cold = replay_trace(trace, griffon(2))
        ck = replay_trace(trace, griffon(2),
                          checkpoint_at=cold.simulated_time / 2).checkpoint
        ck["config"]["profile"] = False
        path = save_checkpoint(ck, tmp_path / "old.ckpt.json")
        with pytest.raises(ConfigError,
                           match="checkpoint config is stale.*'profile'"):
            resume_replay(trace, griffon(2), load_checkpoint(path))

    def test_warm_replay_through_snapshot_store(self, tmp_path):
        """Miss captures+stores; hit resumes; both match the cold clock."""
        from repro.offline import warm_replay
        from repro.sweep.cache import SnapshotStore

        _online, trace = record_trace(pingpong, 2, griffon(2))
        cold = replay_trace(trace, griffon(2))
        store = SnapshotStore(tmp_path / "cache")
        cut = cold.simulated_time / 2

        miss = warm_replay(trace, griffon(2), cut, store)
        assert miss.simulated_time == cold.simulated_time
        assert len(store) == 1

        hit = warm_replay(trace, griffon(2), cut, store)
        assert hit.simulated_time == cold.simulated_time
        # restored stats continue the captured counters: totals match the
        # uninterrupted run even though the prefix was never re-simulated
        assert hit.stats.actions_completed == cold.stats.actions_completed
        # the hit path resumed (no fresh capture) and left the store alone
        assert hit.checkpoint is None
        assert len(store) == 1

    def test_other_checkpoint_versions_are_refused(self, tmp_path):
        """One version guards the whole payload, the engine part included:
        a newer layout and the version-1 layout are both refused."""
        _online, trace = record_trace(pingpong, 2, griffon(2))
        cold = replay_trace(trace, griffon(2))
        ck = replay_trace(trace, griffon(2),
                          checkpoint_at=cold.simulated_time / 2).checkpoint
        assert ck["version"] == CHECKPOINT_VERSION
        assert "version" not in ck["engine"]
        for version in (CHECKPOINT_VERSION + 1, 1):
            stale = dict(ck, version=version)
            with pytest.raises(ConfigError, match=f"version {version} is not"):
                resume_replay(trace, griffon(2), stale)
            path = save_checkpoint(stale, tmp_path / f"v{version}.ckpt.json")
            with pytest.raises(ConfigError, match=f"version {version} is not"):
                load_checkpoint(path)

    def test_snapshot_store_misses_a_checkpoint_of_the_old_layout(
            self, tmp_path):
        """A checkpoint stored before the engine part lost its own version
        (outer version 1, engine version 1 inside) is a store miss: the
        replay re-simulates to the cold clock and stores a current one."""
        from repro.offline import warm_replay
        from repro.sweep.cache import SnapshotStore

        _online, trace = record_trace(pingpong, 2, griffon(2))
        cold = replay_trace(trace, griffon(2))
        cut = cold.simulated_time / 2
        store = SnapshotStore(tmp_path / "cache")
        key = store.key_for(trace, griffon(2), SmpiConfig(), cut)
        old = replay_trace(trace, griffon(2), checkpoint_at=cut).checkpoint
        old["version"] = 1
        old["engine"]["version"] = 1
        store.put(key, old)

        warm = warm_replay(trace, griffon(2), cut, store)
        assert warm.simulated_time == cold.simulated_time
        assert warm.checkpoint is not None  # captured afresh, not resumed
        stored = store.get(key)
        assert stored["version"] == CHECKPOINT_VERSION == 2
        assert "version" not in stored["engine"]

    def test_snapshot_store_key_tracks_config_and_cut(self, tmp_path):
        from repro.sweep.cache import SnapshotStore

        _online, trace = record_trace(pingpong, 2, griffon(2))
        store = SnapshotStore(tmp_path / "cache")
        base = store.key_for(trace, griffon(2), SmpiConfig(), 0.5)
        assert store.key_for(trace, griffon(2), SmpiConfig(), 0.5) == base
        assert store.key_for(trace, griffon(2), SmpiConfig(), 0.25) != base
        assert store.key_for(trace, griffon(2),
                             SmpiConfig(eager_threshold=1), 0.5) != base

    def test_late_checkpoint_yields_none(self):
        """A cut date past the end of the run simply never fires."""
        _online, trace = record_trace(pingpong, 2, griffon(2))
        cold = replay_trace(trace, griffon(2))
        result = replay_trace(trace, griffon(2),
                              checkpoint_at=cold.simulated_time * 10)
        assert result.simulated_time == cold.simulated_time
        assert result.checkpoint is None
