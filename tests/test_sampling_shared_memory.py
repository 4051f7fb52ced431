"""Tests for the single-node scalability features: CPU sampling
(SMPI_SAMPLE_*), RAM folding (SMPI_SHARED_MALLOC) and memory accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ActorFailure, OutOfMemoryError
from repro.smpi import SmpiConfig, smpirun
from repro.smpi.memory import RANK_BASELINE, MemoryTracker
from repro.surf import cluster


def run(app, n=2, config=None, app_args=()):
    return smpirun(app, n, cluster("mm", max(n, 2)), config=config,
                   app_args=app_args)


class TestSampling:
    def test_sample_local_executes_first_n(self, run_app):
        def app(mpi):
            executed = 0
            for _ in range(10):
                for _ in mpi.sample_local("site", n=3):
                    executed += 1
            return executed

        result = run_app(app, 2)
        assert result.returns == [3, 3]  # per rank

    def test_sample_local_still_advances_clock_when_bypassed(self, run_app):
        def app(mpi):
            import time

            for _ in range(5):
                for _ in mpi.sample_local("busy", n=1):
                    time.sleep(0.01)
            return mpi.wtime()

        result = run_app(app, 1)
        # 1 executed (>=10 ms) + 4 replayed averages (>=10 ms each); the
        # upper bound is loose because time.sleep overshoots under load
        assert 0.045 <= result.returns[0] <= 0.5

    def test_sample_global_shares_budget_across_ranks(self, run_app):
        def app(mpi):
            executed = 0
            for _ in range(4):
                for _ in mpi.sample_global("gsite", n=6):
                    executed += 1
                mpi.COMM_WORLD.Barrier()
            return executed

        result = run_app(app, 4)
        assert sum(result.returns) == 6  # 6 executions total, not per rank

    def test_sample_delay_never_executes(self, run_app):
        def app(mpi):
            mpi.sample_delay(flops=2e9)  # 2 s on the 1 Gf test hosts
            return mpi.wtime()

        result = run_app(app, 1)
        assert result.returns[0] == pytest.approx(2.0)

    def test_sample_auto_stops_on_precision(self, run_app):
        def app(mpi):
            executed = 0
            for _ in range(50):
                for _ in mpi.sample_auto("auto-site", precision=0.5,
                                         max_samples=50):
                    executed += 1
                    mpi.sleep(0)  # deterministic, so precision hits fast
            return executed

        result = run_app(app, 1)
        assert result.returns[0] < 50  # froze before max

    def test_speed_factor_scales_replay(self):
        def app(mpi):
            import time

            for _ in range(3):
                for _ in mpi.sample_local("scaled", n=1):
                    time.sleep(0.01)
            return mpi.wtime()

        fast = run(app, 1, config=SmpiConfig(speed_factor=1.0))
        slow = run(app, 1, config=SmpiConfig(speed_factor=4.0))
        assert slow.returns[0] > 2.0 * fast.returns[0]

    def test_sampler_stats_exposed(self, run_app):
        def app(mpi):
            for _ in range(5):
                for _ in mpi.sample_local("stat-site", n=2):
                    pass

        result = run_app(app, 2)
        stats = result.sampler_stats["stat-site"]
        assert stats["kind"] == "local"
        assert stats["samples"] == 4  # 2 per rank

    def test_sample_local_rejects_n_zero(self, run_app):
        def app(mpi):
            for _ in mpi.sample_local("bad", n=0):
                pass

        with pytest.raises(ActorFailure):
            run_app(app, 1)


class TestSharedMalloc:
    def test_all_ranks_get_same_array(self, run_app):
        def app(mpi):
            arr = mpi.shared_malloc("block", 16)
            if mpi.rank == 0:
                arr[0] = 42.0
            mpi.COMM_WORLD.Barrier()
            value = arr[0]  # every rank sees rank 0's write: folded!
            mpi.shared_free("block")
            return value

        result = run_app(app, 4)
        assert result.returns == [42.0] * 4

    def test_folding_counts_once(self, run_app):
        def app(mpi):
            mpi.shared_malloc("big", 1000)
            mpi.COMM_WORLD.Barrier()
            report = None
            if mpi.rank == 0:
                report = mpi._world.memory.report()
            mpi.shared_free("big")
            return None if report is None else report.shared_peak

        result = run_app(app, 4)
        assert result.returns[0] == 8000  # one array, not four

    def test_unfolded_counts_per_rank(self, run_app):
        def app(mpi):
            arr = mpi.malloc(1000)
            mpi.COMM_WORLD.Barrier()
            peak = mpi._world.memory.report().total_peak if mpi.rank == 0 else None
            mpi.free(arr)
            return peak

        result = run_app(app, 4)
        expected = 4 * 8000 + 4 * RANK_BASELINE
        assert result.returns[0] == expected

    def test_shape_mismatch_rejected(self, run_app):
        def app(mpi):
            mpi.shared_malloc("blk", 10 + mpi.rank)  # different shapes!

        with pytest.raises(ActorFailure):
            run_app(app, 2)

    def test_free_unknown_key_rejected(self, run_app):
        def app(mpi):
            mpi.shared_free("never-allocated")

        with pytest.raises(ActorFailure):
            run_app(app, 1)

    def test_refcount_frees_at_zero(self, run_app):
        def app(mpi):
            mpi.shared_malloc("rc", 100)
            mpi.COMM_WORLD.Barrier()
            mpi.shared_free("rc")
            mpi.COMM_WORLD.Barrier()
            if mpi.rank == 0:
                return mpi._world.heap.shared_keys
            return None

        result = run_app(app, 3)
        assert result.returns[0] == []


class TestDeferredFlush:
    """Compute deferred by bypassed sample sites is charged before the
    rank's next message leaves or is posted."""

    def test_flushed_before_a_send_and_before_a_receive(self, run_app):
        from repro.smpi import request as rq

        def app(mpi):
            world = mpi._world
            comm = mpi.COMM_WORLD
            world.defer_flops(1e9)  # 1 s on the 1 Gf test hosts
            assert world.deferring
            if mpi.rank == 0:
                req = comm.Isend(np.ones(4), 1, 0)
            else:
                req = comm.Irecv(np.zeros(4), 0, 0)
            charged = world.engine.now  # the flush ran inside the call
            rq.wait(req)
            return charged, world.has_deferred(), world.deferring

        for charged, held, deferring in run_app(app, 2).returns:
            assert charged == pytest.approx(1.0)
            assert not held and deferring == 0

    def test_flushed_before_a_blocking_call_on_a_generator_rank(self, run_app):
        def app(mpi):
            world = mpi._world
            comm = mpi.COMM_WORLD
            world.defer_flops(1e9)
            start = world.engine.now
            if mpi.rank == 0:
                yield from comm.co.Send(np.ones(4), 1, 0)
            else:
                yield from comm.co.Recv(np.zeros(4), 0, 0)
            return start, world.engine.now

        for start, end in run_app(app, 2).returns:
            assert start == 0.0 and end > 1.0


class TestMemoryTracker:
    def test_peaks_track_high_water_mark(self):
        tracker = MemoryTracker(2)
        tracker.allocate(0, 1000)
        tracker.allocate(0, 500)
        tracker.free(0, 1000)
        tracker.allocate(1, 200)
        report = tracker.report()
        assert report.per_rank_peak[0] == RANK_BASELINE + 1500
        assert report.per_rank_peak[1] == RANK_BASELINE + 200

    def test_enforcement_raises_oom(self):
        tracker = MemoryTracker(1, limit=RANK_BASELINE + 1000, enforce=True)
        tracker.allocate(0, 900)
        with pytest.raises(OutOfMemoryError):
            tracker.allocate(0, 200)

    def test_no_enforcement_by_default(self):
        tracker = MemoryTracker(1, limit=10)
        tracker.allocate(0, 10**9)  # fine: tracking only

    def test_shared_pool_in_total(self):
        tracker = MemoryTracker(2)
        tracker.allocate_shared(5000)
        assert tracker.report().shared_peak == 5000
        assert tracker.report().total_peak == 2 * RANK_BASELINE + 5000
        tracker.free_shared(5000)
        assert tracker.report().shared_peak == 5000  # peak is sticky

    def test_double_free_clamps(self):
        tracker = MemoryTracker(1)
        tracker.allocate(0, 100)
        tracker.free(0, 100)
        tracker.free(0, 100)  # user bug: ignored, no negative usage
        assert tracker.total_current >= 0

    def test_oom_in_simulation(self):
        config = SmpiConfig(enforce_memory_limit=True,
                            memory_limit=RANK_BASELINE * 2 + 4000)

        def app(mpi):
            mpi.malloc(1000)  # 8000 bytes: over the budget together

        with pytest.raises(ActorFailure) as info:
            run(app, 2, config=config)
        assert isinstance(info.value.original, OutOfMemoryError)
