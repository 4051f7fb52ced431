"""Tests for the analytical simulation engine (SURF)."""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.offline.snapshot import snapshot_engine
from repro.surf import (
    ConstantNetworkModel,
    Engine,
    PiecewiseLinearNetworkModel,
    cluster,
)
from repro.surf.action import ActionState
from repro.surf.network_model import (
    AffineNetworkModel,
    FactorsNetworkModel,
    RouteParams,
    PiecewiseSegment,
)
from tests.oracles import oracle_engine


def gige():  # 125 MB/s access, 1.25 GB/s backbone, 50+20+50 us latency
    return cluster("e", 4)


class TestTransferTiming:
    def test_single_transfer_time(self):
        engine = Engine(gige(), network_model=FactorsNetworkModel(1.0, 1.0))
        action = engine.communicate("node-0", "node-1", 1_000_000)
        engine.run()
        expected = 120e-6 + 1_000_000 / 125e6
        assert action.finish_time == pytest.approx(expected, rel=1e-6)

    def test_disjoint_transfers_do_not_interact_without_backbone(self):
        engine = Engine(cluster("x", 4, backbone_bandwidth=None),
                        network_model=FactorsNetworkModel(1.0, 1.0))
        a = engine.communicate("node-0", "node-1", 1_000_000)
        b = engine.communicate("node-2", "node-3", 1_000_000)
        engine.run()
        assert a.finish_time == pytest.approx(b.finish_time)
        assert a.finish_time == pytest.approx(100e-6 + 8e-3, rel=1e-6)

    def test_backbone_contention_halves_rate(self):
        engine = Engine(
            cluster("y", 4, backbone_bandwidth="125MBps"),
            network_model=FactorsNetworkModel(1.0, 1.0),
        )
        a = engine.communicate("node-0", "node-1", 1_000_000)
        b = engine.communicate("node-2", "node-3", 1_000_000)
        engine.run()
        # both flows share the 125 MB/s backbone: 16 ms instead of 8
        assert a.finish_time == pytest.approx(120e-6 + 16e-3, rel=1e-3)
        assert b.finish_time == pytest.approx(a.finish_time, rel=1e-6)

    def test_staggered_transfer_shares_then_speeds_up(self):
        engine = Engine(
            cluster("z", 4, backbone_bandwidth="125MBps"),
            network_model=FactorsNetworkModel(1.0, 0.0 + 1.0),
        )
        first = engine.communicate("node-0", "node-1", 2_000_000)
        # run alone until the second flow starts
        engine.advance(120e-6 + 8e-3)  # first ~1 MB transferred
        second = engine.communicate("node-2", "node-3", 1_000_000)
        engine.run()
        # remaining 1 MB of `first` shares with `second`: both take ~16 ms more
        assert first.finish_time == pytest.approx(120e-6 + 8e-3 + 16e-3, rel=1e-2)
        assert second.finish_time >= first.finish_time - 1e-9

    def test_rate_cap_is_respected(self):
        engine = Engine(gige(), network_model=FactorsNetworkModel(1.0, 1.0))
        action = engine.communicate("node-0", "node-1", 1_000_000,
                                    rate_cap=10e6)
        engine.run()
        assert action.finish_time == pytest.approx(120e-6 + 0.1, rel=1e-6)

    def test_loopback_is_fast(self):
        engine = Engine(gige())
        action = engine.communicate("node-0", "node-0", 1_000_000)
        engine.run()
        assert action.finish_time < 1e-3

    def test_zero_byte_transfer_costs_latency_only(self):
        engine = Engine(gige(), network_model=FactorsNetworkModel(1.0, 1.0))
        action = engine.communicate("node-0", "node-1", 0)
        engine.run()
        assert action.finish_time == pytest.approx(120e-6, rel=1e-6)

    def test_extra_latency_adds_up(self):
        engine = Engine(gige(), network_model=FactorsNetworkModel(1.0, 1.0))
        action = engine.communicate("node-0", "node-1", 0, extra_latency=1e-3)
        engine.run()
        assert action.finish_time == pytest.approx(120e-6 + 1e-3, rel=1e-6)


class TestComputeAndSleep:
    def test_compute_duration(self):
        engine = Engine(gige())
        action = engine.execute("node-0", 2e9)  # hosts are 1 Gf
        engine.run()
        assert action.finish_time == pytest.approx(2.0)

    def test_concurrent_computes_share_core(self):
        engine = Engine(gige())
        a = engine.execute("node-0", 1e9)
        b = engine.execute("node-0", 1e9)
        engine.run()
        assert a.finish_time == pytest.approx(2.0)
        assert b.finish_time == pytest.approx(2.0)

    def test_multicore_runs_in_parallel(self):
        engine = Engine(cluster("mc", 2, cores=4))
        actions = [engine.execute("node-0", 1e9) for _ in range(4)]
        engine.run()
        for action in actions:
            assert action.finish_time == pytest.approx(1.0)

    def test_sleep(self):
        engine = Engine(gige())
        action = engine.sleep(0.5)
        engine.run()
        assert action.finish_time == pytest.approx(0.5)
        assert engine.now == pytest.approx(0.5)

    def test_zero_flops_completes_instantly(self):
        engine = Engine(gige())
        action = engine.execute("node-0", 0.0)
        engine.run()
        assert action.state is ActionState.DONE


class TestEngineMechanics:
    def test_observer_fires_once(self):
        engine = Engine(gige())
        calls = []
        action = engine.sleep(0.1)
        action.observer = calls.append
        engine.run()
        assert calls == [action]

    def test_cancel_marks_failed(self):
        engine = Engine(gige())
        action = engine.communicate("node-0", "node-1", 1_000_000)
        engine.cancel(action)
        engine.run()
        assert action.state is ActionState.FAILED

    def test_negative_advance_rejected(self):
        engine = Engine(gige())
        with pytest.raises(SimulationError):
            engine.advance(-1.0)

    def test_stats_count_actions(self):
        engine = Engine(gige())
        engine.sleep(0.1)
        engine.communicate("node-0", "node-1", 100)
        engine.run()
        assert engine.stats.actions_created == 2
        assert engine.stats.actions_completed == 2


class TestNetworkModels:
    ROUTE = RouteParams(latency=1e-4, bandwidth=125e6)

    def test_constant_model_is_unshared(self):
        params = ConstantNetworkModel().transfer_params(1e6, self.ROUTE)
        assert not params.shared
        assert params.rate_bound == pytest.approx(125e6)

    def test_affine_model_scales_to_other_routes(self):
        model = AffineNetworkModel(2e-4, 100e6, self.ROUTE)
        same = model.transfer_params(1000, self.ROUTE)
        assert same.latency == pytest.approx(2e-4)
        assert same.rate_bound == pytest.approx(100e6)
        faster = RouteParams(latency=2e-4, bandwidth=250e6)
        scaled = model.transfer_params(1000, faster)
        assert scaled.latency == pytest.approx(4e-4)
        assert scaled.rate_bound == pytest.approx(200e6)

    def _pw(self):
        return PiecewiseLinearNetworkModel.from_segments(
            [
                (0.0, 1024.0, 1e-4, 50e6),
                (1024.0, 65536.0, 1.5e-4, 80e6),
                (65536.0, math.inf, 4e-4, 115e6),
            ],
            self.ROUTE,
        )

    def test_piecewise_selects_segment(self):
        model = self._pw()
        assert model.segment_for(10).beta == pytest.approx(50e6)
        assert model.segment_for(1024).beta == pytest.approx(80e6)
        assert model.segment_for(2**20).beta == pytest.approx(115e6)

    def test_piecewise_parameter_count_is_8(self):
        assert self._pw().parameter_count == 8

    def test_piecewise_predicts_fitted_time_on_calibration_route(self):
        model = self._pw()
        assert model.predict_time(4096, self.ROUTE) == pytest.approx(
            1.5e-4 + 4096 / 80e6
        )

    def test_piecewise_validates_contiguity(self):
        from repro.errors import CalibrationError

        with pytest.raises(CalibrationError):
            PiecewiseLinearNetworkModel(
                [
                    PiecewiseSegment(0, 100, 1e-4, 1e6, 1.0, 1.0),
                    PiecewiseSegment(200, math.inf, 1e-4, 1e6, 1.0, 1.0),
                ]
            )
        with pytest.raises(CalibrationError):
            PiecewiseLinearNetworkModel(
                [PiecewiseSegment(0, 100, 1e-4, 1e6, 1.0, 1.0)]
            )

    def test_describe_mentions_all_segments(self):
        text = self._pw().describe()
        assert text.count("alpha=") == 3


class TestAdvanceConsistency:
    """advance() must behave like repeated step(): raise on stalled
    pending actions and warp to the target only when nothing is pending."""

    def test_advance_warps_when_idle(self):
        engine = Engine(gige())
        engine.advance(5.0)
        assert engine.now == pytest.approx(5.0)

    def test_advance_crosses_events_and_lands_on_target(self):
        engine = Engine(gige())
        action = engine.communicate("node-0", "node-1", 1_000_000)
        engine.advance(1.0)
        assert engine.now == pytest.approx(1.0)
        assert action.state is ActionState.DONE
        assert action.finish_time < 1.0

    def test_advance_raises_on_stalled_action(self):
        engine = Engine(gige())
        stalled = engine.communicate("node-0", "node-1", 1_000, rate_cap=0.0)
        # burn the latency phase, then the transfer can never progress
        with pytest.raises(SimulationError, match="no action can complete"):
            engine.advance(10.0)
        assert stalled.is_pending

    def test_step_raises_on_stalled_action_too(self):
        engine = Engine(gige())
        engine.communicate("node-0", "node-1", 1_000, rate_cap=0.0)
        with pytest.raises(SimulationError, match="no action can complete"):
            while True:
                engine.step()

    def test_advance_delivers_cancellations_without_stall_error(self):
        engine = Engine(gige())
        action = engine.communicate("node-0", "node-1", 1_000, rate_cap=0.0)
        engine.cancel(action)
        engine.advance(1.0)  # must not raise: the only action was cancelled
        assert engine.now == pytest.approx(1.0)
        assert action.state is ActionState.FAILED


class TestLoopbackRouting:
    def test_loopback_link_uses_network_model(self):
        platform = cluster("lb", 2, loopback_bandwidth="10GBps",
                           loopback_latency="1us")
        engine = Engine(platform, network_model=FactorsNetworkModel(1.0, 1.0))
        action = engine.communicate("node-0", "node-0", 10_000_000)
        engine.run()
        assert action.finish_time == pytest.approx(1e-6 + 10_000_000 / 10e9,
                                                   rel=1e-6)

    def test_loopback_fallback_constants_without_link(self):
        engine = Engine(cluster("lb2", 2))
        action = engine.communicate("node-0", "node-0", 12.5e9)
        engine.run()
        # fixed fallback: 100 ns latency at 12.5 GB/s
        assert action.finish_time == pytest.approx(1e-7 + 1.0, rel=1e-6)

    def test_loopback_is_fatpipe_not_contended(self):
        platform = cluster("lb3", 2, loopback_bandwidth="10GBps",
                           loopback_latency="1us")
        engine = Engine(platform, network_model=FactorsNetworkModel(1.0, 1.0))
        first = engine.communicate("node-0", "node-0", 10_000_000)
        second = engine.communicate("node-1", "node-1", 10_000_000)
        engine.run()
        # FATPIPE: both self-sends run at the full loopback rate
        assert first.finish_time == pytest.approx(second.finish_time)
        assert first.finish_time == pytest.approx(1e-6 + 10_000_000 / 10e9,
                                                  rel=1e-6)


class TestLatencyOffsetFallback:
    ZERO_LAT_ROUTE = RouteParams(latency=0.0, bandwidth=125e6)

    def test_affine_alpha_survives_zero_latency_calibration(self):
        model = AffineNetworkModel(2e-4, 100e6, self.ZERO_LAT_ROUTE)
        params = model.transfer_params(1000, self.ZERO_LAT_ROUTE)
        assert params.latency == pytest.approx(2e-4)
        other = RouteParams(latency=5e-5, bandwidth=125e6)
        assert model.transfer_params(1000, other).latency == pytest.approx(
            5e-5 + 2e-4
        )

    def test_piecewise_alpha_survives_zero_latency_calibration(self):
        model = PiecewiseLinearNetworkModel.from_segments(
            [
                (0.0, 1024.0, 1e-4, 50e6),
                (1024.0, math.inf, 4e-4, 115e6),
            ],
            self.ZERO_LAT_ROUTE,
        )
        assert model.predict_time(100, self.ZERO_LAT_ROUTE) == pytest.approx(
            1e-4 + 100 / 50e6
        )
        assert model.predict_time(1 << 20, self.ZERO_LAT_ROUTE) == pytest.approx(
            4e-4 + (1 << 20) / 115e6
        )


class TestIncrementalSharing:
    """The dirty-set engine must match full re-sharing exactly while
    re-solving fewer flows."""

    @staticmethod
    def _staggered_workload(engine):
        """Disjoint pairs with staggered starts/sizes on a crossbar."""
        finish = {}
        for i in range(0, 8, 2):
            size = 1_000_000 * (i + 1)

            def make_next(src, dst, nxt_size):
                def start_next(_action):
                    follow = engine.communicate(src, dst, nxt_size,
                                                name=f"follow-{src}")
                    finish[follow.name] = follow
                return start_next

            first = engine.communicate(f"node-{i}", f"node-{i + 1}", size,
                                       name=f"pair-{i}")
            first.observer = make_next(f"node-{i}", f"node-{i + 1}",
                                       size // 2)
            finish[first.name] = first
        engine.execute("node-0", 5e8, name="overlap-compute")
        engine.run()
        return {name: a.finish_time for name, a in finish.items()}

    def _platform(self):
        return cluster("inceq", 8, backbone_bandwidth=None, split_duplex=True)

    def test_identical_times_and_fewer_resolves(self):
        inc = Engine(self._platform())
        t_inc = self._staggered_workload(inc)
        full = oracle_engine(self._platform(), full=True)
        t_full = self._staggered_workload(full)
        assert t_inc == t_full
        assert inc.stats.flows_resolved < full.stats.flows_resolved
        assert inc.stats.partial_shares > 0
        assert full.stats.partial_shares == 0

    def test_component_counters_populate(self):
        engine = Engine(self._platform())
        engine.communicate("node-0", "node-1", 1_000_000)
        engine.communicate("node-2", "node-3", 1_000_000)
        engine.run()
        assert engine.stats.flows_resolved >= 2
        assert engine.stats.components_solved >= 2

    def test_cancel_triggers_reshare_for_neighbours(self):
        engine = Engine(cluster("cx", 2))
        slow = engine.communicate("node-0", "node-1", 10_000_000, name="slow")
        victim = engine.communicate("node-0", "node-1", 10_000_000,
                                    name="victim")
        engine.advance(0.01)  # both past latency, sharing the access link
        engine.cancel(victim)
        engine.run()
        solo = Engine(cluster("cy", 2))
        alone = solo.communicate("node-0", "node-1", 10_000_000, name="slow")
        solo.advance(0.01)
        solo.run()
        # after the cancel the survivor speeds up to the solo rate; its
        # finish time sits between the solo and the fully-contended case
        assert slow.finish_time < 2 * alone.finish_time - 0.01
        assert victim.state is ActionState.FAILED

    def test_fail_resource_matches_between_modes(self):
        for full in (False, True):
            platform = cluster("fr", 4)
            engine = oracle_engine(platform, full=full)
            doomed = engine.communicate("node-0", "node-1", 50_000_000)
            safe = engine.communicate("node-2", "node-3", 1_000_000)
            engine.advance(0.001)
            engine.fail_resource(platform.link("fr-l0"))
            engine.run()
            assert doomed.state is ActionState.FAILED, full
            assert safe.state is ActionState.DONE, full


class TestLazyUpdates:
    """The heap-driven event loop must match the eager scan exactly while
    touching far fewer actions."""

    @staticmethod
    def _crossbar_workload(engine):
        """Disjoint staggered pairs plus a compute, a sleep and a cancel."""
        comms = [
            engine.communicate(f"node-{i}", f"node-{(i + 1) % 8}",
                               1_000_000 * (i + 1), name=f"c{i}")
            for i in range(8)
        ]
        engine.execute("node-0", 5e8, name="burst")
        engine.sleep(0.003, name="nap")
        engine.advance(0.001)
        engine.cancel(comms[3])
        engine.run()
        return [(a.name, a.state.value, a.finish_time) for a in comms]

    def _platform(self, tag):
        return cluster(tag, 8, backbone_bandwidth=None, split_duplex=True)

    def test_lazy_matches_eager_bit_for_bit(self):
        lazy = Engine(self._platform("lz"))
        eager = oracle_engine(self._platform("eg"), eager=True)
        r_lazy = self._crossbar_workload(lazy)
        r_eager = self._crossbar_workload(eager)
        assert r_lazy == r_eager
        assert lazy.now == eager.now

    def test_lazy_touches_fewer_actions(self):
        lazy = Engine(self._platform("lt"))
        eager = oracle_engine(self._platform("et"), eager=True)
        self._crossbar_workload(lazy)
        self._crossbar_workload(eager)
        assert lazy.stats.actions_touched < eager.stats.actions_touched
        assert lazy.stats.heap_pops > 0
        # the eager oracle never consults the heap
        assert eager.stats.heap_pops == 0
        assert eager.stats.stale_heap_entries == 0

    @pytest.mark.parametrize("full", [False, True])
    def test_eager_oracle_never_fills_the_heap(self, full):
        engine = oracle_engine(self._platform("eh"), eager=True, full=full)
        sizes = []
        for i in range(8):
            engine.communicate(f"node-{i}", f"node-{(i + 3) % 8}",
                               250_000 * (i + 1), name=f"c{i}")
        engine.sleep(0.002)
        while engine.busy:
            engine.step()
            sizes.append(len(engine._heap))
        assert engine.stats.actions_touched > 0
        assert set(sizes) == {0}

    def test_every_exit_from_a_live_phase_bumps_the_epoch(self):
        # a heap entry is live exactly while its epoch equals its
        # action's, so no transition out of LATENCY/RUNNING may keep it
        engine = Engine(self._platform("ep"))
        expiring = engine.communicate("node-0", "node-1", 1_000, name="x")
        failing = engine.communicate("node-2", "node-3", 10**9, name="f")
        epochs = {a.aid: a.epoch for a in (expiring, failing)}
        engine.step()  # both latency phases expire
        assert expiring.state is ActionState.RUNNING
        assert expiring.epoch > epochs[expiring.aid]
        epochs = {a.aid: a.epoch for a in (expiring, failing)}
        engine.share_resources()  # set_rate re-anchors both flows
        assert all(a.epoch > epochs[a.aid] for a in (expiring, failing))
        epoch = failing.epoch
        engine.cancel(failing)
        assert failing.state is ActionState.FAILED
        assert failing.epoch > epoch
        epoch = expiring.epoch
        engine.run()
        assert expiring.state is ActionState.DONE
        assert expiring.epoch > epoch

    @pytest.mark.parametrize("eager, full", [(True, False), (False, True),
                                             (True, True)])
    def test_oracles_refuse_snapshot(self, eager, full):
        engine = oracle_engine(self._platform("os"), eager=eager, full=full)
        with pytest.raises(SimulationError, match="incremental engine only"):
            snapshot_engine(engine)

    def test_poll_progress_tracks_pending_events(self):
        engine = Engine(self._platform("pp"))
        assert not engine.poll_progress()  # nothing pending
        engine.sleep(0.5)
        assert engine.poll_progress()
        engine.run()
        assert not engine.poll_progress()

    def test_step_reuses_the_date_peeked_before_it(self, monkeypatch):
        engine = Engine(self._platform("pk"))
        engine.sleep(0.5)
        engine.sleep(0.25)
        peeks = []
        peek = Engine.next_deadline
        monkeypatch.setattr(Engine, "next_deadline",
                            lambda self: peeks.append(1) or peek(self))
        while engine.poll_progress():  # the scheduler's loop
            engine.step()
        assert len(peeks) == 2  # one per step: the poll's
        assert engine.now == 0.5

    def test_step_peeks_again_after_a_change(self):
        engine = Engine(self._platform("pc"))
        engine.sleep(0.5)
        assert engine.poll_progress()
        early = engine.sleep(0.125)  # a new, earlier heap top
        engine.step()
        assert engine.now == 0.125 and early.state is ActionState.DONE
        assert engine.poll_progress()
        engine.communicate("node-0", "node-1", 1000)  # a share is due
        engine.step()
        assert engine.now < 0.5
        # the peeked top dies and nothing pops it before the step
        late = engine.sleep(0.25)
        assert engine.poll_progress()
        engine.cancel(engine._heap[0][3])
        engine.share_resources()
        engine.step()  # delivers the cancellation
        engine.step()
        assert engine.now < 0.5 and late.state is ActionState.DONE

    def test_link_samples_stay_in_sync_after_idle_shares(self):
        # regression: the counter used to be refreshed only when the
        # solver re-solved something, so shares where every component was
        # clean (e.g. only a sleep pending) could leave it stale
        engine = Engine(self._platform("ls"))
        timeline = engine.enable_timeline()
        engine.communicate("node-0", "node-1", 1_000_000)
        engine.run()
        engine.sleep(0.01)  # idle tail: shares re-solve nothing
        engine.run()
        assert engine.stats.link_samples == timeline.n_samples

    def test_fatpipe_link_usage_follows_its_flows_out(self):
        # regression: usage was summed again only for constraints in the
        # dirty set or in a re-solved component.  A FATPIPE constraint
        # enters neither when a flow leaves it, so the backbone stayed at
        # both flows' rate after the first left and busy after the second
        from repro.surf import SharingPolicy

        engine = Engine(cluster("fu", 4, backbone_sharing=SharingPolicy.FATPIPE))
        timeline = engine.enable_timeline()
        short = engine.communicate("node-0", "node-1", 1_000_000)
        long = engine.communicate("node-2", "node-3", 5_000_000)
        engine.execute("node-2", 5e9)  # keeps the engine sharing after both
        engine.run()
        assert timeline.samples("fu-l0")[-1] == (short.finish_time, 0.0)
        (_start, both), *rest = timeline.samples("fu-backbone")
        assert rest == [(short.finish_time, both / 2), (long.finish_time, 0.0)]

    def test_run_closes_the_timeline_when_it_drains(self):
        # regression: the last completion ends run() without a further
        # share, and only the SMPI runtime closed the timeline, so a
        # standalone run left x-l2 at 121.25 MB/s after its transfer ended
        from repro.surf import SharingPolicy

        engine = Engine(cluster("x", 4, backbone_sharing=SharingPolicy.FATPIPE))
        timeline = engine.enable_timeline()
        engine.communicate("node-0", "node-1", 1_000_000)
        long = engine.communicate("node-2", "node-3", 5_000_000)
        assert engine.run() == long.finish_time
        (_start, rate), end = timeline.samples("x-l2")
        assert rate > 0 and end == (long.finish_time, 0.0)
        assert all(series[-1][1] == 0.0 for series in
                   map(timeline.samples, timeline.names()))
        assert engine.stats.link_samples == timeline.n_samples


class TestStepsCounter:
    """``stats.steps`` is counted by ``step()`` itself, whichever driver
    paces the simulation (regression: ``run()`` used to count — off by one
    — and Scheduler-driven simulations never counted at all)."""

    def test_run_counts_actual_steps(self):
        engine = Engine(cluster("sc1", 2))
        engine.sleep(0.1)
        engine.sleep(0.2)
        engine.run()
        assert engine.stats.steps == 2

    def test_scheduler_driver_counts_steps(self):
        from repro.simix import Scheduler

        engine = Engine(cluster("sc2", 2))
        scheduler = Scheduler(engine)

        def actor():
            scheduler.sleep_activity(0.1).wait(scheduler.current)

        scheduler.add_actor("a0", "node-0", actor)
        scheduler.run()
        assert engine.stats.steps > 0
