"""Availability/state profiles: parsing, engine semantics, XML, tracing."""

from __future__ import annotations

import math

import pytest

from repro.errors import PlatformError, SimulationError
from repro.smpi import SmpiConfig, smpirun
from repro.surf import Engine, Profile, cluster, load_profile, parse_profile
from repro.surf.action import ActionState
from repro.surf.network_model import FactorsNetworkModel
from repro.surf.platform_xml import dumps_platform_xml, loads_platform_xml


def _ideal_engine(platform, **kwargs):
    """Engine without the 0.97 TCP derating, so capacity math is exact."""
    return Engine(platform, network_model=FactorsNetworkModel(1.0, 1.0),
                  **kwargs)


class TestProfileParsing:
    def test_parse_basic(self):
        profile = parse_profile("0.0 1.0\n5.0 0.5\n", "p")
        assert profile.points == ((0.0, 1.0), (5.0, 0.5))
        assert profile.period is None

    def test_parse_periodicity_and_comments(self):
        text = "# a comment\nPERIODICITY 10.0\n0.0 1.0\n5.0 0.5  # inline\n"
        profile = parse_profile(text, "p")
        assert profile.period == 10.0
        assert profile.points == ((0.0, 1.0), (5.0, 0.5))

    @pytest.mark.parametrize("text", [
        "",                       # no points
        "1.0 0.5\n0.5 1.0\n",     # times not increasing
        "-1.0 0.5\n",             # negative time
        "0.0 -0.5\n",             # negative value
        "0.0 nan\n",              # non-finite value
        "PERIODICITY 0\n0 1\n",   # period must be > 0
        "PERIODICITY 1\n0 1\n2 0.5\n",  # period before last point
        "0.0\n",                  # malformed line
        "0.0 1.0 2.0\n",          # too many fields
        "PERIODICITY\n0 1\n",     # directive without value
    ])
    def test_rejects_bad_input(self, text):
        with pytest.raises(PlatformError):
            parse_profile(text, "bad")

    def test_dumps_round_trip(self):
        profile = parse_profile("PERIODICITY 4.0\n0.0 1.0\n1.5 0.25\n", "p")
        assert parse_profile(profile.dumps(), "q") == profile

    def test_load_profile_uses_stem_as_name(self, tmp_path):
        path = tmp_path / "wave.trace"
        path.write_text("0.0 0.5\n", encoding="utf-8")
        profile = load_profile(path)
        assert profile.name == "wave"
        assert profile.points == ((0.0, 0.5),)

    def test_value_at_one_shot(self):
        profile = Profile(((1.0, 0.5), (2.0, 0.25)))
        assert profile.value_at(0.5) is None  # nominal until first point
        assert profile.value_at(1.0) == 0.5
        assert profile.value_at(1.9) == 0.5
        assert profile.value_at(100.0) == 0.25  # last value holds

    def test_value_at_periodic(self):
        profile = Profile(((0.0, 1.0), (1.0, 0.5)), period=2.0)
        assert profile.value_at(0.5) == 1.0
        assert profile.value_at(1.5) == 0.5
        assert profile.value_at(2.5) == 1.0  # second cycle
        assert profile.value_at(3.5) == 0.5

    def test_iter_events_periodic_is_infinite(self):
        profile = Profile(((0.0, 1.0), (1.0, 0.5)), period=2.0)
        events = profile.iter_events()
        got = [next(events) for _ in range(5)]
        assert got == [(0.0, 1.0), (1.0, 0.5), (2.0, 1.0), (3.0, 0.5),
                       (4.0, 1.0)]

    def test_name_is_not_part_of_equality(self):
        assert Profile(((0.0, 1.0),), name="a") == Profile(((0.0, 1.0),),
                                                           name="b")


class TestEngineAvailability:
    def test_set_availability_scales_transfer_time(self):
        times = {}
        for factor in (1.0, 0.5):
            platform = cluster("av", 2, backbone_bandwidth=None,
                               link_latency=0)
            engine = _ideal_engine(platform)
            for link in platform.links:
                engine.set_availability(link, factor)
            engine.communicate("node-0", "node-1", 10_000_000)
            times[factor] = engine.run()
        assert times[0.5] == pytest.approx(2 * times[1.0])

    def test_set_availability_validates_factor(self):
        platform = cluster("av2", 2)
        engine = Engine(platform)
        link = platform.link("av2-l0")
        for bad in (-0.5, float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                engine.set_availability(link, bad)

    def test_mid_flight_capacity_change_reanchors(self):
        # full speed for the first half, half speed for the second:
        # a transfer that would take 2t takes 1t + 2*(1t) = 3t total
        platform = cluster("av3", 2, backbone_bandwidth=None, link_latency=0)
        engine = _ideal_engine(platform)
        action = engine.communicate("node-0", "node-1", 10_000_000)
        baseline = 10_000_000 / platform.link("av3-l0").bandwidth
        half_t = baseline / 2

        def degrade():
            for link in platform.links:
                engine.set_availability(link, 0.5)

        engine.at(half_t, degrade)
        final = engine.run()
        assert action.state is ActionState.DONE
        assert final == pytest.approx(half_t + 2 * half_t)

    def test_availability_profile_fires_from_attached_resource(self):
        platform = cluster("av4", 2, backbone_bandwidth=None, link_latency=0)
        for link in platform.links:
            link.availability_profile = parse_profile("0 0.5\n", "half")
        engine = _ideal_engine(platform)
        engine.communicate("node-0", "node-1", 10_000_000)
        degraded = engine.run()

        platform2 = cluster("av4", 2, backbone_bandwidth=None, link_latency=0)
        engine2 = _ideal_engine(platform2)
        engine2.communicate("node-0", "node-1", 10_000_000)
        assert degraded == pytest.approx(2 * engine2.run())

    def test_zero_availability_stalls_until_restore_point(self):
        # rate 0 is not a deadlock when the profile has a later point
        platform = cluster("av5", 2, backbone_bandwidth=None, link_latency=0)
        profile = parse_profile("0.0 0.0\n0.5 1.0\n", "outage")
        for link in platform.links:
            link.availability_profile = profile
        engine = _ideal_engine(platform)
        engine.communicate("node-0", "node-1", 1_000_000)
        baseline = 1_000_000 / platform.link("av5-l0").bandwidth
        assert engine.run() == pytest.approx(0.5 + baseline)

    @pytest.mark.parametrize("link, text, kind, outcome, rate_cap", [
        # a periodic profile that never touches the stalled path
        ("pst-l2", "PERIODICITY 0.01\n0 0.5\n0.005 1\n", "availability",
         None, math.inf),
        # state points on the path that can only restore, never fail
        ("pst-l0", "PERIODICITY 0.01\n0 1\n0.005 2\n", "state", None,
         math.inf),
        # a 0 state point on the path ends the transfer
        ("pst-l0", "PERIODICITY 0.01\n0.005 0\n0.006 1\n", "state",
         ActionState.FAILED, math.inf),
        # a positive availability point revives the stalled link
        ("pst-l1", "PERIODICITY 0.01\n0.005 1\n", "availability",
         ActionState.DONE, math.inf),
        # a flow held at rate 0 by its own bound, every link up: no
        # capacity change can ever free it
        ("pst-l2", "PERIODICITY 0.01\n0 0.5\n0.005 1\n", "availability",
         None, 0.0),
        # ... but a 0 state point on its path still ends it
        ("pst-l0", "PERIODICITY 0.01\n0.005 0\n0.006 1\n", "state",
         ActionState.FAILED, 0.0),
    ], ids=["unrelated", "restore-only", "fails", "revives", "rate-cap-0",
            "rate-cap-0-fails"])
    def test_permanent_stall_beside_periodic_profile_raises(
            self, link, text, kind, outcome, rate_cap):
        # node-1's link is stalled at availability 0 with no profile of
        # its own (or, with rate_cap=0, the flow's own bound stalls it);
        # only a profile that can end or revive the transfer keeps the
        # engine stepping
        platform = cluster("pst", 3, backbone_bandwidth=None)
        engine = _ideal_engine(platform)
        if rate_cap != 0.0:
            engine.set_availability(platform.link("pst-l1"), 0.0)
        engine.attach_profile(platform.link(link), parse_profile(text, "p"),
                              kind)
        action = engine.communicate("node-0", "node-1", 1_000_000,
                                    rate_cap=rate_cap)
        if outcome is None:
            with pytest.raises(SimulationError, match="no action can complete"):
                for _ in range(1000):  # periodic points never run out
                    engine.step()
        else:
            engine.run()
            assert action.state is outcome

    def test_state_profile_fails_and_restores_resource(self):
        platform = cluster("st", 2)
        link = platform.link("st-backbone")
        link.state_profile = parse_profile("0.001 0\n0.01 1\n", "flap")
        engine = Engine(platform)
        doomed = engine.communicate("node-0", "node-1", 50_000_000)
        engine.sleep(0.02)  # keep the run alive past the restore point
        engine.run()
        assert doomed.state is ActionState.FAILED
        assert not engine.is_dead(link)  # restored by the second point
        assert engine.stats.resource_failures == 1
        assert engine.stats.resource_restores == 1

    def test_attach_profile_rejects_unknown_kind(self):
        platform = cluster("st2", 2)
        engine = Engine(platform)
        with pytest.raises(SimulationError):
            engine.attach_profile(platform.link("st2-l0"),
                                  parse_profile("0 1\n", "p"), kind="nope")

    def test_fail_and_restore_are_idempotent(self):
        platform = cluster("st3", 2)
        engine = Engine(platform)
        link = platform.link("st3-l0")
        engine.restore_resource(link)  # restoring a live link: no-op
        engine.fail_resource(link)
        engine.fail_resource(link)
        assert engine.stats.resource_failures == 1
        engine.restore_resource(link)
        engine.restore_resource(link)
        assert engine.stats.resource_restores == 1

    def test_resource_listeners_observe_events(self):
        platform = cluster("ls", 2)
        engine = Engine(platform)
        seen = []
        engine.resource_listeners.append(
            lambda event, resource, now: seen.append((event, resource.name)))
        link = platform.link("ls-l0")
        engine.set_availability(link, 0.5)
        engine.fail_resource(link)
        engine.restore_resource(link)
        assert seen == [("capacity", "ls-l0"), ("fail", "ls-l0"),
                        ("restore", "ls-l0")]


class TestPlatformXmlTraces:
    XML = """<?xml version="1.0"?>
    <platform version="4">
      <zone id="z" routing="Full">
        <host id="h0" speed="1Gf"/>
        <host id="h1" speed="1Gf"/>
        <link id="l0" bandwidth="125MBps" latency="50us"/>
        <route src="h0" dst="h1"><link_ctn id="l0"/></route>
        <trace id="wave" periodicity="2.0">
          0.0 1.0
          1.0 0.5
        </trace>
        <trace_connect trace="wave" element="l0" kind="BANDWIDTH"/>
        <trace id="flap">
          0.5 0
          1.5 1
        </trace>
        <trace_connect trace="flap" element="h1" kind="HOST_AVAIL"/>
      </zone>
    </platform>"""

    def test_trace_connect_attaches_profiles(self):
        platform = loads_platform_xml(self.XML)
        wave = platform.link("l0").availability_profile
        assert wave.period == 2.0 and wave.points[1] == (1.0, 0.5)
        flap = platform.host("h1").state_profile
        assert flap.points == ((0.5, 0.0), (1.5, 1.0))

    def test_dump_round_trips_profiles(self):
        platform = loads_platform_xml(self.XML)
        again = loads_platform_xml(dumps_platform_xml(platform))
        assert (again.link("l0").availability_profile
                == platform.link("l0").availability_profile)
        assert (again.host("h1").state_profile
                == platform.host("h1").state_profile)

    def test_unknown_trace_reference_is_an_error(self):
        bad = """<platform version="4"><zone id="z" routing="Full">
            <link id="l" bandwidth="1MBps"/>
            <trace_connect trace="ghost" element="l" kind="BANDWIDTH"/>
            </zone></platform>"""
        with pytest.raises(PlatformError):
            loads_platform_xml(bad)

    def test_unknown_kind_is_an_error(self):
        bad = """<platform version="4"><zone id="z" routing="Full">
            <link id="l" bandwidth="1MBps"/>
            <trace id="t">0 1</trace>
            <trace_connect trace="t" element="l" kind="LATENCY"/>
            </zone></platform>"""
        with pytest.raises(PlatformError):
            loads_platform_xml(bad)

    def test_profile_file_attributes(self, tmp_path):
        (tmp_path / "bw.trace").write_text("0 0.5\n", encoding="utf-8")
        (tmp_path / "p.xml").write_text(
            """<platform version="4"><zone id="z" routing="Full">
            <host id="h" speed="1Gf" availability_file="bw.trace"/>
            <link id="l" bandwidth="1MBps" bandwidth_file="bw.trace"/>
            </zone></platform>""", encoding="utf-8")
        from repro.surf import load_platform_xml

        platform = load_platform_xml(tmp_path / "p.xml")
        assert platform.link("l").availability_profile.points == ((0.0, 0.5),)
        assert platform.host("h").availability_profile.points == ((0.0, 0.5),)


class TestCapacityTracing:
    def test_timeline_records_capacity_steps(self):
        platform = cluster("ct", 2, backbone_bandwidth=None)
        engine = Engine(platform)
        timeline = engine.enable_timeline()
        link = platform.link("ct-l0")
        engine.communicate("node-0", "node-1", 1_000_000)
        engine.at(0.001, lambda: engine.set_availability(link, 0.5))
        engine.run()
        steps = timeline.capacity_steps("ct-l0")
        assert steps == [(0.001, pytest.approx(0.5 * link.bandwidth))]
        assert engine.stats.capacity_events == 1

    def test_capacity_steps_round_trip_through_csv(self):
        from repro.trace import Tracer

        platform = cluster("cc", 2, backbone_bandwidth=None)
        engine = Engine(platform)
        link = platform.link("cc-l0")

        def app(mpi):
            if mpi.rank == 0:
                mpi.COMM_WORLD.send(b"x" * 1_000_000, dest=1, tag=0)
            else:
                mpi.COMM_WORLD.recv(source=0, tag=0)

        engine.at(0.002, lambda: engine.set_availability(link, 0.25))
        result = smpirun(app, 2, platform, engine=engine,
                         config=SmpiConfig(tracing=True))
        timeline = result.trace.timeline
        assert timeline.capacity_steps("cc-l0")
        loaded = Tracer.from_csv(result.trace.to_csv())
        assert (loaded.timeline.capacity_series
                == timeline.capacity_series)
