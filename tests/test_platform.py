"""Tests for platforms, builders, routing and XML round-tripping."""

from __future__ import annotations

import math

import pytest

from repro.errors import PlatformError, RoutingError
from repro.surf import (
    Host,
    Link,
    Platform,
    SharingPolicy,
    cluster,
    multi_cabinet_cluster,
)
from repro.surf.platform_xml import (
    dumps_platform_xml,
    loads_platform_xml,
    save_platform_xml,
    load_platform_xml,
)


class TestResources:
    def test_link_parses_units(self):
        link = Link("l", "1Gbps", "50us")
        assert link.bandwidth == pytest.approx(125e6)
        assert link.latency == pytest.approx(5e-5)

    def test_link_rejects_bad_values(self):
        with pytest.raises(PlatformError):
            Link("l", 0)
        with pytest.raises(PlatformError):
            Link("l", 100, -1)

    def test_host_parses_units(self):
        host = Host("h", "2.5Gf", cores=8, memory="16GiB")
        assert host.speed == pytest.approx(2.5e9)
        assert host.cores == 8
        assert host.memory == 16 * 1024**3

    def test_host_rejects_bad_values(self):
        with pytest.raises(PlatformError):
            Host("h", 0)
        with pytest.raises(PlatformError):
            Host("h", 1e9, cores=0)

    def test_equality_by_name(self):
        assert Link("a", 1.0) == Link("a", 2.0)
        assert Host("a", 1.0) == Host("a", 2.0)
        assert Link("a", 1.0) != Link("b", 1.0)


class TestPlatform:
    def test_duplicate_host_rejected(self):
        platform = Platform("p")
        platform.add_host(Host("h", 1e9))
        with pytest.raises(PlatformError):
            platform.add_host(Host("h", 1e9))

    def test_duplicate_link_rejected(self):
        platform = Platform("p")
        platform.add_link(Link("l", 1e6))
        with pytest.raises(PlatformError):
            platform.add_link(Link("l", 1e6))

    def test_route_requires_known_hosts(self):
        platform = Platform("p")
        platform.add_host(Host("a", 1e9))
        with pytest.raises(PlatformError):
            platform.add_route("a", "ghost", [])

    def test_frozen_platform_is_immutable(self):
        platform = cluster("c", 2)
        platform.freeze()
        with pytest.raises(PlatformError):
            platform.add_host(Host("x", 1e9))

    def test_self_route_is_empty(self):
        platform = cluster("c", 2)
        route = platform.route("node-0", "node-0")
        assert len(route) == 0
        assert route.latency == 0
        assert math.isinf(route.bandwidth)

    def test_graph_routing_fallback(self):
        platform = Platform("g")
        for name in ("a", "b", "c"):
            platform.add_host(Host(name, 1e9))
        l_ab = Link("ab", 100e6, "1ms")
        l_bc = Link("bc", 50e6, "2ms")
        platform.connect("a", "b", l_ab)
        platform.connect("b", "c", l_bc)
        route = platform.route("a", "c")
        assert [l.name for l in route.links] == ["ab", "bc"]
        assert route.bandwidth == pytest.approx(50e6)
        assert route.latency == pytest.approx(3e-3)

    def test_no_route_raises(self):
        platform = Platform("g")
        platform.add_host(Host("a", 1e9))
        platform.add_host(Host("b", 1e9))
        with pytest.raises(RoutingError):
            platform.route("a", "b")

    def test_route_numbers_follow_a_mutation(self):
        # Route numbers are computed once per Route, so a mutation must
        # hand out a fresh Route rather than the cached one
        platform = Platform("p")
        platform.add_host(Host("a", 1e9))
        platform.add_host(Host("b", 1e9))
        platform.add_route("a", "b", [Link("slow", 1e6, "1ms")])
        before = platform.route("a", "b")
        assert before.params.bandwidth == pytest.approx(1e6)
        assert platform.route("a", "b") is before
        platform.add_route("a", "b", [Link("fast", 1e9, "1us")])
        after = platform.route("a", "b")
        assert after.bandwidth == pytest.approx(1e9)
        assert after.latency == pytest.approx(1e-6)
        assert after.params.bandwidth == pytest.approx(1e9)
        assert before.bandwidth == pytest.approx(1e6)

    def test_explicit_route_symmetry(self):
        platform = Platform("p")
        platform.add_host(Host("a", 1e9))
        platform.add_host(Host("b", 1e9))
        l1 = Link("l1", 1e6)
        l2 = Link("l2", 1e6)
        platform.add_route("a", "b", [l1, l2], symmetric=True)
        forward = platform.route("a", "b").links
        backward = platform.route("b", "a").links
        assert [l.name for l in backward] == [l.name for l in reversed(forward)]


class TestClusterBuilder:
    def test_host_count_and_names(self):
        platform = cluster("c", 5, prefix="n")
        assert len(platform.hosts) == 5
        assert platform.has_host("n0") and platform.has_host("n4")

    def test_route_crosses_backbone(self):
        platform = cluster("c", 4)
        route = platform.route("node-0", "node-3")
        names = [l.name for l in route.links]
        assert names == ["c-l0", "c-backbone", "c-l3"]

    def test_no_backbone_option(self):
        platform = cluster("c", 4, backbone_bandwidth=None)
        route = platform.route("node-0", "node-3")
        assert len(route.links) == 2

    def test_rejects_empty(self):
        with pytest.raises(PlatformError):
            cluster("c", 0)


class TestMultiCabinet:
    def test_structure(self):
        platform = multi_cabinet_cluster("m", [3, 2])
        assert len(platform.hosts) == 5
        intra = platform.route("node-0", "node-1")
        assert len(intra.links) == 3  # access, cab backbone, access
        inter = platform.route("node-0", "node-4")
        assert len(inter.links) == 7  # + uplinks and core backbone

    def test_rejects_empty_cabinet(self):
        with pytest.raises(PlatformError):
            multi_cabinet_cluster("m", [3, 0])


class TestXml:
    def test_roundtrip_small_cluster(self, tmp_path):
        original = cluster("rt", 3)
        path = tmp_path / "p.xml"
        save_platform_xml(original, path)
        loaded = load_platform_xml(path)
        assert sorted(h.name for h in loaded.hosts) == sorted(
            h.name for h in original.hosts
        )
        for src in original.host_names():
            for dst in original.host_names():
                if src == dst:
                    continue
                a = [l.name for l in original.route(src, dst).links]
                b = [l.name for l in loaded.route(src, dst).links]
                assert a == b

    def test_parse_hosts_links_routes(self):
        xml = """<?xml version="1.0"?>
        <platform version="4">
          <zone id="z" routing="Full">
            <host id="a" speed="1Gf" core="2"/>
            <host id="b" speed="2Gf"/>
            <link id="l" bandwidth="125MBps" latency="50us"/>
            <link id="fat" bandwidth="1.25GBps" latency="10us"
                  sharing_policy="FATPIPE"/>
            <route src="a" dst="b"><link_ctn id="l"/><link_ctn id="fat"/></route>
          </zone>
        </platform>"""
        platform = loads_platform_xml(xml)
        assert platform.host("a").cores == 2
        assert platform.host("b").speed == pytest.approx(2e9)
        route = platform.route("a", "b")
        assert [l.name for l in route.links] == ["l", "fat"]
        assert route.links[1].sharing is SharingPolicy.FATPIPE
        # symmetrical default applies
        assert [l.name for l in platform.route("b", "a").links] == ["fat", "l"]

    def test_parse_cluster_element(self):
        xml = """<platform version="4">
          <zone id="z" routing="Full">
            <cluster id="c" prefix="n-" suffix="" radical="0-3" speed="1Gf"
                     bw="125MBps" lat="50us" bb_bw="1.25GBps" bb_lat="20us"/>
          </zone>
        </platform>"""
        platform = loads_platform_xml(xml)
        assert len(platform.hosts) == 4
        route = platform.route("n-0", "n-3")
        assert len(route.links) == 3

    def test_radical_forms(self):
        from repro.surf.platform_xml import _parse_radical

        assert _parse_radical("0-3") == [0, 1, 2, 3]
        assert _parse_radical("0-2,7,9-10") == [0, 1, 2, 7, 9, 10]
        with pytest.raises(PlatformError):
            _parse_radical("5-2")

    def test_missing_attribute_raises(self):
        with pytest.raises(PlatformError):
            loads_platform_xml(
                '<platform version="4"><zone id="z"><host id="x"/></zone></platform>'
            )

    def test_wrong_root_raises(self):
        with pytest.raises(PlatformError):
            loads_platform_xml("<zone id='z'/>")

    def test_dump_contains_sharing_policy(self):
        platform = Platform("p")
        platform.add_host(Host("a", 1e9))
        platform.add_host(Host("b", 1e9))
        fat = Link("fat", 1e9, 0.0, SharingPolicy.FATPIPE)
        platform.add_route("a", "b", [fat])
        xml = dumps_platform_xml(platform)
        assert 'sharing_policy="FATPIPE"' in xml


class TestLoopbackConfiguration:
    def test_default_loopback_applies_to_every_host(self):
        platform = cluster("lbp", 3, loopback_bandwidth="10GBps")
        for name in platform.host_names():
            route = platform.route(name, name)
            assert [l.name for l in route.links] == ["lbp-loopback"]

    def test_per_host_loopback_overrides_default(self):
        platform = cluster("lbq", 2, loopback_bandwidth="10GBps")
        special = Link("special-lb", "20GBps", "1ns")
        platform.set_loopback(special, host="node-0")
        assert platform.route("node-0", "node-0").links[0].name == "special-lb"
        assert platform.route("node-1", "node-1").links[0].name == "lbq-loopback"

    def test_no_loopback_keeps_empty_self_route(self):
        platform = cluster("lbr", 2)
        assert platform.route("node-0", "node-0").links == ()

    def test_loopback_rejects_unknown_host(self):
        platform = cluster("lbs", 2)
        with pytest.raises(PlatformError):
            platform.set_loopback(Link("x-lb", "1GBps", "1ns"), host="nope")

    def test_loopback_link_is_fatpipe(self):
        platform = cluster("lbt", 2, loopback_bandwidth="10GBps")
        assert platform.link("lbt-loopback").sharing is SharingPolicy.FATPIPE


class TestSplitDuplexCluster:
    def test_routes_cross_up_then_down(self):
        platform = cluster("sd", 3, backbone_bandwidth=None, split_duplex=True)
        route = platform.route("node-0", "node-2")
        assert [l.name for l in route.links] == ["sd-l0-up", "sd-l2-down"]

    def test_opposite_directions_use_disjoint_links(self):
        platform = cluster("sd2", 2, backbone_bandwidth=None,
                           split_duplex=True)
        forward = {l.name for l in platform.route("node-0", "node-1").links}
        backward = {l.name for l in platform.route("node-1", "node-0").links}
        assert not (forward & backward)

    def test_backbone_still_shared_between_directions(self):
        platform = cluster("sd3", 2, split_duplex=True)
        forward = [l.name for l in platform.route("node-0", "node-1").links]
        assert forward == ["sd3-l0-up", "sd3-backbone", "sd3-l1-down"]

    def test_plain_cluster_keeps_single_access_links(self):
        platform = cluster("sd4", 2)
        forward = [l.name for l in platform.route("node-0", "node-1").links]
        assert forward == ["sd4-l0", "sd4-backbone", "sd4-l1"]
