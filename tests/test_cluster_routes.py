"""The cluster builders' on-demand routes equal the stored all-pairs table.

``cluster`` and ``multi_cabinet_cluster`` compute a host pair's links
when the pair is first resolved.  Every expectation below is the link
sequence the builders used to store for each ordered pair, rebuilt here
by name from the topology's definition.
"""

from __future__ import annotations

import pytest

from repro.errors import PlatformError
from repro.platforms.gdx import SWITCH_GROUPS, gdx
from repro.platforms.griffon import CABINETS, griffon
from repro.surf import Link, cluster, multi_cabinet_cluster
from repro.surf.platform_xml import dumps_platform_xml, loads_platform_xml


def route_names(platform, src, dst):
    return tuple(link.name for link in platform.route(src, dst).links)


def assert_all_pairs(platform, prefix, expected):
    """Every ordered pair of distinct hosts resolves to ``expected(i, j)``."""
    n = len(platform.hosts)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert route_names(platform, f"{prefix}{i}", f"{prefix}{j}") \
                    == expected(i, j), (i, j)


def cabinet_expectation(name, sizes):
    """The stored-table route of a multi-cabinet cluster, by link name."""
    cabinet_of = [cab for cab, size in enumerate(sizes) for _ in range(size)]

    def expected(i, j):
        ci, cj = cabinet_of[i], cabinet_of[j]
        if ci == cj:
            return (f"{name}-l{i}", f"{name}-cab{ci}-backbone", f"{name}-l{j}")
        return (f"{name}-l{i}", f"{name}-cab{ci}-backbone",
                f"{name}-cab{ci}-uplink", f"{name}-core-backbone",
                f"{name}-cab{cj}-uplink", f"{name}-cab{cj}-backbone",
                f"{name}-l{j}")

    return expected


class TestClusterRoutes:
    def test_with_backbone(self):
        platform = cluster("c", 9, prefix="n")
        assert_all_pairs(platform, "n",
                         lambda i, j: (f"c-l{i}", "c-backbone", f"c-l{j}"))

    def test_without_backbone(self):
        platform = cluster("c", 9, backbone_bandwidth=None)
        assert_all_pairs(platform, "node-",
                         lambda i, j: (f"c-l{i}", f"c-l{j}"))

    def test_split_duplex(self):
        platform = cluster("sd", 7, split_duplex=True)
        assert_all_pairs(platform, "node-",
                         lambda i, j: (f"sd-l{i}-up", "sd-backbone",
                                       f"sd-l{j}-down"))

    def test_split_duplex_crossbar(self):
        platform = cluster("x", 5, split_duplex=True, backbone_bandwidth=None)
        assert_all_pairs(platform, "node-",
                         lambda i, j: (f"x-l{i}-up", f"x-l{j}-down"))

    def test_loopback_and_self_routes(self):
        with_lb = cluster("lb", 4, loopback_bandwidth="10GBps")
        without = cluster("nolb", 4)
        for i in range(4):
            host = f"node-{i}"
            assert route_names(with_lb, host, host) == ("lb-loopback",)
            assert route_names(without, host, host) == ()
        assert_all_pairs(with_lb, "node-",
                         lambda i, j: (f"lb-l{i}", "lb-backbone", f"lb-l{j}"))

    def test_single_host(self):
        platform = cluster("one", 1)
        assert route_names(platform, "node-0", "node-0") == ()


class TestMultiCabinetRoutes:
    def test_griffon(self):
        assert_all_pairs(griffon(), "griffon-",
                         cabinet_expectation("griffon", CABINETS))

    def test_gdx(self):
        assert_all_pairs(gdx(), "gdx-", cabinet_expectation("gdx", SWITCH_GROUPS))

    def test_truncated_gdx(self):
        platform = gdx(40)
        assert_all_pairs(platform, "gdx-",
                         cabinet_expectation("gdx", [18, 18, 4]))

    def test_builders_store_no_per_pair_route(self):
        for platform in (gdx(256), griffon(), cluster("c", 64)):
            assert platform._routing._explicit == {}


class TestOverridesAndErrors:
    def test_explicit_route_overrides_builder_route(self):
        platform = cluster("c", 4)
        platform.add_route("node-0", "node-1", ["c-l0", "c-l1"], symmetric=False)
        assert route_names(platform, "node-0", "node-1") == ("c-l0", "c-l1")
        assert route_names(platform, "node-1", "node-0") == \
            ("c-l1", "c-backbone", "c-l0")

    def test_symmetric_override_keeps_builder_reverse_route(self):
        # the reverse direction is only filled in when nothing declares it
        platform = multi_cabinet_cluster("m", [2, 2])
        extra = Link("m-direct", "1GBps")
        platform.add_route("node-0", "node-3", [extra], symmetric=True)
        assert route_names(platform, "node-0", "node-3") == ("m-direct",)
        assert route_names(platform, "node-3", "node-0") == \
            cabinet_expectation("m", [2, 2])(3, 0)

    def test_override_after_resolution_is_seen(self):
        platform = cluster("c", 3)
        assert route_names(platform, "node-0", "node-2") == \
            ("c-l0", "c-backbone", "c-l2")
        platform.add_route("node-0", "node-2", ["c-backbone"], symmetric=False)
        assert route_names(platform, "node-0", "node-2") == ("c-backbone",)

    def test_unknown_endpoint_raises(self):
        platform = griffon(4)
        with pytest.raises(PlatformError):
            platform.route("griffon-0", "ghost")
        with pytest.raises(PlatformError):
            platform.route("ghost", "griffon-0")
        with pytest.raises(PlatformError):
            platform.route("griffon-0", "griffon-4")


class TestXmlRoundTrip:
    @pytest.mark.parametrize("build", [
        lambda: cluster("rt", 5),
        lambda: cluster("rt", 4, split_duplex=True, backbone_bandwidth=None),
        lambda: multi_cabinet_cluster("rt", [3, 2, 2]),
    ])
    def test_builder_routes_survive_dump_and_load(self, build):
        original = build()
        loaded = loads_platform_xml(dumps_platform_xml(original))
        names = original.host_names()
        assert loaded.host_names() == names
        for src in names:
            for dst in names:
                if src != dst:
                    assert route_names(loaded, src, dst) == \
                        route_names(original, src, dst)
