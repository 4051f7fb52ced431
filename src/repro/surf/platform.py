"""Platform descriptions: hosts, links and routes of a target cluster.

A :class:`Platform` aggregates the resources the engine simulates.  Besides
free-form construction (``add_host`` / ``add_link`` / ``add_route`` /
``connect``), two builders cover the topologies of the paper:

* :func:`cluster` — a single-switch cluster in SimGrid's ``<cluster>``
  style: every node has a private full-duplex-ish access link, and all
  traffic additionally crosses a shared *backbone* that models the switch
  fabric.  The backbone is where concurrent transfers contend — on an
  ideal crossbar a binomial scatter would never share a link, yet real
  switches do exhibit contention (paper Fig. 7), which SimGrid captures
  with exactly this construct.
* :func:`multi_cabinet_cluster` — the hierarchical topology of griffon and
  gdx: per-cabinet switches (own backbone), connected to a second-level
  switch by uplinks; inter-cabinet routes cross 3 switches as in Fig. 5.

Neither builder stores a route per host pair: each installs one
:class:`~repro.surf.routing.ClusterRoutes` rule that computes a pair's
links when :meth:`Platform.route` first asks for them.

Platform files in SimGrid's XML dialect are handled by
:mod:`repro.surf.platform_xml`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import PlatformError
from .resources import Host, Link, SharingPolicy
from .routing import ClusterRoutes, Route, RoutingTable

__all__ = ["Platform", "cluster", "multi_cabinet_cluster"]


class Platform:
    """The set of hosts, links and routes of one target platform."""

    def __init__(self, name: str = "platform") -> None:
        self.name = name
        self._hosts: dict[str, Host] = {}
        self._links: dict[str, Link] = {}
        self._routing = RoutingTable()
        self._loopbacks: dict[str, Link] = {}
        self._default_loopback: Link | None = None
        self._frozen = False
        #: memoized route resolutions, keyed by (src, dst) endpoint pair;
        #: cleared by every mutator so stale link sequences never leak out
        self._route_cache: dict[tuple[str, str], Route] = {}

    # -- construction ---------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise PlatformError(f"platform {self.name!r} is frozen (engine started)")
        # any mutation may change what route() would resolve
        self.invalidate_route_cache()

    def invalidate_route_cache(self) -> None:
        """Drop memoized route resolutions (after any topology change).

        Called automatically by every mutator (``add_host``/``add_link``/
        ``add_route``/``connect``/``set_loopback``); exposed for callers
        that alter routing-relevant state out-of-band, e.g. attaching
        availability profiles when loading an XML platform.
        """
        self._route_cache.clear()

    def add_host(self, host: Host) -> Host:
        self._check_mutable()
        if host.name in self._hosts:
            raise PlatformError(f"duplicate host {host.name!r}")
        self._hosts[host.name] = host
        return host

    def add_link(self, link: Link) -> Link:
        self._check_mutable()
        if link.name in self._links:
            raise PlatformError(f"duplicate link {link.name!r}")
        self._links[link.name] = link
        return link

    def add_route(
        self,
        src: str,
        dst: str,
        links: Sequence[Link | str],
        symmetric: bool = True,
    ) -> None:
        """Declare the exact link sequence between two hosts."""
        self._check_mutable()
        for endpoint in (src, dst):
            if endpoint not in self._hosts:
                raise PlatformError(f"route endpoint {endpoint!r} is not a host")
        resolved = tuple(self._resolve_link(link) for link in links)
        self._routing.add_explicit(src, dst, resolved, symmetric)

    def _set_route_rule(self, rule: ClusterRoutes) -> None:
        """Resolve a builder's host pairs through ``rule`` (after explicit
        routes, so ``add_route`` overrides it)."""
        self._check_mutable()
        self._routing.set_rule(rule)

    def connect(self, a: str, b: str, link: Link | str) -> None:
        """Add a graph edge between two nodes (host or router names)."""
        self._check_mutable()
        self._routing.add_edge(a, b, self._resolve_link(link))

    def set_loopback(self, link: Link | str, host: str | None = None) -> Link:
        """Route host-local transfers through ``link``.

        With ``host=None`` the link becomes the loopback of every host;
        a per-host loopback overrides the default.  Routing self-sends
        over a real link lets calibrated network models apply to them
        (the engine otherwise falls back to fixed loopback constants).
        """
        self._check_mutable()
        resolved = self._resolve_link(link)
        if host is None:
            self._default_loopback = resolved
        else:
            if host not in self._hosts:
                raise PlatformError(f"loopback endpoint {host!r} is not a host")
            self._loopbacks[host] = resolved
        return resolved

    def loopback(self, host: str) -> Link | None:
        """The loopback link of ``host`` (None when not configured)."""
        return self._loopbacks.get(host, self._default_loopback)

    def _resolve_link(self, link: Link | str) -> Link:
        if isinstance(link, Link):
            if link.name not in self._links:
                self.add_link(link)
            return link
        try:
            return self._links[link]
        except KeyError:
            raise PlatformError(f"unknown link {link!r}") from None

    def freeze(self) -> None:
        """Make the platform immutable (called by the engine on start)."""
        self._frozen = True

    # -- queries ---------------------------------------------------------------

    @property
    def hosts(self) -> list[Host]:
        return list(self._hosts.values())

    @property
    def links(self) -> list[Link]:
        return list(self._links.values())

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise PlatformError(f"unknown host {name!r}") from None

    def link(self, name: str) -> Link:
        try:
            return self._links[name]
        except KeyError:
            raise PlatformError(f"unknown link {name!r}") from None

    def has_host(self, name: str) -> bool:
        return name in self._hosts

    def route(self, src: str, dst: str) -> Route:
        """Resolve the link sequence from ``src`` to ``dst`` (memoized).

        Resolution walks the routing table (graph search for edge-declared
        topologies), so repeated lookups for the same endpoint pair — one
        per message in the protocol layer — hit a cache keyed by the pair.
        Any platform mutation invalidates the cache.
        """
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        for endpoint in (src, dst):
            if endpoint not in self._hosts:
                raise PlatformError(f"route endpoint {endpoint!r} is not a host")
        if src == dst:
            loopback = self.loopback(src)
            if loopback is not None:
                route = Route(src, dst, (loopback,))
                self._route_cache[key] = route
                return route
        route = self._routing.resolve(src, dst)
        self._route_cache[key] = route
        return route

    def host_names(self) -> list[str]:
        return list(self._hosts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Platform({self.name!r}, {len(self._hosts)} hosts, "
            f"{len(self._links)} links)"
        )


def cluster(
    name: str,
    n_hosts: int,
    host_speed: float | str = "1Gf",
    link_bandwidth: float | str = "125MBps",
    link_latency: float | str = "50us",
    backbone_bandwidth: float | str | None = "1.25GBps",
    backbone_latency: float | str = "20us",
    backbone_sharing: SharingPolicy = SharingPolicy.SHARED,
    cores: int = 1,
    memory: int | str = "16GiB",
    prefix: str = "node-",
    loopback_bandwidth: float | str | None = None,
    loopback_latency: float | str = "100ns",
    split_duplex: bool = False,
) -> Platform:
    """A single-switch cluster with per-node access links and a backbone.

    The defaults model a Gigabit-Ethernet cluster (125 MB/s access links)
    with a 10 Gb switch fabric.  Pass ``backbone_bandwidth=None`` for an
    ideal crossbar without any shared fabric.  ``loopback_bandwidth``
    adds a FATPIPE loopback link shared by all hosts so the network model
    applies to self-sends (SimGrid's ``<cluster loopback_bw=...>``); left
    ``None``, the engine uses its fixed loopback constants.
    ``split_duplex=True`` models full-duplex access links as two SHARED
    half-links per node (SimGrid's SPLITDUPLEX cluster sharing policy):
    a route then crosses the sender's up-link and the receiver's
    down-link, so opposite directions do not contend.
    """
    if n_hosts < 1:
        raise PlatformError("cluster needs at least one host")
    platform = Platform(name)
    backbone: Link | None = None
    if backbone_bandwidth is not None:
        backbone = platform.add_link(
            Link(f"{name}-backbone", backbone_bandwidth, backbone_latency,
                 backbone_sharing)
        )
    if loopback_bandwidth is not None:
        platform.set_loopback(
            Link(f"{name}-loopback", loopback_bandwidth, loopback_latency,
                 SharingPolicy.FATPIPE)
        )
    up_links: list[Link] = []
    down_links: list[Link] = []
    for i in range(n_hosts):
        platform.add_host(
            Host(f"{prefix}{i}", host_speed, cores=cores, memory=memory)
        )
        if split_duplex:
            up_links.append(
                platform.add_link(
                    Link(f"{name}-l{i}-up", link_bandwidth, link_latency)
                )
            )
            down_links.append(
                platform.add_link(
                    Link(f"{name}-l{i}-down", link_bandwidth, link_latency)
                )
            )
        else:
            link = platform.add_link(
                Link(f"{name}-l{i}", link_bandwidth, link_latency)
            )
            up_links.append(link)
            down_links.append(link)
    platform._set_route_rule(ClusterRoutes(
        {f"{prefix}{i}": i for i in range(n_hosts)},
        up_links,
        down_links,
        [0] * n_hosts,
        [(backbone,) if backbone is not None else ()],
    ))
    return platform


def multi_cabinet_cluster(
    name: str,
    cabinet_sizes: Iterable[int],
    host_speed: float | str = "1Gf",
    link_bandwidth: float | str = "125MBps",
    link_latency: float | str = "50us",
    cabinet_backbone_bandwidth: float | str = "1.25GBps",
    cabinet_backbone_latency: float | str = "20us",
    uplink_bandwidth: float | str = "1.25GBps",
    uplink_latency: float | str = "20us",
    core_backbone_bandwidth: float | str = "1.25GBps",
    core_backbone_latency: float | str = "20us",
    cores: int = 1,
    memory: int | str = "16GiB",
    prefix: str = "node-",
) -> Platform:
    """A hierarchical cluster: cabinets with switches behind a core switch.

    Intra-cabinet routes cross ``access → cabinet backbone → access``
    (1 switch); inter-cabinet routes cross
    ``access → cab bb → uplink → core bb → uplink → cab bb → access``
    (3 switches), matching the gdx topology of paper Fig. 5.
    """
    sizes = list(cabinet_sizes)
    if not sizes or any(size < 1 for size in sizes):
        raise PlatformError("each cabinet needs at least one host")
    platform = Platform(name)
    core_bb = platform.add_link(
        Link(f"{name}-core-backbone", core_backbone_bandwidth, core_backbone_latency)
    )
    host_cab: list[int] = []
    node_links: list[Link] = []
    cab_bb: list[Link] = []
    cab_up: list[Link] = []
    node_id = 0
    for cab, size in enumerate(sizes):
        cab_bb.append(
            platform.add_link(
                Link(f"{name}-cab{cab}-backbone", cabinet_backbone_bandwidth,
                     cabinet_backbone_latency)
            )
        )
        cab_up.append(
            platform.add_link(
                Link(f"{name}-cab{cab}-uplink", uplink_bandwidth, uplink_latency)
            )
        )
        for _ in range(size):
            host = platform.add_host(
                Host(f"{prefix}{node_id}", host_speed, cores=cores, memory=memory)
            )
            # record the cabinet as the host's topology group so
            # hierarchical collectives can split along the real switches
            host.group = f"{name}-cab{cab}"
            node_links.append(
                platform.add_link(
                    Link(f"{name}-l{node_id}", link_bandwidth, link_latency)
                )
            )
            host_cab.append(cab)
            node_id += 1

    platform._set_route_rule(ClusterRoutes(
        {f"{prefix}{i}": i for i in range(node_id)},
        node_links,
        node_links,
        host_cab,
        [(bb,) for bb in cab_bb],
        cab_up,
        core_bb,
    ))
    return platform
