"""Route computation over a platform graph.

A :class:`Route` is the ordered set of links a transfer between two hosts
crosses, together with the aggregate physical parameters the network model
needs (total latency, bottleneck bandwidth).  Routes come from three
sources, checked in order:

1. an explicit route table (``Platform.add_route``) — how SimGrid XML
   platforms describe clusters;
2. the route rule (:class:`ClusterRoutes`) a cluster builder installs,
   which computes a host pair's links on demand instead of storing all
   n(n-1) of them, as SimGrid's cluster zones do;
3. shortest-path search (by latency, then hop count) on the platform's
   link graph via :mod:`networkx`, for free-form topologies.  The graph
   and :mod:`networkx` are loaded only once ``connect`` adds an edge.

Resolution is not cached here: :meth:`Platform.route` memoizes resolved
routes and clears that cache on every mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from ..errors import RoutingError
from .network_model import RouteParams
from .resources import Link

__all__ = ["ClusterRoutes", "Route", "Router"]


@dataclass(frozen=True)
class Router:
    """A routing-only node (a switch): never endpoint of a transfer."""

    name: str

    def __hash__(self) -> int:
        return hash(("router", self.name))


@dataclass(frozen=True)
class Route:
    """An ordered sequence of links between two named endpoints."""

    src: str
    dst: str
    links: tuple[Link, ...]

    # Computed once per Route (a cached_property writes the instance
    # dict directly, which a frozen dataclass allows): the links are
    # fixed, and Platform.route drops its cached Routes on any mutation.
    @cached_property
    def latency(self) -> float:
        return sum(link.latency for link in self.links)

    @cached_property
    def bandwidth(self) -> float:
        if not self.links:
            return float("inf")
        return min(link.bandwidth for link in self.links)

    @cached_property
    def params(self) -> RouteParams:
        return RouteParams(latency=self.latency, bandwidth=self.bandwidth)

    def reversed(self) -> "Route":
        return Route(self.dst, self.src, tuple(reversed(self.links)))

    def __len__(self) -> int:
        return len(self.links)


class ClusterRoutes:
    """The routes of a switched cluster, computed per host pair on demand.

    Host ``i`` (named by ``index``) sends over ``up[i]`` and receives over
    ``down[i]``, one link when the access link is not split by direction.
    It sits in cabinet ``cabinet_of[i]``, whose switch fabric is the
    ``backbone[c]`` links (one backbone, or none for an ideal crossbar).
    Hosts of one cabinet talk through its switch; hosts of two cabinets
    also climb the source cabinet's ``uplink``, cross the ``core``
    backbone and descend the destination cabinet's uplink.
    """

    __slots__ = ("index", "up", "down", "cabinet_of", "backbone", "uplink",
                 "core")

    def __init__(
        self,
        index: dict[str, int],
        up: Sequence[Link],
        down: Sequence[Link],
        cabinet_of: Sequence[int],
        backbone: Sequence[tuple[Link, ...]],
        uplink: Sequence[Link] = (),
        core: Link | None = None,
    ) -> None:
        self.index = index
        self.up = up
        self.down = down
        self.cabinet_of = cabinet_of
        self.backbone = backbone
        self.uplink = uplink
        self.core = core

    def links(self, src: str, dst: str) -> tuple[Link, ...] | None:
        """The links from ``src`` to ``dst``; None unless both are hosts
        of this cluster."""
        i = self.index.get(src)
        j = self.index.get(dst)
        if i is None or j is None:
            return None
        ci = self.cabinet_of[i]
        cj = self.cabinet_of[j]
        if ci == cj:
            return (self.up[i], *self.backbone[ci], self.down[j])
        return (self.up[i], *self.backbone[ci], self.uplink[ci], self.core,
                self.uplink[cj], *self.backbone[cj], self.down[j])


class RoutingTable:
    """Explicit routes, a builder's route rule and a graph fallback; owned
    by the Platform."""

    def __init__(self) -> None:
        self._explicit: dict[tuple[str, str], tuple[Link, ...]] = {}
        self._rule: ClusterRoutes | None = None
        self._graph = None  # a networkx.Graph once an edge is added

    # -- construction --------------------------------------------------------

    def add_explicit(
        self, src: str, dst: str, links: tuple[Link, ...], symmetric: bool = True
    ) -> None:
        self._explicit[(src, dst)] = links
        # the reverse direction is filled in only when nothing declares it
        # yet, an explicit route or the builder rule
        if (symmetric and (dst, src) not in self._explicit
                and self._rule_links(dst, src) is None):
            self._explicit[(dst, src)] = tuple(reversed(links))

    def set_rule(self, rule: ClusterRoutes) -> None:
        """Resolve the host pairs of a builder's cluster through ``rule``."""
        self._rule = rule

    def add_edge(self, a: str, b: str, link: Link) -> None:
        """Connect two graph nodes (host or router names) with a link."""
        if self._graph is None:
            import networkx as nx

            self._graph = nx.Graph()
        self._graph.add_edge(a, b, link=link, weight=link.latency + 1e-9)

    # -- resolution -----------------------------------------------------------

    def resolve(self, src: str, dst: str) -> Route:
        if src == dst:
            return Route(src, dst, ())
        links = self._explicit.get((src, dst))
        if links is None:
            links = self._rule_links(src, dst)
        if links is None:
            return self._shortest_path(src, dst)
        return Route(src, dst, links)

    def _rule_links(self, src: str, dst: str) -> tuple[Link, ...] | None:
        return None if self._rule is None else self._rule.links(src, dst)

    def _shortest_path(self, src: str, dst: str) -> Route:
        graph = self._graph
        if graph is None or src not in graph or dst not in graph:
            raise RoutingError(f"no route from {src!r} to {dst!r}: unknown endpoint")
        import networkx as nx

        try:
            nodes = nx.shortest_path(graph, src, dst, weight="weight")
        except nx.NetworkXNoPath:
            raise RoutingError(f"no route from {src!r} to {dst!r}") from None
        links = tuple(graph.edges[a, b]["link"] for a, b in zip(nodes, nodes[1:]))
        return Route(src, dst, links)
