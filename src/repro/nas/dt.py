"""NAS DT (Data Traffic) — the application benchmark of paper section 7.1.4.

DT moves data through a task graph with one MPI process per graph node.
Three communication schemes (paper Figs. 13/14):

* **BH** (Black Hole): many sources fan *in* through comparator layers to
  one sink;
* **WH** (White Hole): one source fans *out* to many consumers — the
  mirror image;
* **SH** (Shuffle): ``L`` layers of ``W`` nodes; layer ``l`` shuffles its
  data down to layer ``l+1`` through perfect-shuffle edges.

Process counts match the paper exactly: classes A/B/C use 21/43/85
processes for WH and BH and 80/192/448 for SH.  Our BH/WH layer widths
(A: 16-4-1, B: 32-8-2-1, C: 64-16-4-1, fan-in 4 with a final fan-in where
needed) reproduce those counts; SH uses A: 5×16, B: 6×32, C: 7×64.

**Scaling substitution** (documented per DESIGN.md): the original class
payloads are hundreds of MB; we scale source feature buffers down (A:
1 MiB, B: 2 MiB, C: 4 MiB) so benches run in seconds while keeping the
BH-slower-than-WH contention asymmetry and the paper's folded/unfolded
memory ratios.

Every node *really computes*: sources generate seeded random features,
interior nodes element-wise-combine their inputs, and the sink returns a
checksum — so tests can verify on-line simulation correctness against a
directly computed reference (:func:`dt_reference_checksum`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import rng as rng_mod
from ..errors import ConfigError

__all__ = [
    "DT_CLASSES",
    "DtClass",
    "DtGraph",
    "DtNode",
    "bh_graph",
    "wh_graph",
    "sh_graph",
    "dt_graph",
    "dt_app",
    "dt_reference_checksum",
]


@dataclass(frozen=True)
class DtClass:
    """Problem-class parameters."""

    name: str
    bhwh_widths: tuple[int, ...]  # source layer first, sink last
    sh_layers: int
    sh_width: int
    feature_elems: int  # float64 elements per edge message

    @property
    def bhwh_nodes(self) -> int:
        """Interior nodes of the BH/WH shuffle trees (sum of layer widths)."""
        return sum(self.bhwh_widths)

    @property
    def sh_nodes(self) -> int:
        """Interior nodes of the SH (straight) graph: layers x width."""
        return self.sh_layers * self.sh_width


#: class table; BH/WH node counts match the paper (21/43/85 for A/B/C),
#: SH counts match 80/192/448.  Feature sizes are the documented scale-down.
DT_CLASSES: dict[str, DtClass] = {
    "S": DtClass("S", (4, 1), 3, 4, 8 * 1024),
    "W": DtClass("W", (8, 2, 1), 4, 8, 32 * 1024),
    "A": DtClass("A", (16, 4, 1), 5, 16, 128 * 1024),
    "B": DtClass("B", (32, 8, 2, 1), 6, 32, 256 * 1024),
    "C": DtClass("C", (64, 16, 4, 1), 7, 64, 512 * 1024),
}


@dataclass
class DtNode:
    """One task-graph node = one MPI rank."""

    rank: int
    layer: int
    in_edges: list[int] = field(default_factory=list)
    out_edges: list[int] = field(default_factory=list)
    #: float64 elements of this node's *output* (per out edge); filled by
    #: the volume pass once the graph is assembled
    out_elems: int = 0

    @property
    def is_source(self) -> bool:
        """True when the node generates data (no incoming edges)."""
        return not self.in_edges

    @property
    def is_sink(self) -> bool:
        """True when the node consumes data (no outgoing edges)."""
        return not self.out_edges


@dataclass
class DtGraph:
    """A DT communication graph with per-edge data volumes.

    Volume semantics (reproducing NPB DT's traffic patterns):

    * **BH** concatenates on fan-in: a comparator's output is the union of
      its inputs, so volumes *grow* toward the sink — the sink's access
      link carries the aggregate of every source, which is why BH is the
      slow variant (paper Fig. 15);
    * **WH** duplicates on fan-out: every consumer receives the full
      stream, so the source link carries fan-out × s;
    * **SH** preserves volume: each node splits its combined input evenly
      over its out edges (a shuffle re-partitions, it does not grow data).
    """

    scheme: str
    cls: DtClass
    nodes: list[DtNode]

    def __post_init__(self) -> None:
        self._assign_volumes()

    def _assign_volumes(self) -> None:
        base = self.cls.feature_elems
        for node in sorted(self.nodes, key=lambda n: n.layer):
            if node.is_source:
                total_in = base
            else:
                total_in = sum(
                    self.nodes[src].out_elems for src in node.in_edges
                )
            if self.scheme == "BH":
                node.out_elems = total_in  # concat; full copy per out edge
            elif self.scheme == "WH":
                node.out_elems = total_in  # duplicate full stream
            else:  # SH: split evenly across out edges
                n_out = max(len(node.out_edges), 1)
                node.out_elems = max(total_in // n_out, 1)

    @property
    def n_ranks(self) -> int:
        """One MPI rank per graph node."""
        return len(self.nodes)

    def in_elems(self, node: DtNode) -> int:
        """Total elements a node receives (its working-buffer size)."""
        if node.is_source:
            return self.cls.feature_elems
        return sum(self.nodes[src].out_elems for src in node.in_edges)

    def edges(self) -> list[tuple[int, int]]:
        """Every ``(src_rank, dst_rank)`` edge of the task graph."""
        return [(n.rank, dst) for n in self.nodes for dst in n.out_edges]

    def sources(self) -> list[DtNode]:
        """The data-generating nodes, in rank order."""
        return [n for n in self.nodes if n.is_source]

    def sinks(self) -> list[DtNode]:
        """The data-consuming nodes, in rank order."""
        return [n for n in self.nodes if n.is_sink]

    def total_bytes(self) -> int:
        """Total bytes crossing the network (diagnostics/benches)."""
        return sum(
            8 * self.nodes[src].out_elems for src, _dst in self.edges()
        )


def _layered_fanin(widths: tuple[int, ...]) -> list[DtNode]:
    """Build layered nodes with each next-layer node absorbing an equal
    share of the previous layer (the BH comparator tree)."""
    nodes: list[DtNode] = []
    layer_ranks: list[list[int]] = []
    rank = 0
    for layer, width in enumerate(widths):
        ranks = []
        for _ in range(width):
            nodes.append(DtNode(rank, layer))
            ranks.append(rank)
            rank += 1
        layer_ranks.append(ranks)
    for layer in range(len(widths) - 1):
        upper, lower = layer_ranks[layer], layer_ranks[layer + 1]
        fan = len(upper) // len(lower)
        if fan * len(lower) != len(upper):
            raise ConfigError(f"layer widths {widths} not evenly divisible")
        for j, dst in enumerate(lower):
            for src in upper[j * fan : (j + 1) * fan]:
                nodes[src].out_edges.append(dst)
                nodes[dst].in_edges.append(src)
    return nodes


def bh_graph(cls: str | DtClass) -> DtGraph:
    """Black Hole: sources converge through comparators into one sink."""
    dt_cls = DT_CLASSES[cls] if isinstance(cls, str) else cls
    return DtGraph("BH", dt_cls, _layered_fanin(dt_cls.bhwh_widths))


def wh_graph(cls: str | DtClass) -> DtGraph:
    """White Hole: the mirror of BH — one source fans out to consumers."""
    dt_cls = DT_CLASSES[cls] if isinstance(cls, str) else cls
    mirrored = _layered_fanin(dt_cls.bhwh_widths)
    # reverse every edge: sources become sinks and vice versa
    nodes = [DtNode(n.rank, len(dt_cls.bhwh_widths) - 1 - n.layer) for n in mirrored]
    for node in mirrored:
        for dst in node.out_edges:
            nodes[dst].out_edges.append(node.rank)
            nodes[node.rank].in_edges.append(dst)
    return DtGraph("WH", dt_cls, nodes)


def sh_graph(cls: str | DtClass) -> DtGraph:
    """Shuffle: L layers of W nodes, perfect-shuffle edges layer to layer."""
    dt_cls = DT_CLASSES[cls] if isinstance(cls, str) else cls
    layers, width = dt_cls.sh_layers, dt_cls.sh_width
    nodes = [
        DtNode(layer * width + j, layer)
        for layer in range(layers)
        for j in range(width)
    ]
    for layer in range(layers - 1):
        base, nxt = layer * width, (layer + 1) * width
        for j in range(width):
            src = base + j
            for dst_j in ((2 * j) % width, (2 * j + 1) % width):
                dst = nxt + dst_j
                nodes[src].out_edges.append(dst)
                nodes[dst].in_edges.append(src)
    return DtGraph("SH", dt_cls, nodes)


def dt_graph(scheme: str, cls: str | DtClass) -> DtGraph:
    """Dispatch on the scheme mnemonic ('BH' | 'WH' | 'SH')."""
    builders = {"BH": bh_graph, "WH": wh_graph, "SH": sh_graph}
    try:
        return builders[scheme.upper()](cls)
    except KeyError:
        raise ConfigError(f"unknown DT scheme {scheme!r}") from None


# -- the application itself -----------------------------------------------------------------

#: flops charged per element processed (models DT's per-element
#: verification arithmetic on the target nodes)
_FLOPS_PER_ELEM = 4.0

#: per-node damping applied to the combined stream (keeps magnitudes
#: bounded across deep graphs and makes node processing observable)
_DAMP = 0.9999

_TAG = 11


def _source_features(rank: int, elems: int, seed: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """A source node's ``elems`` features, written into ``out`` if given
    (no temporary) and returned."""
    gen = rng_mod.substream(seed, "nas-dt", rank)
    return gen.standard_normal(elems, out=out)


def _node_process(graph: DtGraph, node: DtNode, work: np.ndarray) -> None:
    """The comparator body shared by app and reference."""
    work *= _DAMP


def dt_app(mpi, graph: DtGraph, seed: int = 0, folded: bool = False):
    """Run one DT node per rank; sink ranks return their checksum.

    Each node receives the concatenation of its parents' streams into one
    working buffer (sized per the graph's volume semantics), processes it,
    and emits its out-edges (full copies for BH/WH, even slices for SH).

    ``folded=True`` backs working buffers with ``shared_malloc`` (RAM
    folding, Fig. 16): footprint collapses, but — as the paper states —
    the numerical results become erroneous, so checksums are only
    meaningful unfolded.

    Written in the generator dialect (``yield from`` at every blocking
    call) so it runs on a coroutine context without an OS thread per
    rank.
    """
    comm = mpi.COMM_WORLD
    node = graph.nodes[mpi.rank]
    in_elems = graph.in_elems(node)
    out_elems = node.out_elems

    label = f"dt-work-{in_elems}"
    if folded:
        work = mpi.shared_malloc(label, in_elems)
    else:
        work = mpi.malloc(in_elems)

    if node.is_source:
        _source_features(node.rank, in_elems, seed, out=work)
    else:
        offset = 0
        for src in node.in_edges:
            n = graph.nodes[src].out_elems
            yield from comm.co.Recv([work[offset : offset + n], n], src, _TAG)
            offset += n
    yield from mpi.co.execute(_FLOPS_PER_ELEM * in_elems)
    _node_process(graph, node, work)

    for k, dst in enumerate(node.out_edges):
        if graph.scheme == "SH":
            view = work[k * out_elems : (k + 1) * out_elems]
            yield from comm.co.Send([view, out_elems], dst, _TAG)
        else:
            yield from comm.co.Send([work, out_elems], dst, _TAG)

    checksum = float(np.sum(work)) if node.is_sink else None
    if folded:
        mpi.shared_free(label)
    else:
        mpi.free(work)
    return checksum


def dt_reference_checksum(graph: DtGraph, seed: int = 0) -> list[float]:
    """Directly computed sink checksums (no simulation, no MPI), in rank
    order of the sinks.

    Used by tests to prove the on-line property: the simulated
    application produces the same numbers as a sequential execution.
    """
    outputs: dict[int, np.ndarray] = {}
    checksums: list[float] = []

    for node in sorted(graph.nodes, key=lambda n: (n.layer, n.rank)):
        in_elems = graph.in_elems(node)
        if node.is_source:
            work = _source_features(node.rank, in_elems, seed)
        else:
            work = np.concatenate(
                [outputs_for(outputs, graph, src, node) for src in node.in_edges]
            )
        _node_process(graph, node, work)
        if node.is_sink:
            checksums.append(float(np.sum(work)))
        # record what each out edge of this node carries
        per_edge: list[np.ndarray] = []
        for k in range(len(node.out_edges)):
            if graph.scheme == "SH":
                per_edge.append(work[k * node.out_elems : (k + 1) * node.out_elems])
            else:
                per_edge.append(work[: node.out_elems])
        outputs[node.rank] = per_edge  # type: ignore[assignment]
    if not checksums:
        raise ConfigError("graph has no sink")
    return checksums


def outputs_for(outputs, graph: DtGraph, src: int, node: DtNode) -> np.ndarray:
    """The slice parent ``src`` sends to ``node`` (k-th out edge of src)."""
    k = graph.nodes[src].out_edges.index(node.rank)
    return outputs[src][k]
