"""The benchmark's three workloads: seeded inputs, one run, output checks.

Each workload stresses a different set of layers and leaves the others
idle, so a change to one layer moves one workload and not another:

* ``allreduce_ring`` -- many small engine events on a contended
  symmetric collective: ``surf.engine``, ``surf.maxmin``, ``simix``.
* ``nas_dt_online`` -- few events, large real payloads: ``smpi.intern``,
  ``smpi.datatype``, peak memory.
* ``hpl_replay_traced`` -- off-line replay of an HPL-shaped trace with a
  streaming trace sink: ``offline``, ``trace``, and the engine on another
  topology with many host-compute actions.

Every workload runs its ranks as generators on the coroutine backend (no
OS thread per rank), which the span tracer in ``spans.py`` relies on.
The seed only changes values (payload contents, compute amounts), never
the shape of the run, so the work per run is the same for every seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.nas.dt import dt_app, dt_graph, dt_reference_checksum
from repro.offline.replay import replay_trace
from repro.offline.trace import TiEvent, TiTrace
from repro.platforms.gdx import gdx
from repro.platforms.griffon import griffon
from repro.smpi import SmpiConfig, smpirun
from repro.trace.sink import CsvStreamSink

CTX = "coroutine"


@dataclass(frozen=True)
class Workload:
    """``run(seed, workdir) -> (result, state)`` covers set-up and the
    simulation; ``check(result, state, expected)`` returns the reasons the
    outputs are wrong (empty when right); ``expected(seed)`` computes the
    reference outputs once per benchmark run, outside any timed sample.
    ``probe_share`` is the part of the host time that slows down with the
    reference clock's probe (``refclock.py``)."""

    name: str
    run: Callable[[int, Path], tuple[Any, Any]]
    check: Callable[[Any, Any, Any], list[str]]
    expected: Callable[[int], Any] = lambda seed: None
    probe_share: float = 1.0


# -- allreduce_ring -----------------------------------------------------------

RING_RANKS = 64
#: 1 MiB of float64 per rank
RING_ELEMS = 1 << 17
RING_ITERATIONS = 1
#: compute burst before each allreduce: ~10 ms on a 10 Gf griffon node
RING_BURST_FLOPS = 1e8
#: relative per-rank jitter of the burst.  Larger jitter changes which
#: ring steps overlap, and with them the solver's work: at 5% the engine
#: steps differ by a third between seeds, at 1e-4 by about 1%
RING_JITTER = 1e-4


def ring_inputs(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank contributions and per-iteration compute bursts.

    Contributions are whole numbers below 2**20, so every partial sum of
    64 of them is exact in float64 and the result does not depend on the
    order the ring adds them in.
    """
    gen = np.random.default_rng([seed, 1])
    contributions = gen.integers(0, 1 << 20, size=(RING_RANKS, RING_ELEMS))
    bursts = RING_BURST_FLOPS * (
        1.0 + RING_JITTER * gen.random((RING_ITERATIONS, RING_RANKS)))
    return contributions.astype(np.float64), bursts


def ring_app(mpi, contributions: np.ndarray, bursts: np.ndarray):
    comm = mpi.COMM_WORLD
    send = contributions[mpi.rank]
    total = np.empty_like(send)
    for burst in bursts[:, mpi.rank]:
        yield from mpi.co.execute(float(burst))
        yield from comm.co.Allreduce(send, total)
    return total


def run_allreduce_ring(seed: int, workdir: Path):
    contributions, bursts = ring_inputs(seed)
    # real payloads, so the sums can be checked; interning off, so the
    # hashing layer stays idle as it would under zero-copy
    config = SmpiConfig(coll_algorithms={"allreduce": "ring"},
                        payload_interning=False)
    result = smpirun(ring_app, RING_RANKS, griffon(RING_RANKS),
                     app_args=(contributions, bursts), config=config, ctx=CTX)
    return result, contributions


def check_allreduce_ring(result, contributions: np.ndarray, _expected) -> list[str]:
    total = contributions.sum(axis=0)
    wrong = [rank for rank, got in enumerate(result.returns)
             if not np.array_equal(got, total)]
    if wrong:
        return [f"{len(wrong)} ranks hold a wrong allreduce sum "
                f"(first: rank {wrong[0]})"]
    return []


# -- nas_dt_online ------------------------------------------------------------

DT_SCHEME = "BH"
DT_CLASS = "C"


def run_nas_dt(seed: int, workdir: Path):
    graph = dt_graph(DT_SCHEME, DT_CLASS)
    result = smpirun(dt_app, graph.n_ranks, griffon(graph.n_ranks),
                     app_args=(graph, seed), ctx=CTX)
    return result, None


def expected_nas_dt(seed: int) -> list[str]:
    """Sink checksums of a direct sequential execution, as float hex."""
    graph = dt_graph(DT_SCHEME, DT_CLASS)
    return [float.hex(c) for c in dt_reference_checksum(graph, seed)]


def check_nas_dt(result, _state, expected: list[str]) -> list[str]:
    got = [float.hex(c) for c in result.returns if c is not None]
    if got != expected:
        return [f"sink checksums {got} != reference {expected}"]
    return []


# -- hpl_replay_traced --------------------------------------------------------

#: process grid (P rows x Q columns), matrix order, block size, panels
HPL_P = 16
HPL_Q = 16
HPL_N = 16384
HPL_NB = 64
HPL_PANELS = 6
#: segments of the pipelined row broadcast (128 KiB each: rendezvous)
HPL_SEGMENTS = 4
HPL_JITTER = 0.2
_PIVOT_TAG = 100
_BCAST_TAG = 200


def hpl_trace(seed: int) -> TiTrace:
    """A time-independent trace with the shape of HPL's panel pipeline.

    For each panel: the panel column factors its panel (compute) while
    exchanging pivot rows by recursive doubling down the column, then
    every process row forwards the panel along an increasing ring in
    pipelined segments, then every rank updates its trailing matrix
    (compute).  Each panel's compute amounts carry a seeded factor.
    """
    gen = np.random.default_rng([seed, 3])
    n_ranks = HPL_P * HPL_Q
    events: list[list[TiEvent]] = [[] for _ in range(n_ranks)]
    next_op = [0] * n_ranks

    def post(rank: int, kind: str, *args) -> int:
        next_op[rank] += 1
        events[rank].append(TiEvent(kind, (next_op[rank], *args)))
        return next_op[rank]

    def wait(rank: int, ops: list[int]) -> None:
        events[rank].append(TiEvent("wait", (ops,)))

    def compute(rank: int, flops: float) -> None:
        events[rank].append(TiEvent("compute", (flops,)))

    def at(p: int, q: int) -> int:
        return p * HPL_Q + q

    pivot_rounds = HPL_P.bit_length() - 1
    for k in range(HPL_PANELS):
        # one seeded factor per panel, the same on every rank: per-rank
        # jitter reorders the pipeline and changes the solver's work by
        # several percent between seeds
        scale = 1.0 + HPL_JITTER * float(gen.random())
        col = k % HPL_Q
        trailing = HPL_N - k * HPL_NB
        local_rows = trailing // HPL_P
        for p in range(HPL_P):
            compute(at(p, col), scale * 2.0 * local_rows * HPL_NB * HPL_NB)
        for rnd in range(pivot_rounds):
            for p in range(HPL_P):
                me, peer = at(p, col), at(p ^ (1 << rnd), col)
                ops = [post(me, "send", peer, 8 * (HPL_NB + 2),
                            _PIVOT_TAG + rnd, 0),
                       post(me, "recv", peer, _PIVOT_TAG + rnd, 0)]
                wait(me, ops)
        segment = local_rows * HPL_NB * 8 // HPL_SEGMENTS
        for p in range(HPL_P):
            for hop in range(HPL_Q):
                q = (col + hop) % HPL_Q
                me = at(p, q)
                for s in range(HPL_SEGMENTS):
                    if hop > 0:
                        prev = at(p, (q - 1) % HPL_Q)
                        wait(me, [post(me, "recv", prev, _BCAST_TAG + s, 0)])
                    if hop < HPL_Q - 1:
                        succ = at(p, (q + 1) % HPL_Q)
                        wait(me, [post(me, "send", succ, segment,
                                       _BCAST_TAG + s, 0)])
        for rank in range(n_ranks):
            compute(rank,
                    scale * 2.0 * local_rows * (trailing // HPL_Q) * HPL_NB)
    return TiTrace(n_ranks, events, meta={"shape": "hpl", "seed": seed})


def run_hpl_replay(seed: int, workdir: Path):
    path = workdir / "hpl_trace.json"
    hpl_trace(seed).save(path)
    trace = TiTrace.load(path)
    sink = CsvStreamSink(workdir / "hpl_trace.csv")
    result = replay_trace(trace, gdx(trace.n_ranks),
                          config=SmpiConfig(tracing=True), ctx=CTX,
                          trace_sink=sink)
    return result, (trace.total_messages(), sink.path)


def check_hpl_replay(_result, state: tuple[int, Path], _expected) -> list[str]:
    """Every send of the trace appears in the sink as a closed, matched,
    unfailed transfer."""
    sends, csv_path = state
    matched = unmatched = 0
    with open(csv_path, encoding="utf-8", newline="") as handle:
        for row in csv.reader(handle):
            if row[0] != "comm":
                continue
            # comm rows: kind, mid, src, dst, tag, bytes, eager, start, end,
            # (unused), failed
            if row[8] != "" and row[10] == "0":
                matched += 1
            else:
                unmatched += 1
    if matched != sends or unmatched:
        return [f"{matched} of {sends} sends matched, "
                f"{unmatched} open or failed"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("allreduce_ring", run_allreduce_ring, check_allreduce_ring),
        # three quarters of DT's time is blake2b and NumPy copies, which
        # slow down less than the probe: over 26 paired samples the spread
        # of wall_s was smallest with a share between 0.4 and 0.7
        Workload("nas_dt_online", run_nas_dt, check_nas_dt, expected_nas_dt,
                 probe_share=0.5),
        Workload("hpl_replay_traced", run_hpl_replay, check_hpl_replay),
    )
}
