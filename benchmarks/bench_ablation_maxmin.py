"""Ablation — the incremental max-min solver and incremental re-sharing.

The incremental solver has one plain-Python component kernel; the first
table times one warm churn event per component size, from 8 to 1024
flows, so its growth with the component stays visible, and the scaling
curve (``test_maxmin_scaling``) times the same solver's churn on a
staircase whose round count grows with the system.

The second table ablates the engine's *incremental* re-sharing: the same
scatter / all-to-all workloads run once with the dirty-set solver
(:class:`IncrementalMaxMin`) and once with the rebuild-everything share
(``FullReshareEngine`` of tests/oracles.py), and the
``EngineStats`` counters show how many flow re-solves the connected-
component decomposition avoids while producing the exact same completion
times.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

from _helpers import RESULTS_DIR, FigureReport
from repro import rng as rng_mod
from repro.smpi import SmpiConfig, smpirun
from repro.surf import cluster
from repro.surf.maxmin import IncrementalMaxMin
from tests.oracles import oracle_engine


# -- incremental component solve: per-event cost by component size ------------------

#: component sizes (flows) of the per-event cost table
COMPONENT_SIZES = (8, 16, 32, 64, 128, 256, 512, 1024)


def component_event_us(n_flows: int, n_events: int = 20,
                       repeats: int = 3) -> float:
    """Per-event µs of a warm incremental solver on one ring-like component.

    Each flow crosses a private access link, one group link shared by 8
    flows and a backbone shared by all, as a contended collective step
    does; a few flows carry a bound.  An event is one departure, one
    arrival and the :meth:`~IncrementalMaxMin.solve_dirty` that re-solves
    the whole component (2–3 filling rounds).  Best of ``repeats``.
    """
    n_groups = max(1, n_flows // 8)

    def enrol(inc, key):
        slot = key % n_flows
        inc.ensure_constraint(("up", slot), 100.0)
        inc.ensure_constraint(("group", slot % n_groups), 720.0)
        inc.ensure_constraint("backbone", 85.0 * n_flows)
        bound = 60.0 if key % 7 == 0 else math.inf
        inc.add_flow(key, [("up", slot), ("group", slot % n_groups),
                           "backbone"], bound=bound)

    best = math.inf
    for _ in range(repeats):
        inc = IncrementalMaxMin()
        for key in range(n_flows):
            enrol(inc, key)
        inc.solve_dirty()
        start = time.perf_counter()
        for event in range(n_events):
            inc.remove_flow(event)
            enrol(inc, n_flows + event)
            inc.solve_dirty()
        best = min(best, time.perf_counter() - start)
        assert inc.last_flows_solved == n_flows
    return best / n_events * 1e6


def component_experiment():
    """(flows, µs/event) per component size."""
    return [(n, component_event_us(n)) for n in COMPONENT_SIZES]


# -- incremental vs full re-share -----------------------------------------------------

#: per-rank payload variability seed and compute cost of "processing" a
#: scattered chunk (flops per byte) — enough to overlap the collective
INCREMENTAL_SEED = 42
SCATTER_FLOPS_PER_BYTE = 100.0
N_RANKS = 16


def _chunk_sizes(n: int, base: int, seed: int) -> list[int]:
    gen = rng_mod.substream(seed, "ablation-maxmin", "sizes")
    return [int(base * (0.5 + gen.random())) for _ in range(n)]


def _displs(counts: list[int]) -> list[int]:
    displs, offset = [], 0
    for count in counts:
        displs.append(offset)
        offset += count
    return displs


def scatterv_compute_app(mpi, base: int):
    """Root scatters rank-dependent chunks; every rank processes its own.

    The per-rank compute actions are disjoint max-min components that
    complete at staggered times while the scatter is still draining —
    exactly the structure incremental re-sharing exploits.
    """
    comm = mpi.COMM_WORLD
    counts = _chunk_sizes(mpi.size, base, INCREMENTAL_SEED)
    recv = np.zeros(counts[mpi.rank], dtype=np.uint8)
    send = np.zeros(sum(counts), dtype=np.uint8) if mpi.rank == 0 else None
    comm.Barrier()
    start = mpi.wtime()
    comm.Scatterv(send, counts, _displs(counts), recv, root=0)
    mpi.execute(counts[mpi.rank] * SCATTER_FLOPS_PER_BYTE)
    return mpi.wtime() - start


def alltoallv_app(mpi, base: int):
    """Pairwise all-to-all with per-pair payload sizes (MPI_Alltoallv)."""
    comm = mpi.COMM_WORLD
    n = mpi.size
    all_counts = [_chunk_sizes(n, base, INCREMENTAL_SEED + i) for i in range(n)]
    send_counts = all_counts[mpi.rank]
    recv_counts = [all_counts[i][mpi.rank] for i in range(n)]
    send = np.zeros(sum(send_counts), dtype=np.uint8)
    recv = np.zeros(sum(recv_counts), dtype=np.uint8)
    comm.Barrier()
    start = mpi.wtime()
    comm.Alltoallv(send, send_counts, _displs(send_counts),
                   recv, recv_counts, _displs(recv_counts))
    return mpi.wtime() - start


INCREMENTAL_WORKLOADS = [
    ("scatter 4MiB + compute", scatterv_compute_app, 4 << 20,
     {"scatter": "binomial"}),
    ("all-to-all 1MiB pairwise", alltoallv_app, 1 << 20,
     {"alltoallv": "pairwise"}),
]


def run_incremental_case(app, base: int, coll: dict, full: bool):
    """One SMPI run on a split-duplex crossbar; returns (time, stats)."""
    platform = cluster(
        "ablation", N_RANKS, backbone_bandwidth=None, split_duplex=True
    )
    engine = oracle_engine(platform, full=full)
    result = smpirun(
        app, N_RANKS, platform,
        app_args=(base,),
        config=SmpiConfig(coll_algorithms=coll),
        engine=engine,
    )
    return result.simulated_time, engine.stats


def incremental_experiment():
    rows = []
    for label, app, base, coll in INCREMENTAL_WORKLOADS:
        t_inc, s_inc = run_incremental_case(app, base, coll, full=False)
        t_full, s_full = run_incremental_case(app, base, coll, full=True)
        rows.append((label, t_inc, t_full, s_inc, s_full))
    return rows


# -- flows-vs-wall scaling curve of the incremental solver ----------------------------

#: committed scaling-curve artifact (regenerate with REPRO_BENCH_FULL=1)
SCALING_JSON = RESULTS_DIR / "maxmin_scaling.json"


def churn_experiment(n_flows: int, n_events: int) -> dict:
    """Per-event cost of the warm :class:`IncrementalMaxMin` on a staircase.

    ``n_groups = max(16, n_flows // 64)`` group constraints with strictly
    increasing capacities each serve ``n_flows / n_groups`` flows; four
    huge backbone constraints couple everything into one component.  Each
    group saturates at a distinct level, so progressive filling needs
    exactly ``n_groups`` rounds: the round count grows with the system.
    Every event (one departure, one arrival in the same group, one solve)
    re-solves the whole component.
    """
    n_groups = max(16, n_flows // 64)
    inc = IncrementalMaxMin()

    def add(key: int, group: int) -> None:
        # a group's flows spread over all four backbones, whatever
        # n_groups is, so the backbones join every group into one component
        backbone = ("bb", key // n_groups % 4)
        inc.ensure_constraint(("g", group), 100.0 * (1.0 + group))
        inc.ensure_constraint(backbone, 1e12)
        inc.add_flow(key, [("g", group), backbone])

    for i in range(n_flows):
        add(i, i % n_groups)
    inc.solve_dirty()
    fill_rounds = 0
    start = time.perf_counter()
    for event in range(n_events):
        inc.remove_flow(event)
        # the newcomer joins the leaver's group: group sizes, hence the
        # saturation levels, stay fixed
        add(n_flows + event, event % n_groups)
        inc.solve_dirty()
        fill_rounds += inc.last_fill_rounds
    wall = time.perf_counter() - start
    return {"n_flows": n_flows, "n_groups": n_groups, "n_events": n_events,
            "event_us": wall / n_events * 1e6,
            "fill_rounds_per_event": fill_rounds / n_events}


def scaling_experiment(full: bool | None = None) -> dict:
    """Warm churn cost per event vs flow count.

    Smoke mode (the CI default) uses reduced sizes; set
    ``REPRO_BENCH_FULL=1`` for the committed full curve.
    """
    if full is None:
        full = bool(os.environ.get("REPRO_BENCH_FULL"))
    sizes = [1_000, 3_000, 10_000] if full else [500, 2_000]
    return {"full": full,
            "rows": [churn_experiment(n, 20) for n in sizes]}


def test_maxmin_scaling(once):
    data = once(scaling_experiment)
    full = data["full"]
    rows = data["rows"]

    report = FigureReport(
        "maxmin_scaling",
        "flows-vs-wall scaling of the incremental max-min solver",
    )
    mode = "full" if full else "smoke (REPRO_BENCH_FULL=1 for the full curve)"
    report.line(f"  staircase contention, one coupled component; mode: {mode}")
    report.line(f"  {'flows':>8} {'groups':>7} {'rounds/event':>13} "
                f"{'per event':>12}")
    for r in rows:
        report.line(
            f"  {r['n_flows']:>8} {r['n_groups']:>7} "
            f"{r['fill_rounds_per_event']:>13.0f} "
            f"{r['event_us'] / 1e3:>10.2f}ms"
        )
    top = rows[-1]
    report.line()
    report.measured(
        f"warm churn re-solves the whole {top['n_flows']}-flow component in "
        f"{top['fill_rounds_per_event']:.0f} rounds, "
        f"{top['event_us'] / 1e3:.1f}ms per event"
    )
    report.finish()

    SCALING_JSON.write_text(json.dumps({
        "description": "warm IncrementalMaxMin churn (one departure, one "
                       "arrival, one solve) per event vs concurrent flows "
                       "on a staircase contention pattern (distinct "
                       "saturation level per constraint group, one coupled "
                       "component)",
        "mode": "full" if full else "smoke",
        "rows": rows,
    }, indent=2) + "\n", encoding="utf-8")

    # exact progressive filling fixes one group per round
    for r in rows:
        assert r["fill_rounds_per_event"] == r["n_groups"], r


def test_ablation_maxmin(once):
    event_rows = once(component_experiment)
    report = FigureReport(
        "ablation_maxmin", "incremental max-min solve and re-sharing"
    )
    report.line("incremental component solve, one warm churn event "
                "(ring-like component):")
    report.line(f"  {'flows':>6} {'per event':>12} {'per flow':>10}")
    for n_flows, t_event in event_rows:
        report.line(f"  {n_flows:>6} {t_event:>10.1f}us "
                    f"{t_event / n_flows:>8.2f}us")
    report.line()
    (n_small, t_small), (n_big, t_big) = event_rows[0], event_rows[-1]
    report.measured(
        f"per-event cost grows {t_big / t_small:.0f}x from {n_small} to "
        f"{n_big} flows ({n_big // n_small}x the flows)"
    )

    # -- incremental vs full re-share ------------------------------------------------
    report.line()
    report.line("incremental vs full re-share "
                f"({N_RANKS} ranks, split-duplex crossbar):")
    report.line(f"  {'workload':<26} {'flow re-solves':>16} {'saving':>8} "
                f"{'partial':>9} {'same time':>10}")
    inc_rows = incremental_experiment()
    for label, t_inc, t_full, s_inc, s_full in inc_rows:
        ratio = s_full.flows_resolved / max(1, s_inc.flows_resolved)
        report.line(
            f"  {label:<26} {s_inc.flows_resolved:>6} vs {s_full.flows_resolved:>6} "
            f"{ratio:>7.2f}x {s_inc.partial_shares:>4}/{s_inc.shares:<4} "
            f"{str(t_inc == t_full):>10}"
        )
    report.measured(
        "incremental re-sharing solves >=2x fewer flows at identical "
        "simulated times"
    )
    report.finish()

    for label, t_inc, t_full, s_inc, s_full in inc_rows:
        assert t_inc == t_full, f"{label}: incremental changed the simulation"
        assert s_full.flows_resolved >= 2 * s_inc.flows_resolved, (
            f"{label}: expected >=2x fewer flow re-solves, got "
            f"{s_inc.flows_resolved} vs {s_full.flows_resolved}"
        )
