"""Ablation — max-min solver implementations and incremental re-sharing.

DESIGN.md commits to two cross-checked one-shot solvers with a size-based
switch (`VECTORIZE_THRESHOLD`); both now live in tests/oracles.py.  This
bench measures both on growing systems and prints where the crossover
actually falls on this machine, validating that constant.  The incremental
solver has one plain-Python component kernel; a second table times one
warm churn event per component size, from 8 to 1024 flows, so its
growth with the component stays visible.

The second half ablates the engine's *incremental* re-sharing: the same
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
from repro.surf.maxmin import APPROX_MAX_ROUNDS, IncrementalMaxMin
from tests.oracles import (
    VECTORIZE_THRESHOLD,
    MaxMinSystem,
    _progressive_fill_arrays,
    oracle_engine,
    solve_maxmin_reference,
    solve_maxmin_vectorized,
)


def random_system(n_flows: int, n_cons: int, seed: int) -> MaxMinSystem:
    gen = rng_mod.substream(seed, "ablation-maxmin", n_flows)
    system = MaxMinSystem()
    for i in range(n_cons):
        system.add_constraint(f"c{i}", float(gen.uniform(10, 1000)))
    for i in range(n_flows):
        k = int(gen.integers(1, min(4, n_cons) + 1))
        cids = tuple(sorted(gen.choice(n_cons, size=k, replace=False).tolist()))
        bound = math.inf if gen.random() < 0.5 else float(gen.uniform(1, 500))
        system.add_flow(f"f{i}", cids, bound=bound)
    return system


def time_solver(solver, system, repeats=30) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        solver(system)
        best = min(best, time.perf_counter() - start)
    return best


def experiment():
    rows = []
    for n_flows in (4, 8, 16, 32, 64, 128, 256, 512):
        n_cons = max(2, n_flows // 2)
        system = random_system(n_flows, n_cons, seed=1)
        ref = solve_maxmin_reference(system)
        vec = solve_maxmin_vectorized(system)
        np.testing.assert_allclose(ref, vec, rtol=1e-9, atol=1e-9)
        t_ref = time_solver(solve_maxmin_reference, system)
        t_vec = time_solver(solve_maxmin_vectorized, system)
        rows.append((n_flows, t_ref, t_vec))
    return rows


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


# -- flows-vs-wall scaling curve: exact vs approx sharing ------------------------------

#: committed scaling-curve artifact (regenerate with REPRO_BENCH_FULL=1)
SCALING_JSON = RESULTS_DIR / "maxmin_scaling.json"


def staircase_problem(n_flows: int, n_backbones: int = 4):
    """A staircase contention pattern sized for scaling runs.

    ``n_groups = max(16, n_flows // 64)`` group constraints with strictly
    increasing capacities each serve ``n_flows / n_groups`` flows; a few
    huge backbone constraints couple everything into one component.  Each
    group saturates at a distinct level, so exact progressive filling
    needs ~``n_groups`` rounds — the round count *grows* with the system,
    which is exactly the regime the approx dial is for.

    Returns the COO/array form consumed by the NumPy filling core
    ``_progressive_fill_arrays`` of tests/oracles.py.  The incremental
    solver's own per-event cost on this pattern is the churn line of the
    report (:func:`churn_experiment`).
    """
    n_groups = max(16, n_flows // 64)
    n_cons = n_groups + n_backbones
    fid = np.arange(n_flows, dtype=np.intp)
    row = np.repeat(fid, 2)
    col = np.empty(2 * n_flows, dtype=np.intp)
    col[0::2] = fid % n_groups
    col[1::2] = n_groups + fid % n_backbones
    weights = np.ones(n_flows)
    bounds = np.full(n_flows, math.inf)
    shared = np.ones(n_cons, dtype=bool)
    capacities = np.concatenate([
        100.0 * (1.0 + np.arange(n_groups, dtype=float)),
        np.full(n_backbones, 1e12),
    ])
    return n_groups, (n_flows, n_cons, row, col, weights, bounds, shared,
                      capacities)


def staircase_system(n_flows: int, n_backbones: int = 4) -> MaxMinSystem:
    """The same staircase pattern as a :class:`MaxMinSystem` (reference)."""
    n_groups = max(16, n_flows // 64)
    system = MaxMinSystem()
    gids = [system.add_constraint(f"g{g}", 100.0 * (1.0 + g))
            for g in range(n_groups)]
    bids = [system.add_constraint(f"bb{b}", 1e12)
            for b in range(n_backbones)]
    for i in range(n_flows):
        system.add_flow(f"f{i}", (gids[i % n_groups], bids[i % n_backbones]))
    return system


def _best_of(fn, repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def scaling_experiment(full: bool | None = None):
    """Wall-clock per one-shot solve vs flow count, per solver.

    Smoke mode (the CI default) uses reduced sizes; set
    ``REPRO_BENCH_FULL=1`` for the committed full curve (pure-Python
    reference to 10k flows, vectorised exact to 100k, approx to 300k).
    """
    if full is None:
        full = bool(os.environ.get("REPRO_BENCH_FULL"))
    if full:
        sizes_ref = [1_000, 3_000, 10_000]
        sizes_exact = sizes_ref + [30_000, 100_000]
        sizes_approx = sizes_exact + [300_000]
    else:
        sizes_ref = [500, 2_000]
        sizes_exact = sizes_ref + [8_000]
        sizes_approx = sizes_exact + [100_000]

    def solve_arrays(args, max_rounds):
        n_flows = args[0]
        rates, rounds, truncated = _progressive_fill_arrays(
            *args, lambda fid: f"f{fid}", max_rounds=max_rounds
        )
        assert rates.shape == (n_flows,) and np.isfinite(rates).all()
        return rounds, truncated

    rows = []
    for n_flows in sizes_approx:
        n_groups, args = staircase_problem(n_flows)
        if n_flows in sizes_ref:
            system = staircase_system(n_flows)
            wall = _best_of(lambda: solve_maxmin_reference(system))
            rows.append({"solver": "reference", "n_flows": n_flows,
                         "n_groups": n_groups, "wall_s": wall,
                         "rounds": n_groups, "truncated": False})
        if n_flows in sizes_exact:
            rounds, truncated = solve_arrays(args, None)
            wall = _best_of(lambda: solve_arrays(args, None))
            rows.append({"solver": "exact", "n_flows": n_flows,
                         "n_groups": n_groups, "wall_s": wall,
                         "rounds": rounds, "truncated": truncated})
        rounds, truncated = solve_arrays(args, APPROX_MAX_ROUNDS)
        wall = _best_of(lambda: solve_arrays(args, APPROX_MAX_ROUNDS))
        rows.append({"solver": "approx", "n_flows": n_flows,
                     "n_groups": n_groups, "wall_s": wall,
                     "rounds": rounds, "truncated": truncated})
    return {"full": full, "rows": rows}


def churn_experiment(n_flows: int = 2_000, n_events: int = 200):
    """Per-event cost of the warm incremental solver, exact vs approx.

    One big coupled staircase component under flow churn: every event
    (one departure + one arrival + solve) re-solves the whole component,
    so exact pays ~``n_groups`` filling rounds per event while approx is
    capped at :data:`APPROX_MAX_ROUNDS`.
    """
    n_groups = max(16, n_flows // 64)
    out = {}
    for sharing in ("exact", "approx"):
        inc = IncrementalMaxMin(sharing=sharing)
        for g in range(n_groups):
            inc.ensure_constraint(("g", g), 100.0 * (1.0 + g))
        for b in range(4):
            inc.ensure_constraint(("bb", b), 1e12)
        for i in range(n_flows):
            inc.add_flow(i, [("g", i % n_groups), ("bb", i % 4)])
        inc.solve_dirty()
        fill_rounds = 0
        start = time.perf_counter()
        for event in range(n_events):
            inc.remove_flow(event)
            key = n_flows + event
            inc.ensure_constraint(("g", key % n_groups),
                                  100.0 * (1.0 + key % n_groups))
            inc.ensure_constraint(("bb", key % 4), 1e12)
            inc.add_flow(key, [("g", key % n_groups), ("bb", key % 4)])
            inc.solve_dirty()
            fill_rounds += inc.last_fill_rounds
        wall = time.perf_counter() - start
        out[sharing] = {"event_us": wall / n_events * 1e6,
                        "fill_rounds_per_event": fill_rounds / n_events}
    return {"n_flows": n_flows, "n_groups": n_groups, "n_events": n_events,
            **{k: v for k, v in out.items()}}


def test_maxmin_scaling(once):
    data = once(scaling_experiment)
    churn = churn_experiment()
    full = data["full"]
    rows = data["rows"]

    report = FigureReport(
        "maxmin_scaling",
        "flows-vs-wall scaling of the sharing solvers (exact vs approx)",
    )
    mode = "full" if full else "smoke (REPRO_BENCH_FULL=1 for the full curve)"
    report.line(f"  staircase contention, one coupled component; mode: {mode}")
    report.line(f"  {'flows':>8} {'solver':>10} {'rounds':>7} {'wall':>12}")
    by_key = {}
    for r in rows:
        by_key[(r["solver"], r["n_flows"])] = r
        trunc = "  (truncated)" if r["truncated"] else ""
        report.line(
            f"  {r['n_flows']:>8} {r['solver']:>10} {r['rounds']:>7} "
            f"{r['wall_s'] * 1e3:>10.2f}ms{trunc}"
        )
    ref_sizes = [r["n_flows"] for r in rows if r["solver"] == "reference"]
    top_ref = max(ref_sizes)
    speedup = (by_key[("reference", top_ref)]["wall_s"]
               / by_key[("exact", top_ref)]["wall_s"])
    top_approx = max(r["n_flows"] for r in rows if r["solver"] == "approx")
    top_exact = max(r["n_flows"] for r in rows if r["solver"] == "exact")
    report.line()
    report.measured(
        f"vectorised exact is {speedup:.0f}x the pure-Python reference at "
        f"{top_ref} flows; reference dropped beyond {top_ref} (impractical)"
    )
    report.measured(
        f"approx extends the curve to {top_approx} flows "
        f"(exact stops at {top_exact}), bounded at {APPROX_MAX_ROUNDS} "
        f"rounds per solve"
    )
    report.measured(
        f"warm incremental churn ({churn['n_flows']} flows): "
        f"{churn['exact']['event_us']:.0f}us/event exact "
        f"({churn['exact']['fill_rounds_per_event']:.0f} rounds) vs "
        f"{churn['approx']['event_us']:.0f}us/event approx "
        f"({churn['approx']['fill_rounds_per_event']:.0f} rounds)"
    )
    report.finish()

    SCALING_JSON.write_text(json.dumps({
        "description": "wall-clock of one one-shot solve vs concurrent "
                       "flows on a staircase contention pattern (distinct "
                       "saturation level per constraint group, one coupled "
                       "component); exact/approx rows time the NumPy "
                       "filling core of tests/oracles.py on its array "
                       "form, churn times the incremental solver",
        "mode": "full" if full else "smoke",
        "approx_max_rounds": APPROX_MAX_ROUNDS,
        "rows": rows,
        "churn": churn,
    }, indent=2) + "\n", encoding="utf-8")

    # the acceptance bar: >=5x for vectorised exact at >=10k flows is
    # asserted on the full curve; the smoke curve keeps a looser floor so
    # CI stays robust on noisy runners
    if full:
        assert top_ref >= 10_000 and speedup >= 5.0, (
            f"expected >=5x at {top_ref} flows, got {speedup:.1f}x"
        )
        assert top_approx > 100_000
    else:
        assert speedup >= 2.0, f"expected >=2x at {top_ref}, got {speedup:.1f}x"
        assert top_approx >= 100_000
    # approx must beat exact where rounds are the bottleneck (largest
    # common size) and must actually have truncated there
    big_exact = by_key[("exact", top_exact)]
    big_approx = by_key[("approx", top_exact)]
    assert big_approx["truncated"] and not big_exact["truncated"]
    assert big_approx["wall_s"] < big_exact["wall_s"]
    assert churn["approx"]["fill_rounds_per_event"] <= APPROX_MAX_ROUNDS
    assert churn["exact"]["fill_rounds_per_event"] > APPROX_MAX_ROUNDS


def test_ablation_maxmin(once):
    rows = once(experiment)
    report = FigureReport(
        "ablation_maxmin", "reference vs vectorised max-min solver"
    )
    report.line(f"  {'flows':>6} {'reference':>12} {'vectorised':>12} {'ratio':>8}")
    crossover = None
    for n_flows, t_ref, t_vec in rows:
        marker = ""
        if t_vec < t_ref and crossover is None:
            crossover = n_flows
            marker = "  <- vectorised wins"
        report.line(
            f"  {n_flows:>6} {t_ref * 1e6:>10.1f}us {t_vec * 1e6:>10.1f}us "
            f"{t_ref / t_vec:>7.2f}x{marker}"
        )
    report.line()
    report.measured(
        f"configured threshold {VECTORIZE_THRESHOLD}; measured crossover "
        f"around {crossover} flows"
    )

    # -- incremental component solve ----------------------------------------------
    report.line()
    report.line("incremental component solve, one warm churn event "
                "(ring-like component):")
    report.line(f"  {'flows':>6} {'per event':>12} {'per flow':>10}")
    event_rows = component_experiment()
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

    big = rows[-1]
    assert big[2] < big[1], "vectorised must win on large systems"
    small = rows[0]
    assert small[1] < small[2] * 5, "reference competitive on small systems"

    for label, t_inc, t_full, s_inc, s_full in inc_rows:
        assert t_inc == t_full, f"{label}: incremental changed the simulation"
        assert s_full.flows_resolved >= 2 * s_inc.flows_resolved, (
            f"{label}: expected >=2x fewer flow re-solves, got "
            f"{s_inc.flows_resolved} vs {s_full.flows_resolved}"
        )
