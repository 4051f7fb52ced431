"""Ablation — execution contexts (coroutine vs the thread oracle).

The historical design parks every rank on its own OS thread and moves a
baton of ``threading.Lock`` pairs between them: a release and a blocking
acquire per context switch, plus one kernel stack per rank.  Generator
ranks run on coroutine contexts instead: continuations resumed on the
scheduler's own stack — a context switch is one Python frame activation.
The thread design survives as the test oracle
(:func:`tests.oracles.thread_contexts`), which runs generator ranks on
threads.

This bench measures both layers of the claim:

* a switch microbenchmark — many actors, many pure yields, negligible
  engine work — reporting wall time *per context switch* for each
  context at growing rank counts;
* the NAS DT end-to-end wall time per context, at bit-identical
  simulated clocks (the context is a pure implementation choice).
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from _helpers import FigureReport
from repro.nas import dt_app, dt_graph
from repro.simix import Scheduler
from repro.smpi import smpirun
from repro.surf import Engine, cluster
from tests.oracles import thread_contexts

RANK_COUNTS = (64, 256)
YIELD_ROUNDS = 40


#: the contexts generator ranks get, and the thread oracle
BACKENDS = {"coroutine": nullcontext, "thread": thread_contexts}


def switch_storm(n_ranks: int, ctx: str):
    """N actors, each yielding R times: (wall, switches, wall-per-switch).

    The workload is pure context traffic — every resume does one loop
    iteration and parks again — so wall/switches isolates what one
    suspend/resume pair costs on each context, including the per-actor
    setup (thread spawn vs generator allocation).
    """
    sched = Scheduler(Engine(cluster("ctxsw", n_ranks)))

    def storm():
        me = sched.current
        for _ in range(YIELD_ROUNDS):
            yield from me.co_yield_now()

    with BACKENDS[ctx]():
        for i in range(n_ranks):
            sched.add_actor(f"a{i}", f"node-{i}", storm)
    start = time.perf_counter()
    sched.run()
    wall = time.perf_counter() - start
    switches = sched.engine.stats.ctx_switches
    return wall, switches, wall / switches


def nas_dt_wall(ctx: str):
    """One NAS DT (BH, class A) run: (simulated clock, wall seconds)."""
    graph = dt_graph("BH", "A")
    platform = cluster("ctxdt", graph.n_ranks)
    start = time.perf_counter()
    with BACKENDS[ctx]():
        result = smpirun(dt_app, graph.n_ranks, platform, app_args=(graph,))
    wall = time.perf_counter() - start
    return result.simulated_time, wall


def experiment():
    storm_rows = []
    for n_ranks in RANK_COUNTS:
        row = {}
        for ctx in BACKENDS:
            row[ctx] = switch_storm(n_ranks, ctx)
        storm_rows.append((n_ranks, row))
    dt_rows = {ctx: nas_dt_wall(ctx) for ctx in BACKENDS}
    return storm_rows, dt_rows


def test_ablation_contexts(once):
    storm_rows, dt_rows = once(experiment)
    report = FigureReport(
        "ablation_contexts",
        "execution contexts: per-switch cost and NAS DT wall",
    )
    report.line(f"  {'ranks':>6} {'context':>10} {'wall':>9} "
                f"{'switches':>9} {'cost/switch':>12}")
    for n_ranks, row in storm_rows:
        for ctx, (wall, switches, per) in row.items():
            report.line(
                f"  {n_ranks:>6} {ctx:>10} {wall * 1e3:>7.1f}ms "
                f"{switches:>9} {per * 1e6:>10.2f}us"
            )
    report.line()
    report.line(f"  NAS DT (BH class A, "
                f"{dt_graph('BH', 'A').n_ranks} ranks):")
    for ctx, (simulated, wall) in dt_rows.items():
        report.line(f"  {'':>6} {ctx:>10} {wall * 1e3:>7.1f}ms "
                    f"(simulated {simulated:.6f}s)")

    # headline: per-switch cost at the largest rank count
    _, big = storm_rows[-1]
    speedup = big["thread"][2] / big["coroutine"][2]
    report.line()
    report.measured(
        f"coroutine context switches are {speedup:.0f}x cheaper than the "
        f"thread baton at {RANK_COUNTS[-1]} ranks; NAS DT wall drops "
        f"{dt_rows['thread'][1] / dt_rows['coroutine'][1]:.1f}x"
    )
    report.finish()

    clocks = {simulated for simulated, _ in dt_rows.values()}
    assert len(clocks) == 1, f"contexts disagree on simulated time: {dt_rows}"
    assert speedup >= 5.0, (
        f"expected >=5x cheaper context switches on coroutine contexts "
        f"at {RANK_COUNTS[-1]} ranks, got {speedup:.1f}x"
    )
