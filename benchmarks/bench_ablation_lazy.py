"""Ablation — lazy action updates and the completion-date heap.

The engine's event loop is event-driven: each pending action carries an
absolute predicted deadline, kept in a min-heap, and is only touched when
its rate actually changes.  This bench drives the same Fig. 17-style
workload — a crossbar of concurrently-draining disjoint transfers, every
one completing at a distinct date — through the lazy engine and the
historical scan-everything loop (``EagerEngine`` of tests/oracles.py), at growing flow
counts.  Identical simulated clocks are asserted (the heap is a pure
optimisation); the counters show the per-event work dropping from O(P)
to O(1) and the wall-clock following.
"""

from __future__ import annotations

import time

from _helpers import FigureReport
from repro.surf import cluster
from tests.oracles import oracle_engine

FLOW_COUNTS = (128, 512, 2048)


def pairwise_stage(platform, n_flows: int, eager: bool):
    """One ring stage of disjoint split-duplex transfers, distinct sizes.

    Every flow is its own max-min component and finishes at its own date,
    so the run has exactly ``n_flows`` completion events — the worst case
    for a loop that scans all pending actions at each one.
    """
    engine = oracle_engine(platform, eager=eager)
    for i in range(n_flows):
        engine.communicate(
            f"node-{i}", f"node-{(i + 1) % n_flows}", 1e6 * (1 + i)
        )
    start = time.perf_counter()
    final = engine.run()
    wall = time.perf_counter() - start
    return final, wall, engine.stats


def experiment():
    rows = []
    for n_flows in FLOW_COUNTS:
        # building a 2048-node platform dwarfs the runs; share one
        # (engines keep all their state engine-local)
        platform = cluster(
            "lazyab", n_flows, backbone_bandwidth=None, split_duplex=True
        )
        t_lazy, w_lazy, s_lazy = pairwise_stage(platform, n_flows, eager=False)
        t_eager, w_eager, s_eager = pairwise_stage(platform, n_flows, eager=True)
        assert t_lazy == t_eager, (
            f"lazy updates changed the simulation at {n_flows} flows: "
            f"{t_lazy} != {t_eager}"
        )
        rows.append((n_flows, w_lazy, s_lazy, w_eager, s_eager))
    return rows


def test_ablation_lazy(once):
    rows = once(experiment)
    report = FigureReport(
        "ablation_lazy", "lazy action updates vs eager per-event scans"
    )
    report.line(f"  {'flows':>6} {'mode':>6} {'wall':>9} {'events/s':>10} "
                f"{'touch/event':>12} {'heap pops':>10} {'stale':>7}")
    for n_flows, w_lazy, s_lazy, w_eager, s_eager in rows:
        for mode, wall, stats in (("lazy", w_lazy, s_lazy),
                                  ("eager", w_eager, s_eager)):
            report.line(
                f"  {n_flows:>6} {mode:>6} {wall * 1e3:>7.1f}ms "
                f"{stats.steps / wall:>10.0f} "
                f"{stats.actions_touched / stats.steps:>12.1f} "
                f"{stats.heap_pops:>10} {stats.stale_heap_entries:>7}"
            )
    n_big, w_lazy, s_lazy, w_eager, s_eager = rows[-1]
    touch_ratio = (s_eager.actions_touched / s_eager.steps) / (
        s_lazy.actions_touched / s_lazy.steps
    )
    report.line()
    report.measured(
        f"at {n_big} flows the heap does {touch_ratio:.0f}x fewer per-event "
        f"action updates and runs {w_eager / w_lazy:.1f}x faster wall-clock, "
        "at bit-identical simulated times"
    )
    report.finish()

    assert touch_ratio >= 5.0, (
        f"expected >=5x fewer per-event action updates at {n_big} flows, "
        f"got {touch_ratio:.1f}x"
    )
    assert w_lazy < w_eager, (
        f"lazy engine should be faster at {n_big} flows: "
        f"{w_lazy:.3f}s vs {w_eager:.3f}s"
    )
