"""Ablation — incremental re-sharing under dynamic resource availability.

Availability profiles turn a static platform into a stream of capacity
events: every profile point changes one resource's capacity mid-run.
The historical full-reshare solver (``FullReshareEngine`` of
tests/oracles.py) re-solves *every* live flow at every such event; the incremental solver marks only the changed constraint
dirty and re-solves its connected component.  This bench drives a
crossbar of disjoint transfers — a subset of whose links carry
multi-point availability profiles — through both solver paths at
growing flow counts, asserts bit-identical simulated clocks, and
measures the per-event flow-resolution work and wall-clock.
"""

from __future__ import annotations

import time

from _helpers import FigureReport
from repro.surf import cluster, parse_profile
from tests.oracles import oracle_engine

FLOW_COUNTS = (128, 512, 1024)

#: links carrying an availability profile (capacity-event sources)
N_PROFILED = 32
#: capacity steps per profiled link, spread over the longest flow
POINTS_PER_PROFILE = 4


def _make_platform(n_flows: int):
    platform = cluster(
        "faultab", n_flows, backbone_bandwidth=None, split_duplex=True
    )
    # longest flow: n_flows MB at 125 MB/s over a half-capacity trough
    horizon = n_flows * 1e6 / 125e6 * 2
    values = (0.75, 0.5, 0.75, 1.0)  # never 0: every flow must finish
    for i, link in enumerate(platform.links[:N_PROFILED]):
        text = "".join(
            f"{(i + 1 + k * N_PROFILED) * horizon / (POINTS_PER_PROFILE * N_PROFILED + 1)!r}"
            f" {values[k % len(values)]!r}\n"
            for k in range(POINTS_PER_PROFILE)
        )
        link.availability_profile = parse_profile(text, name=link.name)
    return platform


def crossbar_stage(platform, n_flows: int, full: bool):
    """Disjoint transfers with staggered capacity events on their links."""
    engine = oracle_engine(platform, full=full)
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
        platform = _make_platform(n_flows)
        t_inc, w_inc, s_inc = crossbar_stage(platform, n_flows, full=False)
        t_full, w_full, s_full = crossbar_stage(platform, n_flows, full=True)
        assert t_inc == t_full, (
            f"incremental sharing changed the simulation at {n_flows} "
            f"flows: {t_inc} != {t_full}"
        )
        assert s_inc.capacity_events == s_full.capacity_events
        rows.append((n_flows, w_inc, s_inc, w_full, s_full))
    return rows


def test_ablation_faults(once):
    rows = once(experiment)
    report = FigureReport(
        "ablation_faults",
        "incremental vs full re-share under capacity events",
    )
    report.line(f"  {'flows':>6} {'mode':>6} {'wall':>9} {'shares':>7} "
                f"{'flows resolved':>14} {'resolved/share':>14}")
    for n_flows, w_inc, s_inc, w_full, s_full in rows:
        for mode, wall, stats in (("incr", w_inc, s_inc),
                                  ("full", w_full, s_full)):
            report.line(
                f"  {n_flows:>6} {mode:>6} {wall * 1e3:>7.1f}ms "
                f"{stats.shares:>7} {stats.flows_resolved:>14} "
                f"{stats.flows_resolved / max(stats.shares, 1):>14.1f}"
            )
    n_big, w_inc, s_inc, w_full, s_full = rows[-1]
    resolve_ratio = s_full.flows_resolved / max(s_inc.flows_resolved, 1)
    report.line()
    report.measured(
        f"at {n_big} flows with {s_inc.capacity_events} capacity events the "
        f"incremental solver resolves {resolve_ratio:.0f}x fewer flows and "
        f"runs {w_full / w_inc:.1f}x faster wall-clock, at bit-identical "
        "simulated times"
    )
    report.finish()

    assert resolve_ratio >= 5.0, (
        f"expected >=5x fewer flow re-solves at {n_big} flows, "
        f"got {resolve_ratio:.1f}x"
    )
    assert w_inc < w_full, (
        f"incremental solver should be faster at {n_big} flows: "
        f"{w_inc:.3f}s vs {w_full:.3f}s"
    )
