"""One benchmark sample: a single simulation in a fresh process.

Run by ``run.py``, never by hand::

    python3 e2ebench/sample.py --workload W --seed S --spawned T \
        --workdir DIR [--spans] [--expected JSON]
    python3 e2ebench/sample.py --workload W --seed S --prepare

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so ``setup_s`` covers the
interpreter start and the imports as well as the workload's own set-up.
An untraced sample reports ``setup_s`` and ``wall_s`` in reference
seconds (see ``refclock.py``) and both in host seconds as well; a
span-traced one reports host seconds only.  ``--prepare`` only imports
the program and computes the reference outputs.  The last line of
standard output is one JSON record.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from dataclasses import fields
from pathlib import Path
from time import monotonic

import spans
from refclock import REFERENCE_PROBE_S, RefClock


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counters(stats) -> dict:
    """The deterministic ``EngineStats`` counters (everything but extra)."""
    return {f.name: getattr(stats, f.name) for f in fields(stats)
            if f.name != "extra"}


def layer_metrics(result, recorder, wall_s: float) -> dict:
    """Per-layer metrics of one span-traced sample (see README.md)."""
    stats = result.stats
    memory = result.memory
    self_s = recorder.totals["wall"]
    counts = recorder.counts
    completed = stats.actions_completed
    messages = counts.get("pt2pt.messages", 0)
    metrics = {layer: self_s.get(layer, 0.0) for layer in spans.LAYERS}
    # the trace is loaded during set-up, before the first simulated event
    metrics["offline.load_s"] += recorder.totals["setup"].get("offline.load_s", 0.0)
    attributed = sum(self_s.values())
    metrics.update({
        "engine.steps": stats.steps,
        "engine.shares_per_event": _ratio(stats.shares, completed),
        "engine.heap_pops": stats.heap_pops,
        "engine.heap_useful_ratio":
            1.0 - _ratio(stats.stale_heap_entries, stats.heap_pops),
        "maxmin.flows_per_event": _ratio(stats.flows_resolved, completed),
        "maxmin.components_solved": stats.components_solved,
        "maxmin.fill_rounds": stats.fill_rounds,
        "maxmin.rate_change_ratio":
            _ratio(counts.get("maxmin.rate_changed", 0), stats.flows_resolved),
        "simix.ctx_switches": stats.ctx_switches,
        "simix.switches_per_msg": _ratio(stats.ctx_switches, messages),
        "simix.fast_resume_ratio":
            _ratio(stats.ctx_fast_resumes, stats.ctx_switches),
        "match.probes_per_match": _ratio(stats.match_probes, messages),
        "match.fast_hit_ratio": _ratio(stats.match_fast_hits, messages),
        "pt2pt.messages": messages,
        "pt2pt.eager_ratio": _ratio(counts.get("pt2pt.eager", 0), messages),
        "pt2pt.pooled_reuses_per_msg": _ratio(stats.pooled_reuses, messages),
        "intern.saved_ratio":
            _ratio(memory.intern_saved, memory.intern_naive_peak),
        "payload.bytes_copied": counts.get("payload.bytes_copied", 0),
        "memory.total_peak_mib": memory.total_peak / 2**20,
        "offline.events": counts.get("offline.events", 0),
        "trace.samples": stats.link_samples,
        "trace.bytes_written": counts.get("trace.bytes_written", 0),
        "traced_wall_s": wall_s,
        "unattributed_s": wall_s - attributed,
        "unattributed_share": _ratio(wall_s - attributed, wall_s),
    })
    return metrics


def prepare(workload: str, seed: int) -> dict:
    from workloads import WORKLOADS
    return {"expected": WORKLOADS[workload].expected(seed)}


def sample(workload: str, seed: int, spawned: float, workdir: Path,
           traced: bool, expected) -> dict:
    # the probes would land inside spans, so traced samples go without
    clock = None if traced else RefClock()
    if clock is not None:
        clock.start()
    # imported once the clock runs, so that it also covers the imports
    from workloads import WORKLOADS
    recorder = spans.SpanRecorder(monotonic if clock is None else clock.tick)
    if traced:
        spans.install(recorder)
    else:
        spans.mark_first_event(recorder)
    try:
        result, state = WORKLOADS[workload].run(seed, workdir)
    finally:
        end = monotonic() if clock is None else clock.stop()
        recorder.restore()
    first = recorder.first_event
    share = WORKLOADS[workload].probe_share
    if clock is None:
        record = {"host_setup_s": first - spawned, "host_wall_s": end - first}
    else:
        record = {
            "setup_s": clock.reference_seconds(spawned, first, share),
            "wall_s": clock.reference_seconds(first, end, share),
            "host_setup_s": clock.host_seconds(spawned, first),
            "host_wall_s": clock.host_seconds(first, end),
            "host_speed": REFERENCE_PROBE_S / statistics.median(
                duration for _, duration in clock.probes),
        }
    record.update({
        "simulated_time": float.hex(result.simulated_time),
        "sim_s": result.simulated_time,
        "counters": counters(result.stats),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "errors": WORKLOADS[workload].check(result, state, expected),
    })
    if traced:
        record["layers"] = layer_metrics(result, recorder,
                                         record["host_wall_s"])
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("--expected", default="null")
    args = parser.parse_args(argv)
    if args.prepare:
        record = prepare(args.workload, args.seed)
    else:
        try:
            record = sample(args.workload, args.seed, args.spawned,
                            args.workdir, args.spans,
                            json.loads(args.expected))
        except Exception as exc:  # a failed run is a result, not a crash
            traceback.print_exc()
            record = {"errors": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
