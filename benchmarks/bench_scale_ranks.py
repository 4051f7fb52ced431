"""Scale curve: ranks vs peak RSS and wall time on the HPL skeleton.

The paper's single-node claim, measured: simulate the HPL communication
skeleton at growing rank counts (1k → 16k) in one process per point and
record the *process* peak RSS (``ru_maxrss``) next to the wall time and
the simulator's own memory accounting.  Each point runs in a fresh
subprocess because ``ru_maxrss`` is monotone over a process lifetime —
measuring three points in one process would report the largest for all.

The constant-memory scale path is what makes the curve flat-ish:

* the workload's panel is a folded ``shared_malloc`` block (one panel
  total, not one per rank);
* payloads, datatype signatures and request metadata are interned;
* per-rank state is a coroutine continuation, not an OS thread.

The gate asserted here (and smoke-checked in CI with smaller counts):
quadrupling the ranks from 4k to 16k must at most double the peak RSS —
i.e. the per-rank marginal cost is bounded by bookkeeping, not by the
application's working set.

Run the full curve::

    python -m pytest benchmarks/bench_scale_ranks.py --benchmark-only

or one point by hand (prints a JSON record)::

    python benchmarks/bench_scale_ranks.py --child 4096
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
SCALE_JSON = RESULTS_DIR / "scale_ranks.json"
SRC_DIR = Path(__file__).parent.parent / "src"

#: rank counts of the committed curve
FULL_POINTS = [1024, 4096, 16384]
#: rank counts of the CI smoke gate (seconds, not minutes)
SMOKE_POINTS = [256, 1024]

#: HPL skeleton shape: 4 panel steps of 256x256 blocks
HPL_PARAMS = {"n": 1024, "nb": 256}

#: ranks-quadrupled RSS growth bound (the constant-memory gate)
RSS_GROWTH_BOUND = 2.0


def _child_main(n_ranks: int) -> None:
    """One measured point: run, then print the record as JSON."""
    from repro.smpi import smpirun
    from repro.surf import cluster
    from repro.sweep.workloads import resolve

    app = resolve("hpl", HPL_PARAMS)
    platform = cluster("scale", min(n_ranks, 256))
    start = time.perf_counter()
    result = smpirun(app, n_ranks, platform)
    wall = time.perf_counter() - start
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    memory = result.memory
    print(json.dumps({
        "n_ranks": n_ranks,
        "simulated_s": result.simulated_time,
        "wall_s": wall,
        "peak_rss_bytes": rss_kib * 1024,
        "sim_total_peak": memory.total_peak,
        "sim_shared_peak": memory.shared_peak,
        "intern_naive_peak": memory.intern_naive_peak,
        "intern_stored_peak": memory.intern_stored_peak,
    }))


def run_point(n_ranks: int) -> dict:
    """Run one rank count in a fresh subprocess; parse its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(n_ranks)],
        capture_output=True, text=True, env=env, check=True,
    )
    # the record is the last stdout line (warnings may precede it)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def experiment(points: list[int]) -> list[dict]:
    return [run_point(n) for n in points]


def _report(rows: list[dict], label: str) -> None:
    print(f"\nscale_ranks ({label}): HPL skeleton, "
          f"n={HPL_PARAMS['n']} nb={HPL_PARAMS['nb']}")
    print(f"  {'ranks':>7} {'peak RSS':>12} {'wall':>9} {'simulated':>11} "
          f"{'folded heap':>12}")
    for row in rows:
        print(f"  {row['n_ranks']:>7} "
              f"{row['peak_rss_bytes'] / 2**20:>10.1f}Mi "
              f"{row['wall_s']:>8.1f}s "
              f"{row['simulated_s']:>10.3f}s "
              f"{row['sim_shared_peak'] / 2**20:>10.1f}Mi")


def _assert_constant_memory(rows: list[dict]) -> None:
    """Quadrupling ranks must at most double peak RSS (sublinear)."""
    for prev, cur in zip(rows, rows[1:]):
        rank_factor = cur["n_ranks"] / prev["n_ranks"]
        rss_factor = cur["peak_rss_bytes"] / prev["peak_rss_bytes"]
        assert rss_factor <= RSS_GROWTH_BOUND, (
            f"{prev['n_ranks']} -> {cur['n_ranks']} ranks "
            f"({rank_factor:.0f}x) grew peak RSS {rss_factor:.2f}x "
            f"(bound {RSS_GROWTH_BOUND}x)"
        )


def test_scale_ranks(once):
    rows = once(experiment, FULL_POINTS)
    _report(rows, "full")
    RESULTS_DIR.mkdir(exist_ok=True)
    SCALE_JSON.write_text(json.dumps({
        "description": ("peak process RSS and wall time vs simulated rank "
                        "count for the builtin hpl skeleton workload; one "
                        "fresh subprocess per point (ru_maxrss is "
                        "process-monotone)"),
        "hpl_params": HPL_PARAMS,
        "rss_growth_bound_per_4x_ranks": RSS_GROWTH_BOUND,
        "rows": rows,
    }, indent=1, sort_keys=True), encoding="utf-8")
    _assert_constant_memory(rows)


def smoke() -> None:
    """The CI gate: small counts, same sublinearity assertion."""
    rows = experiment(SMOKE_POINTS)
    _report(rows, "smoke")
    _assert_constant_memory(rows)
    print("scale smoke gate passed")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        sys.path.insert(0, str(SRC_DIR))
        _child_main(int(sys.argv[2]))
    elif len(sys.argv) == 2 and sys.argv[1] == "--smoke":
        smoke()
    else:
        sys.exit(f"usage: {sys.argv[0]} --child N_RANKS | --smoke")
