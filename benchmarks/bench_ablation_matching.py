"""Ablation — indexed match queues vs the linear-scan matcher.

The pt2pt layer's matcher is a hot path: every arriving message walks
the receiver's posted queue and every posted receive walks the
unexpected queue.  The seqno-bucketed index makes exact matches O(1)
and wildcard matches O(#candidate buckets); the original front-to-back
scan is kept as a fuzz-pinned test oracle (``matching("scan")`` in
tests/oracles.py).  This bench measures both on the workloads
where the difference shows:

* **dense many-to-one, exact sources** — rank 0 posts R rounds of
  per-peer receives up front, *globally reversed*, so the scan examines
  a deep posted queue (~(R*N)^2/2 probes total) while the index goes
  straight to the (src, tag) bucket.  This is the headline case: a
  master/worker result collection, an MPI_Gather root, an HPL panel
  broadcast root all look like this.  The dense runs use the constant
  (no-contention) network model — like the Fig. 7/11 strawman — so the
  matcher, not the bandwidth solver, is the variable under test.
* **dense many-to-one, ANY_SOURCE** — the same traffic received with
  wildcards; the index resolves a wildcard by comparing candidate
  bucket heads instead of walking the queue, so deep wildcard queues
  win too.
* **pairwise all-to-all** and the **dl_sgd ring** — realistic
  collective-heavy workloads where queues stay short; these gate that
  indexing never *loses*.

Both matchers must agree on the simulated clock bit-exactly (asserted
on every run here; fuzz-pinned in tests/test_fuzz_match.py).

Run the committed full curve (256-2048 ranks)::

    python benchmarks/bench_ablation_matching.py --full

or the CI smoke gate (256 ranks, seconds not minutes)::

    python benchmarks/bench_ablation_matching.py --smoke

Under pytest (``--benchmark-only``) the mode follows REPRO_BENCH_FULL.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
# the scan baseline is the test-only oracle in tests/oracles.py
sys.path.insert(0, str(Path(__file__).parent.parent))

from _helpers import RESULTS_DIR, FigureReport  # noqa: E402

from repro.smpi import smpirun  # noqa: E402
from repro.surf import cluster  # noqa: E402
from tests.oracles import matching  # noqa: E402

MATCHING_JSON = RESULTS_DIR / "ablation_matching.json"

#: rank counts of the committed dense-matching curve
FULL_POINTS = [256, 1024, 2048]
#: rank counts of the CI smoke gate (the 1024 headline point costs ~2s)
SMOKE_POINTS = [256, 1024]

#: receive rounds per dense run (scan probes scale with rounds * N^2/2)
DENSE_ROUNDS = 3

#: acceptance gates at the largest dense point: the index must cut
#: per-match probes >=5x and dense wall time >=1.5x at 1024+ ranks.
#: The smoke gate keeps the probe bar and relaxes the wall bar for
#: noisy shared CI runners (measured headroom is ~3x at 1024).
PROBE_GATE = 5.0
WALL_GATE_FULL = 1.5
WALL_GATE_SMOKE = 1.2


def dense_exact_app(mpi, rounds: int):
    """Rank 0 collects one message per peer per round, posting every
    round's receives up front in *globally reversed* order — the scan
    matcher's worst case (early arrivals match the deepest entries)."""
    from repro.smpi import request as rq

    comm = mpi.COMM_WORLD
    n = mpi.size
    if mpi.rank == 0:
        recvs, bufs = [], []
        for tag in reversed(range(rounds)):
            for src in range(n - 1, 0, -1):
                buf = np.zeros(8, dtype=np.uint8)
                bufs.append(buf)
                recvs.append(comm.Irecv(buf, src, tag))
        yield from rq.co_waitall(recvs)
    else:
        payload = np.full(8, mpi.rank % 251, dtype=np.uint8)
        for tag in range(rounds):
            yield from comm.co.Send(payload, 0, tag)
    return (yield from mpi.co.wtime())


def dense_any_app(mpi, rounds: int):
    """The same many-to-one traffic received with ANY_SOURCE wildcards."""
    from repro.smpi import request as rq
    from repro.smpi.constants import ANY_SOURCE

    comm = mpi.COMM_WORLD
    n = mpi.size
    if mpi.rank == 0:
        recvs, bufs = [], []
        for tag in reversed(range(rounds)):
            for _ in range(n - 1):
                buf = np.zeros(8, dtype=np.uint8)
                bufs.append(buf)
                recvs.append(comm.Irecv(buf, ANY_SOURCE, tag))
        yield from rq.co_waitall(recvs)
    else:
        payload = np.full(8, mpi.rank % 251, dtype=np.uint8)
        for tag in range(rounds):
            yield from comm.co.Send(payload, 0, tag)
    return (yield from mpi.co.wtime())


def _alltoall_app(n_ranks: int):
    from repro.sweep.workloads import resolve

    # one 8-byte word per peer so the send buffer splits evenly
    return resolve("coll", {"collective": "alltoall", "size": 8 * n_ranks,
                            "warmup": 0, "iters": 1})


def _dl_sgd_app(n_ranks: int):
    from repro.sweep.workloads import resolve

    return resolve("dl_sgd", {"communicator": "ring", "layers": "2x1MiB",
                              "bucket": "1MiB", "steps": 1})


def run_case(app, n_ranks: int, mode: str, app_args=(),
             contention: bool = True) -> dict:
    """One measured run; returns wall, simulated time and match counters."""
    from repro.surf.network_model import ConstantNetworkModel

    platform = cluster("match", min(n_ranks, 256))
    model = None if contention else ConstantNetworkModel()
    with matching(mode):
        start = time.perf_counter()
        result = smpirun(app, n_ranks, platform, app_args=app_args,
                         network_model=model)
        wall = time.perf_counter() - start
    stats = result.stats
    return {
        "wall_s": wall,
        "simulated_s": result.simulated_time,
        "match_probes": stats.match_probes,
        "match_fast_hits": stats.match_fast_hits,
        "wildcard_scans": stats.wildcard_scans,
        "pooled_reuses": stats.pooled_reuses,
    }


def experiment(full: bool | None = None) -> dict:
    if full is None:
        full = bool(os.environ.get("REPRO_BENCH_FULL"))
    points = FULL_POINTS if full else SMOKE_POINTS
    top = max(points)

    # the parity workloads keep contention on (they gate that indexing
    # never loses on realistic traffic) but run at CI-friendly sizes
    n_coll = 256 if full else 128
    n_dl = 256 if full else 64
    cases = [("dense exact reversed", dense_exact_app, n, (DENSE_ROUNDS,),
              False) for n in points]
    cases += [
        ("dense ANY_SOURCE", dense_any_app, top, (DENSE_ROUNDS,), False),
        ("alltoall 8B/peer", _alltoall_app(n_coll), n_coll, (), True),
        ("dl_sgd ring 2x1MiB", _dl_sgd_app(n_dl), n_dl, (), True),
    ]

    rows = []
    for label, app, n_ranks, app_args, contention in cases:
        index = run_case(app, n_ranks, "index", app_args, contention)
        scan = run_case(app, n_ranks, "scan", app_args, contention)
        assert index["simulated_s"] == scan["simulated_s"], (
            f"{label} @ {n_ranks}: matchers disagree on the simulated clock"
        )
        rows.append({"workload": label, "n_ranks": n_ranks,
                     "index": index, "scan": scan})
    return {"full": full, "rows": rows}


def report_and_gate(data: dict) -> None:
    full = data["full"]
    rows = data["rows"]
    report = FigureReport(
        "ablation_matching",
        "indexed match queues vs linear scan (probes and wall time)",
    )
    mode = "full" if full else "smoke (REPRO_BENCH_FULL=1 for the full curve)"
    report.line(f"  {DENSE_ROUNDS} receive rounds per dense run; mode: {mode}")
    report.line(f"  {'workload':<22} {'ranks':>6} {'probes idx':>11} "
                f"{'probes scan':>12} {'ratio':>7} {'wall idx':>9} "
                f"{'wall scan':>10} {'speedup':>8}")
    for row in rows:
        idx, scn = row["index"], row["scan"]
        probe_ratio = scn["match_probes"] / max(1, idx["match_probes"])
        speedup = scn["wall_s"] / idx["wall_s"]
        report.line(
            f"  {row['workload']:<22} {row['n_ranks']:>6} "
            f"{idx['match_probes']:>11} {scn['match_probes']:>12} "
            f"{probe_ratio:>6.1f}x {idx['wall_s']:>8.2f}s "
            f"{scn['wall_s']:>9.2f}s {speedup:>7.2f}x"
        )
    report.line()

    dense = [r for r in rows if r["workload"] == "dense exact reversed"]
    headline = max(dense, key=lambda r: r["n_ranks"])
    h_idx, h_scn = headline["index"], headline["scan"]
    probe_ratio = h_scn["match_probes"] / max(1, h_idx["match_probes"])
    speedup = h_scn["wall_s"] / h_idx["wall_s"]
    report.measured(
        f"dense exact @ {headline['n_ranks']} ranks: {probe_ratio:.0f}x "
        f"fewer probes, {speedup:.2f}x wall speedup, identical clocks"
    )
    parity = [r for r in rows
              if r["workload"] in ("alltoall 8B/peer", "dl_sgd ring 2x1MiB")]
    worst = min(r["scan"]["wall_s"] / r["index"]["wall_s"] for r in parity)
    report.measured(
        f"short-queue workloads (alltoall, dl_sgd): worst index-vs-scan "
        f"wall ratio {worst:.2f}x — indexing never loses"
    )
    report.measured(
        f"pooled reuses @ {headline['n_ranks']} ranks: "
        f"{h_idx['pooled_reuses']} requests/messages recycled"
    )
    report.finish()

    MATCHING_JSON.write_text(json.dumps({
        "description": "indexed match queues vs the linear-scan oracle: "
                       "per-match probe counts (entries examined per "
                       "matching attempt) and end-to-end wall time, at "
                       "identical simulated clocks",
        "mode": "full" if full else "smoke",
        "dense_rounds": DENSE_ROUNDS,
        "rows": rows,
    }, indent=2) + "\n", encoding="utf-8")

    wall_gate = WALL_GATE_FULL if full else WALL_GATE_SMOKE
    assert probe_ratio >= PROBE_GATE, (
        f"expected >={PROBE_GATE}x fewer probes at {headline['n_ranks']} "
        f"ranks, got {probe_ratio:.1f}x"
    )
    assert speedup >= wall_gate, (
        f"expected >={wall_gate}x wall speedup at {headline['n_ranks']} "
        f"ranks, got {speedup:.2f}x"
    )
    # indexing must not tank the short-queue workloads
    assert worst >= 0.8, f"index overhead on short queues: {worst:.2f}x"


def test_ablation_matching(once):
    report_and_gate(once(experiment))


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--smoke", action="store_true",
                       help="CI gate: smallest point only")
    group.add_argument("--full", action="store_true",
                       help="committed 256-2048 rank curve")
    args = parser.parse_args(argv)
    full = args.full or (not args.smoke
                         and bool(os.environ.get("REPRO_BENCH_FULL")))
    report_and_gate(experiment(full))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
