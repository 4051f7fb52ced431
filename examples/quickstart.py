#!/usr/bin/env python
"""Quickstart: simulate a small MPI application on a cluster you don't own.

Runs a classic SPMD pipeline — scatter a vector, compute locally, combine
with an allreduce, gather statistics — on 16 simulated nodes of a Gigabit
cluster, all inside this single process.  This is the paper's classroom
scenario: learning MPI without a parallel machine.

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.smpi import MIN, smpirun
from repro.surf import cluster
from repro.units import format_time


def app(mpi):
    # Written in the generator dialect (yield from comm.co.* / mpi.co.*),
    # so each rank runs as a coroutine continuation — no OS thread per
    # rank.  Drop the yields and call comm.Scatter(...) directly and the
    # same code runs on the thread backend instead.
    comm = mpi.COMM_WORLD
    rank, size = mpi.rank, mpi.size
    n_local = 4096

    # rank 0 owns the full input and scatters one slice per rank
    full = np.arange(size * n_local, dtype=np.float64) if rank == 0 else None
    local = np.empty(n_local)
    yield from comm.co.Scatter(full, local, root=0)

    # local computation: the simulated clock advances by the declared flops
    local_result = np.sqrt(local + 1.0)
    yield from mpi.co.execute(flops=5.0 * n_local)

    # global statistics with collectives
    local_sum = np.array([local_result.sum()])
    total = np.empty(1)
    yield from comm.co.Allreduce(local_sum, total)

    mins = np.array([local_result.min()])
    global_min = np.empty(1)
    yield from comm.co.Reduce(mins, global_min if rank == 0 else None,
                              op=MIN, root=0)

    # a neighbour exchange, the halo pattern of stencil codes
    right, left = (rank + 1) % size, (rank - 1) % size
    halo_out = local_result[-8:].copy()
    halo_in = np.empty(8)
    yield from comm.co.Sendrecv(halo_out, right, 5, halo_in, left, 5)

    yield from comm.co.Barrier()
    if rank == 0:
        return {"total": float(total[0]), "min": float(global_min[0]),
                "t": (yield from mpi.co.wtime())}
    return None


def main() -> None:
    platform = cluster("classroom", 16, host_speed="1Gf",
                       link_bandwidth="125MBps", link_latency="50us")
    result = smpirun(app, 16, platform)
    summary = result.returns[0]
    print("simulated 16-rank run on a cluster we don't own:")
    print(f"  simulated time : {format_time(result.simulated_time)}")
    print(f"  wall-clock time: {format_time(result.wall_time)}")
    print(f"  global sum     : {summary['total']:.3f}")
    print(f"  global min     : {summary['min']:.3f}")
    expected = np.sqrt(np.arange(16 * 4096, dtype=np.float64) + 1.0).sum()
    assert np.isclose(summary["total"], expected), "on-line results must be exact"
    print("  results verified against a direct sequential computation ✓")


if __name__ == "__main__":
    main()
