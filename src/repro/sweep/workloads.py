"""Built-in sweep workloads: small, parameterized MPI kernels.

Sweep specs can name these instead of shipping an application file
(``builtin = "pingpong"``), which keeps campaign definitions
self-contained.  Every workload is written in the generator dialect so
it runs on the default coroutine execution context — no OS thread per
rank — and takes its knobs as keyword parameters (``params`` in the
spec).

The memo cache fingerprints a built-in by the *source text* of its
factory (:func:`fingerprint`), so editing a workload here invalidates
exactly the cached results that depended on it.
"""

from __future__ import annotations

import hashlib
import inspect
import math

import numpy as np

from ..errors import ConfigError

__all__ = ["WORKLOADS", "resolve", "fingerprint"]


def pingpong(size: int = 64 * 1024, reps: int = 4):
    """Rank 0 <-> rank 1 ping-pong of ``size`` bytes, ``reps`` rounds.

    The classic SKaMPI kernel: latency- or bandwidth-bound depending on
    ``size``, ideal for calibration-sensitivity sweeps.  Other ranks
    idle.
    """
    words = max(1, size // 8)

    def app(mpi):
        comm = mpi.COMM_WORLD
        buf = np.zeros(words)
        if mpi.rank == 0:
            for _ in range(reps):
                yield from comm.co.Send(buf, dest=1, tag=7)
                yield from comm.co.Recv(buf, source=1, tag=7)
        elif mpi.rank == 1:
            for _ in range(reps):
                yield from comm.co.Recv(buf, source=0, tag=7)
                yield from comm.co.Send(buf, dest=0, tag=7)
        return float(buf[0])

    return app


def ring(size: int = 16 * 1024, rounds: int = 2):
    """Each rank sends ``size`` bytes to its successor, ``rounds`` laps.

    Every link of the (logical) ring is busy at once, so this kernel
    exercises contention and the max-min bandwidth share.
    """
    words = max(1, size // 8)

    def app(mpi):
        comm = mpi.COMM_WORLD
        right = (mpi.rank + 1) % mpi.size
        left = (mpi.rank - 1) % mpi.size
        out = np.full(words, float(mpi.rank))
        inbox = np.zeros(words)
        for _ in range(rounds):
            yield from comm.co.Sendrecv(out, right, 3, inbox, left, 3)
        return float(inbox[0])

    return app


def allreduce(size: int = 32 * 1024, reps: int = 2, flops: float = 0.0):
    """Allreduce of ``size`` bytes, ``reps`` iterations, optional compute.

    The data-parallel-SGD shape: a compute burst (``flops`` per rank per
    iteration) followed by a global sum — the kernel collective-algorithm
    sweeps care about.
    """
    words = max(1, size // 8)

    def app(mpi):
        comm = mpi.COMM_WORLD
        grad = np.full(words, 1.0)
        total = np.zeros(words)
        for _ in range(reps):
            if flops > 0:
                yield from mpi.co.execute(flops)
            yield from comm.co.Allreduce(grad, total)
        return float(total[0])

    return app


def hpl(n: int = 4096, nb: int = 256, pivot: bool = False):
    """HPL (LINPACK) communication skeleton on a P x Q process grid.

    The benchmark the paper's scale argument is about: right-looking LU
    with ``n/nb`` panel steps.  Each step factorizes the panel on its
    owner column (compute), pipelines the panel along the process row (a
    ring broadcast of identical blocks — the payload interner folds the
    copies across all rows), then charges every rank its share of the
    trailing-matrix update, which shrinks as the factorization advances.
    ``pivot=True`` adds a per-step row exchange (partial-pivoting
    traffic).  A *skeleton*: the numerics are placeholders; the message
    pattern, sizes and flop counts scale like the real benchmark's.

    The panel buffer is a folded ``shared_malloc`` block (the paper's
    ``SMPI_SHARED_MALLOC``): at 10k+ ranks the working set stays one
    panel, not one per rank, which is what keeps the scale benchmark
    (``benchmarks/bench_scale_ranks.py``) inside a single node.
    """
    panel_words = max(1, nb * nb)

    def app(mpi):
        size = mpi.size
        p = max(1, int(math.sqrt(size)))
        while size % p:
            p -= 1
        q = size // p
        row, col = divmod(mpi.rank, q)
        comm = mpi.COMM_WORLD
        panel = mpi.shared_malloc("hpl-panel", panel_words)
        n_panels = max(1, n // nb)
        for k in range(n_panels):
            frac = 1.0 - k / n_panels  # trailing-matrix fraction left
            owner_col = k % q
            rows_below = max(nb, int(n * frac))
            if col == owner_col:
                # panel factorization on the owning column
                yield from mpi.co.execute(2.0 * nb * nb * rows_below / p)
            if q > 1:
                # pipelined ring broadcast along the process row
                right = row * q + (col + 1) % q
                left = row * q + (col - 1) % q
                if col == owner_col:
                    yield from comm.co.Send(panel, dest=right, tag=k)
                else:
                    yield from comm.co.Recv(panel, source=left, tag=k)
                    if (col + 1) % q != owner_col:
                        yield from comm.co.Send(panel, dest=right, tag=k)
            if pivot and p > 1:
                # partial-pivoting row exchange: shift a pivot row down
                # the process column (circularly), receive from above
                down = ((row + 1) % p) * q + col
                up = ((row - 1) % p) * q + col
                swap = panel[: max(1, nb)]
                yield from comm.co.Sendrecv(swap, down, n_panels + k,
                                            swap, up, n_panels + k)
            # trailing-matrix update: this rank's share of 2*m*n*NB flops
            local_rows = n * frac / p
            local_cols = n * frac / q
            yield from mpi.co.execute(2.0 * nb * local_rows * local_cols)
        return float(panel[0])

    return app


def coll(collective: str = "allreduce", size: int = 64 * 1024,
         warmup: int = 1, iters: int = 3):
    """Timed collective micro-benchmark (param-comms shape).

    Runs ``warmup`` untimed iterations of ``collective`` on ``size``
    bytes per rank, then times ``iters`` barrier-fenced iterations and
    returns the average *simulated* seconds per iteration — the latency
    figure ``repro coll sweep`` turns into per-(size, nprocs, algorithm)
    rows.  The algorithm under test is selected by the sweep's
    ``coll.<collective>`` axis, not by a workload knob, so one cached
    simulation exists per algorithm.  Buffers are ``shared_malloc``-
    folded; warmup also absorbs one-time costs such as the hierarchical
    allreduce's subcommunicator creation.
    """
    words = max(1, int(size) // 8)

    def app(mpi):
        comm = mpi.COMM_WORLD
        n = mpi.size
        fan_out = n if collective in ("allgather", "alltoall") else 1
        send = mpi.shared_malloc("coll/send", words)
        recv = mpi.shared_malloc("coll/recv", words * fan_out)

        if collective == "allreduce":
            def one():
                yield from comm.co.Allreduce(send, recv)
        elif collective == "reduce":
            def one():
                yield from comm.co.Reduce(send, recv, root=0)
        elif collective == "bcast":
            def one():
                yield from comm.co.Bcast(send, root=0)
        elif collective == "allgather":
            def one():
                yield from comm.co.Allgather(send, recv)
        elif collective == "alltoall":
            def one():
                yield from comm.co.Alltoall(send, recv)
        else:
            raise ConfigError(
                f"coll workload: unsupported collective {collective!r}")

        for _ in range(max(0, warmup)):
            yield from one()
        yield from comm.co.Barrier()
        start = yield from mpi.co.wtime()
        for _ in range(max(1, iters)):
            yield from one()
        yield from comm.co.Barrier()
        elapsed = (yield from mpi.co.wtime()) - start
        return elapsed / max(1, iters)

    return app


def dl_sgd(communicator: str = "ring", layers="4x4MiB", bucket="4MiB",
           steps: int = 2, flops_per_step: float = 1e9):
    """Data-parallel SGD skeleton (see :func:`repro.dl.sgd_skeleton`).

    Sweepable wrapper over the DL workload family: pick a communicator
    strategy by name and a layer/bucket shape, get back the average
    simulated seconds per training step as the point metric.
    """
    from ..dl import sgd_skeleton

    return sgd_skeleton(communicator=communicator, layers=layers,
                        bucket=bucket, steps=steps,
                        flops_per_step=flops_per_step)


# the skeleton's behaviour lives in repro.dl, so its source must feed the
# memo-cache fingerprint too — otherwise editing the DL package would keep
# serving stale cached results
dl_sgd.fingerprint_modules = ("repro.dl.sgd", "repro.dl.communicators")


#: registry of built-in workload factories, by spec ``builtin`` name
WORKLOADS = {
    "pingpong": pingpong,
    "ring": ring,
    "allreduce": allreduce,
    "hpl": hpl,
    "coll": coll,
    "dl_sgd": dl_sgd,
}


def resolve(name: str, params: dict | None = None):
    """The app callable for built-in ``name`` with ``params`` applied."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ConfigError(
            f"unknown builtin workload {name!r}; "
            f"available: {sorted(WORKLOADS)}")
    try:
        return factory(**(params or {}))
    except TypeError as exc:
        raise ConfigError(f"bad params for builtin {name!r}: {exc}")


def fingerprint(name: str) -> str:
    """Content hash of the builtin's factory source (cache-key input).

    A factory that delegates to another module lists it in a
    ``fingerprint_modules`` attribute (module names); their full source
    is hashed in, so editing the delegated implementation invalidates
    exactly the cached results that depend on it.
    """
    import importlib

    if name not in WORKLOADS:
        raise ConfigError(f"unknown builtin workload {name!r}")
    factory = WORKLOADS[name]
    source = inspect.getsource(factory)
    for module_name in getattr(factory, "fingerprint_modules", ()):
        source += inspect.getsource(importlib.import_module(module_name))
    return hashlib.sha256(source.encode("utf-8")).hexdigest()
