"""The data-parallel DL workload family: communicator registry, SGD
skeleton, topology-aware splits, and the allreduce fuzz gate.

The fuzz tests use *integer-valued* float payloads: integer sums are
exact in float64, so every summation order gives bit-identical results
— which is what lets us demand exact equality across algorithms whose
combination orders differ.  Simulated clocks must also be deterministic:
same point, same config => same simulated time, on the coroutine
contexts and on the thread oracle.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.dl import (
    COMMUNICATORS,
    create_communicator,
    bucketize,
    parse_layers,
    sgd_skeleton,
)
from repro.errors import ConfigError
from repro.smpi import SmpiConfig, smpirun
from repro.smpi.coll import ALGORITHMS
from repro.surf import cluster, multi_cabinet_cluster
from tests.oracles import thread_contexts

#: 8 ranks over 3 cabinets (3+3+2) — hierarchical strategies see real
#: uplinks, flat ones a two-level route
CABINETS = (3, 3, 2)


def cab_platform(name="dl"):
    return multi_cabinet_cluster(name, CABINETS)


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_all_strategies_registered(self):
        assert set(COMMUNICATORS) == {
            "naive", "flat", "ring", "rabenseifner", "hierarchical",
        }

    def test_unknown_name_raises(self):
        def app(mpi):
            create_communicator("telepathy", mpi.COMM_WORLD)
            yield from mpi.co.sleep(0)

        from repro.errors import ActorFailure

        with pytest.raises((ActorFailure, ConfigError)):
            smpirun(app, 2, cluster("reg", 2))

    @pytest.mark.parametrize("name", sorted(COMMUNICATORS))
    def test_strategy_sums_gradients(self, name):
        def app(mpi):
            dlcomm = create_communicator(name, mpi.COMM_WORLD)
            assert dlcomm.rank == mpi.rank
            assert dlcomm.size == mpi.size
            grad = np.full(16, float(mpi.rank + 1))
            total = np.zeros(16)
            yield from dlcomm.co_allreduce_grad(grad, total)
            return total.tolist()

        n = 8
        result = smpirun(app, n, cab_platform())
        expected = [n * (n + 1) / 2] * 16
        for got in result.returns:
            assert got == pytest.approx(expected)

    def test_split_keeps_strategy(self):
        def app(mpi):
            dlcomm = create_communicator("ring", mpi.COMM_WORLD)
            sub = yield from mpi.COMM_WORLD.co.Split(mpi.rank % 2, mpi.rank)
            half = type(dlcomm)(sub)
            assert type(half) is type(dlcomm)
            grad = np.full(4, 1.0)
            total = np.zeros(4)
            yield from half.co_allreduce_grad(grad, total)
            return float(total[0])

        result = smpirun(app, 6, cluster("split", 6))
        assert result.returns == [3.0] * 6  # each half has 3 ranks


# ---------------------------------------------------------------- Split_type


class TestSplitType:
    def test_cabinet_split_groups_by_cabinet(self):
        def app(mpi):
            local = yield from mpi.COMM_WORLD.co.Split_type("cabinet")
            return (local.size, local.Get_rank())

        result = smpirun(app, 8, cab_platform())
        sizes = [size for size, _rank in result.returns]
        # ranks 0-2 -> cab0, 3-5 -> cab1, 6-7 -> cab2 (round-robin hosts)
        assert sizes == [3, 3, 3, 3, 3, 3, 2, 2]
        assert [rank for _s, rank in result.returns] == [0, 1, 2, 0, 1, 2, 0, 1]

    def test_shared_split_groups_by_host(self):
        # 4 ranks over a 2-host cluster: ranks 0,2 share host 0 and 1,3 host 1
        def app(mpi):
            local = yield from mpi.COMM_WORLD.co.Split_type("shared")
            return sorted(
                local.group.world_rank(r) for r in range(local.size)
            )

        result = smpirun(app, 4, cluster("shared", 2))
        assert result.returns == [[0, 2], [1, 3], [0, 2], [1, 3]]

    def test_cabinet_split_falls_back_to_host_on_flat_cluster(self):
        def app(mpi):
            local = yield from mpi.COMM_WORLD.co.Split_type("cabinet")
            return local.size

        result = smpirun(app, 4, cluster("flat", 4))
        assert result.returns == [1, 1, 1, 1]

    def test_unknown_kind_raises(self):
        from repro.errors import ActorFailure, MpiError

        def app(mpi):
            yield from mpi.COMM_WORLD.co.Split_type("rack")

        with pytest.raises((ActorFailure, MpiError)):
            smpirun(app, 2, cluster("kind", 2))


# ---------------------------------------------------------------- SGD skeleton


class TestSgdSkeleton:
    def test_parse_layers_groups(self):
        assert parse_layers("2x1KiB,4KiB") == [1024, 1024, 4096]
        assert parse_layers([512, "1KiB"]) == [512, 1024]
        with pytest.raises(ConfigError):
            parse_layers("")
        with pytest.raises(ConfigError):
            parse_layers("twox1KiB")

    def test_bucketize_packs_in_order(self):
        assert bucketize([100, 100, 100], 150) == [200, 100]
        assert bucketize([1000], 100) == [1000]  # oversized layer: own bucket
        assert bucketize([10, 10], 1000) == [20]
        with pytest.raises(ConfigError):
            bucketize([10], 0)

    @pytest.mark.parametrize("name", sorted(COMMUNICATORS))
    def test_step_time_positive(self, name):
        app = sgd_skeleton(communicator=name, layers="2x64KiB",
                           bucket="64KiB", steps=2, flops_per_step=1e7)
        result = smpirun(app, 8, cab_platform())
        step = result.returns[0]
        assert step > 0
        # ranks leave the closing barrier at slightly different instants,
        # so per-rank step times agree only up to that skew
        assert all(r == pytest.approx(step, rel=0.05) for r in result.returns)

    def test_gradient_buffers_are_folded(self):
        """shared_malloc folding: the shared peak equals one copy of the
        buckets (grad + sum), independent of the rank count — the property
        the 16k-rank RSS gate relies on."""
        layer_bytes = 64 * 1024

        def peak(n_ranks):
            app = sgd_skeleton(communicator="flat", layers="1x64KiB",
                               bucket="64KiB", steps=1, flops_per_step=0.0)
            result = smpirun(app, n_ranks, cluster("fold", n_ranks))
            return result.memory.shared_peak

        assert peak(2) == peak(8) == 2 * layer_bytes  # grad + sum


# ---------------------------------------------------------------- fuzz gate

FUZZ_CASES = [
    # (seed, n_ranks, count)
    (0, 5, 7),
    (1, 8, 64),
    (2, 6, 129),
]


def _fuzz_payloads(seed: int, n: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(-999, 999, size=(n, count)).astype(np.float64)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS["allreduce"]))
@pytest.mark.parametrize("seed,n,count", FUZZ_CASES)
def test_fuzz_allreduce_bit_identical(algo, seed, n, count):
    """Every algorithm must reproduce the naive reference bit-for-bit on
    integer-valued payloads (exact in float64 whatever the sum order)."""
    payloads = _fuzz_payloads(seed, n, count)

    def app(mpi):
        send = payloads[mpi.rank].copy()
        recv = np.zeros(count)
        yield from mpi.COMM_WORLD.co.Allreduce(send, recv)
        return recv.tobytes()

    config = SmpiConfig(coll_algorithms={"allreduce": algo})
    result = smpirun(app, n, cab_platform(f"fuzz{seed}"), config=config)
    expected = payloads.sum(axis=0).tobytes()
    for rank, got in enumerate(result.returns):
        assert got == expected, (algo, rank)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS["allreduce"]))
def test_fuzz_allreduce_deterministic_clock(algo):
    """Same point => identical simulated time, on the coroutine contexts,
    on the thread oracle and on repeat runs."""
    payloads = _fuzz_payloads(3, 6, 33)

    def app(mpi):
        send = payloads[mpi.rank].copy()
        recv = np.zeros(33)
        yield from mpi.COMM_WORLD.co.Allreduce(send, recv)
        return recv.tobytes()

    expected = payloads.sum(axis=0).tobytes()
    times = set()
    config = SmpiConfig(coll_algorithms={"allreduce": algo})
    for contexts in (nullcontext, thread_contexts):
        for _repeat in range(2):
            with contexts():
                result = smpirun(app, 6, cab_platform("clk"), config=config)
            assert all(r == expected for r in result.returns)
            times.add(result.simulated_time)
    assert len(times) == 1, (algo, times)
    assert times.pop() > 0
