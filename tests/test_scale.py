"""Tests for the constant-memory scale path (ISSUE 8).

Covers its two layers:

* rank-state interning — the ``InternPool`` oracle's refcounting, the
  two-level ``PayloadPool`` against the whole-digest oracle, payload
  folding in the protocol, ``SharedHeap`` refcount semantics, the enforcement
  error's rank/shared breakdown;
* streaming trace sinks — byte-identity with the in-memory exporters
  (CSV, Paje, TI) and the bounded open-window invariant.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MpiError, OutOfMemoryError
from repro.offline import record_trace, record_trace_streaming, replay_trace
from repro.smpi import SmpiConfig, runtime, smpirun
from repro.smpi.intern import PayloadPool, intern_meta, payload_key
from repro.smpi.memory import MemoryTracker
from repro.surf import cluster
from repro.trace import CsvStreamSink, PajeStreamSink, Tracer, export_paje
from tests.oracles import DigestPayloadPool, InternPool


def traffic_app(mpi):
    """Deterministic mix of compute and eager/rendezvous traffic."""
    comm = mpi.COMM_WORLD
    rank, size = mpi.rank, mpi.size
    mpi.execute(1e7 * (1 + rank))
    comm.sendrecv(b"p" * 150_000, (rank + 1) % size,
                  source=(rank - 1) % size)
    mpi.execute(5e6)
    comm.sendrecv(b"q" * 64, (rank + 1) % size,
                  source=(rank - 1) % size)
    comm.barrier()


class TestInternPool:
    def test_acquire_release_refcount(self):
        pool = InternPool()
        a = pool.acquire("k", lambda: [1, 2], 100)
        b = pool.acquire("k", lambda: [9, 9], 100)  # factory not called
        assert a is b
        assert pool.refcount("k") == 2
        assert pool.naive_bytes == 200 and pool.stored_bytes == 100
        assert pool.saved_bytes == 100
        assert not pool.release("k")
        assert pool.refcount("k") == 1
        assert pool.release("k")  # last ref evicts
        assert pool.refcount("k") == 0
        assert len(pool) == 0
        assert pool.naive_bytes == 0 and pool.stored_bytes == 0

    def test_release_unknown_key_is_idempotent(self):
        pool = InternPool()
        assert not pool.release("never-seen")

    def test_key_reuse_after_eviction(self):
        pool = InternPool()
        first = pool.acquire("k", lambda: object(), 10)
        pool.release("k")
        second = pool.acquire("k", lambda: object(), 10)
        assert first is not second  # evicted entries rebuild
        assert pool.hits == 0 and pool.acquires == 2

    def test_accounting_callback(self):
        seen = []
        pool = InternPool(on_account=lambda n, s: seen.append((n, s)))
        pool.acquire("k", lambda: None, 7)
        pool.acquire("k", lambda: None, 7)
        pool.release("k")
        pool.release("k")
        assert seen == [(7, 7), (7, 0), (-7, 0), (-7, 0), (0, -7)]

    def test_payload_key_collision_resistance(self):
        a = np.frombuffer(b"hello world", dtype=np.uint8)
        b = np.frombuffer(b"hello worle", dtype=np.uint8)
        assert payload_key(a) != payload_key(b)
        assert payload_key(a) == payload_key(a.copy())

    def test_intern_meta_folds_identical_tuples(self):
        t1 = intern_meta("send", 7, 0, 1024)
        t2 = intern_meta("send", 7, 0, 1024)
        assert t1 is t2


class TestSharedHeapRefcounting:
    def _world(self, n=4):
        platform = cluster("shr", 2)
        from repro.smpi.runtime import SmpiWorld
        return SmpiWorld(platform, n)

    def test_key_reuse_across_churn(self):
        world = self._world()
        heap = world.heap
        a = heap.shared_malloc("blk", 8, dtype=np.uint8)
        b = heap.shared_malloc("blk", 8, dtype=np.uint8)
        assert a is b
        assert heap.shared_refcount("blk") == 2
        heap.shared_free("blk")
        assert heap.shared_refcount("blk") == 1
        heap.shared_free("blk")
        assert heap.shared_refcount("blk") == 0
        # the key is reusable after full release, with a fresh array
        c = heap.shared_malloc("blk", 16, dtype=np.uint8)
        assert c is not a and c.nbytes == 16
        assert heap.shared_refcount("blk") == 1

    def test_double_free_raises(self):
        world = self._world()
        heap = world.heap
        heap.shared_malloc("blk", 8, dtype=np.uint8)
        heap.shared_free("blk")
        with pytest.raises(MpiError):
            heap.shared_free("blk")  # refcount already zero: block gone

    def test_shared_bytes_accounting_across_churn(self):
        world = self._world()
        tracker = world.memory
        heap = world.heap
        base = tracker._shared_current
        for _ in range(3):  # allocate/free cycles must not leak
            heap.shared_malloc("w", 1024, dtype=np.uint8)
            heap.shared_malloc("w", 1024, dtype=np.uint8)
            assert tracker._shared_current == base + 1024  # folded once
            heap.shared_free("w")
            heap.shared_free("w")
            assert tracker._shared_current == base
        report = tracker.report()
        # two refs of 1 KiB fold to one stored KiB at the naive peak
        assert report.intern_naive_peak >= 2048
        assert report.intern_stored_peak <= report.intern_naive_peak

    def test_oom_error_names_rank_and_breakdown(self):
        tracker = MemoryTracker(2, limit=200 * 1024, enforce=True)
        tracker.allocate(0, 50 * 1024)
        with pytest.raises(OutOfMemoryError) as err:
            tracker.allocate(1, 512 * 1024)
        message = str(err.value)
        assert "rank 1" in message
        assert err.value.rank == 1
        assert err.value.rank_bytes is not None
        assert err.value.shared_bytes == 0


class TestPayloadInterning:
    def test_identical_payloads_fold(self):
        """All ranks sending the same bytes store one interned copy."""
        def app(mpi):
            comm = mpi.COMM_WORLD
            comm.sendrecv(b"z" * 10_000, (mpi.rank + 1) % mpi.size,
                          source=(mpi.rank - 1) % mpi.size)

        platform = cluster("fold", 8)
        result = smpirun(app, 8, platform)
        interning = result.stats.extra["interning"]
        payload = interning["payload"]
        assert payload["hits"] >= 7  # 8 identical payloads, 1 stored
        assert interning["naive_peak_bytes"] > interning["stored_peak_bytes"]

    def test_interning_can_be_disabled(self):
        def app(mpi):
            comm = mpi.COMM_WORLD
            comm.sendrecv(b"z" * 10_000, (mpi.rank + 1) % mpi.size,
                          source=(mpi.rank - 1) % mpi.size)

        platform = cluster("fold", 4)
        config = SmpiConfig(payload_interning=False)
        result = smpirun(app, 4, platform, config=config)
        payload = result.stats.extra.get(
            "interning", {}).get("payload", {"hits": 0})
        assert payload["hits"] == 0

    def test_frozen_payloads_reject_writes(self):
        world_pool = PayloadPool()
        data = np.ones(4, dtype=np.uint8)
        arr = world_pool.acquire(payload_key(data), data).value
        with pytest.raises(ValueError):
            arr[0] = 9

    def test_fold_pin_matches_digest_pool(self, monkeypatch):
        """Real folds on-line: every rank sends the same packed buffers."""
        result = smpirun(bcast_shaped_app, 8, cluster("fold", 8))
        # produced by the whole-digest pool at commit 9ba8e2c
        assert result.stats.extra["interning"] == {
            "payload": {"acquires": 95, "hits": 16, "entries": 0,
                        "naive_bytes": 0, "stored_bytes": 0,
                        "saved_bytes": 0},
            "naive_peak_bytes": 4194304,
            "stored_peak_bytes": 1048576,
            "saved_bytes": 3145728,
        }
        assert result.returns == [(40000.0 + (r + 1) % 2, 28.0)
                                  for r in range(8)]
        monkeypatch.setattr(runtime, "PayloadPool", DigestPayloadPool)
        oracle = smpirun(bcast_shaped_app, 8, cluster("fold", 8))
        assert oracle.stats.extra["interning"] == \
            result.stats.extra["interning"]
        assert oracle.simulated_time == result.simulated_time


def bcast_shaped_app(mpi):
    """A 512 KiB broadcast, then a ring of near-copies of it: even ranks
    send one payload, odd ranks one that differs in a single byte no
    fingerprint window reads; an allreduce adds rank-distinct payloads."""
    comm = mpi.COMM_WORLD
    rank, size = mpi.rank, mpi.size
    block = np.arange(65_536, dtype=np.float64)
    comm.Bcast(block, root=0)
    twin = block.copy()
    twin[40_000] += rank % 2
    out = np.empty_like(twin)
    comm.Sendrecv(twin, (rank + 1) % size, recvbuf=out,
                  source=(rank - 1) % size)
    total = np.zeros(4)
    comm.Allreduce(np.full(4, float(rank)), total)
    return float(out[40_000]), float(total[0])


def _fresh(data: bytes) -> np.ndarray:
    """A freshly packed, writable payload array."""
    return np.frombuffer(data, dtype=np.uint8).copy()


#: 64 KiB: fingerprinted on windows, byte 1000 lies outside all of them
_BIG = bytes(np.random.default_rng(7).integers(0, 256, 65_536,
                                               dtype=np.uint8))


def _flip(data: bytes, index: int) -> bytes:
    out = bytearray(data)
    out[index] ^= 0xFF
    return bytes(out)


#: payloads the property draws from: equal copies, one-byte differences
#: inside and outside the windows, pairs sharing a fingerprint
_PAYLOADS = [
    b"a" * 100,
    b"a" * 99 + b"b",
    _BIG,
    _flip(_BIG, 1000),
    _flip(_BIG, 2000),
    _flip(_flip(_BIG, 1000), 2000),
    _flip(_BIG, 0),
    _flip(_BIG, 65_535),
    _BIG[:-1],
]


class TestPayloadPool:
    def test_unsampled_byte_difference_does_not_fold(self):
        a, b = _fresh(_BIG), _fresh(_flip(_BIG, 1000))
        assert payload_key(a) == payload_key(b)  # same fingerprint
        pool = PayloadPool()
        ea = pool.acquire(payload_key(a), a)
        eb = pool.acquire(payload_key(b), b)
        assert ea is not eb and eb.value is b
        assert pool.hits == 0 and len(pool) == 2
        assert pool.saved_bytes == 0

    def test_release_leaves_fingerprint_twin_live_and_frozen(self):
        a, b = _fresh(_BIG), _fresh(_flip(_BIG, 1000))
        pool = PayloadPool()
        ea = pool.acquire(payload_key(a), a)
        eb = pool.acquire(payload_key(b), b)
        assert pool.release(ea)
        assert eb.refcount == 1 and len(pool) == 1
        assert pool.stored_bytes == b.nbytes
        with pytest.raises(ValueError):
            eb.value[0] = 1
        # a fresh copy of the survivor still folds onto it
        again = _fresh(_flip(_BIG, 1000))
        assert pool.acquire(payload_key(again), again) is eb
        assert not pool.release(ea)  # an evicted handle is ignored

    def test_bucket_reused_after_last_eviction(self):
        pool = PayloadPool()
        first = _fresh(_BIG)
        key = payload_key(first)
        assert pool.release(pool.acquire(key, first))
        assert len(pool) == 0 and pool.stored_bytes == 0
        second = _fresh(_BIG)
        entry = pool.acquire(key, second)
        assert entry.value is second and entry.refcount == 1
        assert pool.hits == 0 and pool.acquires == 2

    def test_entries_count_live_payloads_not_buckets(self):
        pool = PayloadPool()
        for data in (_BIG, _flip(_BIG, 1000), _flip(_BIG, 2000), _BIG):
            arr = _fresh(data)
            pool.acquire(payload_key(arr), arr)
        stats = pool.stats()
        assert stats["entries"] == 3  # one bucket, three live payloads
        assert stats["hits"] == 1 and stats["acquires"] == 4

    def test_payload_key_rejects_non_contiguous(self):
        strided = np.zeros(64, dtype=np.uint8)[::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            payload_key(strided)

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(st.tuples(st.booleans(), st.integers(0, 1000)),
                     max_size=40),
        collide=st.booleans(),
    )
    def test_agrees_with_digest_oracle(self, ops, collide):
        """Fold decisions and accounting equal the whole-digest pool;
        ``collide`` forces every payload of one length into one bucket."""
        pool, oracle = PayloadPool(), DigestPayloadPool()
        live = []
        for acquire, pick in ops:
            if acquire or not live:
                data = _PAYLOADS[pick % len(_PAYLOADS)]
                mine, theirs = _fresh(data), _fresh(data)
                key = (len(data), b"") if collide else payload_key(mine)
                entry = pool.acquire(key, mine)
                reference = oracle.acquire(None, theirs)
                assert (entry.value is not mine) == \
                    (reference.value is not theirs)
                assert entry.value.tobytes() == data
                live.append((entry, reference))
            else:
                entry, reference = live.pop(pick % len(live))
                assert pool.release(entry) == oracle.release(reference)
            assert pool.stats() == oracle.stats()
            assert len(pool) == len(oracle)


class TestStreamingSinks:
    N = 4

    def _platform(self):
        return cluster("snk", self.N)

    def _config(self):
        return SmpiConfig(tracing=True)

    def test_csv_sink_byte_identical(self, tmp_path):
        reference = smpirun(traffic_app, self.N, self._platform(),
                            config=self._config())
        expected = reference.trace.to_csv()

        out = tmp_path / "run.csv"
        sink = CsvStreamSink(out)
        streamed = smpirun(traffic_app, self.N, self._platform(),
                           config=self._config(), trace_sink=sink)
        assert out.read_text(encoding="utf-8") == expected
        # spill side files are cleaned up
        assert list(tmp_path.iterdir()) == [out]
        assert streamed.trace.n_comm_records == len(reference.trace.comms)
        assert streamed.trace.n_compute_records == len(
            reference.trace.computes)

    def test_streaming_keeps_window_bounded(self, tmp_path):
        out = tmp_path / "run.csv"
        sink = CsvStreamSink(out)
        result = smpirun(traffic_app, self.N, self._platform(),
                         config=self._config(), trace_sink=sink)
        tracer = result.trace
        # in-memory lists never accumulated the whole run
        assert tracer.comms == []
        assert tracer.computes == []
        assert len(tracer._comm_window) == 0

    def test_paje_sink_byte_identical(self, tmp_path):
        reference = smpirun(traffic_app, self.N, self._platform(),
                            config=self._config())
        expected = export_paje(reference.trace, self.N,
                               timeline=reference.trace.timeline)

        out = tmp_path / "run.paje"
        sink = PajeStreamSink(out, self.N)
        smpirun(traffic_app, self.N, self._platform(),
                config=self._config(), trace_sink=sink)
        assert out.read_text(encoding="utf-8") == expected
        assert list(tmp_path.iterdir()) == [out]

    def test_ti_streaming_byte_identical(self, tmp_path):
        platform = self._platform()
        _result, trace = record_trace(traffic_app, self.N, platform)
        expected_path = tmp_path / "mem.json"
        trace.save(expected_path)

        streamed_path = tmp_path / "stream.json"
        record_trace_streaming(traffic_app, self.N, self._platform(),
                               streamed_path)
        assert (streamed_path.read_bytes() == expected_path.read_bytes())

    def test_replay_with_csv_sink_matches_replay_export(self, tmp_path):
        platform = self._platform()
        _result, trace = record_trace(traffic_app, self.N, platform)

        ref = replay_trace(trace, self._platform(),
                           config=SmpiConfig(tracing=True))
        expected = ref.trace.to_csv()

        out = tmp_path / "replay.csv"
        streamed = replay_trace(trace, self._platform(),
                                config=SmpiConfig(tracing=True),
                                trace_sink=CsvStreamSink(out))
        assert out.read_text(encoding="utf-8") == expected
        assert streamed.simulated_time == ref.simulated_time

    def test_csv_sink_round_trips_through_loader(self, tmp_path):
        out = tmp_path / "run.csv"
        smpirun(traffic_app, self.N, self._platform(),
                config=self._config(),
                trace_sink=CsvStreamSink(out))
        loaded = Tracer.load(out)
        assert len(loaded.comms) > 0
        assert len(loaded.computes) > 0
        assert loaded.timeline is not None
