"""Indexed match queues vs the linear-scan oracle (queue level).

The indexed queues must be *observationally identical* to a front-to-back
scan: same item returned for every query, same iteration order, same
drain order — whatever mix of exact and wildcard traffic hits them.  The
fuzz tests here drive both families with identical random op sequences
and compare every result; the unit tests pin the mechanics (O(1) exact
buckets, head-seqno wildcard resolution, tombstone compaction, lazy
single-wildcard views).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.simix import IndexedMessageQueue, IndexedRecvQueue, MatchCounters
from tests.oracles import ScanMessageQueue, ScanRecvQueue

ANY = -1
_FUZZ = settings(max_examples=60, deadline=None)


def _envelope(item):
    return item[0], item[1]


def _mk_message_queues():
    return (IndexedMessageQueue("idx", _envelope),
            ScanMessageQueue("scan", _envelope))


def _mk_recv_queues():
    return (IndexedRecvQueue("idx", _envelope),
            ScanRecvQueue("scan", _envelope))


class TestMessageQueueUnit:
    def test_exact_match_is_fifo_per_envelope(self):
        q = IndexedMessageQueue("q", _envelope)
        q.push((1, 7, "a"))
        q.push((1, 7, "b"))
        q.push((2, 7, "c"))
        assert q.pop(1, 7) == (1, 7, "a")
        assert q.pop(1, 7) == (1, 7, "b")
        assert q.pop(1, 7) is None
        assert q.pop(2, 7) == (2, 7, "c")

    def test_wildcard_returns_globally_oldest(self):
        q = IndexedMessageQueue("q", _envelope)
        q.push((3, 0, "first"))
        q.push((1, 1, "second"))
        q.push((3, 1, "third"))
        assert q.pop(ANY, ANY) == (3, 0, "first")
        assert q.pop(ANY, 1) == (1, 1, "second")
        assert q.pop(3, ANY) == (3, 1, "third")
        assert not q

    def test_peek_does_not_remove(self):
        q = IndexedMessageQueue("q", _envelope)
        q.push((1, 2, "x"))
        assert q.peek(1, 2) == (1, 2, "x")
        assert q.peek(ANY, ANY) == (1, 2, "x")
        assert len(q) == 1
        assert q.pop(1, 2) == (1, 2, "x")

    def test_tombstones_compact_away(self):
        q = IndexedMessageQueue("q", _envelope)
        # build up a large dead population via wildcard pops, then push
        # once more: compaction triggers when dead > 64 and dead > live
        for i in range(200):
            q.push((i % 3, 0, i))
        for _ in range(199):
            assert q.pop(ANY, ANY) is not None
        q.push((0, 0, "tail"))
        assert q._dead == 0  # compacted
        assert list(q) == [(1, 0, 199), (0, 0, "tail")]

    def test_lazy_views_only_built_on_demand(self):
        q = IndexedMessageQueue("q", _envelope)
        q.push((1, 2, "x"))
        assert not q._src_indexed and not q._tag_indexed
        q.pop(1, ANY)  # source-pinned wildcard
        assert q._src_indexed and not q._tag_indexed

    def test_counters_classify_probe_kinds(self):
        stats = MatchCounters()
        q = IndexedMessageQueue("q", _envelope, stats=stats)
        q.push((1, 2, "x"))
        q.push((3, 4, "y"))
        q.pop(1, 2)           # exact hit
        q.pop(ANY, ANY)       # wildcard hit
        q.pop(5, 6)           # miss (still costs a probe)
        assert stats.match_fast_hits == 1
        assert stats.wildcard_scans == 1
        assert stats.match_probes >= 3

    def test_pop_if_scans_in_order(self):
        q = IndexedMessageQueue("q", _envelope)
        q.push((1, 0, "a"))
        q.push((2, 0, "b"))
        q.push((1, 0, "c"))
        assert q.pop_if(lambda m: m[0] == 2) == (2, 0, "b")
        assert list(q) == [(1, 0, "a"), (1, 0, "c")]


class TestRecvQueueUnit:
    def test_concrete_envelope_takes_oldest_of_four_buckets(self):
        q = IndexedRecvQueue("q", _envelope)
        q.push((ANY, ANY, "anyany"))
        q.push((1, ANY, "bysrc"))
        q.push((ANY, 2, "bytag"))
        q.push((1, 2, "exact"))
        # all four match (1, 2); the oldest posted wins
        assert q.pop(1, 2) == (ANY, ANY, "anyany")
        assert q.pop(1, 2) == (1, ANY, "bysrc")
        assert q.pop(1, 2) == (ANY, 2, "bytag")
        assert q.pop(1, 2) == (1, 2, "exact")
        assert q.pop(1, 2) is None

    def test_pop_source_skips_wildcards(self):
        q = IndexedRecvQueue("q", _envelope)
        q.push((ANY, 0, "wild"))
        q.push((3, 0, "pinned-a"))
        q.push((3, 1, "pinned-b"))
        assert q.pop_source(3) == (3, 0, "pinned-a")
        assert q.pop_source(3) == (3, 1, "pinned-b")
        assert q.pop_source(3) is None
        assert len(q) == 1  # the wildcard stays posted

    def test_remove_first_and_drain_order(self):
        q = IndexedRecvQueue("q", _envelope)
        q.push((1, 0, "a"))
        q.push((ANY, ANY, "b"))
        q.push((2, 5, "c"))
        assert q.remove_first(lambda r: r[2] == "b") == (ANY, ANY, "b")
        assert q.drain() == [(1, 0, "a"), (2, 5, "c")]
        assert not q


class TestEmptyBucketsArePruned:
    """A drained queue keeps no bucket, and pruning moves no counter."""

    PAIRS = [(src, tag) for src in range(8) for tag in range(4)]

    @staticmethod
    def _counters(queue):
        stats = queue.stats
        return (stats.match_probes, stats.match_fast_hits,
                stats.wildcard_scans)

    def test_message_queue_drain(self):
        idx, scan = _mk_message_queues()
        for uid, (src, tag) in enumerate(self.PAIRS):
            idx.push((src, tag, uid))
            scan.push((src, tag, uid))
        for src, tag in self.PAIRS + self.PAIRS[:3]:  # then three misses
            assert idx.pop(src, tag) == scan.pop(src, tag)
        assert not idx and idx._exact == {}
        assert self._counters(idx) == self._counters(scan)

    def test_message_queue_tombstoned_bucket(self):
        idx = IndexedMessageQueue("idx", _envelope)
        for uid, (src, tag) in enumerate(self.PAIRS):
            idx.push((src, tag, uid))
        for _ in range(len(self.PAIRS) // 2):  # tombstones in exact buckets
            assert idx.pop(ANY, ANY) is not None
        for src, tag in self.PAIRS:
            idx.pop(src, tag)
        assert not idx and idx._exact == {}

    def test_recv_queue_drain(self):
        idx, scan = _mk_recv_queues()
        for uid, pattern in enumerate(self.PAIRS):
            idx.push((*pattern, uid))
            scan.push((*pattern, uid))
        for src, tag in self.PAIRS:
            assert idx.pop(src, tag) == scan.pop(src, tag)
        # one wildcard pattern at a time: the index probes each non-empty
        # candidate bucket, the scan each entry up to the match
        for pattern, (src, tag) in (((ANY, 9), (5, 9)), ((9, ANY), (9, 5)),
                                    ((ANY, ANY), (7, 7))):
            idx.push((*pattern, "w"))
            scan.push((*pattern, "w"))
            assert idx.pop(src, tag) == scan.pop(src, tag)
        assert idx.pop(0, 0) is None and scan.pop(0, 0) is None
        assert not idx and idx._buckets == {}
        assert self._counters(idx) == self._counters(scan)

    def test_recv_queue_cold_paths(self):
        idx = IndexedRecvQueue("idx", _envelope)
        idx.push((3, 0, "a"))
        idx.push((3, 1, "b"))
        idx.push((4, 0, "c"))
        assert idx.pop_source(3) == (3, 0, "a")
        assert idx.pop_source(3) == (3, 1, "b")
        assert idx.remove_first(lambda r: r[2] == "c") == (4, 0, "c")
        assert idx._buckets == {}


# -- differential fuzz: indexed vs scan ------------------------------------------

message_op = st.one_of(
    st.tuples(st.just("push"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("pop"),
              st.sampled_from([ANY, 0, 1, 2, 3]),
              st.sampled_from([ANY, 0, 1, 2, 3])),
    st.tuples(st.just("peek"),
              st.sampled_from([ANY, 0, 1, 2, 3]),
              st.sampled_from([ANY, 0, 1, 2, 3])),
)


@given(st.lists(message_op, max_size=200))
@_FUZZ
def test_message_queue_matches_scan_oracle(ops):
    """Same ops -> same results, probe counts, and survivors."""
    idx, scan = _mk_message_queues()
    uid = 0
    for op in ops:
        kind = op[0]
        if kind == "push":
            item = (op[1], op[2], uid)
            uid += 1
            idx.push(item)
            scan.push(item)
        elif kind == "pop":
            assert idx.pop(op[1], op[2]) == scan.pop(op[1], op[2])
        else:
            assert idx.peek(op[1], op[2]) == scan.peek(op[1], op[2])
        assert len(idx) == len(scan)
    assert list(idx) == list(scan)
    # the cost metric agrees too: probes = entries examined, min 1/attempt
    assert idx.stats.match_fast_hits == scan.stats.match_fast_hits
    assert idx.stats.wildcard_scans == scan.stats.wildcard_scans


recv_op = st.one_of(
    st.tuples(st.just("push"),
              st.sampled_from([ANY, 0, 1, 2, 3]),
              st.sampled_from([ANY, 0, 1, 2, 3])),
    st.tuples(st.just("pop"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("pop_source"), st.integers(0, 3), st.just(0)),
)


@given(st.lists(recv_op, max_size=200))
@_FUZZ
def test_recv_queue_matches_scan_oracle(ops):
    idx, scan = _mk_recv_queues()
    uid = 0
    for op in ops:
        kind = op[0]
        if kind == "push":
            item = (op[1], op[2], uid)
            uid += 1
            idx.push(item)
            scan.push(item)
        elif kind == "pop":
            assert idx.pop(op[1], op[2]) == scan.pop(op[1], op[2])
        else:
            assert idx.pop_source(op[1]) == scan.pop_source(op[1])
        assert len(idx) == len(scan)
    assert list(idx) == list(scan)
    assert idx.drain() == scan.drain()


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                min_size=1, max_size=120),
       st.lists(st.tuples(st.sampled_from([ANY, 0, 1, 2]),
                          st.sampled_from([ANY, 0, 1, 2])),
                min_size=1, max_size=120))
@_FUZZ
def test_bulk_push_then_query_storm(envelopes, queries):
    """Dense duplicate envelopes, then a storm of mixed queries."""
    idx, scan = _mk_message_queues()
    for uid, (src, tag) in enumerate(envelopes):
        idx.push((src, tag, uid))
        scan.push((src, tag, uid))
    for src, tag in queries:
        assert idx.pop(src, tag) == scan.pop(src, tag)
    assert list(idx) == list(scan)


def test_probe_cost_scales_with_scan_not_index():
    """The headline asymptotics: reversed exact-source recv queue drain.

    N messages from distinct sources, popped in reverse arrival order:
    the scan oracle probes ~N^2/2 entries, the index ~N.
    """
    n = 64
    idx, scan = _mk_message_queues()
    for src in range(n):
        idx.push((src, 0, src))
        scan.push((src, 0, src))
    for src in reversed(range(n)):
        assert idx.pop(src, 0) == scan.pop(src, 0)
    assert scan.stats.match_probes == n * (n + 1) // 2
    assert idx.stats.match_probes == n
    assert scan.stats.match_probes / idx.stats.match_probes > 5


class TestSpareBucket:
    """An emptied bucket is kept as the queue's one spare and reused."""

    def test_message_queue_reuses_the_emptied_bucket(self):
        q = IndexedMessageQueue("q", _envelope)
        q.push((1, 7, "a"))
        first = q._exact[1, 7]
        assert q.pop(1, 7) == (1, 7, "a")
        assert (1, 7) not in q._exact and q._spare is first
        q.push((2, 8, "b"))
        assert q._exact[2, 8] is first and q._spare is None
        assert q.pop(2, 8) == (2, 8, "b")

    def test_recv_queue_reuses_the_emptied_bucket(self):
        q = IndexedRecvQueue("q", _envelope)
        q.push((ANY, 7, "a"))
        first = q._buckets[ANY, 7]
        assert q.pop(3, 7) == (ANY, 7, "a")
        assert not q._buckets and q._spare is first
        q.push((3, 7, "b"))
        assert q._buckets[3, 7] is first and q._spare is None
        assert q.pop(3, 7) == (3, 7, "b")

    def test_one_spare_per_queue(self):
        q = IndexedMessageQueue("q", _envelope)
        for src in range(4):
            q.push((src, 0, src))
        buckets = [q._exact[src, 0] for src in range(4)]
        for src in range(4):
            q.pop(src, 0)
        assert not q._exact and q._spare is buckets[-1]
        q.push((9, 0, "x"))
        q.push((9, 1, "y"))
        assert q._exact[9, 0] is buckets[-1]
        assert q._exact[9, 1] is not buckets[-1] and q._spare is None

    def test_reuse_moves_no_counter(self):
        counters = []
        for reuse in (True, False):
            q = IndexedMessageQueue("q", _envelope)
            r = IndexedRecvQueue("r", _envelope, stats=q.stats)
            for step in range(20):
                q.push((step % 3, 0, step))
                r.push((step % 2, ANY, step))
                if not reuse:
                    q._spare = r._spare = None
                q.pop(step % 3, 0)
                r.pop(step % 2, 5)
            s = q.stats
            counters.append((s.match_probes, s.match_fast_hits,
                             s.wildcard_scans))
        assert counters[0] == counters[1]
