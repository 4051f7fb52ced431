"""Match queues: FIFO rendezvous structures for actors.

MPI message matching requires two queues per destination — posted receives
and unexpected messages — each searched *in arrival order* against a
source/tag pattern (possibly with wildcards).  The **indexed match
queues** here do both: :class:`IndexedMessageQueue` (concrete envelopes,
possibly-wildcard queries) and :class:`IndexedRecvQueue`
(possibly-wildcard patterns, concrete queries).  Every entry carries a
monotonic per-queue sequence number; the exact-match common case is an
O(1) bucket ``popleft`` and wildcard matches are resolved by comparing
candidate bucket *head* seqnos, which preserves MPI's oldest-first
non-overtaking rule bit-exactly (tests/test_matchq.py fuzzes them against
the linear-scan oracle of tests/oracles.py).

A bucket lives only while it holds entries: the pop (or purge) that
empties an exact ``(source, tag)`` bucket of the message queue, or a
pattern bucket of the receive queue, deletes it, so a run with many
distinct envelopes keeps no empty deques.  Every probe treats a missing
bucket like an empty one, so pruning never changes a counter.  Each
queue keeps the last deleted bucket as its one spare, and the next push
that needs a new bucket takes it: a ring that re-sends on the same
``(source, tag)`` allocates no deque per message.

The queues are generic: a ``key`` callable extracts the ``(source, tag)``
envelope from an item, and the wildcard sentinels are constructor
parameters, so this module needs no knowledge of the MPI layer.

All queues count their work into a stats sink (any object with
``match_probes`` / ``match_fast_hits`` / ``wildcard_scans`` counters —
normally the engine's :class:`~repro.surf.stats.EngineStats`):
``match_probes`` is the number of queue entries examined across matching
attempts, the apples-to-apples cost metric the matching ablation bench
gates on.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generic, Iterator, TypeVar

T = TypeVar("T")

__all__ = [
    "MatchCounters",
    "IndexedMessageQueue",
    "IndexedRecvQueue",
]


class MatchCounters:
    """Stand-alone stats sink for queues built outside an engine."""

    __slots__ = ("match_probes", "match_fast_hits", "wildcard_scans")

    def __init__(self) -> None:
        self.match_probes = 0
        self.match_fast_hits = 0
        self.wildcard_scans = 0


class IndexedMessageQueue(Generic[T]):
    """Match queue of *concrete* envelopes queried with possible wildcards.

    The unexpected-message side of MPI matching: every pushed item has a
    concrete ``(source, tag)``; a query may wildcard either field.  Four
    views share one ``[seq, item]`` entry per message:

    * an exact ``(source, tag)`` bucket deque — the O(1) fast path;
    * per-source and per-tag deques, built lazily the first time a
      single-wildcard query arrives (exact-only workloads never pay for
      them);
    * one global deque in arrival order (double-wildcard queries,
      iteration, cold predicate scans).

    Removal tombstones the shared entry (``item`` slot set to ``None``);
    dead entries are skipped lazily at bucket heads and compacted away
    once they outnumber live ones.  Because every view is
    seqno-ordered, any query shape returns the globally oldest matching
    item — identical to a front-to-back scan.
    """

    __slots__ = (
        "name", "stats", "_key", "_any_source", "_any_tag", "_seq",
        "_exact", "_by_src", "_by_tag", "_all", "_live", "_dead",
        "_src_indexed", "_tag_indexed", "_spare",
    )

    def __init__(
        self,
        name: str,
        key: Callable[[T], tuple[int, int]],
        any_source: int = -1,
        any_tag: int = -1,
        stats=None,
    ) -> None:
        self.name = name
        self.stats = stats if stats is not None else MatchCounters()
        self._key = key
        self._any_source = any_source
        self._any_tag = any_tag
        self._seq = 0
        self._exact: dict[tuple[int, int], deque] = {}
        self._by_src: dict[int, deque] = {}
        self._by_tag: dict[int, deque] = {}
        self._all: deque = deque()
        self._live = 0
        self._dead = 0
        self._src_indexed = False
        self._tag_indexed = False
        #: an emptied exact bucket, reused by the next one created
        self._spare: deque | None = None

    # -- maintenance ---------------------------------------------------------------

    def push(self, item: T) -> None:
        src, tag = self._key(item)
        entry = [self._seq, item]
        self._seq += 1
        bucket = self._exact.get((src, tag))
        if bucket is None:
            bucket = self._spare
            if bucket is None:
                bucket = deque()
            else:
                self._spare = None
            self._exact[(src, tag)] = bucket
        bucket.append(entry)
        self._all.append(entry)
        if self._src_indexed:
            view = self._by_src.get(src)
            if view is None:
                view = self._by_src[src] = deque()
            view.append(entry)
        if self._tag_indexed:
            view = self._by_tag.get(tag)
            if view is None:
                view = self._by_tag[tag] = deque()
            view.append(entry)
        self._live += 1
        if self._dead > 64 and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Rebuild every view without tombstones (amortized by pops)."""
        live = [entry for entry in self._all if entry[1] is not None]
        self._all = deque(live)
        self._exact = {}
        self._by_src = {}
        self._by_tag = {}
        for entry in live:
            src, tag = self._key(entry[1])
            self._exact.setdefault((src, tag), deque()).append(entry)
            if self._src_indexed:
                self._by_src.setdefault(src, deque()).append(entry)
            if self._tag_indexed:
                self._by_tag.setdefault(tag, deque()).append(entry)
        self._dead = 0

    def _ensure_src_index(self) -> None:
        if not self._src_indexed:
            self._src_indexed = True
            for entry in self._all:
                if entry[1] is not None:
                    self._by_src.setdefault(
                        self._key(entry[1])[0], deque()).append(entry)

    def _ensure_tag_index(self) -> None:
        if not self._tag_indexed:
            self._tag_indexed = True
            for entry in self._all:
                if entry[1] is not None:
                    self._by_tag.setdefault(
                        self._key(entry[1])[1], deque()).append(entry)

    def _view(self, source: int, tag: int) -> tuple[deque | None, bool]:
        """The seq-ordered deque holding every match for the query."""
        if source == self._any_source:
            if tag == self._any_tag:
                return self._all, True
            self._ensure_tag_index()
            return self._by_tag.get(tag), True
        if tag == self._any_tag:
            self._ensure_src_index()
            return self._by_src.get(source), True
        return self._exact.get((source, tag)), False

    # -- matching ------------------------------------------------------------------

    def pop(self, source: int, tag: int) -> T | None:
        """Remove and return the oldest item matching ``(source, tag)``."""
        view, wildcard = self._view(source, tag)
        stats = self.stats
        probes = 0
        item = None
        if view is not None:
            while view:
                entry = view[0]
                if entry[1] is None:  # tombstone from another view's pop
                    view.popleft()
                    continue
                probes += 1
                item = entry[1]
                view.popleft()
                entry[1] = None
                self._live -= 1
                self._dead += 1
                break
            if not view and not wildcard:
                del self._exact[source, tag]
                self._spare = view
        stats.match_probes += probes if probes else 1
        if item is not None:
            if wildcard:
                stats.wildcard_scans += 1
            else:
                stats.match_fast_hits += 1
        return item

    def peek(self, source: int, tag: int) -> T | None:
        """Return (without removing) the oldest matching item."""
        view, wildcard = self._view(source, tag)
        stats = self.stats
        if view is not None:
            while view:
                entry = view[0]
                if entry[1] is None:
                    view.popleft()
                    continue
                stats.match_probes += 1
                if wildcard:
                    stats.wildcard_scans += 1
                return entry[1]
        stats.match_probes += 1
        return None

    def pop_if(self, predicate: Callable[[T], bool]) -> T | None:
        """Oldest item satisfying an arbitrary predicate (cold path)."""
        for entry in self._all:
            item = entry[1]
            if item is None:
                continue
            self.stats.match_probes += 1
            if predicate(item):
                entry[1] = None
                self._live -= 1
                self._dead += 1
                return item
        return None

    # -- container protocol --------------------------------------------------------

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __iter__(self) -> Iterator[T]:
        return (entry[1] for entry in self._all if entry[1] is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedMessageQueue({self.name!r}, {self._live} items)"


class IndexedRecvQueue(Generic[T]):
    """Match queue of possibly-wildcard patterns queried concretely.

    The posted-receive side of MPI matching: items carry a pattern
    ``(source-or-ANY, tag-or-ANY)`` and queries are concrete message
    envelopes.  A concrete envelope can match at most four patterns, so
    items bucket by their pattern and :meth:`pop` probes the (at most
    four) candidate buckets, taking the one whose *head* sequence number
    is smallest — exactly the oldest matching receive a linear scan would
    find.
    """

    __slots__ = ("name", "stats", "_key", "_any_source", "_any_tag",
                 "_seq", "_buckets", "_n", "_spare")

    def __init__(
        self,
        name: str,
        key: Callable[[T], tuple[int, int]],
        any_source: int = -1,
        any_tag: int = -1,
        stats=None,
    ) -> None:
        self.name = name
        self.stats = stats if stats is not None else MatchCounters()
        self._key = key
        self._any_source = any_source
        self._any_tag = any_tag
        self._seq = 0
        self._buckets: dict[tuple[int, int], deque] = {}
        self._n = 0
        #: an emptied bucket, reused by the next one created
        self._spare: deque | None = None

    def push(self, item: T) -> None:
        pattern = self._key(item)
        bucket = self._buckets.get(pattern)
        if bucket is None:
            bucket = self._spare
            if bucket is None:
                bucket = deque()
            else:
                self._spare = None
            self._buckets[pattern] = bucket
        bucket.append((self._seq, item))
        self._seq += 1
        self._n += 1

    def pop(self, source: int, tag: int) -> T | None:
        """Oldest item whose pattern matches the concrete envelope."""
        buckets = self._buckets
        best = None
        best_pattern = None
        probes = 0
        for pattern in (
            (source, tag),
            (self._any_source, tag),
            (source, self._any_tag),
            (self._any_source, self._any_tag),
        ):
            bucket = buckets.get(pattern)
            if bucket:
                probes += 1
                head = bucket[0]
                if best is None or head[0] < best[0]:
                    best = head
                    best_pattern = pattern
        stats = self.stats
        stats.match_probes += probes if probes else 1
        if best is None:
            return None
        self._take(best_pattern)
        item = best[1]
        src, tg = self._key(item)
        if src == self._any_source or tg == self._any_tag:
            stats.wildcard_scans += 1
        else:
            stats.match_fast_hits += 1
        return item

    def pop_source(self, source: int) -> T | None:
        """Oldest item whose pattern names exactly ``source`` (cold path).

        Used by the dead-rank purge: wildcard receives stay posted (they
        may still match a live sender), only receives pinned to the dead
        source fail.
        """
        best_pattern = None
        best = None
        for pattern, bucket in self._buckets.items():
            if pattern[0] != source or not bucket:
                continue
            self.stats.match_probes += 1
            head = bucket[0]
            if best is None or head[0] < best[0]:
                best = head
                best_pattern = pattern
        if best is None:
            return None
        self._take(best_pattern)
        return best[1]

    def _take(self, pattern: tuple[int, int]) -> None:
        """Drop the head of ``pattern``'s bucket, and the bucket once empty."""
        bucket = self._buckets[pattern]
        bucket.popleft()
        if not bucket:
            del self._buckets[pattern]
            self._spare = bucket
        self._n -= 1

    def remove_first(self, predicate: Callable[[T], bool]) -> T | None:
        """Remove the (unique) item satisfying ``predicate`` (cold path)."""
        for pattern, bucket in self._buckets.items():
            for entry in bucket:
                if predicate(entry[1]):
                    # identity filter: entries never compare by value
                    rest = deque(e for e in bucket if e is not entry)
                    if rest:
                        self._buckets[pattern] = rest
                    else:
                        del self._buckets[pattern]
                    self._n -= 1
                    return entry[1]
        return None

    def drain(self) -> list[T]:
        """Remove and return every item, oldest first."""
        # seqnos are unique, so sorting never compares the items
        entries = sorted(e for bucket in self._buckets.values()
                         for e in bucket)
        self._buckets.clear()
        self._n = 0
        return [entry[1] for entry in entries]

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def __iter__(self) -> Iterator[T]:
        entries = sorted(e for bucket in self._buckets.values()
                         for e in bucket)
        return (entry[1] for entry in entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedRecvQueue({self.name!r}, {self._n} items)"
