"""Test-only oracles for the engine, the pt2pt matcher and payload folding.

Each optimised path of the kernel is pinned bit-for-bit against the
straightforward algorithm it replaced.  Those reference algorithms live
here, not in ``src/``, so the product keeps one path per layer:

* :class:`ScanMessageQueue` / :class:`ScanRecvQueue` — the original
  oldest-first linear-scan matcher, with the interface of the indexed
  queues of :mod:`repro.simix.mailbox`.  ``with matching("scan"):`` swaps
  them into :mod:`repro.smpi.pt2pt` for the block; ``REPRO_MATCH=scan``
  applies that to the whole suite (``tests/conftest.py``).
* :class:`EagerEngine` — the scan-everything event loop: every pending
  action's deadline is examined at every event, no completion heap.
* :class:`FullReshareEngine` — the rebuild-everything share: every share
  re-solves every RUNNING action in a fresh solver.
* :class:`EagerFullReshareEngine` — both at once.

:func:`oracle_engine` picks the class for an ``(eager, full)`` pair, so
the fuzz grids read ``oracle_engine(platform, eager=e, full=f)``.  None of
the oracles can be snapshotted.

* :class:`DigestPayloadPool` — the original payload pool: a generic
  :class:`~repro.smpi.intern.InternPool` keyed by a blake2b digest of the
  whole payload (:func:`digest_key`), with the interface of
  :class:`~repro.smpi.intern.PayloadPool`.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from typing import Callable, Generic, Iterator, TypeVar

from repro.errors import SimulationError
from repro.simix.mailbox import MatchCounters
from repro.smpi import pt2pt
from repro.smpi.intern import InternPool, PayloadEntry
from repro.surf import Engine
from repro.surf.action import Action, ActionState
from repro.surf.maxmin import IncrementalMaxMin
from repro.surf.resources import Link

T = TypeVar("T")

__all__ = [
    "DigestPayloadPool",
    "EagerEngine",
    "EagerFullReshareEngine",
    "FullReshareEngine",
    "ScanMessageQueue",
    "ScanRecvQueue",
    "digest_key",
    "matching",
    "oracle_engine",
]


# -- matching oracle -----------------------------------------------------------------


class _ScanBase(Generic[T]):
    """Common plumbing of the scan-oracle queues: one flat ordered list."""

    __slots__ = ("name", "stats", "_key", "_any_source", "_any_tag",
                 "_items")

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
        self._items: list[T] = []

    def push(self, item: T) -> None:
        self._items.append(item)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, {len(self._items)} items)"


class ScanMessageQueue(_ScanBase[T]):
    """Linear-scan oracle with :class:`IndexedMessageQueue`'s interface.

    This *is* the pre-index matching algorithm (an oldest-first scan
    with an envelope predicate), kept so the index can be fuzz-pinned
    against it forever.  Probe counting matches the index's metric: one
    probe per entry examined.
    """

    __slots__ = ()

    def _matches(self, item: T, source: int, tag: int) -> bool:
        src, tg = self._key(item)
        if source != self._any_source and source != src:
            return False
        if tag != self._any_tag and tag != tg:
            return False
        return True

    def pop(self, source: int, tag: int) -> T | None:
        items = self._items
        stats = self.stats
        wildcard = source == self._any_source or tag == self._any_tag
        for index, item in enumerate(items):
            if self._matches(item, source, tag):
                del items[index]
                stats.match_probes += index + 1
                if wildcard:
                    stats.wildcard_scans += 1
                else:
                    stats.match_fast_hits += 1
                return item
        stats.match_probes += len(items) if items else 1
        return None

    def peek(self, source: int, tag: int) -> T | None:
        stats = self.stats
        wildcard = source == self._any_source or tag == self._any_tag
        for index, item in enumerate(self._items):
            if self._matches(item, source, tag):
                stats.match_probes += index + 1
                if wildcard:
                    stats.wildcard_scans += 1
                return item
        stats.match_probes += len(self._items) if self._items else 1
        return None

    def pop_if(self, predicate: Callable[[T], bool]) -> T | None:
        for index, item in enumerate(self._items):
            self.stats.match_probes += 1
            if predicate(item):
                del self._items[index]
                return item
        return None


class ScanRecvQueue(_ScanBase[T]):
    """Linear-scan oracle with :class:`IndexedRecvQueue`'s interface."""

    __slots__ = ()

    def pop(self, source: int, tag: int) -> T | None:
        items = self._items
        stats = self.stats
        for index, item in enumerate(items):
            src, tg = self._key(item)
            if ((src == self._any_source or src == source)
                    and (tg == self._any_tag or tg == tag)):
                del items[index]
                stats.match_probes += index + 1
                if src == self._any_source or tg == self._any_tag:
                    stats.wildcard_scans += 1
                else:
                    stats.match_fast_hits += 1
                return item
        stats.match_probes += len(items) if items else 1
        return None

    def pop_source(self, source: int) -> T | None:
        for index, item in enumerate(self._items):
            self.stats.match_probes += 1
            if self._key(item)[0] == source:
                del self._items[index]
                return item
        return None

    def remove_first(self, predicate: Callable[[T], bool]) -> T | None:
        for index, item in enumerate(self._items):
            if predicate(item):
                del self._items[index]
                return item
        return None

    def drain(self) -> list[T]:
        items, self._items = self._items, []
        return items


@contextmanager
def matching(mode: str):
    """Match pt2pt traffic inside the block on ``"index"`` (the product's
    queues: a no-op) or ``"scan"`` (the oracle).

    The protocol looks its queue classes up in :mod:`repro.smpi.pt2pt` when
    it first needs a queue pair, so worlds started inside a ``"scan"``
    block match through the oracle.  The indexed classes return on exit.
    """
    if mode not in ("index", "scan"):
        raise ValueError(f"unknown match mode {mode!r}; expected index or scan")
    saved = pt2pt.IndexedRecvQueue, pt2pt.IndexedMessageQueue
    if mode == "scan":
        pt2pt.IndexedRecvQueue = ScanRecvQueue
        pt2pt.IndexedMessageQueue = ScanMessageQueue
    try:
        yield
    finally:
        pt2pt.IndexedRecvQueue, pt2pt.IndexedMessageQueue = saved


# -- engine oracles ------------------------------------------------------------------


class _NoSnapshot:
    """Oracle engines exist to be compared, never checkpointed."""

    def snapshot(self) -> dict:
        raise SimulationError(
            "snapshot supports the default lazy/incremental engine only"
        )


class EagerEngine(_NoSnapshot, Engine):
    """The historical O(P) event loop: no completion heap, every pending
    action examined at every event.  ``heap_pops`` and
    ``stale_heap_entries`` stay 0; ``actions_touched`` counts every visit.
    """

    def _push(self, action: Action) -> None:
        """Deadlines are rescanned at every event: nothing to schedule."""

    def next_deadline(self) -> float:
        if self._needs_share:
            self.share_resources()
        horizon = self._next_profile_time()
        date = math.inf
        for action in self.pending.values():
            if action.is_pending and action.deadline < date:
                date = action.deadline
        if date < math.inf:
            return min(date, horizon)
        return self._stalled_horizon(horizon)

    def _expire_lazy(self) -> None:
        now = self.now
        stats = self.stats
        for action in self.pending.values():
            stats.actions_touched += 1
            if action.is_pending and action.deadline <= now:
                self._expire(action)


class FullReshareEngine(_NoSnapshot, Engine):
    """The historical rebuild-everything share.

    Every share enrols every RUNNING action, in ``pending`` order, into a
    fresh :class:`IncrementalMaxMin` and solves it whole.  Member order and
    constraint first-appearance order are those of the persistent solver,
    so each component follows the incremental engine's float trajectory
    exactly.  Every share counts all RUNNING flows as one component.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: per-resource usage of the last share, so a resource that falls
        #: idle still gets its closing 0 sample on the timeline
        self._last_full_usage: dict = {}

    def _share_incremental(self) -> None:
        # membership is rebuilt from a pending scan; the incremental
        # queues would otherwise grow unboundedly
        self._newly_running.clear()
        self._retired.clear()
        running = [a for a in self.pending.values()
                   if a.state is ActionState.RUNNING]
        if not running:
            if self.timeline is not None and self._last_full_usage:
                self._sample_full_usage([])
            return
        self._solver = solver = IncrementalMaxMin(sharing=self.sharing)
        self._members = {}
        for action in running:
            self._enroll(action)
        solver.solve_dirty()
        for action in running:
            self._apply_rate(action, solver.rate(action.aid))
        self.stats.flows_resolved += len(running)
        self.stats.components_solved += 1
        if self.timeline is not None:
            self._sample_full_usage(running)

    def _sample_full_usage(self, running: list[Action]) -> None:
        usage: dict = {}
        for action in running:
            for resource in action.constraints():
                usage[resource] = usage.get(resource, 0.0) \
                    + action.rate * action.weight
        now = self.now
        for resource in self._last_full_usage:
            if resource not in usage:  # fell idle since the last share
                usage[resource] = 0.0
        for resource, used in usage.items():
            self.timeline.record(
                now, resource.name, used, self._capacity_of(resource),
                kind="link" if isinstance(resource, Link) else "host",
            )
        self._last_full_usage = {r: u for r, u in usage.items() if u > 0.0}
        self.stats.link_samples = self.timeline.n_samples


class EagerFullReshareEngine(EagerEngine, FullReshareEngine):
    """The eager event loop over the rebuild-everything share."""


_ORACLES = {
    (False, False): Engine,
    (True, False): EagerEngine,
    (False, True): FullReshareEngine,
    (True, True): EagerFullReshareEngine,
}


def oracle_engine(platform, eager: bool = False, full: bool = False,
                  **kwargs) -> Engine:
    """An engine with the eager event loop and/or the full share switched
    in; ``(False, False)`` is the canonical :class:`Engine` itself."""
    return _ORACLES[(eager, full)](platform, **kwargs)


# -- payload pool oracle -------------------------------------------------------------


def digest_key(data) -> tuple:
    """The whole-buffer content key: (length, blake2b digest of a copy)."""
    digest = hashlib.blake2b(data.tobytes(), digest_size=16).digest()
    return (int(data.size), digest)


class DigestPayloadPool(InternPool):
    """Payloads folded by whole-buffer digest, through the generic pool.

    ``acquire(key, data)`` ignores the fingerprint ``key`` it is handed
    and keys by :func:`digest_key`; the returned handle carries that
    digest for :meth:`release`.  It can stand in for ``world.payload_pool``.
    """

    def acquire(self, key, data) -> PayloadEntry:
        full = digest_key(data)

        def freeze():
            data.setflags(write=False)
            return data

        return PayloadEntry(full, super().acquire(full, freeze, int(data.size)))

    def release(self, entry: PayloadEntry) -> bool:
        return super().release(entry.key)
