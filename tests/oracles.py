"""Test-only oracles for the engine, the pt2pt matcher and payload folding.

Each optimised path of the kernel is pinned bit-for-bit against the
straightforward algorithm it replaced.  Those reference algorithms live
here, not in ``src/``, so the product keeps one path per layer:

* :func:`thread_contexts` — the thread oracle of the execution
  contexts: inside the block every actor runs on a
  :class:`~repro.simix.contexts.ThreadContext`, generator functions
  included, where the product gives those a coroutine.
  ``REPRO_CTX=thread`` applies that to the whole suite
  (``tests/conftest.py``).
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
the fuzz grids read ``oracle_engine(platform, eager=e, full=f)``.

* :class:`WalkMaxMin` — the walk-per-solve share: every solve walks each
  dirty component from its records and rebuilds the filling kernel's
  inputs (:func:`_progressive_fill_scalar`), where the canonical solver
  keeps its components and their inputs alive between solves.
  :func:`solved_flows` runs a solve of either and returns the keys of
  the flows it re-solved.

* :class:`RecomputeUsageMaxMin` — the always-recompute utilization
  update: every component solve sums again the consumed rate of every
  constraint its flows cross, touched or not.

* :class:`MaxMinSystem` with :func:`solve_maxmin`,
  :func:`solve_maxmin_reference` and :func:`solve_maxmin_vectorized` —
  the one-shot solvers: a build-then-solve system, a direct
  transcription of progressive filling and a whole-system NumPy solve
  through :func:`_progressive_fill_arrays`, the array core the
  incremental solver's plain-Python kernel is pinned against bit for
  bit.

* :class:`DigestPayloadPool` — the original payload pool: a generic
  :class:`InternPool` keyed by a blake2b digest of the whole payload
  (:func:`digest_key`), with the interface of
  :class:`~repro.smpi.intern.PayloadPool`.

* :class:`TupleTimeline` — the utilization timeline as a list of
  ``(time, usage)`` tuples per resource, the layout
  :class:`~repro.trace.timeline.Timeline` kept before its samples moved
  into ``array('d')`` columns.

* :class:`ListTiTrace` with :class:`ListRankReplayer` — the TI trace as
  one list of :class:`~repro.offline.trace.TiEvent` per rank, decoded
  from the whole document at once, and the replayer that walks those
  events one object at a time: the layout
  :class:`~repro.offline.trace.TiTrace` kept before its events moved
  into per-rank columns.  ``with list_replayer():`` makes
  :func:`~repro.offline.replay.replay_trace` run the oracle replayer.

* :func:`trace_csv` — the trace CSV as :mod:`csv` writes it: one list
  row per record or sample (:func:`comm_csv_row` …
  :func:`timeline_capacity_row`), serialised by ``csv.writer``.  The
  line formatters of :mod:`repro.trace.tracer` are pinned against it
  byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Hashable, Iterator, TypeVar

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.offline import replay as replay_module
from repro.offline.replay import _EMPTY, _RankReplayer
from repro.offline.trace import TiEvent
from repro.simix import context as scheduler_module
from repro.simix.contexts import ThreadContext
from repro.simix.mailbox import MatchCounters
from repro.smpi import pt2pt
from repro.smpi.intern import PayloadEntry, PayloadPool
from repro.smpi import request as rq
from repro.smpi.request import Request
from repro.surf import Engine
from repro.surf.action import Action, ActionState
from repro.surf.maxmin import _EPS, IncrementalMaxMin
from repro.surf.resources import Link
from repro.trace.timeline import LinkUsage
from repro.trace.tracer import CSV_HEADER

T = TypeVar("T")

__all__ = [
    "ConstraintSpec",
    "DigestPayloadPool",
    "EagerEngine",
    "EagerFullReshareEngine",
    "FlowSpec",
    "FullReshareEngine",
    "InternPool",
    "ListRankReplayer",
    "ListTiTrace",
    "MaxMinSystem",
    "RecomputeUsageMaxMin",
    "ScanMessageQueue",
    "ScanRecvQueue",
    "TupleTimeline",
    "VECTORIZE_THRESHOLD",
    "digest_key",
    "list_replayer",
    "matching",
    "oracle_engine",
    "solve_maxmin",
    "solve_maxmin_reference",
    "solve_maxmin_vectorized",
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


@contextmanager
def thread_contexts():
    """Run every actor added inside the block on a thread context.

    The scheduler looks ``context_for`` up in :mod:`repro.simix.context`
    when it adds an actor, so actors added inside the block park their
    frames on threads — generator functions through the thread's
    trampoline, bit-identical to their coroutines.  ``context_for``
    returns on exit.
    """
    saved = scheduler_module.context_for
    scheduler_module.context_for = ThreadContext
    try:
        yield
    finally:
        scheduler_module.context_for = saved


# -- engine oracles ------------------------------------------------------------------


class EagerEngine(Engine):
    """The historical O(P) event loop: no completion heap, every pending
    action examined at every event.  ``heap_pops`` and
    ``stale_heap_entries`` stay 0; ``actions_touched`` counts every visit.
    """

    def _push(self, action: Action) -> None:
        """Deadlines are rescanned at every event: nothing to schedule."""

    def _reanchor(self, rates: dict) -> None:
        """Re-anchor exactly as the canonical engine does, then drop the
        entries it scheduled: the heap stays empty."""
        super()._reanchor(rates)
        self._heap.clear()

    def next_deadline(self) -> float:
        if self._needs_share:
            self.share_resources()
        horizon = self._next_point
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


class FullReshareEngine(Engine):
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
        self._solver = solver = IncrementalMaxMin()
        self._members = {}
        for action in running:
            self._enroll(action)
        solver.solve_dirty()
        self._reanchor({action.aid: solver.rate(action.aid)
                        for action in running})
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


# -- max-min oracles -----------------------------------------------------------------


class RecomputeUsageMaxMin(IncrementalMaxMin):
    """The always-recompute utilization update.

    Every component solve sums again the consumed rate of every
    constraint its flows cross, once per solve, whether or not its load
    changed.  The canonical solver sums only the constraints whose
    ``touched`` flag is set; both must yield the same samples.
    """

    def _update_usage(self, members: list) -> None:
        seen: set = set()
        for flow in members:
            for record in flow.cons:
                if record in seen:
                    continue
                seen.add(record)
                record.usage = usage = self._usage_of(record)
                self.last_usage.append((record, usage))


def _progressive_fill_scalar(members: list, cons: list) -> tuple[list, int]:
    """Progressive filling of one walked component, read from its records.

    The kernel of :class:`WalkMaxMin`, which rebuilt its inputs at every
    solve.  ``members`` are :class:`_IncFlow` records in ``seq`` order;
    ``cons`` lists every SHARED constraint they cross that the walk kept.
    FATPIPE constraints only enter the per-flow caps.  A shared
    constraint whose only flow is member *i* (when *i* crosses no
    constraint twice) is folded into ``solo[i]``.  Every float operation
    happens in the order :func:`_progressive_fill_arrays` performs it, so
    rates, round count and error messages are bit-identical to it.

    Returns ``(rates, rounds)``.
    """
    n_flows = len(members)
    n_cons = len(cons)
    index = {record: pos for pos, record in enumerate(cons)}
    inf = math.inf
    weights = []
    entries = []  # per flow: index of each coupling constraint it crosses
    caps = []  # per flow: own bound plus any FATPIPE constraint it crosses
    solo = []  # per flow: tightest level of its single-flow constraints
    for flow in members:
        weight = flow.weight
        cap = flow.bound
        level = inf
        crossed = []
        for record in flow.cons:
            if not record.shared:
                fat_cap = record.capacity / weight
                if fat_cap < cap:
                    cap = fat_cap
            elif len(record.flows) == 1 and flow.folds:
                if weight > _EPS and record.capacity / weight < level:
                    level = record.capacity / weight
            else:
                crossed.append(index[record])
        weights.append(weight)
        entries.append(crossed)
        caps.append(cap)
        solo.append(level)
    remaining = [record.capacity for record in cons]
    rates = [0.0] * n_flows
    active = list(range(n_flows))

    rounds = 0
    while active:
        if rounds > n_flows + n_cons:
            raise SimulationError("progressive filling failed to converge")
        users = [0.0] * n_cons
        for i in active:
            weight = weights[i]
            for c in entries[i]:
                users[c] += weight
        cons_level = [remaining[c] / u if u > _EPS else inf
                      for c, u in enumerate(users)]
        cons_min = min(min(cons_level, default=inf),
                       min([solo[i] for i in active]))
        flow_min = min([caps[i] for i in active])
        level = min(cons_min, flow_min)
        if math.isinf(level):
            names = [members[i].name for i in active]
            raise SimulationError("max-min system is unbounded: flows " + ", ".join(names))

        limit = level + _EPS
        if flow_min <= limit:
            to_fix = [i for i in active if caps[i] <= limit]
        else:
            to_fix = [i for i in active if solo[i] <= limit
                      or any(cons_level[c] <= limit for c in entries[i])]
        if not to_fix:
            raise SimulationError("progressive filling made no progress")

        consumption = [0.0] * n_cons
        for i in to_fix:
            rates[i] = level
            used = level * weights[i]
            for c in entries[i]:
                consumption[c] += used
        for c, used in enumerate(consumption):
            left = remaining[c] - used
            remaining[c] = 0.0 if left < 0.0 else left
        fixed = set(to_fix)
        active = [i for i in active if i not in fixed]
        rounds += 1
    return rates, rounds


class WalkMaxMin(IncrementalMaxMin):
    """The walk-per-solve share.

    Every :meth:`solve_dirty` gathers its seeds (the dirty flows and the
    flows of the dirty constraints), sorts them by ``seq``, walks the
    component of each seed not yet solved from the flow and constraint
    records, and fills it with :func:`_progressive_fill_scalar`, which
    rebuilds the kernel's inputs.  Registration is the canonical
    solver's; the persistent components it keeps are never read here.
    The canonical solver must match it bit for bit: rates, the
    ``last_*`` statistics, ``last_usage`` and error messages.
    """

    def solve_dirty(self) -> None:
        self.last_components = 0
        self.last_flows_solved = 0
        self.last_usage = []
        self.last_rate_changed = {}
        self.last_fill_rounds = 0
        solved: set = set()
        if self._dirty_cons or self._dirty_flows:
            seeds = set(self._dirty_flows)
            for record in self._dirty_cons:
                seeds.update(record.flows)
            self._dirty_cons.clear()
            self._dirty_flows.clear()
            flows = self._flows
            for seed in sorted(seeds, key=lambda k: flows[k].seq):
                if seed in solved or seed not in flows:
                    continue
                members, cons = self._collect_component(seed, solved)
                self._solve_component(members, cons)
                self.last_components += 1
                self.last_flows_solved += len(members)
        if self._released:
            self._settle_released()

    def _collect_component(self, seed, solved: set) -> tuple[list, list]:
        """Flows transitively connected to ``seed`` via shared constraints,
        in ``seq`` order, and the shared constraints the kernel must see.

        A shared constraint with a single flow is passed over, unless
        that flow crosses some constraint twice: it reaches no other
        flow, and the kernel folds it into that flow's solo level.
        """
        flows = self._flows
        members = []
        cons = []
        seen: set = set()
        solved.add(seed)
        stack = [seed]
        while stack:
            flow = flows[stack.pop()]
            members.append(flow)
            for record in flow.cons:
                if not record.shared or record in seen:
                    continue
                crossing = record.flows
                if len(crossing) == 1 and flow.folds:
                    continue
                seen.add(record)
                cons.append(record)
                fresh = crossing - solved
                if fresh:
                    solved.update(fresh)
                    stack.extend(fresh)
        members.sort(key=lambda f: f.seq)
        return members, cons

    def _solve_component(self, members: list, cons: list) -> None:
        flow = members[0]
        if len(members) == 1 and flow.folds:
            rate = flow.bound
            for record in flow.cons:
                rate = min(rate, record.capacity / flow.weight)
            if math.isinf(rate):
                raise SimulationError(
                    "max-min system is unbounded: flows " + flow.name
                )
            flow.fill = rate
        else:
            rates, rounds = _progressive_fill_scalar(members, cons)
            self.last_fill_rounds += rounds
            for flow, rate in zip(members, rates):
                flow.fill = rate
        self._store_rates(members)
        if self._track_usage:
            self._update_usage(members)


def solved_flows(solver: IncrementalMaxMin) -> set:
    """Run ``solver.solve_dirty()`` and return the keys of the flows it
    re-solved: the members of every component it passed to
    ``_solve_component``."""
    solved: set = set()
    solve_component = solver._solve_component

    def recording(members: list, cons: list) -> None:
        solved.update(flow.key for flow in members)
        solve_component(members, cons)

    solver._solve_component = recording
    try:
        solver.solve_dirty()
    finally:
        del solver._solve_component
    return solved


#: Flows plus constraints above which :func:`solve_maxmin` switches to the
#: vectorised implementation (the crossover was flat between 16 and 64
#: flows on CPython 3.11).
VECTORIZE_THRESHOLD = 32


@dataclass
class ConstraintSpec:
    """One shared resource: a link or a CPU.

    ``capacity`` is in resource units per second (bytes/s or flop/s).
    ``shared`` is False for FATPIPE links: the constraint then only caps
    each individual flow at ``capacity`` instead of their sum.
    """

    name: str
    capacity: float
    shared: bool = True

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise SimulationError(f"constraint {self.name!r}: negative capacity")


@dataclass
class FlowSpec:
    """One consumer: uses every constraint in ``constraints`` simultaneously.

    ``bound`` caps the flow's rate (``inf`` = unbounded).  ``weight``
    scales how much constraint capacity one rate unit consumes (weight 2
    means the flow counts twice in the sharing, i.e. receives half a fair
    share); it must be > 0.
    """

    name: str
    constraints: tuple[int, ...]
    bound: float = math.inf
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise SimulationError(f"flow {self.name!r}: weight must be > 0")
        if self.bound < 0:
            raise SimulationError(f"flow {self.name!r}: negative bound")


@dataclass
class MaxMinSystem:
    """A bandwidth-sharing problem: constraints plus the flows using them."""

    constraints: list[ConstraintSpec] = field(default_factory=list)
    flows: list[FlowSpec] = field(default_factory=list)

    def add_constraint(self, name: str, capacity: float, shared: bool = True) -> int:
        """Register a resource; returns its index for use in flow specs."""
        self.constraints.append(ConstraintSpec(name, capacity, shared))
        return len(self.constraints) - 1

    def add_flow(
        self,
        name: str,
        constraint_ids: tuple[int, ...] | list[int],
        bound: float = math.inf,
        weight: float = 1.0,
    ) -> int:
        """Register a consumer; returns its index into the solution vector."""
        for cid in constraint_ids:
            if not 0 <= cid < len(self.constraints):
                raise SimulationError(
                    f"flow {name!r} references unknown constraint {cid}"
                )
        self.flows.append(FlowSpec(name, tuple(constraint_ids), bound, weight))
        return len(self.flows) - 1


def solve_maxmin(system: MaxMinSystem) -> np.ndarray:
    """Solve the system; returns one rate per flow, in flow order.

    Dispatches between the reference and the vectorised solver based on
    problem size; both return the same (unique) max-min fixed point.
    """
    size = len(system.flows) + len(system.constraints)
    if size <= VECTORIZE_THRESHOLD:
        return solve_maxmin_reference(system)
    return solve_maxmin_vectorized(system)


def solve_maxmin_reference(system: MaxMinSystem) -> np.ndarray:
    """Progressive-filling solver, direct transcription of the algorithm."""
    n_flows = len(system.flows)
    rates = np.zeros(n_flows)
    if n_flows == 0:
        return rates

    # Mutable working state -------------------------------------------------
    remaining = [c.capacity for c in system.constraints]
    # flows (by index) still growing
    active = set(range(n_flows))
    # per shared constraint: total weight of active flows crossing it
    users: list[float] = [0.0] * len(system.constraints)
    for flow in system.flows:
        for cid in flow.constraints:
            if system.constraints[cid].shared:
                users[cid] += flow.weight

    while active:
        # Candidate uniform level: for each shared constraint the level at
        # which it saturates; for each flow its own bound.
        level = math.inf
        for cid, constraint in enumerate(system.constraints):
            if constraint.shared and users[cid] > _EPS:
                level = min(level, remaining[cid] / users[cid])
        saturated_flows: set[int] = set()
        for fid in active:
            flow = system.flows[fid]
            # FATPIPE constraints cap the individual flow instead.
            cap = flow.bound
            for cid in flow.constraints:
                constraint = system.constraints[cid]
                if not constraint.shared:
                    cap = min(cap, constraint.capacity / flow.weight)
            if cap < level - _EPS:
                level = cap
                saturated_flows = {fid}
            elif cap <= level + _EPS:
                saturated_flows.add(fid)

        if math.isinf(level):
            # Only unbounded flows on unconstrained resources remain: the
            # caller built an ill-posed system (a flow crossing nothing).
            raise SimulationError(
                "max-min system is unbounded: flows "
                + ", ".join(system.flows[f].name for f in sorted(active))
            )

        # Flows whose bound equals the level are fixed at the level.  If no
        # flow bound binds, the flows crossing a saturating link are fixed.
        to_fix: set[int] = set(saturated_flows)
        if not to_fix:
            for cid, constraint in enumerate(system.constraints):
                if (
                    constraint.shared
                    and users[cid] > _EPS
                    and remaining[cid] / users[cid] <= level + _EPS
                ):
                    for fid in active:
                        if cid in system.flows[fid].constraints:
                            to_fix.add(fid)
        if not to_fix:
            raise SimulationError("progressive filling made no progress")

        for fid in to_fix:
            flow = system.flows[fid]
            rates[fid] = level
            for cid in flow.constraints:
                if system.constraints[cid].shared:
                    remaining[cid] -= level * flow.weight
                    if remaining[cid] < 0:
                        remaining[cid] = 0.0
                    users[cid] -= flow.weight
            active.discard(fid)

    return rates


def _progressive_fill_arrays(
    n_flows: int,
    n_cons: int,
    row: np.ndarray,
    col: np.ndarray,
    weights: np.ndarray,
    bounds: np.ndarray,
    shared: np.ndarray,
    capacities: np.ndarray,
    name_of,
) -> tuple[np.ndarray, int]:
    """Array core of progressive filling over a whole system, the NumPy
    oracle of :func:`_progressive_fill_scalar` and of
    :func:`repro.surf.maxmin._progressive_fill`.

    ``row``/``col`` are COO-style incidence entries (flow ``row[k]`` crosses
    constraint ``col[k]``); ``weights``/``bounds`` are per flow, ``shared``/
    ``capacities`` per constraint; ``name_of`` maps a flow index to a name
    for error messages.

    Returns ``(rates, rounds)``: the max-min fixed point, bit-identical to
    the historical solver, and the number of fixing rounds it took.
    """
    rates = np.zeros(n_flows)
    entry_weight = weights[row]
    remaining = capacities.astype(float, copy=True)

    # Per-flow static cap: own bound plus any FATPIPE constraint it crosses.
    caps = bounds.astype(float, copy=True)
    if not shared.all():
        fat_entries = ~shared[col]
        if fat_entries.any():
            fat_cap = remaining[col[fat_entries]] / entry_weight[fat_entries]
            np.minimum.at(caps, row[fat_entries], fat_cap)

    active = np.ones(n_flows, dtype=bool)
    # entries whose flow is active and whose constraint is shared
    live_entry = shared[col].copy()

    rounds = 0
    while active.any():
        if rounds > n_flows + n_cons:
            raise SimulationError("progressive filling failed to converge")
        # total active weight per shared constraint
        users = np.zeros(n_cons)
        np.add.at(users, col[live_entry], entry_weight[live_entry])

        with np.errstate(divide="ignore", invalid="ignore"):
            cons_level = np.where(users > _EPS, remaining / np.maximum(users, _EPS), np.inf)
        cons_min = cons_level.min() if n_cons else math.inf
        flow_min = caps[active].min()
        level = min(cons_min, flow_min)
        if math.isinf(level):
            names = [name_of(i) for i in np.flatnonzero(active)]
            raise SimulationError("max-min system is unbounded: flows " + ", ".join(names))

        if flow_min <= level + _EPS:
            to_fix = active & (caps <= level + _EPS)
        else:
            sat_cons = cons_level <= level + _EPS
            to_fix = np.zeros(n_flows, dtype=bool)
            hits = live_entry & sat_cons[col]
            to_fix[row[hits]] = True
            to_fix &= active
        if not to_fix.any():
            raise SimulationError("progressive filling made no progress")

        rates[to_fix] = level
        consumed_entries = live_entry & to_fix[row]
        consumption = np.zeros(n_cons)
        np.add.at(consumption, col[consumed_entries], level * entry_weight[consumed_entries])
        remaining = np.maximum(remaining - consumption, 0.0)
        active &= ~to_fix
        live_entry &= active[row]
        rounds += 1

    return rates, rounds


def solve_maxmin_vectorized(system: MaxMinSystem) -> np.ndarray:
    """NumPy formulation of progressive filling.

    State is held in flat arrays; each round computes every constraint's
    saturation level and every flow's bound level with vectorised
    reductions, fixes the arg-min set, and updates remaining capacities
    with one sparse matrix-vector product.  The incidence matrix is built
    once in COO-style index arrays (``scipy.sparse`` is avoided on purpose:
    these systems are small enough that the import + conversion overhead
    dominates).
    """
    n_flows = len(system.flows)
    n_cons = len(system.constraints)
    if n_flows == 0:
        return np.zeros(0)

    # Incidence in index form: entry k means flow frow[k] crosses constraint
    # fcol[k].
    frow: list[int] = []
    fcol: list[int] = []
    for fid, flow in enumerate(system.flows):
        for cid in flow.constraints:
            frow.append(fid)
            fcol.append(cid)
    row = np.asarray(frow, dtype=np.intp)
    col = np.asarray(fcol, dtype=np.intp)
    weights = np.asarray([f.weight for f in system.flows])
    shared = np.asarray([c.shared for c in system.constraints], dtype=bool)
    capacities = np.asarray([float(c.capacity) for c in system.constraints])
    bounds = np.asarray([f.bound for f in system.flows])

    def name_of(fid: int) -> str:
        return system.flows[fid].name

    rates, _rounds = _progressive_fill_arrays(
        n_flows, n_cons, row, col, weights, bounds, shared, capacities, name_of
    )
    return rates


# -- payload pool oracle -------------------------------------------------------------


@dataclass
class _Entry:
    value: Any
    nbytes: int
    refcount: int


class InternPool(PayloadPool):
    """Reference-counted store of values under hashable content keys.

    The generic pool payload folding started from: one entry per key,
    where :class:`~repro.smpi.intern.PayloadPool` keeps fingerprint
    buckets.  It subclasses that pool only for its counters and byte
    accounting, so the two report identical ``stats()``.
    """

    def __init__(
        self, on_account: Callable[[int, int], None] | None = None
    ) -> None:
        super().__init__(on_account)
        self._entries: dict[Hashable, _Entry] = {}

    def acquire(
        self, key: Hashable, factory: Callable[[], Any], nbytes: int
    ) -> Any:
        """Return the value interned under ``key``, creating it on a miss.

        ``factory`` builds the value only when ``key`` is new; ``nbytes``
        is what one un-interned copy would cost.  Every acquire takes one
        reference — pair it with :meth:`release`.
        """
        self.acquires += 1
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._account(nbytes, 0)
            entry.refcount += 1
            return entry.value
        entry = self._entries[key] = _Entry(factory(), nbytes, 1)
        self._account(nbytes, nbytes)
        return entry.value

    def release(self, key: Hashable) -> bool:
        """Drop one reference; returns True when the entry was evicted.

        Unknown keys are ignored (idempotent release), matching how
        protocol teardown paths may race a normal delivery release.
        """
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry.refcount -= 1
        self._account(-entry.nbytes, 0)
        if entry.refcount <= 0:
            self._account(0, -entry.nbytes)
            del self._entries[key]
            return True
        return False

    def refcount(self, key: Hashable) -> int:
        """Current reference count of ``key`` (0 when not interned)."""
        entry = self._entries.get(key)
        return 0 if entry is None else entry.refcount

    def __len__(self) -> int:
        return len(self._entries)


def digest_key(data) -> tuple:
    """The whole-buffer content key: (length, blake2b digest of a copy)."""
    digest = hashlib.blake2b(data.tobytes(), digest_size=16).digest()
    return (int(data.size), digest)


class DigestPayloadPool(InternPool):
    """Payloads folded by whole-buffer digest, through the generic pool.

    ``acquire(key, data, borrowed)`` ignores the fingerprint ``key`` it
    is handed and keys by :func:`digest_key`; the returned handle carries
    that digest for :meth:`release`.  A borrowed payload is stored as a
    copy on a miss, so no entry ever views a send buffer.  It can stand
    in for ``world.payload_pool``.
    """

    def acquire(self, key, data, borrowed=False) -> PayloadEntry:
        full = digest_key(data)

        def freeze():
            value = data.copy() if borrowed else data
            value.setflags(write=False)
            return value

        return PayloadEntry(full, super().acquire(full, freeze, int(data.size)))

    def release(self, entry: PayloadEntry) -> bool:
        return super().release(entry.key)


# -- trace CSV oracle ----------------------------------------------------------------


def _end_field(record) -> str | float:
    return record.end if record.closed else ""


def comm_csv_row(r) -> list:
    """The CSV row of one comm record."""
    return ["comm", r.mid, r.src, r.dst, r.tag, r.nbytes,
            int(r.eager), r.start, _end_field(r), "", int(r.failed)]


def compute_csv_row(c) -> list:
    """The CSV row of one compute record."""
    return ["compute", "", c.rank, "", "", c.flops, "",
            c.start, _end_field(c), "", ""]


def resource_csv_row(e) -> list:
    """The CSV row of one resource failure/recovery record."""
    return ["resource", "", e.name, e.kind, "", "", e.event, e.t, "", "", ""]


def timeline_link_row(name, kind, capacity, t, usage) -> list:
    """The CSV row of one timeline utilization sample."""
    return ["link", "", name, kind if kind != "link" else "", "", usage,
            "", t, "", capacity, ""]


def timeline_capacity_row(name, kind, t, capacity) -> list:
    """The CSV row of one timeline capacity step."""
    return ["capacity", "", name, kind, "", "", "", t, "", capacity, ""]


def trace_csv(tracer, include_open: bool = False) -> str:
    """``tracer.to_csv(include_open)``, written row by row by ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in tracer.comms:
        if r.closed or include_open:
            writer.writerow(comm_csv_row(r))
    for c in tracer.computes:
        if c.closed or include_open:
            writer.writerow(compute_csv_row(c))
    for e in tracer.resource_events:
        writer.writerow(resource_csv_row(e))
    timeline = tracer.timeline
    if timeline is not None:
        for name in timeline.names():
            for t, usage in timeline.samples(name):
                writer.writerow(timeline_link_row(
                    name, timeline.kinds[name], timeline.capacities[name],
                    t, usage))
        for name, steps in timeline.capacity_series.items():
            for t, capacity in steps:
                writer.writerow(timeline_capacity_row(
                    name, timeline.kinds.get(name, "link"), t, capacity))
    return buf.getvalue()


# -- timeline oracle -----------------------------------------------------------------


class TupleTimeline:
    """The sample side of :class:`~repro.trace.timeline.Timeline`, one
    ``[(time, usage), ...]`` list per resource."""

    def __init__(self) -> None:
        self._series: dict[str, list[tuple[float, float]]] = {}
        self.capacities: dict[str, float] = {}
        self.kinds: dict[str, str] = {}
        self.n_samples = 0

    def record(self, t: float, name: str, usage: float, capacity: float,
               kind: str = "link") -> None:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = []
            self.kinds[name] = kind
        self.capacities[name] = capacity
        if series:
            last_t, last_u = series[-1]
            if last_t == t:
                if last_u != usage:
                    series[-1] = (t, usage)
                return
            if last_u == usage:
                return
        elif usage == 0.0:
            return
        series.append((t, usage))
        self.n_samples += 1

    def close(self, t: float) -> None:
        for name, series in self._series.items():
            if series and series[-1][1] != 0.0:
                self.record(t, name, 0.0, self.capacities[name],
                            self.kinds[name])

    def names(self, kind: str | None = None) -> list[str]:
        if kind is None:
            return list(self._series)
        return [n for n in self._series if self.kinds[n] == kind]

    def samples(self, name: str) -> list[tuple[float, float]]:
        return list(self._series.get(name, ()))

    def utilization(self, name: str) -> list[tuple[float, float]]:
        capacity = self.capacities.get(name, 0.0)
        if capacity <= 0:
            return [(t, 0.0) for t, _ in self._series.get(name, ())]
        return [(t, u / capacity) for t, u in self._series.get(name, ())]

    def _integrate(self, name: str, until: float) -> tuple[float, float, float]:
        series = self._series.get(name, [])
        integral = peak = busy = 0.0
        for i, (t, usage) in enumerate(series):
            if t >= until:
                break
            t_next = series[i + 1][0] if i + 1 < len(series) else until
            span = min(t_next, until) - t
            if span <= 0:
                continue
            integral += usage * span
            peak = max(peak, usage)
            if usage > 0:
                busy += span
        return integral, peak, busy

    def summarize(self, name: str, until: float) -> LinkUsage:
        capacity = self.capacities.get(name, 0.0)
        integral, peak, busy = self._integrate(name, max(until, 0.0))
        scale = capacity * until
        return LinkUsage(
            name=name,
            kind=self.kinds.get(name, "link"),
            capacity=capacity,
            mean_utilization=integral / scale if scale > 0 else 0.0,
            peak_utilization=peak / capacity if capacity > 0 else 0.0,
            busy_time=busy,
        )

    def as_rows(self) -> list[tuple[str, str, float, float, float]]:
        return [(name, self.kinds[name], self.capacities[name], t, usage)
                for name, series in self._series.items()
                for t, usage in series]


# -- TI trace oracle ------------------------------------------------------------------


@dataclass
class ListTiTrace:
    """A TI trace as one list of :class:`TiEvent` per rank."""

    n_ranks: int
    events: list[list[TiEvent]] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.events:
            self.events = [[] for _ in range(self.n_ranks)]
        if len(self.events) != self.n_ranks:
            raise ConfigError("one event list per rank required")

    def append(self, rank: int, event: TiEvent) -> None:
        self.events[rank].append(event)

    def total_messages(self) -> int:
        return sum(1 for rank_events in self.events for e in rank_events
                   if e.kind == "send")

    def total_bytes(self) -> int:
        return sum(e.args[2] for rank_events in self.events
                   for e in rank_events if e.kind == "send")

    def total_flops(self) -> float:
        return sum(e.args[0] for rank_events in self.events
                   for e in rank_events if e.kind == "compute")

    def to_json(self) -> str:
        return json.dumps({
            "format": "repro-ti-trace-1",
            "n_ranks": self.n_ranks,
            "meta": self.meta,
            "events": [[e.to_json() for e in rank_events]
                       for rank_events in self.events],
        })

    @classmethod
    def from_json(cls, text: str) -> "ListTiTrace":
        payload = json.loads(text)
        if payload.get("format") != "repro-ti-trace-1":
            raise ConfigError("not a repro TI trace")
        return cls(
            n_ranks=payload["n_ranks"],
            events=[[TiEvent.from_json(row) for row in rank_events]
                    for rank_events in payload["events"]],
            meta=payload.get("meta", {}),
        )


class ListRankReplayer(_RankReplayer):
    """The replayer reading one :class:`TiEvent` per step."""

    def run(self):
        world = self.world
        protocol = world.protocol
        rank = self.rank
        live = {}
        for event in self.events:
            kind = event.kind
            if kind == "compute":
                flops = event.args[0]
                if flops <= 0:
                    continue
                activity = world.scheduler.execute(
                    world.current_actor, flops, f"exec-r{rank}")
                yield from self._co_compute(activity, flops)
            elif kind == "send":
                op_id, dst, nbytes, tag, ctx = event.args
                request = Request(world, "send", rank)
                protocol.start_send(
                    src=rank, dst=dst, tag=tag, ctx=ctx,
                    data=_EMPTY, request=request, wire_bytes=nbytes,
                )
                live[op_id] = request
            elif kind == "recv":
                op_id, src, tag, ctx = event.args
                request = Request(world, "recv", rank)
                protocol.start_recv(
                    dst=rank, source=src, tag=tag, ctx=ctx,
                    buffer=None, request=request,
                )
                live[op_id] = request
            else:  # wait
                (op_ids,) = event.args
                pending = [live.pop(i) for i in op_ids if i in live]
                if pending:
                    yield from rq.co_settle(pending)
        leftovers = list(live.values())
        live.clear()
        if leftovers:
            yield from rq.co_settle(leftovers)


@contextmanager
def list_replayer():
    """Run :func:`~repro.offline.replay.replay_trace` on
    :class:`ListRankReplayer` inside the block (give it a
    :class:`ListTiTrace`)."""
    saved = replay_module._RankReplayer
    replay_module._RankReplayer = ListRankReplayer
    try:
        yield
    finally:
        replay_module._RankReplayer = saved
