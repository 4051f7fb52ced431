"""Max-min fairness solver with per-flow rate bounds.

This is the analytical contention model at the core of SimGrid (paper
section 4.2): instead of simulating individual packets, the bandwidth each
active flow receives is computed by *progressive filling* — the classic
water-filling algorithm for max-min fairness:

1. grow the rate of every unfixed flow uniformly,
2. the first constraint to saturate is either a link (its capacity divided
   by its number of unfixed flows is smallest) or a flow's own rate bound,
3. fix the flows involved, subtract their consumption, repeat.

A *flow* here is any resource consumer: a network transfer crossing a set
of links, or a compute action "crossing" the single constraint of its host
CPU.  Each flow may carry a finite ``bound`` — the piece-wise linear model
of the paper enters the solver this way, as a per-flow cap equal to the
fitted segment bandwidth for the message's size.  Sharing is *weighted*
(a flow counts as ``weight`` concurrent flows on each of its links —
SimGrid uses this to model TCP RTT unfairness), and a link with a FATPIPE
policy does not share at all: every flow may use its full capacity (used
for backplanes that are provisioned not to contend).

:class:`IncrementalMaxMin` keeps a bandwidth-sharing problem *alive*
across engine steps: flows come and go (``add_flow`` / ``remove_flow``),
each change marks the constraints it touches dirty, and
:meth:`IncrementalMaxMin.solve_dirty` re-solves only the connected
components of the flow/constraint graph reachable from a dirty
constraint.  The max-min fixed point decomposes exactly over connected
components (flows in different components share no constraint,
transitively), so untouched components keep their rates — this is the
lazy partial invalidation the SimGrid kernel uses to keep the sequential
share cheap.  Every component of more than one flow is solved by one
plain-Python kernel, :func:`_progressive_fill_scalar`, straight from the
solver's flow and constraint records; the solver keeps no other copy of
its state.

Inside a component, work is skipped wherever its result cannot change:

* a shared constraint crossed by a single flow cannot couple flows.  The
  component walk does not visit it, and the kernel folds it into
  that flow's *solo level* ``capacity / weight`` — the very float the
  constraint's fair share ``remaining / users`` has while its one flow
  grows.  The level stays on the constraint side of each filling round,
  so rounds group, rates and errors are bit-identical to the unfolded
  fill;
* with utilization tracking on, a constraint's consumed rate is summed
  again only when its load can have changed: a flow arrived or left, its
  capacity or policy changed, or a flow crossing it changed rate.

The one-shot solvers the incremental one replaced (a reference
transcription and a whole-system NumPy solve) and the NumPy filling core
(``_progressive_fill_arrays``) are kept as test oracles in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from operator import attrgetter

from ..errors import SimulationError, UnknownFlowError

__all__ = ["IncrementalMaxMin", "UnknownFlowError"]

_EPS = 1e-12


def _progressive_fill_scalar(members: list, cons: list) -> tuple[list, int]:
    """Progressive filling of one component, read from its records.

    ``members`` are :class:`_IncFlow` records in ``seq`` order; ``cons``
    lists every SHARED constraint they cross that the walk kept, each
    record's ``pos`` being its index in ``cons``.  FATPIPE constraints
    only enter the per-flow caps.  A shared constraint whose only flow
    is member *i* (when *i* crosses no constraint twice) is folded into
    ``solo[i]``: while *i* grows that constraint's fair share is
    ``capacity / weight`` (``users`` is ``0.0 + weight``), and once *i* is
    fixed it has no user left.  ``solo`` stays on the constraint side of
    each round — it enters ``cons_min`` and the constraint-saturation
    test, never the caps — so rounds group as in the unfolded fill.
    Every float operation happens in the order the whole-system NumPy
    oracle (``_progressive_fill_arrays`` in ``tests/oracles.py``)
    performs it — per-constraint sums start from ``0.0`` and add entries
    in (flow, constraint) order as ``np.add.at`` does, a round's whole
    consumption is summed before it is subtracted — so rates and round
    count are bit-identical to it, and so are the error messages.

    Returns ``(rates, rounds)``: the max-min fixed point and the number
    of fixing rounds it took.
    """
    n_flows = len(members)
    n_cons = len(cons)
    inf = math.inf
    weights = []
    entries = []  # per flow: ``pos`` of each coupling constraint it crosses
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
                crossed.append(record.pos)
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
        # fair share per unit weight of every coupling constraint
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
            to_fix = []
            for i in active:
                if solo[i] <= limit:
                    to_fix.append(i)
                    continue
                for c in entries[i]:
                    if cons_level[c] <= limit:
                        to_fix.append(i)
                        break
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


# -- incremental sharing ------------------------------------------------------------

_by_seq = attrgetter("seq")


class _IncConstraint:
    """Internal per-resource record of an :class:`IncrementalMaxMin`."""

    __slots__ = ("key", "name", "kind", "capacity", "shared",
                 "flows", "stamp", "pos", "usage", "touched")

    def __init__(self, key, name: str, capacity: float, shared: bool,
                 kind: str = "link"):
        self.key = key
        self.name = name
        self.kind = kind  # label handed to utilization observers
        self.capacity = capacity
        self.shared = shared
        self.flows: set = set()  # keys of flows crossing this constraint
        self.stamp = 0  # number of the last component walk that reached it
        self.pos = 0  # index in that walk's constraint list
        self.usage = 0.0  # consumed rate, maintained while tracking usage
        # whether ``usage`` may be stale: set when a flow leaves, when the
        # capacity or policy changes, and (while usage is tracked) when a
        # crossing flow's rate changes — an arriving flow's first rate
        # counts as a change; cleared when the usage is summed again
        self.touched = True


class _IncFlow:
    """Internal per-consumer record of an :class:`IncrementalMaxMin`."""

    __slots__ = ("key", "seq", "name", "cons", "bound", "weight", "rate",
                 "folds")

    def __init__(self, key, seq: int, name: str, cons, bound, weight):
        self.key = key
        self.seq = seq  # registration order, for deterministic solves
        self.name = name
        self.cons = cons  # tuple of _IncConstraint
        self.bound = bound
        self.weight = weight
        # last solved rate; NaN until the first solve.  NaN compares
        # unequal to every rate, so the first one counts as a change
        self.rate = math.nan
        # a constraint crossed twice counts twice in its fair share, so
        # only a flow crossing each constraint once folds the constraints
        # it has to itself into its solo level
        self.folds = len(cons) < 2 or len(set(cons)) == len(cons)


class IncrementalMaxMin:
    """A max-min sharing problem kept alive across simulation steps.

    The class holds persistent state — constraints registered by opaque
    key, flows with the constraint records they cross and their last
    solved rate — and tracks a *dirty set* of constraints touched since
    the last solve (by flow arrival/departure or capacity change).

    :meth:`solve_dirty` re-solves only the connected components of the
    flow/constraint graph reachable from a dirty constraint.  Because the
    max-min fixed point is unique and decomposes over connected components
    (two flows that share no constraint, even transitively, cannot affect
    each other's rate), untouched components keep their previous rates —
    the solution is identical to a full re-solve.  FATPIPE constraints cap
    flows individually without coupling them, so they seed dirtiness but do
    not merge components.

    Each flow and constraint has one small record (:class:`_IncFlow`,
    :class:`_IncConstraint`), which is the solver's whole state: a flow's
    record holds its bound, weight, the constraint records it crosses and
    its last solved rate.  A lone flow that crosses each constraint once
    takes its closed form; every other component goes to
    :func:`_progressive_fill_scalar`, which reads the records directly.  Components are found by a walk that stamps each
    constraint record it reaches with the walk's number, and the dirty
    and released sets hold records (identity-hashed), so solving never
    hashes a resource key.  The walk passes over a shared constraint
    crossed by one flow: it cannot join components, and the kernel folds
    it into that flow's solo level.  Every solve runs progressive filling
    to the max-min fixed point.
    """

    def __init__(self) -> None:
        self._cons: dict = {}  # key -> _IncConstraint
        self._flows: dict = {}  # key -> _IncFlow
        # dirty constraint records, as an insertion-ordered set: records
        # hash by identity, so no resource key is hashed on the hot path
        self._dirty_cons: dict = {}
        self._dirty_flows: set = set()
        self._seq = 0
        self._walk = 0  # number of the last component walk (record stamps)
        # constraint records a departure left that no component solve may
        # reach: every FATPIPE one, and shared ones whose flow set drained
        # (insertion-ordered).  solve_dirty() sums their usage again and
        # garbage-collects the ones still empty
        self._released: dict = {}
        #: statistics of the most recent :meth:`solve_dirty` call
        self.last_components = 0
        self.last_flows_solved = 0
        #: progressive-filling rounds spent by the most recent
        #: :meth:`solve_dirty` (summed over its component solves)
        self.last_fill_rounds = 0
        #: keys of the flows whose solved rate actually *changed* value in
        #: the most recent :meth:`solve_dirty` (new flows included).  A
        #: re-solved component usually contains many flows that keep their
        #: exact previous rate — e.g. flows bottlenecked elsewhere — and
        #: lazily-updated engines only need to re-anchor the changed ones.
        self.last_rate_changed: set = set()
        self._track_usage = False
        #: (``_IncConstraint``, usage) pairs updated by the most recent
        #: :meth:`solve_dirty`: constraints of clean components, and those
        #: whose load did not change, never appear here
        self.last_usage: list = []

    @property
    def track_usage(self) -> bool:
        """Whether component solves maintain per-constraint consumed rates.

        When on, each component solve sums again the consumed rate of
        every constraint it touches whose load can have changed since its
        last sum (utilization sampling for the observability layer).  Off
        by default so the tracing-disabled hot path pays nothing; turning
        it on marks every constraint for a fresh sum, since rate changes
        are not tracked while it is off.
        """
        return self._track_usage

    @track_usage.setter
    def track_usage(self, on: bool) -> None:
        if on and not self._track_usage:
            for record in self._cons.values():
                record.touched = True
        self._track_usage = on

    # -- registration ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, key) -> bool:
        return key in self._flows

    def ensure_constraint(
        self, key, capacity: float, shared: bool = True,
        name: str | None = None, kind: str = "link",
    ) -> None:
        """Register (or update) the resource identified by ``key``.

        Re-registering with a different capacity or policy marks the
        constraint dirty so dependent flows are re-solved.  A negative or
        NaN capacity is rejected on both paths.  ``kind`` labels the
        resource for utilization observers (``"link"`` or ``"host"``);
        the solver itself ignores it.
        """
        capacity = float(capacity)
        if not capacity >= 0.0:
            raise SimulationError(
                f"constraint {name or key!r}: capacity must be >= 0, got {capacity}"
            )
        cons = self._cons.get(key)
        if cons is None:
            self._cons[key] = _IncConstraint(key, name or str(key), capacity,
                                             shared, kind)
        elif cons.capacity != capacity or cons.shared != shared:
            cons.capacity = capacity
            cons.shared = shared
            cons.touched = True
            self._dirty_cons[cons] = None

    def add_flow(
        self,
        key,
        constraint_keys,
        bound: float = math.inf,
        weight: float = 1.0,
        name: str | None = None,
    ) -> None:
        """Register a consumer crossing ``constraint_keys`` (all pre-registered)."""
        if key in self._flows:
            raise SimulationError(f"flow {name or key!r} already registered")
        if weight <= 0:
            raise SimulationError(f"flow {name or key!r}: weight must be > 0")
        if bound < 0:
            raise SimulationError(f"flow {name or key!r}: negative bound")
        cons = []
        for ckey in constraint_keys:
            record = self._cons.get(ckey)
            if record is None:
                raise SimulationError(
                    f"flow {name or key!r} references unknown constraint {ckey!r}"
                )
            cons.append(record)
        flow = _IncFlow(key, self._seq, name or str(key), tuple(cons),
                        float(bound), float(weight))
        self._seq += 1
        self._flows[key] = flow
        self._dirty_flows.add(key)
        for record in cons:
            record.flows.add(key)
            if record.shared:
                self._dirty_cons[record] = None

    def remove_flow(self, key, strict: bool = True) -> None:
        """Unregister a consumer, freeing its share for its neighbours.

        Removing a flow that is not registered raises
        :class:`~repro.errors.UnknownFlowError` naming the flow; pass
        ``strict=False`` to make the removal idempotent instead (useful
        when a cancel races a completion harvest).
        """
        flow = self._flows.pop(key, None)
        if flow is None:
            if strict:
                raise UnknownFlowError(key)
            return
        self._dirty_flows.discard(key)
        for record in flow.cons:
            record.flows.discard(key)
            record.touched = True
            if record.shared:
                # neighbours on a shared constraint inherit the freed share
                self._dirty_cons[record] = None
                if not record.flows:
                    self._released[record] = None
            else:
                # the flows left on a FATPIPE constraint keep their rates,
                # so no component solve sums its usage again
                self._released[record] = None

    def has_constraint(self, key) -> bool:
        """Whether the resource ``key`` was ever registered as a constraint."""
        return key in self._cons

    # -- snapshot/restore support ---------------------------------------------

    def seed_rate(self, key, rate: float) -> None:
        """Set a flow's solved rate directly, without dirtying anything.

        Snapshot restore uses this to re-create the exact post-solve
        state: flows are re-added (which marks everything dirty), rates
        seeded from the serialized run, and :meth:`clear_dirty` called —
        after which the solver is indistinguishable from one that solved
        its way here.  Component solves run progressive filling from
        zero, independent of prior rates, so seeded membership +
        capacities + rates give bit-identical continuations.
        """
        flow = self._flows[key]
        flow.rate = rate
        for record in flow.cons:
            record.touched = True

    def clear_dirty(self) -> None:
        """Forget all dirtiness (snapshot restore bookkeeping)."""
        self._dirty_flows.clear()
        self._dirty_cons.clear()

    def flow_keys_in_seq_order(self) -> list:
        """Live flow keys in registration order.

        A restore must re-add flows in this order: component solves sort
        members by ``seq``, so preserving relative registration order is
        what keeps re-solves deterministic across snapshot boundaries.
        """
        return [f.key for f in sorted(self._flows.values(),
                                      key=lambda f: f.seq)]

    def mark_dirty(self, key) -> None:
        """Force re-solving of the component around constraint ``key``."""
        record = self._cons.get(key)
        if record is not None:
            self._dirty_cons[record] = None

    def dirty_constraint_keys(self) -> list:
        """Keys of the constraints marked dirty since the last solve."""
        return [record.key for record in self._dirty_cons]

    def mark_flow_dirty(self, key) -> None:
        """Force re-solving of the component around flow ``key``.

        Snapshot restore uses this (after :meth:`clear_dirty`) to re-mark
        exactly the flows the serialized run had dirty at the cut.
        """
        if key in self._flows:
            self._dirty_flows.add(key)

    def rate(self, key) -> float:
        """Last solved rate of flow ``key``."""
        rate = self._flows[key].rate
        if math.isnan(rate):
            # registered but never solved: preserve the mapping-like contract
            raise KeyError(key)
        return rate

    def usage(self, key) -> float:
        """Last computed consumed rate of constraint ``key``.

        Only maintained while :attr:`track_usage` is on; unknown or
        never-used constraints report 0.
        """
        record = self._cons.get(key)
        return 0.0 if record is None else record.usage

    # -- solving --------------------------------------------------------------

    def solve_dirty(self) -> set:
        """Re-solve every component touching a dirty constraint.

        Returns the keys of the flows whose rate was recomputed; all other
        flows keep their previous rate (which is still the exact max-min
        solution for their untouched component).  Sets
        :attr:`last_components` / :attr:`last_flows_solved` /
        :attr:`last_rate_changed` / :attr:`last_fill_rounds`.  Also
        garbage-collects constraints whose flow set drained since the last
        solve, so solver memory stays bounded under activity churn.
        """
        self.last_components = 0
        self.last_flows_solved = 0
        self.last_usage = []
        self.last_rate_changed = set()
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
                component, cons = self._collect_component(seed, solved)
                self._solve_component(component, cons)
                self.last_components += 1
                self.last_flows_solved += len(component)
        if self._released:
            self._settle_released()
        return solved

    def _settle_released(self) -> None:
        """Close the records departures left behind.

        With :attr:`track_usage` on, a released record still ``touched``
        (no component solve summed it) is summed again: a drained one
        falls to its idle 0, a FATPIPE one drops to the flows it has left.
        This is the one place a constraint falls idle, shared or FATPIPE
        alike.  A record still empty is then forgotten with its usage; a
        later :meth:`ensure_constraint` with the same key registers a
        fresh one.
        """
        track = self._track_usage
        for record in self._released:
            if track and record.touched:
                record.touched = False
                record.usage = usage = self._usage_of(record)
                self.last_usage.append((record, usage))
            if not record.flows:
                del self._cons[record.key]
        self._released.clear()

    def _collect_component(self, seed, solved: set) -> tuple[list, list]:
        """Flows transitively connected to ``seed`` via shared constraints.

        Returns the member flows sorted by ``seq`` and the shared
        constraints they cross that the kernel must see.  Each such
        constraint reached is stamped with this walk's number
        (visited-marking without hashing its key) and gets its index in
        the returned list as ``pos``.  A shared constraint with a single
        flow is passed over unstamped, unless that flow crosses some
        constraint twice: it reaches no other flow, and
        :func:`_progressive_fill_scalar` folds it into that flow's solo
        level.
        """
        self._walk += 1
        walk = self._walk
        flows = self._flows
        members = []
        cons = []
        solved.add(seed)
        stack = [seed]
        while stack:
            flow = flows[stack.pop()]
            members.append(flow)
            for record in flow.cons:
                # FATPIPE constraints cap flows individually: they do not
                # couple flows into one component
                if not record.shared or record.stamp == walk:
                    continue
                crossing = record.flows
                if len(crossing) == 1 and flow.folds:
                    continue
                record.stamp = walk
                record.pos = len(cons)
                cons.append(record)
                fresh = crossing - solved
                if fresh:
                    solved.update(fresh)
                    stack.extend(fresh)
        members.sort(key=_by_seq)
        return members, cons

    def _solve_component(self, members: list, cons: list) -> None:
        flow = members[0]
        if len(members) == 1 and flow.folds:
            # closed form: a lone flow takes its bound or its tightest cap.
            # A flow crossing a constraint twice counts twice there, as in
            # the kernel, so it goes through the kernel even alone.
            rate = flow.bound
            for record in flow.cons:
                rate = min(rate, record.capacity / flow.weight)
            if math.isinf(rate):
                raise SimulationError(
                    "max-min system is unbounded: flows " + flow.name
                )
            self._store_rates(members, [rate])
        else:
            rates, rounds = _progressive_fill_scalar(members, cons)
            self.last_fill_rounds += rounds
            self._store_rates(members, rates)
        if self._track_usage:
            self._update_usage(members)

    def _store_rates(self, members: list, rates: list) -> None:
        """Record solved rates, tracking which ones changed value."""
        changed = self.last_rate_changed
        track = self._track_usage
        for flow, rate in zip(members, rates):
            if flow.rate != rate:  # a never-solved flow's NaN always differs
                changed.add(flow.key)
                if track:
                    for record in flow.cons:
                        record.touched = True
            flow.rate = rate

    def _update_usage(self, members: list) -> None:
        """Refresh the consumed rate of every touched constraint ``members``
        cross, and clear its ``touched`` flag.

        A constraint left untouched since its last sum has the same flow
        set (so the same summation order) and the same rates: summing it
        again would give the same float, so it is skipped.  Flows crossing
        a SHARED constraint are all inside the component just solved, so
        their rates are fresh; FATPIPE constraints may be crossed by flows
        of other components, whose cached rates are still the exact
        solution of their own (untouched) component.
        """
        last_usage = self.last_usage
        for flow in members:
            for record in flow.cons:
                if record.touched:
                    record.touched = False
                    record.usage = usage = self._usage_of(record)
                    last_usage.append((record, usage))

    def _usage_of(self, record: _IncConstraint) -> float:
        """Consumed rate of one constraint: rate times weight, summed over
        its solved flows in flow-set order."""
        flows = self._flows
        usage = 0.0
        for fkey in record.flows:
            other = flows[fkey]
            if not math.isnan(other.rate):
                usage += other.rate * other.weight
        return usage
