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
components of the flow/constraint graph that hold a dirty flow or
constraint.  The max-min fixed point decomposes exactly over connected
components (flows in different components share no constraint,
transitively), so untouched components keep their rates — this is the
lazy partial invalidation the SimGrid kernel uses to keep the sequential
share cheap.

The components themselves persist between shares (:class:`_Component`):
each keeps its members in ``seq`` order and its *coupling* constraints,
and each coupling constraint keeps its own members in ``seq`` order with
their weight sum.  Registration updates them in place — an arrival
appends and merges the components it joins, a departure removes and
re-walks its component only when it may have split it — so a share
solves the components it already knows, straight from the kept inputs,
with one plain-Python kernel, :func:`_progressive_fill`.

Inside a component, work is skipped wherever its result cannot change:

* a shared constraint crossed by a single flow cannot couple flows.  It
  is no member of any component, and the flow keeps it folded into its
  *solo level* ``capacity / weight`` — the very float the constraint's
  fair share ``remaining / users`` has while its one flow grows.  The
  level stays on the constraint side of each filling round, so rounds
  group, rates and errors are bit-identical to the unfolded fill;
* a filling round recomputes the fair share only of the constraints a
  flow fixed in the round before crosses: every other constraint kept its
  users and its remaining capacity, so its share is the same float;
* with utilization tracking on, a constraint's consumed rate is summed
  again only when its load can have changed: a flow arrived or left, its
  capacity or policy changed, or a flow crossing it changed rate.

The solver that walked each dirty component and rebuilt the kernel's
inputs at every share, the one-shot solvers it replaced (a reference
transcription and a whole-system NumPy solve) and the NumPy filling core
(``_progressive_fill_arrays``) are kept as test oracles in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import attrgetter

from ..errors import SimulationError, UnknownFlowError

__all__ = ["IncrementalMaxMin", "UnknownFlowError"]

_EPS = 1e-12


def _progressive_fill(members: list, cons: list, token: int) -> int:
    """Progressive filling of one component, from its kept inputs.

    ``members`` are the component's :class:`_IncFlow` records in ``seq``
    order; ``cons`` its coupling :class:`_IncConstraint` records, each
    record's ``pos`` being its index in ``cons``.  Each flow brings its
    ``weight``, its ``cap`` (own bound and FATPIPE caps), its ``solo``
    level (the single-flow constraints folded into it) and the coupling
    constraints it ``crossed``; each constraint its members in ``seq``
    order and their weight sum ``wsum``.  A fixed flow is marked with
    ``token`` and its rate written to its ``fill``.

    Every float operation is the one the whole-system NumPy oracle
    (``_progressive_fill_arrays`` in ``tests/oracles.py``) performs, in
    its order: a constraint's users are summed from ``0.0`` over its
    unfixed members in ``seq`` order (round 1 reads the kept ``wsum``,
    the same float), a round's consumption per constraint is summed over
    the fixed flows in ``seq`` order before it is subtracted, and a
    constraint no fixed flow crosses keeps its users and remaining
    capacity, hence its fair share.  ``solo`` stays on the constraint
    side of each round — it enters ``cons_min`` and the
    constraint-saturation test, never the caps — so rounds group as in
    the unfolded fill.  Rates, round count and error messages are
    bit-identical to the oracle's.

    Returns the number of fixing rounds.
    """
    n_flows = len(members)
    n_cons = len(cons)
    inf = math.inf
    remaining = [record.capacity for record in cons]
    levels = [record.capacity / record.wsum if record.wsum > _EPS else inf
              for record in cons]
    active = members
    rounds = 0
    while active:
        if rounds > n_flows + n_cons:
            raise SimulationError("progressive filling failed to converge")
        cons_min = min(min(levels, default=inf),
                       min([flow.solo for flow in active]))
        flow_min = min([flow.cap for flow in active])
        level = min(cons_min, flow_min)
        if math.isinf(level):
            names = [flow.name for flow in active]
            raise SimulationError("max-min system is unbounded: flows " + ", ".join(names))

        limit = level + _EPS
        if flow_min <= limit:
            to_fix = [flow for flow in active if flow.cap <= limit]
        else:
            saturated = set()
            for record, record_level in zip(cons, levels):
                if record_level <= limit:
                    saturated.update(record.members)
            to_fix = [flow for flow in active
                      if flow.solo <= limit or flow in saturated]
        if not to_fix:
            raise SimulationError("progressive filling made no progress")
        rounds += 1
        if len(to_fix) == len(active):
            # the last round: no fair share is read again
            for flow in to_fix:
                flow.fill = level
            break

        consumption: dict = {}  # pos -> this round's consumed rate
        for flow in to_fix:
            flow.mark = token
            flow.fill = level
            used = level * flow.weight
            for record in flow.crossed:
                pos = record.pos
                if pos in consumption:
                    consumption[pos] += used
                else:  # a sum from 0.0, as the oracle's
                    consumption[pos] = 0.0 + used
        active = [flow for flow in active if flow.mark != token]
        for pos, used in consumption.items():
            left = remaining[pos] - used
            remaining[pos] = left = 0.0 if left < 0.0 else left
            users = 0.0
            for flow, times in cons[pos].members.items():
                if flow.mark != token:
                    users += flow.weight
                    if times > 1:
                        for _ in range(1, times):
                            users += flow.weight
            levels[pos] = left / users if users > _EPS else inf
    return rounds


# -- incremental sharing ------------------------------------------------------------

_by_seq = attrgetter("seq")


class _IncConstraint:
    """Internal per-resource record of an :class:`IncrementalMaxMin`."""

    __slots__ = ("key", "name", "kind", "capacity", "shared", "flows",
                 "members", "wsum", "coupled", "pos", "usage", "touched")

    def __init__(self, key, name: str, capacity: float, shared: bool,
                 kind: str = "link"):
        self.key = key
        self.name = name
        self.kind = kind  # label handed to utilization observers
        self.capacity = capacity
        self.shared = shared
        self.flows: set = set()  # keys of flows crossing this constraint
        # SHARED only: the crossing flow records in ``seq`` order, each
        # mapped to the number of times it crosses, and their weights
        # summed in that order from 0.0 — round 1's users of the filling
        # kernel.  After a departure the sum is stale until the next
        # solve sums it once, however many flows left since
        self.members: dict = {}
        self.wsum = 0.0
        # whether it couples flows into a component: SHARED and crossed by
        # two flows, or by one flow that crosses some constraint twice
        self.coupled = False
        self.pos = 0  # index in its component's constraint list
        self.usage = 0.0  # consumed rate, maintained while tracking usage
        # whether ``usage`` may be stale: set when a flow leaves, when the
        # capacity or policy changes, and (while usage is tracked) when a
        # crossing flow's rate changes — an arriving flow's first rate
        # counts as a change; cleared when the usage is summed again
        self.touched = True


class _IncFlow:
    """Internal per-consumer record of an :class:`IncrementalMaxMin`."""

    __slots__ = ("key", "seq", "name", "cons", "bound", "weight", "rate",
                 "folds", "comp", "cap", "solo", "crossed", "fill", "mark")

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
        self.comp = None  # the _Component it belongs to
        # the filling kernel's inputs, kept by _refresh_inputs: own bound
        # and FATPIPE caps, the level of the single-flow constraints
        # folded into it, and the coupling constraints it crosses
        self.cap = bound
        self.solo = math.inf
        self.crossed: list = []
        self.fill = math.nan  # rate the last fill gave it
        self.mark = 0  # number of the last fill that fixed it


class _Component:
    """A connected component of flows, kept alive between solves.

    ``members`` are its flow records in ``seq`` order (an ordered set:
    a departure deletes in O(1)); ``cons`` its coupling constraint
    records, each with its index as ``pos``.
    """

    __slots__ = ("members", "cons")

    def __init__(self) -> None:
        self.members: dict = {}
        self.cons: list = []


def _refresh_inputs(flow: _IncFlow) -> None:
    """Recompute a flow's kernel inputs from its constraint records.

    FATPIPE constraints only cap the flow; a coupling constraint is
    ``crossed`` (twice if crossed twice); any other shared constraint has
    the flow to itself and is folded into ``solo``.
    """
    weight = flow.weight
    cap = flow.bound
    level = math.inf
    crossed = []
    for record in flow.cons:
        if not record.shared:
            fat_cap = record.capacity / weight
            if fat_cap < cap:
                cap = fat_cap
        elif record.coupled:
            crossed.append(record)
        elif weight > _EPS and record.capacity / weight < level:
            level = record.capacity / weight
    flow.cap = cap
    flow.solo = level
    flow.crossed = crossed


def _couples(record: _IncConstraint) -> bool:
    """Whether a SHARED constraint couples its flows (see ``coupled``)."""
    crossing = len(record.flows)
    return crossing > 1 or (crossing == 1
                            and not next(iter(record.members)).folds)


def _weight_sum(members: dict) -> float:
    """Weights of ``members`` (flow -> times it crosses) summed in their
    order from 0.0, once per crossing."""
    total = 0.0
    for flow, times in members.items():
        total += flow.weight
        if times > 1:
            for _ in range(1, times):
                total += flow.weight
    return total


def _still_connected(comp: _Component, bridges: list, hub) -> bool:
    """Whether ``comp`` stays connected after a departure.

    ``bridges`` are the constraints that coupled the departed flow to
    ``comp``; ``hub`` is the most crossed of them that still couples, if
    any.  The flows left on a bridge were connected through the departed
    flow; those of a bridge that still couples stay connected through
    it.  So all of them still are when every other bridge left with flows
    has one flow that crosses the hub.  A False is no proof of a split,
    only a reason to walk.
    """
    if len(comp.members) == 1:
        return True
    if hub is None:
        return False
    for record in bridges:
        if record is hub:
            continue
        for flow in record.members:
            if hub in flow.cons:
                break
        else:
            if record.members:
                return False
    return True


class IncrementalMaxMin:
    """A max-min sharing problem kept alive across simulation steps.

    The class holds persistent state — constraints registered by opaque
    key, flows with the constraint records they cross and their last
    solved rate, and the connected components they form — and tracks a
    *dirty set* of flows and constraints touched since the last solve (by
    flow arrival/departure or capacity change).

    :meth:`solve_dirty` re-solves only the components holding a dirty
    flow or a flow of a dirty constraint.  Because the max-min fixed point
    is unique and decomposes over connected components (two flows that
    share no constraint, even transitively, cannot affect each other's
    rate), untouched components keep their previous rates — the solution
    is identical to a full re-solve.  FATPIPE constraints cap flows
    individually without coupling them, so they seed dirtiness but do not
    merge components, and neither does a shared constraint crossed by a
    single flow, which that flow folds into its solo level.

    Each flow and constraint has one small record (:class:`_IncFlow`,
    :class:`_IncConstraint`) and each component one :class:`_Component`.
    A flow's record holds its bound, weight, the constraint records it
    crosses, its last solved rate and the filling kernel's inputs; a
    coupling constraint's record its members and their weight sum.
    Registration keeps all of them current in place:

    * an arrival appends itself to its constraints (its ``seq`` is the
      largest, so an appended weight sum is the float a fresh sum in
      ``seq`` order gives), merges the components it joins, and makes
      coupling a constraint it brings to two flows;
    * a departure removes itself (in O(1): members are ordered sets),
      leaves its constraints' weight sums for the next fill to sum once,
      and stops a constraint it leaves to one flow from coupling.  It
      walks its component again only when the component can have split:
      when the flows left on its coupling constraints do not all reach
      the most crossed one that still couples;
    * a capacity change refreshes the caps and solo levels that read the
      capacity; a policy change re-walks the components it touches.

    A lone flow that crosses each constraint once takes its closed form;
    every other component goes to :func:`_progressive_fill`.  The dirty
    and released sets hold records (identity-hashed), so solving never
    hashes a resource key.  Every solve runs progressive filling to the
    max-min fixed point.
    """

    def __init__(self) -> None:
        self._cons: dict = {}  # key -> _IncConstraint
        self._flows: dict = {}  # key -> _IncFlow
        # dirty constraint records, as an insertion-ordered set: records
        # hash by identity, so no resource key is hashed on the hot path
        self._dirty_cons: dict = {}
        self._dirty_flows: set = set()
        self._seq = 0
        self._fills = 0  # number of the last fill (flow marks)
        # constraint records a departure left that no component solve may
        # reach: every FATPIPE one, and shared ones whose flow set drained
        # (insertion-ordered).  solve_dirty() sums their usage again and
        # resets the ones still empty
        self._released: dict = {}
        # shared constraint records whose weight sum a departure left
        # stale (insertion-ordered); solve_dirty() sums each once
        self._stale: dict = {}
        #: statistics of the most recent :meth:`solve_dirty` call
        self.last_components = 0
        self.last_flows_solved = 0
        #: progressive-filling rounds spent by the most recent
        #: :meth:`solve_dirty` (summed over its component solves)
        self.last_fill_rounds = 0
        #: key -> new rate of the flows whose solved rate actually
        #: *changed* value in the most recent :meth:`solve_dirty` (new
        #: flows included).  A re-solved component usually contains many
        #: flows that keep their exact previous rate — e.g. flows
        #: bottlenecked elsewhere — and lazily-updated engines only need
        #: to re-anchor the changed ones.
        self.last_rate_changed: dict = {}
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
            repolicy = cons.shared != shared
            cons.capacity = capacity
            cons.shared = shared
            cons.touched = True
            self._dirty_cons[cons] = None
            if repolicy:
                self._repolicy(cons)
            elif not cons.coupled:
                # the caps of a FATPIPE constraint's flows, or the solo
                # level of a single-flow constraint's flow, read it
                flows = self._flows
                for fkey in cons.flows:
                    _refresh_inputs(flows[fkey])

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
        weight = flow.weight
        # the components this arrival joins, the constraints it makes
        # coupling, and the flows that stop folding one of those
        joined: dict = {}
        coupling = []
        unfolded = []
        for record in cons:
            record.flows.add(key)
            if not record.shared:
                continue
            self._dirty_cons[record] = None
            record.wsum += weight  # redone by solve_dirty if stale
            members = record.members
            if flow in members:  # crossed again
                members[flow] += 1
                continue
            members[flow] = 1
            if record.coupled:
                joined[next(iter(members)).comp] = None
            elif len(members) > 1:  # 1 -> 2 flows: the first one unfolds it
                record.coupled = True
                coupling.append(record)
                other = next(iter(members))
                joined[other.comp] = None
                unfolded.append(other)
            elif not flow.folds:
                record.coupled = True
                coupling.append(record)
        _refresh_inputs(flow)
        for other in unfolded:
            _refresh_inputs(other)
        if not joined:
            comp = _Component()
        elif len(joined) == 1:
            comp = next(iter(joined))
        else:
            comp = self._merge(list(joined))
        flow.comp = comp
        comp.members[flow] = None
        comp_cons = comp.cons
        for record in coupling:
            record.pos = len(comp_cons)
            comp_cons.append(record)

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
        comp = flow.comp
        del comp.members[flow]
        bridges = []  # the constraints that coupled it to its component
        hub = None  # the most crossed of them that still couples
        refolded = []  # flows left alone on one of them
        for record in flow.cons:
            record.flows.discard(key)
            record.touched = True
            if not record.shared:
                # the flows left on a FATPIPE constraint keep their rates,
                # so no component solve sums its usage again
                self._released[record] = None
                continue
            # neighbours on a shared constraint inherit the freed share
            self._dirty_cons[record] = None
            members = record.members
            if members.pop(flow, None) is None:
                continue  # crossed again
            self._stale[record] = None
            if not members:
                self._released[record] = None
            if not record.coupled:
                continue
            bridges.append(record)
            if _couples(record):
                if hub is None or len(record.flows) > len(hub.flows):
                    hub = record
                continue
            record.coupled = False
            last = comp.cons.pop()  # swap-remove it from the component
            if last is not record:
                comp.cons[record.pos] = last
                last.pos = record.pos
            if members:
                refolded.append(next(iter(members)))
        for other in refolded:
            _refresh_inputs(other)
        if comp.members and not _still_connected(comp, bridges, hub):
            self._rewalk([comp])

    def has_constraint(self, key) -> bool:
        """Whether the resource ``key`` is registered as a constraint
        (registrations last; a drained one holds no flow)."""
        return key in self._cons

    def mark_dirty(self, key) -> None:
        """Force re-solving of the component around constraint ``key``."""
        record = self._cons.get(key)
        if record is not None:
            self._dirty_cons[record] = None

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

    def solve_dirty(self) -> None:
        """Re-solve every component holding a dirty flow or constraint.

        Flows outside those components keep their previous rate (which is
        still the exact max-min solution for their untouched component).
        Components are solved in the ``seq`` order of the first dirty
        flow, or flow of a dirty constraint, each holds.  Sets :attr:`last_components` /
        :attr:`last_flows_solved` / :attr:`last_rate_changed` /
        :attr:`last_fill_rounds`.  Also resets the constraints whose flow
        set drained since the last solve, so solver memory stays bounded
        by the resources ever used, however much activity churns.
        """
        self.last_components = 0
        self.last_flows_solved = 0
        self.last_usage = []
        self.last_rate_changed = {}
        self.last_fill_rounds = 0
        if self._stale:
            for record in self._stale:
                record.wsum = _weight_sum(record.members)
            self._stale.clear()
        if self._dirty_cons or self._dirty_flows:
            comps = self._dirty_components()
            for comp in comps:
                members = list(comp.members)
                self._solve_component(members, comp.cons)
                self.last_components += 1
                self.last_flows_solved += len(members)
        if self._released:
            self._settle_released()

    def _dirty_components(self) -> list:
        """The components to solve, in the order of their first seed, and
        the dirty sets cleared.

        A seed is a dirty flow or a flow of a dirty constraint.  A shared
        constraint's first member is its lowest-``seq`` flow, and all its
        flows share one component when it couples them.
        """
        flows = self._flows
        seeds = [flows[key] for key in self._dirty_flows]
        for record in self._dirty_cons:
            if record.shared:
                seeds += islice(record.members, 1)
            else:
                seeds += [flows[key] for key in record.flows]
        self._dirty_cons.clear()
        self._dirty_flows.clear()
        seeds.sort(key=_by_seq)
        return list(dict.fromkeys([flow.comp for flow in seeds]))

    def _settle_released(self) -> None:
        """Close the records departures left behind.

        With :attr:`track_usage` on, a released record still ``touched``
        (no component solve summed it) is summed again: a drained one
        falls to its idle 0, a FATPIPE one drops to the flows it has left.
        This is the one place a constraint falls idle, shared or FATPIPE
        alike.  A record still empty stays registered, reset as a fresh
        one, so the next flow over it needs no :meth:`ensure_constraint`.
        Its flow set is a new one, since :meth:`_usage_of` sums in set
        order and a set that held more keys may iterate in another.
        """
        track = self._track_usage
        for record in self._released:
            if track and record.touched:
                record.touched = False
                record.usage = usage = self._usage_of(record)
                self.last_usage.append((record, usage))
            if not record.flows:
                record.__init__(record.key, record.name, record.capacity,
                                record.shared, record.kind)
        self._released.clear()

    def _merge(self, comps: list) -> _Component:
        """Merge ``comps`` into the largest of them, which is returned."""
        comp = max(comps, key=lambda c: len(c.members))
        members = list(comp.members)
        cons = comp.cons
        for other in comps:
            if other is comp:
                continue
            for flow in other.members:
                flow.comp = comp
            members += other.members
            for record in other.cons:
                record.pos = len(cons)
                cons.append(record)
        members.sort(key=_by_seq)
        comp.members = dict.fromkeys(members)
        return comp

    def _rewalk(self, comps: list) -> None:
        """Walk the flows of ``comps`` again into connected components,
        each keeping its members in ``seq`` order."""
        seen: set = set()  # records, which hash by identity
        for old in comps:
            for seed in old.members:
                if seed in seen:
                    continue
                comp = _Component()
                members = []
                cons = comp.cons
                seen.add(seed)
                stack = [seed]
                while stack:
                    flow = stack.pop()
                    flow.comp = comp
                    members.append(flow)
                    for record in flow.crossed:
                        if record in seen:
                            continue
                        seen.add(record)
                        record.pos = len(cons)
                        cons.append(record)
                        for other in record.members:
                            if other not in seen:
                                seen.add(other)
                                stack.append(other)
                members.sort(key=_by_seq)
                comp.members = dict.fromkeys(members)

    def _repolicy(self, record: _IncConstraint) -> None:
        """Re-couple the flows of a constraint whose policy changed."""
        flows = sorted((self._flows[key] for key in record.flows),
                       key=_by_seq)
        record.members = members = {}
        if record.shared:
            for flow in flows:
                members[flow] = flow.cons.count(record)
        record.wsum = _weight_sum(members)
        record.coupled = record.shared and _couples(record)
        for flow in flows:
            _refresh_inputs(flow)
        self._rewalk(list(dict.fromkeys(flow.comp for flow in flows)))

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
            flow.fill = rate
        else:
            self._fills += 1
            self.last_fill_rounds += _progressive_fill(members, cons,
                                                       self._fills)
        self._store_rates(members)
        if self._track_usage:
            self._update_usage(members)

    def _store_rates(self, members: list) -> None:
        """Record the rates the last fill gave ``members``, tracking which
        ones changed value."""
        changed = self.last_rate_changed
        track = self._track_usage
        for flow in members:
            rate = flow.fill
            if flow.rate != rate:  # a never-solved flow's NaN always differs
                changed[flow.key] = rate
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
