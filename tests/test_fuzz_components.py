"""Persistent max-min components against the walk-per-solve oracle.

:class:`~repro.surf.maxmin.IncrementalMaxMin` keeps its connected
components, their coupling constraints and the filling kernel's inputs
alive between solves, and updates them in place on every arrival,
departure, capacity and policy change.  :class:`tests.oracles.WalkMaxMin`
walks every dirty component again and rebuilds the inputs at each solve.
These tests drive both through the same random sequences — arrivals that
merge components, departures that split them, 1↔2-flow fold changes,
capacity changes to and from zero, policy flips, FATPIPE links and flows
crossing one constraint twice — and compare after every
:meth:`solve_dirty` the re-solved flows (:func:`solved_flows`), every
rate (as ``float.hex``), ``last_rate_changed``, ``last_components``,
``last_flows_solved``, ``last_fill_rounds``, ``last_usage`` (order and
values) and error messages.  They also check the kept state itself against a fresh
computation after every step.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.surf.maxmin import IncrementalMaxMin, _couples, _refresh_inputs
from tests.oracles import WalkMaxMin, solved_flows

N_CONS = 6
#: capacities at registration; constraint 5 starts as FATPIPE
CAPACITIES = [100.0, 100.0 + 1e-12, 50.0, 0.0, 300.0, 75.0]
FATPIPE_AT_START = {5}

capacity = st.one_of(st.sampled_from([0.0, 25.0, 50.0, 100.0, 100.0 + 1e-12]),
                     st.floats(0.5, 1000.0))
op = st.one_of(
    # constraints may repeat (a flow crossing one constraint twice) or be
    # absent (a flow bounded by nothing but its own bound)
    st.tuples(st.just("add"),
              st.lists(st.integers(0, N_CONS - 1), max_size=4),
              st.sampled_from([math.inf, math.inf, 0.0, 25.0, 50.0]),
              st.sampled_from([1.0, 1.0, 0.5, 2.0, 3.0])),
    st.tuples(st.just("remove"), st.integers(0, 1 << 16)),
    st.tuples(st.just("capacity"), st.integers(0, N_CONS - 1), capacity),
    st.tuples(st.just("policy"), st.integers(0, N_CONS - 1)),
    st.tuples(st.just("mark"), st.integers(0, N_CONS - 1)),
    st.tuples(st.just("track"), st.booleans()),
    st.just(("solve",)),
)


class _Pair:
    """The canonical solver and the oracle, driven in lockstep."""

    def __init__(self) -> None:
        self.solvers = (IncrementalMaxMin(), WalkMaxMin())
        self.capacity = list(CAPACITIES)
        self.shared = [cid not in FATPIPE_AT_START for cid in range(N_CONS)]
        self.live: list[int] = []
        self.next_key = 0

    def ensure(self, cid: int) -> None:
        for solver in self.solvers:
            solver.ensure_constraint(cid, self.capacity[cid],
                                     shared=self.shared[cid], name=f"c{cid}")

    def apply(self, item) -> bool:
        """Apply one operation; False once a solve raised (same message
        from both, checked)."""
        kind = item[0]
        if kind == "add":
            _, cids, bound, weight = item
            if not cids and math.isinf(bound):
                bound = 10.0  # an unbounded flow is refused at solve time
            for cid in cids:  # drained constraints were collected
                self.ensure(cid)
            key = self.next_key
            self.next_key += 1
            for solver in self.solvers:
                solver.add_flow(key, cids, bound=bound, weight=weight)
            self.live.append(key)
        elif kind == "remove" and self.live:
            key = self.live.pop(item[1] % len(self.live))
            for solver in self.solvers:
                solver.remove_flow(key)
        elif kind == "capacity":
            self.capacity[item[1]] = item[2]
            self.ensure(item[1])
        elif kind == "policy":
            self.shared[item[1]] = not self.shared[item[1]]
            self.ensure(item[1])
        elif kind == "mark":
            for solver in self.solvers:
                solver.mark_dirty(item[1])
        elif kind == "track":
            for solver in self.solvers:
                solver.track_usage = item[1]
        elif kind == "solve":
            return self.solve()
        _check_kept_state(self.solvers[0])
        return True

    def solve(self) -> bool:
        views = [_solve_view(solver) for solver in self.solvers]
        assert views[0] == views[1]
        _check_kept_state(self.solvers[0])
        return not isinstance(views[0], str)


def _solve_view(solver) -> tuple | str:
    """Everything one solve exposes, bit for bit, or its error message."""
    try:
        solved = solved_flows(solver)
    except SimulationError as exc:
        return str(exc)
    return (
        sorted(solved),
        {key: flow.rate.hex() for key, flow in solver._flows.items()},
        [(key, rate.hex()) for key, rate in solver.last_rate_changed.items()],
        solver.last_components, solver.last_flows_solved,
        solver.last_fill_rounds,
        [(record.key, usage.hex()) for record, usage in solver.last_usage],
    )


def _check_kept_state(solver: IncrementalMaxMin) -> None:
    """The kept components and kernel inputs equal a fresh computation:
    the components are the connected components of the coupling
    constraints, members in ``seq`` order; each shared constraint lists
    its flows in ``seq`` order with their weight sum; each flow's cap,
    solo level and crossed constraints are what its records give."""
    flows = list(solver._flows.values())
    for record in solver._cons.values():
        if not record.shared:
            assert not record.coupled
            continue
        expected = {}
        for flow in flows:
            times = sum(crossed is record for crossed in flow.cons)
            if times:
                expected[flow] = times
        assert list(record.members.items()) == list(expected.items())
        total = 0.0
        for flow, times in expected.items():
            for _ in range(times):
                total += flow.weight
        if record not in solver._stale:
            assert record.wsum.hex() == total.hex()
        assert record.coupled == (bool(record.flows) and _couples(record))
    for flow in flows:
        kept = (flow.cap, flow.solo, list(flow.crossed))
        _refresh_inputs(flow)
        assert kept == (flow.cap, flow.solo, flow.crossed)
    # connected components of the flows through coupling constraints
    label = {flow: flow for flow in flows}

    def find(flow):
        while label[flow] is not flow:
            flow = label[flow]
        return flow

    for record in solver._cons.values():
        if record.coupled:
            root = find(next(iter(record.members)))
            for flow in record.members:
                label[find(flow)] = root
    groups: dict = {}
    for flow in flows:
        groups.setdefault(find(flow), []).append(flow)
    comps = {id(flow.comp): flow.comp for flow in flows}
    assert sorted(len(g) for g in groups.values()) == \
        sorted(len(c.members) for c in comps.values())
    for members in groups.values():
        comp = members[0].comp
        assert list(comp.members) == members  # same flows, in seq order
        coupling = {id(r) for flow in members for r in flow.cons if r.coupled}
        assert {id(r) for r in comp.cons} == coupling
        assert len(comp.cons) == len(coupling)
        assert all(comp.cons[r.pos] is r for r in comp.cons)


def _drive(items) -> None:
    pair = _Pair()
    for item in items:
        if not pair.apply(item):
            return
    pair.solve()


@given(st.lists(op, min_size=1, max_size=30))
@example([  # two components merged by one arrival, split by its departure
    ("add", [0], math.inf, 1.0), ("add", [0], math.inf, 1.0),
    ("add", [2], math.inf, 1.0), ("add", [2], math.inf, 1.0), ("solve",),
    ("add", [0, 2], math.inf, 2.0), ("solve",),
    ("remove", 4), ("solve",),
])
@example([  # a fold moving 1 -> 2 and 2 -> 1 on a constraint, then
    # a flow crossing one constraint twice
    ("add", [0, 4], math.inf, 1.0), ("solve",),
    ("add", [4], 50.0, 1.0), ("solve",), ("remove", 1), ("solve",),
    ("add", [2, 2, 4], math.inf, 1.0), ("solve",),
])
@example([  # FATPIPE flips to shared and back under tracking, at zero
    # capacity, with flows of different components on it
    ("track", True), ("add", [5, 0], math.inf, 1.0),
    ("add", [5, 2], math.inf, 1.0), ("solve",),
    ("policy", 5), ("solve",), ("capacity", 5, 0.0), ("solve",),
    ("policy", 5), ("solve",), ("remove", 0), ("solve",),
])
@example([  # departures whose component stays whole through a hub
    ("add", [0, 4, 1], math.inf, 1.0), ("add", [1, 4, 2], math.inf, 1.0),
    ("add", [2, 4, 0], 25.0, 1.0), ("add", [3], 10.0, 1.0), ("solve",),
    ("remove", 1), ("solve",), ("remove", 0), ("solve",),
])
@example([  # capacity changes of a folded and of a FATPIPE constraint in
    # a two-flow component: the solo level and the cap read them
    ("add", [0, 4], math.inf, 1.0), ("add", [4, 5], math.inf, 1.0),
    ("solve",), ("capacity", 0, 10.0), ("solve",), ("capacity", 5, 20.0),
    ("solve",),
])
@settings(max_examples=300, deadline=None)
def test_persistent_components_match_walk_oracle(items):
    _drive(items)
