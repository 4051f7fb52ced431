"""Unit + property tests for the max-min fairness solver."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.surf.maxmin import IncrementalMaxMin, _progressive_fill
from tests.oracles import (
    MaxMinSystem,
    _progressive_fill_arrays,
    _progressive_fill_scalar,
    solved_flows,
    solve_maxmin,
    solve_maxmin_reference,
    solve_maxmin_vectorized,
)


def make_system(capacities, flows):
    """flows: list of (constraint_ids, bound, weight)."""
    system = MaxMinSystem()
    for i, cap in enumerate(capacities):
        system.add_constraint(f"c{i}", cap)
    for i, (cids, bound, weight) in enumerate(flows):
        system.add_flow(f"f{i}", cids, bound=bound, weight=weight)
    return system


class TestBasics:
    def test_empty_system(self):
        assert solve_maxmin(MaxMinSystem()).size == 0

    def test_single_flow_gets_capacity(self):
        system = make_system([100.0], [((0,), math.inf, 1.0)])
        assert solve_maxmin_reference(system) == pytest.approx([100.0])

    def test_two_flows_split_evenly(self):
        system = make_system([100.0], [((0,), math.inf, 1.0)] * 2)
        assert solve_maxmin_reference(system) == pytest.approx([50.0, 50.0])

    def test_bound_redistributes(self):
        system = make_system(
            [100.0], [((0,), 10.0, 1.0), ((0,), math.inf, 1.0)]
        )
        assert solve_maxmin_reference(system) == pytest.approx([10.0, 90.0])

    def test_bound_above_share_is_inactive(self):
        system = make_system(
            [100.0], [((0,), 80.0, 1.0), ((0,), math.inf, 1.0)]
        )
        assert solve_maxmin_reference(system) == pytest.approx([50.0, 50.0])

    def test_weighted_flow_gets_smaller_share(self):
        # weight 2 consumes twice per rate unit: rates (a, b) with
        # 2a + b = 100 and max-min level a = b/..: progressive filling
        # grows both at the same *rate*, so saturation at 2x + x = 100.
        system = make_system(
            [100.0], [((0,), math.inf, 2.0), ((0,), math.inf, 1.0)]
        )
        rates = solve_maxmin_reference(system)
        assert rates == pytest.approx([100.0 / 3] * 2)

    def test_multi_link_bottleneck(self):
        # flow 0 crosses both links; flow 1 only the second (larger) one
        system = make_system(
            [10.0, 100.0],
            [((0, 1), math.inf, 1.0), ((1,), math.inf, 1.0)],
        )
        rates = solve_maxmin_reference(system)
        assert rates[0] == pytest.approx(10.0)
        assert rates[1] == pytest.approx(90.0)

    def test_fatpipe_caps_individually(self):
        system = MaxMinSystem()
        cid = system.add_constraint("fat", 50.0, shared=False)
        system.add_flow("a", (cid,))
        system.add_flow("b", (cid,))
        rates = solve_maxmin_reference(system)
        assert rates == pytest.approx([50.0, 50.0])  # no sharing

    def test_flow_without_constraints_needs_bound(self):
        system = MaxMinSystem()
        system.add_flow("free", (), bound=42.0)
        assert solve_maxmin_reference(system) == pytest.approx([42.0])

    def test_unbounded_free_flow_raises(self):
        system = MaxMinSystem()
        system.add_flow("free", ())
        with pytest.raises(SimulationError):
            solve_maxmin_reference(system)
        system2 = MaxMinSystem()
        system2.add_flow("free", ())
        with pytest.raises(SimulationError):
            solve_maxmin_vectorized(system2)

    def test_zero_capacity_gives_zero_rate(self):
        system = make_system([0.0], [((0,), math.inf, 1.0)])
        assert solve_maxmin_reference(system) == pytest.approx([0.0])

    def test_zero_bound_flow(self):
        system = make_system(
            [100.0], [((0,), 0.0, 1.0), ((0,), math.inf, 1.0)]
        )
        assert solve_maxmin_reference(system) == pytest.approx([0.0, 100.0])

    def test_validation_rejects_bad_flow(self):
        system = MaxMinSystem()
        system.add_constraint("c", 1.0)
        with pytest.raises(SimulationError):
            system.add_flow("f", (3,))
        with pytest.raises(SimulationError):
            system.add_flow("f", (0,), weight=0.0)
        with pytest.raises(SimulationError):
            system.add_flow("f", (0,), bound=-1.0)
        with pytest.raises(SimulationError):
            MaxMinSystem().add_constraint("c", -1.0)

    def test_dispatch_matches_both_solvers(self):
        system = make_system(
            [50.0, 80.0],
            [((0,), math.inf, 1.0), ((0, 1), 30.0, 1.0), ((1,), math.inf, 2.0)],
        )
        via_dispatch = solve_maxmin(system)
        assert via_dispatch == pytest.approx(solve_maxmin_reference(system))


# -- property-based cross-validation --------------------------------------------------


@st.composite
def random_system(draw):
    n_cons = draw(st.integers(1, 6))
    n_flows = draw(st.integers(1, 12))
    capacities = [draw(st.floats(0.5, 1000.0)) for _ in range(n_cons)]
    system = MaxMinSystem()
    for i, cap in enumerate(capacities):
        shared = draw(st.booleans()) if i % 3 == 2 else True
        system.add_constraint(f"c{i}", cap, shared=shared)
    for i in range(n_flows):
        k = draw(st.integers(1, n_cons))
        cids = tuple(sorted(draw(
            st.lists(st.integers(0, n_cons - 1), min_size=k, max_size=k,
                     unique=True)
        )))
        bound = draw(st.one_of(st.just(math.inf), st.floats(0.1, 500.0)))
        weight = draw(st.floats(0.5, 4.0))
        system.add_flow(f"f{i}", cids, bound=bound, weight=weight)
    return system


@given(random_system())
@settings(max_examples=120, deadline=None)
def test_solvers_agree(system):
    """Reference and vectorised solvers find the same fixed point."""
    ref = solve_maxmin_reference(system)
    vec = solve_maxmin_vectorized(system)
    np.testing.assert_allclose(ref, vec, rtol=1e-9, atol=1e-9)


@given(random_system())
@settings(max_examples=120, deadline=None)
def test_solution_is_feasible(system):
    """No shared constraint is oversubscribed; all bounds respected."""
    rates = solve_maxmin_reference(system)
    assert (rates >= -1e-9).all()
    for flow, rate in zip(system.flows, rates):
        assert rate <= flow.bound * (1 + 1e-9)
    for cid, constraint in enumerate(system.constraints):
        if not constraint.shared:
            continue
        used = sum(
            rate * flow.weight
            for flow, rate in zip(system.flows, rates)
            if cid in flow.constraints
        )
        assert used <= constraint.capacity * (1 + 1e-6) + 1e-9


@given(random_system())
@settings(max_examples=60, deadline=None)
def test_solution_is_maximal(system):
    """Max-min property: every flow is blocked by a bound or a saturated
    constraint (no flow could be increased unilaterally)."""
    rates = solve_maxmin_reference(system)
    usage = {}
    for flow, rate in zip(system.flows, rates):
        for cid in flow.constraints:
            usage[cid] = usage.get(cid, 0.0) + rate * flow.weight
    for flow, rate in zip(system.flows, rates):
        if rate >= flow.bound * (1 - 1e-9):
            continue  # blocked by its own bound
        blocked = False
        for cid in flow.constraints:
            constraint = system.constraints[cid]
            if constraint.shared:
                if usage.get(cid, 0.0) >= constraint.capacity * (1 - 1e-6) - 1e-9:
                    blocked = True
            elif rate * flow.weight >= constraint.capacity * (1 - 1e-9):
                blocked = True
        assert blocked, f"flow {flow.name} could still grow"


@given(st.integers(2, 40), st.floats(1.0, 1e6))
@settings(max_examples=40, deadline=None)
def test_equal_flows_share_equally(n, capacity):
    """n identical flows on one link each get capacity/n."""
    system = make_system([capacity], [((0,), math.inf, 1.0)] * n)
    rates = solve_maxmin_vectorized(system)
    np.testing.assert_allclose(rates, capacity / n, rtol=1e-9)


# -- incremental solver ---------------------------------------------------------------


class TestIncrementalMaxMin:
    """Unit behaviour of the persistent dirty-set solver."""

    def _solver(self):
        from repro.surf.maxmin import IncrementalMaxMin

        return IncrementalMaxMin()

    def test_single_flow_gets_capacity(self):
        inc = self._solver()
        inc.ensure_constraint("c0", 100.0)
        inc.add_flow("f0", ["c0"])
        assert solved_flows(inc) == {"f0"}
        assert inc.rate("f0") == pytest.approx(100.0)

    def test_first_rate_of_a_new_flow_counts_as_changed(self):
        """Before its first solve a flow has no rate (``KeyError``); its
        first solved rate is reported as changed, even when it is 0."""
        inc = self._solver()
        inc.ensure_constraint("c", 0.0)
        inc.add_flow("f", ["c"])
        with pytest.raises(KeyError):
            inc.rate("f")
        inc.solve_dirty()
        assert inc.rate("f") == 0.0
        assert inc.last_rate_changed == {"f": 0.0}

    def test_constraint_crossed_twice_counts_twice_alone_or_not(self):
        """A flow crossing ``c`` twice counts twice in ``c``'s fair share,
        as the kernel counts it, whether or not anything shares its
        component."""
        inc = self._solver()
        inc.ensure_constraint("c", 100.0)
        inc.ensure_constraint("d", 1000.0)
        inc.add_flow("f", ["c", "c", "d"])
        inc.solve_dirty()
        assert inc.last_flows_solved == 1
        assert inc.rate("f") == 50.0
        inc.add_flow("g", ["d"])
        inc.solve_dirty()
        assert inc.last_flows_solved == 2
        assert (inc.rate("f"), inc.rate("g")) == (50.0, 950.0)
        inc.remove_flow("g")
        inc.solve_dirty()
        assert inc.rate("f") == 50.0

    def test_arrival_only_resolves_its_component(self):
        inc = self._solver()
        inc.ensure_constraint("c0", 100.0)
        inc.ensure_constraint("c1", 60.0)
        inc.add_flow("f0", ["c0"])
        inc.add_flow("f1", ["c1"])
        inc.solve_dirty()
        # a new flow on c1 must not re-solve the c0 component
        inc.add_flow("f2", ["c1"])
        solved = solved_flows(inc)
        assert solved == {"f1", "f2"}
        assert inc.last_components == 1
        assert inc.rate("f0") == pytest.approx(100.0)
        assert inc.rate("f1") == pytest.approx(30.0)
        assert inc.rate("f2") == pytest.approx(30.0)

    def test_departure_redistributes_to_neighbours(self):
        inc = self._solver()
        inc.ensure_constraint("c0", 100.0)
        inc.add_flow("f0", ["c0"])
        inc.add_flow("f1", ["c0"])
        inc.solve_dirty()
        assert inc.rate("f0") == pytest.approx(50.0)
        inc.remove_flow("f1")
        assert solved_flows(inc) == {"f0"}
        assert inc.rate("f0") == pytest.approx(100.0)
        assert "f1" not in inc

    def test_nothing_dirty_solves_nothing(self):
        inc = self._solver()
        inc.ensure_constraint("c0", 100.0)
        inc.add_flow("f0", ["c0"])
        inc.solve_dirty()
        assert solved_flows(inc) == set()
        assert inc.last_components == 0

    def test_capacity_update_marks_dirty(self):
        inc = self._solver()
        inc.ensure_constraint("c0", 100.0)
        inc.add_flow("f0", ["c0"])
        inc.solve_dirty()
        inc.ensure_constraint("c0", 40.0)
        assert solved_flows(inc) == {"f0"}
        assert inc.rate("f0") == pytest.approx(40.0)

    def test_fatpipe_does_not_couple_components(self):
        inc = self._solver()
        inc.ensure_constraint("pipe", 100.0, shared=False)
        inc.ensure_constraint("c0", 80.0)
        inc.ensure_constraint("c1", 60.0)
        inc.add_flow("f0", ["c0", "pipe"])
        inc.add_flow("f1", ["c1", "pipe"])
        inc.solve_dirty()
        # the FATPIPE caps each flow individually but must not merge the
        # c0 and c1 components: a change on c1 leaves f0 untouched
        inc.ensure_constraint("c1", 30.0)
        assert solved_flows(inc) == {"f1"}
        assert inc.rate("f0") == pytest.approx(80.0)
        assert inc.rate("f1") == pytest.approx(30.0)

    def test_usage_is_summed_again_only_where_load_changed(self):
        """With tracking on, a solve re-sums and reports a constraint only
        when a flow left it, its capacity changed or a flow crossing it
        changed rate; every other usage is still exact."""
        inc = self._solver()
        inc.track_usage = True
        inc.ensure_constraint("pipe", 100.0, shared=False)
        for key, capacity in (("a", 30.0), ("b", 50.0), ("c", 80.0)):
            inc.ensure_constraint(key, capacity)
        inc.add_flow("x", ["a", "pipe"])
        inc.add_flow("y", ["b", "c", "pipe"])

        def reported():
            inc.solve_dirty()
            return {record.key: usage for record, usage in inc.last_usage}

        assert reported() == {"a": 30.0, "pipe": 80.0, "b": 50.0, "c": 50.0}
        inc.ensure_constraint("c", 90.0)  # y stays bottlenecked on b
        assert reported() == {"c": 50.0}
        assert inc.rate("y") == 50.0
        # x leaves: a drains and is collected, and the FATPIPE pipe drops
        # to y's share at once, although no solve reaches y's component
        inc.remove_flow("x")
        assert reported() == {"a": 0.0, "pipe": 50.0}
        inc.mark_dirty("b")
        assert reported() == {}  # y keeps its rate: no load changed
        assert [inc.usage(key) for key in ("pipe", "b", "c")] == [50.0] * 3

    def test_tracking_switched_back_on_sums_everything_again(self):
        """Rate changes are not tracked while usage tracking is off, so
        turning it back on re-sums every constraint at the next solve."""
        inc = self._solver()
        inc.track_usage = True
        inc.ensure_constraint("a", 30.0)
        inc.ensure_constraint("b", 50.0)
        inc.add_flow("x", ["a", "b"])
        inc.solve_dirty()
        inc.track_usage = False
        inc.add_flow("y", ["b"])
        inc.solve_dirty()  # x: 30 -> 25
        inc.track_usage = True
        inc.mark_dirty("b")
        inc.solve_dirty()
        assert {r.key: u for r, u in inc.last_usage} == {"a": 25.0, "b": 50.0}
        assert inc.usage("a") == 25.0

    def test_transitive_component_is_resolved_together(self):
        inc = self._solver()
        inc.ensure_constraint("c0", 100.0)
        inc.ensure_constraint("c1", 100.0)
        inc.add_flow("f0", ["c0"])
        inc.add_flow("bridge", ["c0", "c1"])
        inc.add_flow("f1", ["c1"])
        inc.solve_dirty()
        inc.ensure_constraint("c0", 10.0)
        # the chain c0 -bridge- c1 is one component
        assert solved_flows(inc) == {"f0", "bridge", "f1"}

    def test_bound_and_weight_respected(self):
        inc = self._solver()
        inc.ensure_constraint("c0", 100.0)
        inc.add_flow("f0", ["c0"], bound=10.0)
        inc.add_flow("f1", ["c0"], weight=2.0)
        inc.solve_dirty()
        assert inc.rate("f0") == pytest.approx(10.0)
        assert inc.rate("f1") == pytest.approx(45.0)

    def test_unknown_constraint_rejected(self):
        inc = self._solver()
        with pytest.raises(SimulationError):
            inc.add_flow("f0", ["nope"])

    def test_unconstrained_unbounded_flow_raises(self):
        inc = self._solver()
        inc.add_flow("free", [])
        with pytest.raises(SimulationError):
            inc.solve_dirty()

    def test_duplicate_flow_rejected(self):
        inc = self._solver()
        inc.ensure_constraint("c0", 100.0)
        inc.add_flow("f0", ["c0"])
        with pytest.raises(SimulationError):
            inc.add_flow("f0", ["c0"])

    def test_validation(self):
        inc = self._solver()
        inc.ensure_constraint("c0", 100.0)
        with pytest.raises(SimulationError):
            inc.add_flow("f0", ["c0"], weight=0.0)
        with pytest.raises(SimulationError):
            inc.add_flow("f0", ["c0"], bound=-1.0)
        with pytest.raises(SimulationError):
            inc.ensure_constraint("neg", -5.0)

    def test_first_registration_rejects_bad_capacity(self):
        inc = self._solver()
        for capacity in (-1.0, math.nan):
            with pytest.raises(SimulationError, match="'bad'"):
                inc.ensure_constraint("bad", capacity)
            assert not inc.has_constraint("bad")

    def test_capacity_update_rejects_bad_capacity(self):
        inc = self._solver()
        inc.ensure_constraint("c", 10.0)
        inc.add_flow("f0", ["c"])
        inc.add_flow("f1", ["c"])
        inc.solve_dirty()
        for capacity in (-6.0, math.nan):
            with pytest.raises(SimulationError, match="'c'"):
                inc.ensure_constraint("c", capacity)
        # the rejected updates left the constraint and the rates alone
        assert solved_flows(inc) == set()
        assert inc.rate("f0") == inc.rate("f1") == 5.0

    def test_unknown_sharing_mode_rejected(self):
        """Every share is exact max-min: the removed ``sharing`` keyword is
        refused wherever it used to be accepted, never silently ignored."""
        from repro.smpi import SmpiConfig
        from repro.surf import Engine, cluster
        from repro.surf.maxmin import IncrementalMaxMin

        for make in (lambda: IncrementalMaxMin(sharing="approx"),
                     lambda: Engine(cluster("usm", 2), sharing="approx"),
                     lambda: SmpiConfig(sharing="approx")):
            with pytest.raises(TypeError, match="sharing"):
                make()

    def test_double_remove_raises_named_error(self):
        from repro.errors import UnknownFlowError

        inc = self._solver()
        inc.ensure_constraint("c0", 100.0)
        inc.add_flow("f0", ["c0"])
        inc.remove_flow("f0")
        with pytest.raises(UnknownFlowError) as exc:
            inc.remove_flow("f0")
        assert exc.value.key == "f0"
        assert "f0" in str(exc.value)
        # UnknownFlowError is a SimulationError, so existing broad handlers
        # keep working
        assert isinstance(exc.value, SimulationError)

    def test_remove_flow_idempotent_when_not_strict(self):
        inc = self._solver()
        inc.ensure_constraint("c0", 100.0)
        inc.add_flow("f0", ["c0"])
        inc.remove_flow("f0", strict=False)
        inc.remove_flow("f0", strict=False)  # no-op, no error
        inc.remove_flow("never-added", strict=False)
        assert solved_flows(inc) == set()

    def test_drained_constraints_stay_registered_and_empty(self):
        inc = self._solver()
        inc.track_usage = True
        inc.ensure_constraint("c0", 100.0)
        inc.ensure_constraint("c1", 50.0, shared=False)
        inc.add_flow("f0", ["c0", "c1"])
        inc.solve_dirty()
        assert inc.usage("c0") == 50.0
        flow_sets = {key: inc._cons[key].flows for key in ("c0", "c1")}
        inc.remove_flow("f0")
        inc.solve_dirty()
        # both drained with the flow: kept, and reset as fresh ones
        assert len(inc._cons) == 2
        for key in ("c0", "c1"):
            record = inc._cons[key]
            assert inc.has_constraint(key)
            assert record.flows == set() and record.members == {}
            # a new set: _usage_of sums in set order
            assert record.flows is not flow_sets[key]
            assert record.wsum == 0.0 and record.touched
            assert inc.usage(key) == 0.0
        # the next flow over them needs no registration
        inc.add_flow("f1", ["c0", "c1"])
        inc.solve_dirty()
        assert inc.rate("f1") == 50.0
        assert inc.usage("c0") == 50.0

    def test_gc_spares_repopulated_and_updated_constraints(self):
        inc = self._solver()
        inc.ensure_constraint("c0", 100.0)
        inc.add_flow("f0", ["c0"])
        inc.solve_dirty()
        inc.remove_flow("f0")
        # repopulated before the solve: the constraint must survive
        inc.add_flow("f1", ["c0"])
        inc.solve_dirty()
        assert inc.has_constraint("c0")
        assert inc.rate("f1") == pytest.approx(100.0)

    def test_reregistration_after_gc(self):
        inc = self._solver()
        inc.ensure_constraint("c0", 100.0)
        inc.add_flow("f0", ["c0"])
        inc.solve_dirty()
        inc.remove_flow("f0")
        inc.solve_dirty()  # drains c0: kept, emptied
        # re-registering updates the kept record's capacity
        inc.ensure_constraint("c0", 80.0)
        inc.add_flow("f1", ["c0"])
        inc.solve_dirty()
        assert inc.rate("f1") == pytest.approx(80.0)

    def test_solver_memory_bounded_under_churn(self):
        """Constraint and flow records must stay flat across repeated
        enroll/retire cycles: no long-run leak under churn."""
        inc = self._solver()
        sizes = []
        for cycle in range(12):
            for c in range(4):
                inc.ensure_constraint(c, 100.0 + c)
            for f in range(8):
                inc.add_flow((cycle, f), [f % 4, (f + 1) % 4])
            inc.solve_dirty()
            for f in range(8):
                inc.remove_flow((cycle, f))
            inc.solve_dirty()
            sizes.append((len(inc._cons), len(inc._flows)))
        assert len(set(sizes)) == 1  # flat from the first cycle on


class TestPersistentComponents:
    """Arrivals and departures update the kept components in place."""

    @staticmethod
    def _comp_keys(inc, key):
        return [flow.key for flow in inc._flows[key].comp.members]

    def test_fold_moves_one_to_two_and_back(self):
        """A constraint reaching a second flow couples it (the first flow
        stops folding it into its solo level); losing that flow folds it
        back, and the rates follow both ways."""
        inc = IncrementalMaxMin()
        inc.ensure_constraint("a", 100.0)
        inc.ensure_constraint("b", 30.0)
        inc.add_flow("f", ["a", "b"])
        inc.solve_dirty()
        f = inc._flows["f"]
        a = inc._cons["a"]
        assert not a.coupled and f.solo == 30.0 and f.crossed == []
        assert inc.rate("f") == 30.0
        inc.add_flow("g", ["a"])  # 1 -> 2
        inc.solve_dirty()
        assert a.coupled and f.crossed == [a] and f.solo == 30.0
        assert list(a.members) == [f, inc._flows["g"]] and a.wsum == 2.0
        assert self._comp_keys(inc, "f") == ["f", "g"]
        assert (inc.rate("f"), inc.rate("g")) == (30.0, 70.0)
        inc.ensure_constraint("b", 300.0)  # b is f's alone: solo level moves
        inc.solve_dirty()
        assert f.solo == 300.0
        assert (inc.rate("f"), inc.rate("g")) == (50.0, 50.0)
        inc.remove_flow("g")  # 2 -> 1
        inc.solve_dirty()
        assert not a.coupled and f.crossed == [] and f.solo == 100.0
        assert list(a.members) == [f] and a.wsum == 1.0
        assert inc.rate("f") == 100.0

    def test_one_arrival_merges_two_components(self):
        inc = IncrementalMaxMin()
        inc.ensure_constraint("a", 100.0)
        inc.ensure_constraint("b", 60.0)
        for key, cons in (("f0", ["a"]), ("f1", ["a"]), ("g0", ["b"]),
                          ("g1", ["b"])):
            inc.add_flow(key, cons)
        inc.solve_dirty()
        assert inc.last_components == 2
        assert self._comp_keys(inc, "f0") == ["f0", "f1"]
        inc.add_flow("bridge", ["a", "b"])
        assert solved_flows(inc) == {"f0", "f1", "g0", "g1", "bridge"}
        assert inc.last_components == 1
        comp = inc._flows["f0"].comp
        assert all(inc._flows[key].comp is comp for key in inc._flows)
        assert self._comp_keys(inc, "g1") == ["f0", "f1", "g0", "g1", "bridge"]
        assert sorted(r.key for r in comp.cons) == ["a", "b"]
        assert inc.rate("bridge") == 20.0

    def test_one_departure_splits_a_component(self):
        """The departed flow was the only link between two groups: its
        component is walked again into two, each solved on its own."""
        inc = IncrementalMaxMin()
        inc.ensure_constraint("a", 100.0)
        inc.ensure_constraint("b", 60.0)
        for key, cons in (("f0", ["a"]), ("bridge", ["a", "b"]),
                          ("f1", ["a"]), ("g0", ["b"]), ("g1", ["b"])):
            inc.add_flow(key, cons)
        inc.solve_dirty()
        assert inc.last_components == 1
        inc.remove_flow("bridge")
        assert inc._flows["f0"].comp is not inc._flows["g0"].comp
        assert self._comp_keys(inc, "f1") == ["f0", "f1"]
        assert self._comp_keys(inc, "g0") == ["g0", "g1"]
        assert solved_flows(inc) == {"f0", "f1", "g0", "g1"}
        assert inc.last_components == 2
        assert [inc.rate(k) for k in ("f0", "f1", "g0", "g1")] == \
            [50.0, 50.0, 30.0, 30.0]

    def test_departure_through_a_hub_keeps_the_component(self, monkeypatch):
        """Every flow left on the departed flow's constraints crosses the
        shared hub: the component stays whole without a walk."""
        walks = []
        monkeypatch.setattr(IncrementalMaxMin, "_rewalk",
                            lambda self, comps: walks.append(comps))
        inc = IncrementalMaxMin()
        for key, cap in (("hub", 90.0), ("a", 100.0), ("b", 100.0)):
            inc.ensure_constraint(key, cap)
        inc.add_flow("x", ["a", "hub", "b"])
        inc.add_flow("y", ["a", "hub"])
        inc.add_flow("z", ["hub", "b"])
        inc.solve_dirty()
        comp = inc._flows["y"].comp
        inc.remove_flow("x")
        assert walks == []
        assert inc._flows["y"].comp is comp is inc._flows["z"].comp
        assert [r.key for r in comp.cons] == ["hub"]
        inc.solve_dirty()
        assert inc.last_components == 1
        assert (inc.rate("y"), inc.rate("z")) == (45.0, 45.0)


def _random_incremental_trace(gen, n_cons=6, n_events=40):
    """Yield (incremental solver, batch solver snapshot) after random churn.

    Drives an :class:`IncrementalMaxMin` through a random sequence of flow
    arrivals and departures with a :meth:`solve_dirty` after every event,
    and cross-checks the surviving rates against a fresh batch solve of
    the same system after each one.
    """
    from repro.surf.maxmin import IncrementalMaxMin

    inc = IncrementalMaxMin()
    capacities = [float(gen.uniform(10, 1000)) for _ in range(n_cons)]
    shared = [bool(gen.random() < 0.85) for _ in range(n_cons)]
    for i, (cap, sh) in enumerate(zip(capacities, shared)):
        inc.ensure_constraint(i, cap, shared=sh)
    live: dict[int, tuple[tuple[int, ...], float, float]] = {}
    next_id = 0
    for _ in range(n_events):
        departing = live and gen.random() < 0.4
        if departing:
            key = sorted(live)[int(gen.integers(0, len(live)))]
            inc.remove_flow(key)
            del live[key]
        else:
            k = int(gen.integers(1, min(4, n_cons) + 1))
            cids = tuple(sorted(gen.choice(n_cons, size=k, replace=False).tolist()))
            bound = math.inf if gen.random() < 0.5 else float(gen.uniform(1, 500))
            weight = float(gen.uniform(0.5, 3.0))
            # registration path: a held constraint at the same capacity
            # is left as is, a drained one is still held
            for cid in cids:
                inc.ensure_constraint(cid, capacities[cid], shared=shared[cid])
            inc.add_flow(next_id, cids, bound=bound, weight=weight)
            live[next_id] = (cids, bound, weight)
            next_id += 1
        inc.solve_dirty()
        yield inc, live, capacities, shared


def test_incremental_matches_batch_solvers_under_churn():
    """Property-style fuzz: after every arrival/departure the incremental
    rates equal a fresh reference *and* vectorised solve of the live
    system (seeded via repro.rng)."""
    from repro import rng as rng_mod

    for trial in range(8):
        gen = rng_mod.substream(2026, "maxmin-incremental", trial)
        for inc, live, capacities, shared in _random_incremental_trace(gen):
            system = MaxMinSystem()
            for i, (cap, sh) in enumerate(zip(capacities, shared)):
                system.add_constraint(f"c{i}", cap, shared=sh)
            order = sorted(live)
            for key in order:
                cids, bound, weight = live[key]
                system.add_flow(f"f{key}", cids, bound=bound, weight=weight)
            ref = solve_maxmin_reference(system)
            vec = solve_maxmin_vectorized(system)
            got = np.array([inc.rate(key) for key in order])
            np.testing.assert_allclose(ref, vec, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)


def test_engine_solver_constraints_stay_flat_across_cycles():
    """Engine-level regression for the constraint leak: repeated
    communicate/retire cycles must not grow the persistent solver."""
    from repro.surf import Engine, cluster

    platform = cluster("gcc", 4)
    engine = Engine(platform)
    counts = []
    for _cycle in range(6):
        for i in range(3):
            engine.communicate(f"node-{i}", f"node-{i + 1}", 1_000_000)
        engine.execute("node-0", 5e6)
        engine.run()
        counts.append(len(engine._solver._cons))
    assert len(set(counts)) == 1


# -- the kernel against its NumPy oracle ----------------------------------------------


@st.composite
def random_component(draw):
    """Capacities, policies and flows for a direct kernel comparison.

    Covers weights other than 1, bounds that are inf, finite or 0, FATPIPE
    and zero-capacity constraints, flows that cross nothing, and each
    flow's constraints in arbitrary order.  Round values make bounds and
    fair shares tie, or miss each other by less than the solver's epsilon.
    """
    n_cons = draw(st.integers(0, 6))
    capacities = [draw(st.one_of(st.sampled_from([0.0, 100.0, 100.0 + 1e-12]),
                                 st.floats(0.5, 1000.0)))
                  for _ in range(n_cons)]
    shared = [draw(st.booleans()) if i % 3 == 2 else True
              for i in range(n_cons)]
    flows = []
    for _ in range(draw(st.integers(1, 14))):
        cids = draw(st.lists(st.integers(0, max(n_cons - 1, 0)),
                             max_size=n_cons, unique=True))
        bound = draw(st.one_of(
            st.sampled_from([math.inf, 0.0, 25.0, 50.0, 50.0 + 5e-13]),
            st.floats(0.1, 500.0)))
        weight = draw(st.one_of(st.just(1.0), st.floats(0.25, 4.0)))
        flows.append((tuple(cids), bound, weight))
    return capacities, shared, flows


def _kernel_outcomes(capacities, shared, flows):
    """Solve one component with the kernel, with the walk oracle's kernel
    and with the NumPy oracle; each gives its rates (as ``float.hex``)
    and round count, or its error message.

    Registration builds the kernel's kept inputs: a shared constraint
    with a single flow does not couple and is folded into that flow's
    solo level, unless the flow crosses some constraint twice.  The walk
    kernel gets the shared constraints the walk would keep and rebuilds
    its inputs; the NumPy oracle sees every constraint."""
    inc = IncrementalMaxMin()
    for i, (cap, sh) in enumerate(zip(capacities, shared)):
        inc.ensure_constraint(f"c{i}", cap, shared=sh)
    for i, (cids, bound, weight) in enumerate(flows):
        inc.add_flow(f"f{i}", [f"c{c}" for c in cids], bound=bound,
                     weight=weight)
    members = list(inc._flows.values())  # registration (seq) order
    coupling = [record for record in inc._cons.values() if record.coupled]
    for pos, record in enumerate(coupling):
        record.pos = pos
    walked = []
    for flow in members:
        for record in flow.cons:
            if (record.shared and record not in walked
                    and not (flow.folds and len(record.flows) == 1)):
                walked.append(record)
    row = np.array([i for i, (cids, _, _) in enumerate(flows) for _ in cids],
                   dtype=np.intp)
    col = np.array([c for cids, _, _ in flows for c in cids], dtype=np.intp)

    def outcome(solve):
        try:
            rates, rounds = solve()
        except SimulationError as exc:
            return str(exc)
        return [float(r).hex() for r in rates], rounds

    def kept():
        rounds = _progressive_fill(members, coupling, -1)
        return [flow.fill for flow in members], rounds

    scalar = outcome(kept)
    walk = outcome(lambda: _progressive_fill_scalar(members, walked))
    arrays = outcome(lambda: _progressive_fill_arrays(
        len(flows), len(capacities), row, col,
        np.array([w for _, _, w in flows]), np.array([b for _, b, _ in flows]),
        np.array(shared, dtype=bool), np.array(capacities, dtype=float),
        lambda i: members[i].name,
    ))
    return scalar, walk, arrays


_UNBOUNDED = ([100.0, 5.0], [True, False],
              [((0,), 10.0, 1.0), ((), math.inf, 1.0), ((1,), 1.0, 2.0)])


@given(random_component())
@example((  # two fair shares 5e-13 apart saturate in the same round
    [100.0, 100.0 + 1e-12], [True, True],
    [((0,), math.inf, 1.0)] * 2 + [((1,), math.inf, 1.0)] * 2,
))
@example(_UNBOUNDED)  # refused in the filling loop
@example((  # f0's solo level ties f1's bound: the caps-only round fixes f1
    [50.0, 1000.0], [True, True],
    [((0, 1), math.inf, 1.0), ((1,), 50.0, 1.0)],
))
@example((  # f0's solo level ties the fair share of c1: one round fixes all
    [50.0, 100.0], [True, True],
    [((0,), math.inf, 1.0)] + [((1,), math.inf, 1.0)] * 2,
))
@example((  # f0 crosses c0 twice: c0 counts it twice and is not folded
    [100.0, 1000.0], [True, True],
    [((0, 0, 1), math.inf, 1.0), ((1,), math.inf, 1.0)],
))
@example((  # a zero-capacity solo constraint fixes its flow at 0 first
    [0.0, 100.0], [True, True],
    [((0, 1), math.inf, 1.0)] + [((1,), math.inf, 1.0)] * 2,
))
@settings(max_examples=300, deadline=None)
def test_scalar_kernel_matches_array_kernel(component):
    """The plain-Python kernel, on its kept inputs, and the walk oracle's
    kernel, on rebuilt ones, are transcriptions of the NumPy oracle: same
    rates to the last bit, same rounds, same errors, with their
    single-flow constraints folded into solo levels."""
    scalar, walk, arrays = _kernel_outcomes(*component)
    assert scalar == walk == arrays


def test_component_growing_to_80_flows_matches_batch():
    """One component grows to 80 flows and shrinks back to 2: after every
    solve each rate equals, bit for bit, a fresh batch solve of the live
    flows."""
    from repro.surf.maxmin import IncrementalMaxMin

    n_groups = 8
    capacities = [40.0 * (1.0 + g) for g in range(n_groups)] + [3000.0]
    inc = IncrementalMaxMin()
    for cid, cap in enumerate(capacities):
        inc.ensure_constraint(cid, cap)
    backbone = n_groups  # every flow crosses it: one component throughout
    live: dict[int, tuple] = {}

    def check():
        system = MaxMinSystem()
        for cid, cap in enumerate(capacities):
            system.add_constraint(f"c{cid}", cap)
        for key in sorted(live):
            system.add_flow(f"f{key}", *live[key])
        batch = solve_maxmin_vectorized(system)
        got = [inc.rate(key).hex() for key in sorted(live)]
        assert got == [float(r).hex() for r in batch]

    sizes = []
    for key in range(80):
        cids = (key % n_groups, backbone) if key % 2 else (backbone, key % n_groups)
        bound = 7.0 + key % 5 if key % 3 == 0 else math.inf
        live[key] = (cids, bound, 1.0 + (key % 4) * 0.5)
        inc.add_flow(key, cids, bound=bound, weight=live[key][2])
        inc.solve_dirty()
        assert inc.last_components == 1
        sizes.append(inc.last_flows_solved)
        check()
    for key in range(78):
        inc.remove_flow(key)
        del live[key]
        inc.solve_dirty()
        sizes.append(inc.last_flows_solved)
        check()
    assert max(sizes) == 80 and sizes[-1] == 2


def test_solve_dirty_hashes_no_resource(monkeypatch):
    """Component walks mark constraint records, never hash the Link/Host
    keys: a solve of a 64-flow contended component makes no
    ``Link.__hash__`` or ``Host.__hash__`` call."""
    from repro.surf import resources
    from repro.surf.maxmin import IncrementalMaxMin

    inc = IncrementalMaxMin()
    ups = [resources.Link(f"up-{i}", "1GBps", 0) for i in range(8)]
    downs = [resources.Link(f"down-{i}", "1GBps", 0) for i in range(8)]
    backbone = resources.Link("backbone", "2GBps", 0)
    hosts = [resources.Host(f"node-{i}", "1Gf") for i in range(2)]
    for link in ups + downs + [backbone]:
        inc.ensure_constraint(link, link.bandwidth, name=link.name)
    for host in hosts:
        inc.ensure_constraint(host, host.speed, name=host.name)
    for i in range(64):
        inc.add_flow(("comm", i), [ups[i % 8], backbone, downs[(i + 3) % 8]])
    for i in range(4):
        inc.add_flow(("exec", i), [hosts[i % 2]])

    calls = []
    for cls in (resources.Link, resources.Host):
        original = cls.__hash__

        def counting(self, _original=original):
            calls.append(self.name)
            return _original(self)

        monkeypatch.setattr(cls, "__hash__", counting)
    solved = solved_flows(inc)
    assert len(solved) == 68 and inc.last_flows_solved == 68
    assert calls == []
