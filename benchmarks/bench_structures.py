"""Figs. 6, 10, 13, 14 — the communication-scheme diagrams.

These figures are structural, not quantitative: the binomial scatter tree
(Fig. 6), the pairwise all-to-all steps (Fig. 10), and the DT BH/WH
graphs for class A (Figs. 13/14).  This bench regenerates each structure,
prints it, and checks it against the paper's explicit features (node
counts, specific edges, per-step permutations).
"""

from __future__ import annotations

from _helpers import FigureReport
from repro.nas import bh_graph, wh_graph
from repro.smpi.coll import binomial_tree_edges, pairwise_schedule
from repro.surf.maxmin import IncrementalMaxMin


def experiment():
    return {
        "binomial16": binomial_tree_edges(16),
        "pairwise4": pairwise_schedule(4),
        "bh_a": bh_graph("A"),
        "wh_a": wh_graph("A"),
    }


def test_structures(once):
    data = once(experiment)
    report = FigureReport(
        "structures", "communication schemes (Figs. 6, 10, 13, 14)"
    )

    report.line("Fig. 6 — binomial scatter tree, 16 processes:")
    tree = data["binomial16"]
    report.line("  " + ", ".join(f"{s}->{d} ({c} chunks)" for s, d, c in tree))

    report.line()
    report.line("Fig. 10 — pairwise all-to-all, 4 processes, per step:")
    for i, step in enumerate(data["pairwise4"]):
        report.line(
            f"  step {i + 1}: " + ", ".join(f"{s}->{d}" for s, d in step)
        )

    bh = data["bh_a"]
    wh = data["wh_a"]
    report.line()
    report.line(f"Fig. 13 — BH class A: {bh.n_ranks} processes, "
                f"{len(bh.sources())} sources -> "
                f"{len(bh.nodes) - len(bh.sources()) - len(bh.sinks())} "
                f"comparators -> {len(bh.sinks())} sink")
    report.line(f"Fig. 14 — WH class A: {wh.n_ranks} processes, "
                f"{len(wh.sources())} source -> ... -> "
                f"{len(wh.sinks())} consumers")
    report.finish()

    # Fig. 6's headline edges
    assert (0, 8, 8) in tree and (0, 4, 4) in tree and (8, 12, 4) in tree
    # Fig. 10: 4 steps, each a permutation; step 1 is the self-copy
    assert data["pairwise4"][0] == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert len(data["pairwise4"]) == 4
    # Figs. 13/14: 21 processes, mirror structure
    assert bh.n_ranks == wh.n_ranks == 21
    assert len(bh.sources()) == len(wh.sinks()) == 16
    assert len(bh.sinks()) == len(wh.sources()) == 1


def solver_layout_experiment(n_cons: int = 32, n_live: int = 256,
                             n_cycles: int = 40):
    """Incremental solver state under sustained flow churn.

    Holds ``n_live`` flows over ``n_cons`` constraints and replaces all of
    them ``n_cycles`` times, counting the solver's flow and constraint
    records at the peak of each cycle (every flow solved) and at its end
    (every flow removed and solved again).  The structural claim: the
    records are the solver's whole state, a flow's record goes with the
    flow, and a drained constraint stays as one empty record, so
    ``_cons`` holds one record per resource ever used and the footprint
    is the same in every cycle.
    """
    inc = IncrementalMaxMin()

    def records():
        return {"cons": len(inc._cons), "flows": len(inc._flows)}

    footprint = []
    for cycle in range(n_cycles):
        base = cycle * n_live
        for c in range(n_cons):
            inc.ensure_constraint(("l", c), 100.0 * (1 + c % 7))
        for i in range(n_live):
            inc.add_flow(base + i, [("l", i % n_cons), ("l", (i * 7) % n_cons)])
        inc.solve_dirty()
        peak = records()
        for i in range(n_live):
            inc.remove_flow(base + i)
        inc.solve_dirty()
        footprint.append({"peak": peak, "end": records()})
    return footprint


def test_solver_state_layout(once):
    footprint = once(solver_layout_experiment)
    report = FigureReport(
        "solver_layout",
        "incremental-solver records under churn (bounded growth)",
    )
    report.line("  256 flows x 32 constraints fully replaced per cycle:")
    for label in ("first", "last"):
        sample = footprint[0 if label == "first" else -1]
        report.line(
            f"  {label} cycle: peak {sample['peak']['flows']} flow records, "
            f"{sample['peak']['cons']} constraint records; end "
            f"{sample['end']['flows']} flow records, "
            f"{sample['end']['cons']} constraint records"
        )
    report.measured(
        "state footprint is the same in every cycle: flow records leave "
        "with their flows and each drained constraint stays as one empty "
        "record, reused by the next cycle"
    )
    report.finish()

    # all flows are removed at cycle end: no flow record is left, and
    # the drained constraints are the same 32 records, emptied
    assert all(s["end"] == {"cons": 32, "flows": 0} for s in footprint)
    # at the peak the records are exactly the live set
    assert all(s["peak"] == {"cons": 32, "flows": 256} for s in footprint)
