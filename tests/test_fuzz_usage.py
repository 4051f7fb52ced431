"""Change-driven utilization sampling against the always-recompute oracle.

With a timeline attached, the solver sums a constraint's consumed rate
again only when its load can have changed (a flow arrived or left, its
capacity changed, or a crossing flow changed rate).  Skipping the other
constraints must be invisible: these tests drive the flow churn of
``tests/test_fuzz_lazy.py`` through an engine on the canonical solver and
one on :class:`tests.oracles.RecomputeUsageMaxMin`, which sums every
constraint of every re-solved component, and compare after every share
each timeline series (as ``float.hex``), ``link_samples`` and the
solver's ``usage`` of every registered constraint.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.surf import Engine, SharingPolicy, cluster
from tests.oracles import RecomputeUsageMaxMin
from tests.test_fuzz_lazy import N_HOSTS, _drive

# (kind, a, b, amount) as in test_fuzz_lazy, plus capacity changes
usage_item = st.tuples(
    st.sampled_from(["comm", "comm", "exec", "sleep", "cancel", "fail_link",
                     "avail"]),
    st.integers(0, N_HOSTS - 1),
    st.integers(0, N_HOSTS - 1),
    st.integers(1, 5_000_000),
)


def _platform(topology: int):
    """0: shared backbone; 1: FATPIPE backbone, which flows of different
    components cross; 2: FATPIPE backbone over split-duplex access links;
    3: split-duplex crossbar without a backbone."""
    return cluster(
        "fzu", N_HOSTS,
        backbone_bandwidth=None if topology == 3 else "1.25GBps",
        backbone_sharing=(SharingPolicy.FATPIPE if topology in (1, 2)
                          else SharingPolicy.SHARED),
        split_duplex=topology >= 2,
    )


def _view(engine) -> tuple:
    """Everything utilization sampling exposes, bit for bit."""
    timeline = engine.timeline
    solver = engine._solver
    series = {name: [(t.hex(), u.hex()) for t, u in timeline.samples(name)]
              for name in timeline.names()}
    usage = {key.name: solver.usage(key).hex() for key in solver._cons}
    return series, dict(timeline.capacities), engine.stats.link_samples, usage


def _run(items, topology: int, oracle: bool) -> tuple:
    platform = _platform(topology)
    engine = Engine(platform)
    if oracle:
        engine._solver = RecomputeUsageMaxMin()
    engine.enable_timeline()
    views = []
    share = engine.share_resources

    def share_and_look():
        share()
        views.append(_view(engine))

    engine.share_resources = share_and_look
    transcript = _drive(engine, platform, items)
    return views, transcript


@given(st.lists(usage_item, min_size=1, max_size=20), st.integers(0, 3))
@example(  # two components on one FATPIPE backbone; a capacity change;
    # access links that drain and are collected; a link failed under a flow
    [("comm", 0, 1, 2_000_000), ("comm", 2, 3, 3_000_000),
     ("avail", 1, 0, 400), ("exec", 4, 0, 1000), ("comm", 4, 5, 1_000_000),
     ("comm", 0, 1, 50_000), ("fail_link", 5, 0, 100),
     ("avail", 2, 5, 300), ("comm", 1, 2, 500_000)],
    1,
)
@settings(max_examples=25, deadline=None)
def test_change_driven_usage_matches_recompute_oracle(items, topology):
    """Every share leaves the same timeline, sample count and usages as
    summing every constraint of every re-solved component."""
    views, transcript = _run(items, topology, oracle=False)
    oracle_views, oracle_transcript = _run(items, topology, oracle=True)
    assert transcript == oracle_transcript
    assert len(views) == len(oracle_views)
    for view, oracle_view in zip(views, oracle_views):
        assert view == oracle_view
