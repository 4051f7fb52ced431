"""Property-based equivalence of dynamic availability across engine modes.

Capacity changes from availability profiles, ON/OFF state profiles and
scripted ``set_availability`` calls flow through the incremental max-min
solver and the lazy completion-date heap as rate-change events.  Like
the plain fuzz suite (test_fuzz_lazy.py), these tests assert that none
of that machinery leaks into observable results: any fault/availability
workload must produce bit-identical clocks, completion orders and final
states (``==``, not ``approx``) between the lazy and eager event loops
and between the incremental and full-rebuild solvers.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.surf import cluster, parse_profile
from tests.oracles import oracle_engine

_FUZZ = settings(max_examples=20, deadline=None)

N_HOSTS = 6

# one randomized workload item: (kind, a, b, amount)
work_item = st.tuples(
    st.sampled_from(["comm", "exec", "sleep", "avail", "fail", "restore",
                     "fail_host"]),
    st.integers(0, N_HOSTS - 1),
    st.integers(0, N_HOSTS - 1),
    st.integers(1, 5_000_000),
)

# a small availability profile: 1-3 points, optionally periodic
_point = st.tuples(st.integers(0, 50), st.integers(0, 4))
profile_spec = st.tuples(st.lists(_point, min_size=1, max_size=3),
                         st.booleans())


def _make_profiles(platform, specs):
    """Attach generated profiles to the first links before engine build."""
    for link, ((points, periodic), kind) in zip(platform.links, specs):
        times = sorted({t for t, _ in points})
        pts = [(t * 1e-4, v / 4.0) for t, (_, v) in zip(times, points)]
        if not pts:
            continue
        if pts[-1][1] == 0.0:
            # a trace ending at 0 would stall (availability) or strand
            # (state) flows forever — real traces recover, so do ours
            pts[-1] = (pts[-1][0], 1.0)
        period = pts[-1][0] + 1e-3 if periodic else None
        profile = parse_profile(
            "".join(f"{t!r} {v!r}\n" for t, v in pts)
            if period is None else
            f"PERIODICITY {period!r}\n"
            + "".join(f"{t!r} {v!r}\n" for t, v in pts),
            name=link.name,
        )
        if kind == "state":
            link.state_profile = profile
        else:
            link.availability_profile = profile


def _drive(engine, platform, items):
    """Run one scripted fault workload; return an observable transcript."""
    actions = []
    completion_order = []
    resource_log = []
    engine.resource_listeners.append(
        lambda event, resource, now: resource_log.append(
            (event, resource.name, now)))

    def observe(action):
        completion_order.append((action.name, engine.now))

    # a workload may leave flows stalled at availability 0 forever; the
    # engine contract says advance()/run() raise then.  Both modes must
    # stall at the same clock with the same message, so a stall anywhere
    # in the script ends the drive and becomes part of the transcript.
    stalled = None

    def tick(delta):
        nonlocal stalled
        try:
            engine.advance(delta)
        except SimulationError as exc:
            stalled = str(exc)
        return stalled is None

    links = platform.links
    for step_no, (kind, a, b, amount) in enumerate(items):
        if kind == "comm" and a != b:
            action = engine.communicate(f"node-{a}", f"node-{b}", amount,
                                        name=f"comm-{step_no}")
        elif kind == "exec":
            action = engine.execute(f"node-{a}", amount * 100,
                                    name=f"exec-{step_no}")
        elif kind == "sleep":
            action = engine.sleep(amount * 1e-9, name=f"sleep-{step_no}")
        elif kind == "avail":
            engine.set_availability(links[a % len(links)], (b % 5) / 4.0)
            if not tick(amount * 1e-7):
                break
            continue
        elif kind == "fail":
            engine.fail_resource(links[a % len(links)])
            if not tick(amount * 1e-7):
                break
            continue
        elif kind == "restore":
            engine.restore_resource(links[a % len(links)])
            if not tick(amount * 1e-7):
                break
            continue
        elif kind == "fail_host":
            engine.fail_resource(platform.hosts[a % len(platform.hosts)])
            if not tick(amount * 1e-7):
                break
            continue
        else:
            continue
        action.observer = observe
        actions.append(action)
        # stagger arrivals so capacity events interleave with running flows
        if step_no % 2 and not tick(amount * 1e-7):
            break
    if stalled is None:
        try:
            final = engine.run()
        except SimulationError as exc:
            final = engine.now
            stalled = str(exc)
    else:
        final = engine.now
    return {
        "final_clock": final,
        "stalled": stalled,
        "order": completion_order,
        "resources": resource_log,
        "states": [(a.name, a.state.value, a.finish_time, a.remaining)
                   for a in actions],
        "stats": (engine.stats.capacity_events,
                  engine.stats.resource_failures,
                  engine.stats.resource_restores),
    }


@given(st.lists(work_item, min_size=1, max_size=20),
       st.lists(st.tuples(profile_spec, st.sampled_from(["availability",
                                                         "state"])),
                max_size=3),
       st.integers(0, 3))
@_FUZZ
def test_faults_identical_between_lazy_and_eager(items, specs, topology):
    """Any availability workload clocks identically in both event loops."""
    results = {}
    for eager in (False, True):
        platform = cluster(
            "fza", N_HOSTS,
            backbone_bandwidth=None if topology % 2 else "1.25GBps",
            split_duplex=topology >= 2)
        _make_profiles(platform, specs)
        engine = oracle_engine(platform, eager=eager)
        results[eager] = _drive(engine, platform, items)
    assert results[False] == results[True]


@given(st.lists(work_item, min_size=1, max_size=20),
       st.lists(st.tuples(profile_spec, st.sampled_from(["availability",
                                                         "state"])),
                max_size=3),
       st.integers(0, 3))
@_FUZZ
def test_faults_identical_between_incremental_and_full(items, specs,
                                                       topology):
    """Capacity events keep the two solver paths bit-identical too."""
    results = {}
    for full in (False, True):
        platform = cluster(
            "fzb", N_HOSTS,
            backbone_bandwidth=None if topology % 2 else "1.25GBps",
            split_duplex=topology >= 2)
        _make_profiles(platform, specs)
        engine = oracle_engine(platform, full=full)
        results[full] = _drive(engine, platform, items)
    assert results[False] == results[True]


@given(st.lists(_point, min_size=1, max_size=4), st.booleans(),
       st.integers(1, 4))
@settings(max_examples=15, deadline=None)
def test_periodic_profiles_identical_between_modes(points, periodic, n_comms):
    """Periodic profiles (infinite event streams) stay mode-independent."""
    times = sorted({t for t, _ in points})
    pts = [(t * 1e-4, max(v, 1) / 4.0)  # never 0: flows must finish
           for t, (_, v) in zip(times, points)]
    text = "".join(f"{t!r} {v!r}\n" for t, v in pts)
    if periodic:
        text = f"PERIODICITY {pts[-1][0] + 1e-3!r}\n" + text
    results = {}
    for eager in (False, True):
        platform = cluster("fzp", 4, backbone_bandwidth=None)
        for link in platform.links:
            link.availability_profile = parse_profile(text, name=link.name)
        engine = oracle_engine(platform, eager=eager)
        for i in range(n_comms):
            engine.communicate(f"node-{i % 4}", f"node-{(i + 1) % 4}",
                               500_000 * (i + 1), name=f"c{i}")
        results[eager] = engine.run()
    assert results[False] == results[True]
