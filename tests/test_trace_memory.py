"""What a traced replay holds: the bytes behind timeline samples and
trace events.

A utilization sample is two doubles in the resource's ``array('d')``
columns; a loaded trace event is a kind code plus its arguments in the
rank's :class:`RankEvents` columns, and reading one builds a
:class:`TiEvent` whose kind is the canonical :data:`KINDS` string; a
saved trace is written rank by rank with the bytes of
:meth:`TiTrace.to_json`.  The timeline is pinned against the tuple-list
layout it replaced (:class:`tests.oracles.TupleTimeline`), the columnar
trace and its replay against the list-of-events layout
(:class:`tests.oracles.ListTiTrace`, :class:`tests.oracles.ListRankReplayer`).
"""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.offline import replay_trace
from repro.offline.trace import KINDS, TiEvent, TiTrace
from repro.smpi.constants import ANY_SOURCE
from repro.surf import cluster
from repro.trace import Timeline
from tests.oracles import ListTiTrace, TupleTimeline, list_replayer

N_SAMPLES = 100_000


class TestTimelineBytes:
    def test_a_sample_costs_at_most_24_bytes(self):
        timeline = Timeline()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(N_SAMPLES):
                # four resources, every sample a new time and a new value
                timeline.record(i * 1e-3, f"l{i % 4}", float(i + 1), 1e9)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert timeline.n_samples == N_SAMPLES
        assert held / N_SAMPLES <= 24, f"{held / N_SAMPLES:.1f} B/sample"

    def test_iter_series_hands_out_the_columns(self):
        timeline = Timeline()
        timeline.record(1.0, "l0", 5.0, 10.0)
        timeline.record(2.0, "l0", 0.0, 10.0)
        (name, kind, capacity, times, usages), = timeline.iter_series()
        assert (name, kind, capacity) == ("l0", "link", 10.0)
        assert (list(times), list(usages)) == ([1.0, 2.0], [5.0, 0.0])
        assert times.typecode == usages.typecode == "d"


def _trace() -> TiTrace:
    """Three ranks: a send/recv pair with waits, computes, an idle rank."""
    trace = TiTrace(3, meta={"shape": "pair", "seed": 7})
    trace.append(0, TiEvent("compute", (1.5e6,)))
    trace.append(0, TiEvent("send", (1, 1, 4096, 3, 0)))
    trace.append(0, TiEvent("wait", ([1],)))
    trace.append(1, TiEvent("recv", (1, 0, 3, 0)))
    trace.append(1, TiEvent("wait", ([1],)))
    trace.append(1, TiEvent("compute", (2.0,)))
    return trace


def _whole_document(trace: TiTrace) -> str:
    """The document as one ``json.dumps`` of the whole structure."""
    return json.dumps({
        "format": "repro-ti-trace-1",
        "n_ranks": trace.n_ranks,
        "meta": trace.meta,
        "events": [[e.to_json() for e in rank_events]
                   for rank_events in trace.events],
    })


class TestTraceEvents:
    def test_loaded_kinds_are_the_canonical_strings(self):
        loaded = TiTrace.from_json(_trace().to_json())
        events = [e for rank_events in loaded.events for e in rank_events]
        assert {e.kind for e in events} == set(KINDS)
        for e in events:
            assert any(e.kind is kind for kind in KINDS), e

    def test_events_have_no_instance_dict(self):
        event = TiEvent.from_json(["send", 1, 2, 64, 0, 0])
        assert not hasattr(event, "__dict__")

    def test_save_writes_the_to_json_bytes(self, tmp_path):
        for trace in (TiTrace(0), TiTrace(2), _trace()):
            path = tmp_path / f"t{trace.n_ranks}.json"
            trace.save(path)
            text = trace.to_json()
            assert text == _whole_document(trace)
            assert path.read_bytes() == text.encode("utf-8")
            back = TiTrace.load(path)
            assert (back.n_ranks, back.meta, back.events) \
                == (trace.n_ranks, trace.meta, trace.events)

    def test_a_failed_save_leaves_no_file(self, tmp_path):
        bad_meta = TiTrace(1, meta={"platform": object()})
        path = tmp_path / "bad.json"
        with pytest.raises(TypeError):
            bad_meta.save(path)
        assert not path.exists()
        # an event that cannot encode is refused when it is appended,
        # before any save can see it, and leaves the trace as it was
        bad_event = _trace()
        with pytest.raises(ConfigError, match="rank 2, event 0"):
            bad_event.append(2, TiEvent("compute", (object(),)))
        assert bad_event == _trace()

    def test_a_hand_written_integer_amount_resaves_as_a_float(self):
        text = ('{"format": "repro-ti-trace-1", "n_ranks": 1, "meta": {}, '
                '"events": [[["compute", 5], ["compute", 2.5]]]}')
        trace = TiTrace.from_json(text)
        assert list(trace.events[0]) == [TiEvent("compute", (5.0,)),
                                         TiEvent("compute", (2.5,))]
        assert type(trace.events[0][0].args[0]) is float
        assert trace.to_json() == text.replace('5]', '5.0]', 1)
        assert TiTrace.from_json(trace.to_json()).to_json() \
            == trace.to_json()

    def test_events_read_as_a_read_only_sequence(self):
        trace = _trace()
        rank0 = trace.events[0]
        assert len(rank0) == 3
        assert rank0[1] == TiEvent("send", (1, 1, 4096, 3, 0))
        assert rank0[-1] == TiEvent("wait", ([1],))
        assert rank0[1:] == [TiEvent("send", (1, 1, 4096, 3, 0)),
                             TiEvent("wait", ([1],))]
        with pytest.raises(IndexError):
            rank0[3]
        assert not hasattr(rank0, "append")
        assert trace.events[2] == [] and len(trace.events[2]) == 0


# -- the timeline against the tuple-list oracle ---------------------------------------

#: a few resources, times that often repeat, values that often repeat
_ops = st.lists(
    st.tuples(
        st.sampled_from(["l0", "l1", "h0"]),
        st.sampled_from([0.0, 0.0, 1e-3, 0.5, 2.0]),   # time step
        st.sampled_from([0.0, 0.0, 1.0, 2.5, 1e9]),   # usage
        st.sampled_from([0.0, 10.0, 1e9]),            # capacity
    ),
    max_size=40,
)


def _replay(ops, close_at):
    """The same record (and close) calls on a Timeline and the oracle."""
    timeline, oracle = Timeline(), TupleTimeline()
    now = 0.0
    for name, step, usage, capacity in ops:
        now += step
        kind = "host" if name.startswith("h") else "link"
        for tl in (timeline, oracle):
            tl.record(now, name, usage, capacity, kind)
    if close_at is not None:
        for tl in (timeline, oracle):
            tl.close(now + close_at)
    return timeline, oracle, now


@settings(max_examples=150, deadline=None)
@given(_ops, st.none() | st.sampled_from([0.0, 1.0]),
       st.sampled_from([0.0, 0.25, 1.0, 10.0]))
def test_timeline_matches_the_tuple_oracle(ops, close_at, extra):
    timeline, oracle, now = _replay(ops, close_at)
    assert len(timeline) == oracle.n_samples
    assert timeline.names() == oracle.names()
    assert timeline.names("host") == oracle.names("host")
    assert timeline.kinds == oracle.kinds
    assert timeline.capacities == oracle.capacities
    for name in oracle.names() + ["missing"]:
        assert timeline.samples(name) == oracle.samples(name)
        assert timeline.utilization(name) == oracle.utilization(name)
        for until in (0.0, now / 2, now + extra):
            assert timeline.summarize(name, until) \
                == oracle.summarize(name, until)
    rows = timeline.as_rows()
    assert rows == oracle.as_rows()
    back = Timeline()
    for row in rows:
        back.load_row(*row)
    assert back.as_rows() == rows
    assert len(back) == len(timeline)
    for name in oracle.names():
        if oracle.samples(name):
            assert back.samples(name) == oracle.samples(name)


# -- the columnar trace against the list-of-events oracle -------------------------

_op_ids = st.integers(-2**40, 2**40)
_events = st.one_of(
    st.tuples(st.just("compute"),
              st.floats(allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("send"), _op_ids, st.integers(0, 64),
              st.integers(0, 2**40), st.integers(-5, 2**31), st.integers(0, 9)),
    st.tuples(st.just("recv"), _op_ids,
              st.sampled_from([ANY_SOURCE, 0, 1, 63]),
              st.integers(-5, 2**31), st.integers(0, 9)),
    st.tuples(st.just("wait"), st.lists(_op_ids, max_size=6)),
).map(lambda row: TiEvent(row[0], tuple(row[1:])))
#: up to five ranks, empty ones included
_rank_lists = st.lists(st.lists(_events, max_size=12), max_size=5)


@settings(max_examples=150, deadline=None)
@given(_rank_lists)
def test_columns_equal_the_list_oracle(rank_lists):
    n = len(rank_lists)
    trace = TiTrace(n, rank_lists, meta={"n": n})
    oracle = ListTiTrace(n, [list(events) for events in rank_lists],
                         meta={"n": n})
    assert trace.events == oracle.events
    for columns, events in zip(trace.events, oracle.events):
        assert len(columns) == len(events)
        assert list(columns) == events
        assert [columns[i] for i in range(len(events))] == events
    assert trace.total_messages() == oracle.total_messages()
    assert trace.total_bytes() == oracle.total_bytes()
    assert trace.total_flops() == oracle.total_flops()
    assert trace.to_json() == oracle.to_json()
    loaded = TiTrace.from_json(oracle.to_json())
    assert loaded == trace
    assert loaded.events == ListTiTrace.from_json(trace.to_json()).events
    appended = TiTrace(n, meta={"n": n})
    for rank, events in enumerate(rank_lists):
        for event in events:
            appended.append(rank, event)
    assert appended == trace


@settings(max_examples=100, deadline=None)
@given(_rank_lists)
def test_save_load_save_keeps_the_bytes(tmp_path_factory, rank_lists):
    path = tmp_path_factory.mktemp("ti") / "trace.json"
    TiTrace(len(rank_lists), rank_lists).save(path)
    first = path.read_bytes()
    TiTrace.load(path).save(path)
    assert path.read_bytes() == first


def _ring_trace(n: int, rounds: int) -> list[list[TiEvent]]:
    """Each rank computes, sends to its successor and receives from any
    source, then waits on both; the last round leaves its receive to the
    final drain."""
    events = [[] for _ in range(n)]
    for r in range(rounds):
        for rank in range(n):
            send, recv = 2 * r, 2 * r + 1
            events[rank] += [
                TiEvent("compute", (1e6 * (1 + rank % 3),)),
                TiEvent("send", (send, (rank + 1) % n, 4096 << r, r, 0)),
                TiEvent("recv", (recv, ANY_SOURCE, r, 0)),
            ]
            events[rank].append(
                TiEvent("wait", ([send, recv] if r < rounds - 1 else [send],)))
    return events


def test_replay_matches_the_list_oracle():
    n = 6
    events = _ring_trace(n, rounds=4)
    trace = TiTrace(n, events)
    result = replay_trace(trace, cluster("cols", n))
    with list_replayer():
        expected = replay_trace(ListTiTrace(n, events), cluster("cols", n))
    assert result.simulated_time == expected.simulated_time
    assert result.stats == expected.stats


# -- what a loaded trace costs ---------------------------------------------------------


def _loaded(path):
    """Load ``path`` under tracemalloc: (trace, held bytes, peak bytes)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = TiTrace.load(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return trace, held - before, peak - before


@pytest.fixture(scope="module")
def hpl_trace_file(tmp_path_factory):
    """The seed-0 HPL-shaped benchmark trace (25,824 events), saved."""
    from e2ebench.workloads import hpl_trace

    path = tmp_path_factory.mktemp("hpl") / "hpl_trace.json"
    hpl_trace(0).save(path)
    return path


def test_a_loaded_event_costs_at_most_32_bytes(hpl_trace_file):
    trace, held, _peak = _loaded(hpl_trace_file)
    n_events = sum(map(len, trace.events))
    assert n_events > 25_000
    assert held / n_events <= 32, f"{held / n_events:.1f} B/event"


def test_the_load_peak_stays_under_four_file_sizes(hpl_trace_file):
    _trace, _held, peak = _loaded(hpl_trace_file)
    size = hpl_trace_file.stat().st_size
    assert peak < 4 * size, f"peak {peak / size:.2f}x the file"
