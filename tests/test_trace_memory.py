"""What a traced replay holds: the bytes behind timeline samples and
trace events.

A utilization sample is two doubles in the resource's ``array('d')``
columns; a loaded trace event is a slotted :class:`TiEvent` whose kind is
the canonical :data:`KINDS` string; a saved trace is written rank by rank
with the bytes of :meth:`TiTrace.to_json`.  The timeline is pinned against
the tuple-list layout it replaced (:class:`tests.oracles.TupleTimeline`).
"""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.offline.trace import KINDS, TiEvent, TiTrace
from repro.trace import Timeline
from tests.oracles import TupleTimeline

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
        bad_event = _trace()
        bad_event.append(2, TiEvent("compute", (object(),)))
        for i, trace in enumerate((bad_meta, bad_event)):
            path = tmp_path / f"bad{i}.json"
            with pytest.raises(TypeError):
                trace.save(path)
            assert not path.exists()


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
