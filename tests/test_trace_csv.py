"""The trace CSV line formatters against the ``csv.writer`` oracle.

``Tracer.to_csv`` and ``CsvStreamSink`` format each line themselves and
hand a field to :mod:`csv` only when it holds a delimiter, a quote or a
line break.  These tests pin both writers, byte for byte, to
:func:`oracles.trace_csv`, which serialises one list row per record with
``csv.writer``, on random traces: awkward names, NumPy scalars,
``inf``/``nan``, open records, resource events and capacity steps.
Where the oracle refuses a trace (``csv`` before 3.11 raises on a NUL
in a field), both writers must raise :class:`csv.Error` too.
"""

from __future__ import annotations

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.trace import (
    CommRecord,
    ComputeRecord,
    CsvStreamSink,
    ResourceEventRecord,
    Timeline,
    Tracer,
)
from tests.oracles import trace_csv

#: text that exercises every quoting rule of :mod:`csv`, and any text
names = st.text(st.sampled_from(list('ab ,"\r\n\0%{}é\t')), max_size=6) | \
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)

ints = st.integers(-(2**40), 2**40)
any_int = ints | ints.map(np.int64)
floats = st.floats(allow_nan=True, allow_infinity=True)
any_float = floats | floats.map(np.float64) | st.sampled_from(
    [0.0, -0.0, 1e16, 1e-5, 0.1, float("inf"), float("nan")])
#: an ``end`` that may leave the record open (nan or infinite)
ends = any_float | st.just(float("nan"))

comms = st.builds(CommRecord, mid=any_int, src=any_int, dst=any_int,
                  tag=any_int, nbytes=any_int, eager=st.booleans(),
                  start=any_float, end=ends, failed=st.booleans())
computes = st.builds(ComputeRecord, rank=any_int, flops=any_float,
                     start=any_float, end=ends)
kinds = st.sampled_from(["link", "host"]) | names
events = st.builds(ResourceEventRecord, name=names, kind=kinds,
                   event=st.sampled_from(["fail", "restore"]) | names,
                   t=any_float)


@st.composite
def timelines(draw):
    if draw(st.booleans()):
        return None
    timeline = Timeline()
    for name, kind in draw(st.lists(st.tuples(names, kinds), max_size=4)):
        for t, usage in draw(st.lists(st.tuples(any_float, any_float),
                                      max_size=5)):
            timeline.load_row(name, kind, draw(any_float), t, usage)
        for t, capacity in draw(st.lists(st.tuples(any_float, any_float),
                                         max_size=3)):
            timeline.load_capacity_row(name, kind, t, capacity)
    return timeline


@st.composite
def tracers(draw):
    tracer = Tracer()
    tracer.comms = draw(st.lists(comms, max_size=5))
    tracer.computes = draw(st.lists(computes, max_size=5))
    tracer.resource_events = draw(st.lists(events, max_size=3))
    tracer.timeline = draw(timelines())
    return tracer


def oracle(tracer, include_open):
    """The oracle's CSV text, or the :class:`csv.Error` it raised."""
    try:
        return trace_csv(tracer, include_open=include_open)
    except csv.Error as exc:
        return exc


def stream(tracer, include_open, tmp):
    """Write ``tracer`` through a :class:`CsvStreamSink` under ``tmp``."""
    path = Path(tmp) / "trace.csv"
    sink = CsvStreamSink(path)
    try:
        # a sink writes every record it is handed; the tracer hands it
        # closed ones only, and include_open stands for a caller that
        # hands it all of them
        for r in tracer.comms:
            if r.closed or include_open:
                sink.comm_row(r)
        for c in tracer.computes:
            if c.closed or include_open:
                sink.compute_row(c)
        for e in tracer.resource_events:
            sink.resource_row(e)
        sink.finalize(tracer)
    finally:
        for f in (sink._main, sink._computes, sink._resources):
            f.close()
    return path.read_bytes().decode("utf-8")


@given(tracers(), st.booleans())
def test_to_csv_equals_csv_writer(tracer, include_open):
    expected = oracle(tracer, include_open)
    if isinstance(expected, csv.Error):
        with pytest.raises(csv.Error):
            tracer.to_csv(include_open=include_open)
    else:
        assert tracer.to_csv(include_open=include_open) == expected


@given(tracers(), st.booleans())
def test_stream_sink_equals_csv_writer(tracer, include_open):
    expected = oracle(tracer, include_open)
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(expected, csv.Error):
            with pytest.raises(csv.Error):
                stream(tracer, include_open, tmp)
            return
        written = stream(tracer, include_open, tmp)
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["trace.csv"]
    assert written == expected


def test_nul_in_a_name_follows_csv():
    tracer = Tracer()
    tracer.resource_events = [ResourceEventRecord("a\0b", "link", "fail",
                                                  1.0)]
    expected = oracle(tracer, False)
    if isinstance(expected, csv.Error):  # CPython before 3.11
        with pytest.raises(csv.Error):
            tracer.to_csv()
    else:
        assert tracer.to_csv() == expected


def test_numpy_scalars_are_written_as_numbers():
    tracer = Tracer()
    tracer.comms = [CommRecord(np.int64(3), 0, 1, 0, np.int64(1000), True,
                               np.float64(0.5), np.float64(1.25))]
    line = tracer.to_csv().splitlines()[1]
    assert line == "comm,3,0,1,0,1000,1,0.5,1.25,,0"


def test_awkward_names_are_quoted_as_csv_quotes_them():
    tracer = Tracer()
    tracer.resource_events = [ResourceEventRecord('a,"b"', "link", "fail",
                                                  1.0)]
    assert tracer.to_csv().splitlines()[1] == \
        'resource,,"a,""b""",link,,,fail,1.0,,,'
    assert Tracer.from_csv(tracer.to_csv()).resource_events == \
        tracer.resource_events
