"""Tests for the observability layer: timeline sampling, trace export
(CSV / Paje / time-independent), analyses and Gantt rendering."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import pytest

from repro.errors import ConfigError
from repro.offline import record_trace, replay_trace
from repro.smpi import SmpiConfig, smpirun
from repro.surf import cluster
from repro.trace import (
    CommRecord,
    ComputeRecord,
    Timeline,
    Tracer,
    ascii_gantt,
    critical_path,
    export_paje,
    makespan,
    parse_paje,
    state_fractions,
    state_intervals,
    svg_gantt,
)
from tests.oracles import oracle_engine


def traffic_app(mpi):
    """Deterministic mix of compute bursts and eager/rendezvous traffic."""
    comm = mpi.COMM_WORLD
    rank, size = mpi.rank, mpi.size
    mpi.execute(2e7 * (1 + rank))
    comm.sendrecv(b"x" * 200_000, (rank + 1) % size,
                  source=(rank - 1) % size)
    mpi.execute(1e7)
    comm.sendrecv(b"y" * 64, (rank + 1) % size,
                  source=(rank - 1) % size)
    comm.barrier()


def traced_run(n_ranks=4, **options):
    platform = cluster("tr", n_ranks)
    config = SmpiConfig(tracing=True, **options)
    return smpirun(traffic_app, n_ranks, platform, config=config)


@pytest.fixture(scope="module")
def traced():
    """One traced reference run shared by the read-only tests."""
    return traced_run()


class TestTimeline:
    def test_record_dedupes_value_and_time(self):
        tl = Timeline()
        tl.record(0.0, "l0", 0.0, 100.0)  # leading zero: implicit
        tl.record(1.0, "l0", 50.0, 100.0)
        tl.record(1.0, "l0", 60.0, 100.0)  # same time: replace
        tl.record(2.0, "l0", 60.0, 100.0)  # same value: drop
        tl.record(3.0, "l0", 0.0, 100.0)
        assert tl.samples("l0") == [(1.0, 60.0), (3.0, 0.0)]
        assert tl.n_samples == 2

    def test_integration_and_summary(self):
        tl = Timeline()
        tl.record(0.0, "l0", 100.0, 200.0)
        tl.record(2.0, "l0", 0.0, 200.0)
        usage = tl.summarize("l0", until=4.0)
        # busy at 50% for 2s out of 4s -> mean 25%, peak 50%
        assert usage.mean_utilization == pytest.approx(0.25)
        assert usage.peak_utilization == pytest.approx(0.5)
        assert usage.busy_time == pytest.approx(2.0)

    def test_last_value_held_to_horizon(self):
        tl = Timeline()
        tl.record(1.0, "l0", 100.0, 100.0)
        usage = tl.summarize("l0", until=3.0)
        assert usage.mean_utilization == pytest.approx(2.0 / 3.0)

    def test_top_ranks_by_mean(self):
        tl = Timeline()
        tl.record(0.0, "hot", 90.0, 100.0)
        tl.record(0.0, "cold", 10.0, 100.0)
        tl.record(0.0, "cpu", 1e9, 1e9, kind="host")
        top = tl.top(until=1.0, k=5)
        assert [u.name for u in top] == ["hot", "cold"]
        assert tl.names(kind="host") == ["cpu"]

    def test_rows_round_trip(self):
        tl = Timeline()
        tl.record(0.5, "l0", 10.0, 100.0)
        tl.record(1.5, "c0", 2e9, 4e9, kind="host")
        back = Timeline()
        for row in tl.as_rows():
            back.load_row(*row)
        assert back.samples("l0") == tl.samples("l0")
        assert back.kinds == tl.kinds
        assert back.capacities == tl.capacities


class TestEngineSampling:
    def test_tracing_off_leaves_engine_untouched(self):
        platform = cluster("off", 4)
        result = smpirun(traffic_app, 4, platform, config=SmpiConfig())
        assert result.trace.timeline is None
        assert result.stats.link_samples == 0

    def test_tracing_on_samples_links_and_hosts(self, traced):
        timeline = traced.trace.timeline
        assert timeline is not None
        assert timeline.n_samples > 0
        assert traced.stats.link_samples == timeline.n_samples
        assert timeline.names(kind="link")
        assert timeline.names(kind="host")

    def test_usage_never_exceeds_capacity(self, traced):
        timeline = traced.trace.timeline
        for name in timeline.names():
            capacity = timeline.capacities[name]
            for _t, usage in timeline.samples(name):
                assert usage <= capacity * (1 + 1e-9)

    def test_every_link_returns_to_idle(self, traced):
        """After the run drains, the last sample of each resource is 0."""
        timeline = traced.trace.timeline
        for name in timeline.names():
            assert timeline.samples(name)[-1][1] == pytest.approx(0.0)

    def test_full_reshare_engine_samples_too(self):
        platform = cluster("full", 4)
        engine = oracle_engine(platform, full=True)
        result = smpirun(traffic_app, 4, platform,
                         config=SmpiConfig(tracing=True), engine=engine)
        assert result.trace.timeline is not None
        assert result.trace.timeline.n_samples > 0

    def test_incremental_matches_full_reshare_utilization(self):
        """Both sampling paths must integrate to the same busy time."""
        inc = traced_run().trace.timeline
        platform = cluster("tr", 4)
        full = smpirun(traffic_app, 4, platform,
                       config=SmpiConfig(tracing=True),
                       engine=oracle_engine(platform, full=True))
        ftl = full.trace.timeline
        assert sorted(inc.names()) == sorted(ftl.names())
        for name in inc.names():
            a = inc.summarize(name, until=1.0)
            b = ftl.summarize(name, until=1.0)
            assert a.mean_utilization == pytest.approx(
                b.mean_utilization, rel=1e-6, abs=1e-12)


class TestTracerCsv:
    def test_round_trip(self, traced):
        text = traced.trace.to_csv()
        back = Tracer.from_csv(text)
        assert back.comms == traced.trace.comms
        assert back.computes == traced.trace.computes
        assert back.timeline is not None
        assert back.timeline.as_rows() == traced.trace.timeline.as_rows()

    def test_open_records_dropped_not_nan(self):
        """Regression: unfinished comms used to serialize as ``nan``."""
        tracer = Tracer()
        tracer.comms.append(CommRecord(0, 0, 1, 0, 10, True, 0.0, 1.0))
        tracer.comms.append(CommRecord(1, 1, 0, 0, 10, True, 0.5))  # open
        text = tracer.to_csv()
        assert "nan" not in text
        assert len(Tracer.from_csv(text).comms) == 1
        assert tracer.open_records() == [tracer.comms[1]]

    def test_include_open_keeps_empty_end(self):
        tracer = Tracer()
        tracer.comms.append(CommRecord(0, 0, 1, 0, 10, True, 0.5))
        text = tracer.to_csv(include_open=True)
        assert "nan" not in text
        back = Tracer.from_csv(text)
        assert len(back.comms) == 1
        assert not back.comms[0].closed

    def test_rejects_foreign_csv(self):
        with pytest.raises(ConfigError):
            Tracer.from_csv("a,b,c\n1,2,3\n")


class TestAnalysis:
    def test_fractions_sum_to_one(self, traced):
        for fractions in state_fractions(traced.trace, 4):
            assert sum(fractions.values()) == pytest.approx(1.0)

    def test_strips_cover_makespan_without_overlap(self, traced):
        horizon = makespan(traced.trace)
        for strip in state_intervals(traced.trace, 4):
            assert strip[0][0] == 0.0
            assert strip[-1][1] == pytest.approx(horizon)
            for (_, prev_end, _), (start, _, _) in zip(strip, strip[1:]):
                assert start == pytest.approx(prev_end)

    def test_makespan_matches_simulated_time(self, traced):
        assert makespan(traced.trace) == pytest.approx(
            traced.simulated_time, rel=1e-9)

    def test_critical_path_is_time_ordered_chain(self, traced):
        path = critical_path(traced.trace)
        assert path.steps
        assert path.steps[-1].end == pytest.approx(path.makespan)
        for a, b in zip(path.steps, path.steps[1:]):
            assert a.end <= b.start + 1e-9
            assert a.slack == pytest.approx(max(b.start - a.end, 0.0))
        assert path.comm_time + path.compute_time + path.idle_time == (
            pytest.approx(path.makespan))
        assert "critical path:" in path.describe()

    def test_empty_trace(self):
        tracer = Tracer()
        assert makespan(tracer) == 0.0
        assert critical_path(tracer).steps == []
        assert state_fractions(tracer) == []


class TestGantt:
    def test_ascii_shape_and_legend(self, traced):
        chart = ascii_gantt(traced.trace, 4, width=40)
        lines = chart.splitlines()
        lanes = [l for l in lines if l.startswith("r")]
        assert len(lanes) == 4
        assert all(len(l) == len(lanes[0]) for l in lanes)
        assert "#" in chart and "computing" in chart

    def test_ascii_critical_overlay(self, traced):
        assert "*" in ascii_gantt(traced.trace, 4, width=40, critical=True)

    def test_svg_is_wellformed_xml(self, traced):
        svg = svg_gantt(traced.trace, 4, critical=True)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        assert len(rects) >= 4


class TestPaje:
    def test_header_is_self_describing(self, traced):
        text = export_paje(traced.trace, 4)
        assert text.startswith("%EventDef")
        for event in ("PajeSetState", "PajeStartLink", "PajeEndLink",
                      "PajeSetVariable", "PajeCreateContainer"):
            assert event in text

    def test_golden_small_trace(self):
        """Byte-exact export of a hand-built two-rank trace."""
        tracer = Tracer()
        tracer.comms.append(CommRecord(0, 0, 1, 5, 1000, True, 0.25, 0.75))
        tracer.computes.append(ComputeRecord(0, 1e6, 0.0, 0.25))
        body = export_paje(tracer, 2).split("%EndEventDef\n")[-1]
        assert body.splitlines() == [
            '0 R 0 "simulation"',
            '0 P R "rank"',
            '1 ST P "rank state"',
            '4 c ST "computing" "0.18 0.49 0.20"',
            '4 m ST "communicating" "0.08 0.40 0.75"',
            '4 w ST "waiting" "0.88 0.88 0.88"',
            '3 LK R P P "message"',
            '4 e LK "eager" "0.95 0.61 0.07"',
            '4 r LK "rendezvous" "0.55 0.14 0.67"',
            '5 0.000000000 root R 0 "simulation"',
            '5 0.000000000 rank0 P root "rank 0"',
            '5 0.000000000 rank1 P root "rank 1"',
            '7 0.000000000 ST rank0 c',
            '7 0.000000000 ST rank1 w',
            '7 0.250000000 ST rank0 m',
            '7 0.250000000 ST rank1 m',
            '9 0.250000000 LK root e rank0 m0 1000 5',
            '10 0.750000000 LK root e rank1 m0',
            '6 0.750000000 P rank0',
            '6 0.750000000 P rank1',
            '6 0.750000000 R root',
        ]

    def test_parse_round_trip_preserves_comms(self, traced):
        text = export_paje(traced.trace, 4)
        back, n_ranks = parse_paje(text)
        assert n_ranks == 4
        key = lambda r: (r.mid, r.src, r.dst)
        orig = sorted((r for r in traced.trace.comms if r.closed), key=key)
        parsed = sorted(back.comms, key=key)
        assert len(parsed) == len(orig)
        for a, b in zip(orig, parsed):
            assert (a.mid, a.src, a.dst, a.tag, a.nbytes, a.eager) == (
                b.mid, b.src, b.dst, b.tag, b.nbytes, b.eager)
            assert b.start == pytest.approx(a.start, abs=1e-9)
            assert b.end == pytest.approx(a.end, abs=1e-9)

    def test_parse_round_trip_preserves_timeline(self, traced):
        back, _ = parse_paje(export_paje(traced.trace, 4))
        orig = traced.trace.timeline
        assert back.timeline is not None
        assert sorted(back.timeline.names()) == sorted(orig.names())
        for name in orig.names():
            a = orig.summarize(name, 1.0)
            b = back.timeline.summarize(name, 1.0)
            assert b.mean_utilization == pytest.approx(
                a.mean_utilization, rel=1e-5, abs=1e-12)
            assert back.timeline.kinds[name] == orig.kinds[name]

    def test_parsed_trace_supports_analyses(self, traced):
        back, n_ranks = parse_paje(export_paje(traced.trace, 4))
        assert makespan(back) == pytest.approx(makespan(traced.trace),
                                               abs=1e-8)
        path = critical_path(back)
        assert path.steps
        assert ascii_gantt(back, n_ranks, width=30)

    def test_rejects_non_paje(self):
        with pytest.raises(ConfigError):
            parse_paje("kind,mid\ncomm,0\n")


class TestTiRoundTrip:
    def test_online_ti_offline_identical_time(self):
        """Record on-line, replay off-line: identical simulated time."""
        platform = cluster("ti", 4)
        online, ti = record_trace(traffic_app, 4, platform,
                                  config=SmpiConfig(tracing=True))
        replayed = replay_trace(ti, cluster("ti", 4),
                                config=SmpiConfig(tracing=True))
        assert replayed.simulated_time == online.simulated_time  # bit-exact
        assert makespan(replayed.trace) == pytest.approx(
            makespan(online.trace), rel=1e-12)

    def test_ti_save_load_preserves_time(self, tmp_path):
        platform = cluster("ti", 2)
        online, ti = record_trace(traffic_app, 2, platform)
        path = tmp_path / "t.json"
        ti.save(path)
        from repro.offline import TiTrace

        replayed = replay_trace(TiTrace.load(path), cluster("ti", 2))
        assert replayed.simulated_time == online.simulated_time
