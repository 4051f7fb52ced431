"""Tests of the benchmark's own checks and span accounting.

    PYTHONPATH=src python3 -m pytest -q e2ebench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

import refclock
import run
import sample
import spans
from workloads import check_allreduce_ring, check_hpl_replay, check_nas_dt

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

RECORD = {
    "simulated_time": float.hex(0.25),
    "sim_s": 0.25,
    "counters": {"steps": 10, "shares": 10, "actions_completed": 8},
    "errors": [],
    "wall_s": 1.0,
    "setup_s": 0.5,
    "host_wall_s": 1.5,
    "host_setup_s": 0.75,
    "host_speed": 0.667,
    "peak_rss_mib": 100.0,
}


def test_identical_sample_passes():
    assert run.sample_failures(RECORD, RECORD, RECORD) == []


def test_changed_simulated_clock_is_a_failed_run():
    moved = dict(RECORD, simulated_time=float.hex(math.nextafter(0.25, 1.0)))
    failures = run.sample_failures(moved, RECORD, None)
    assert len(failures) == 1 and "simulated clock" in failures[0]


def test_changed_counter_fails_against_golden():
    moved = dict(RECORD, counters=dict(RECORD["counters"], steps=11))
    # the run agrees with itself but not with the committed values
    failures = run.sample_failures(moved, moved, RECORD)
    assert failures == ["counters ['steps'] differ from golden"]


def test_raised_sample_is_a_failed_run():
    assert run.sample_failures({"errors": ["ValueError: boom"]}, RECORD,
                               None) == ["ValueError: boom"]


def test_failed_sample_is_counted_not_fatal():
    wrong = dict(RECORD, errors=["3 ranks hold a wrong allreduce sum"])
    samples = [(False, RECORD, []),
               (False, wrong, run.sample_failures(wrong, RECORD, None)),
               (False, RECORD, [])]
    result, _notes = run.summarize(SPEC, samples, trace=False)
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert result["correct"] is False
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert result["metrics"]["wall_s"] == {"value": 1.0, "unit": "s"}


def test_run_where_every_sample_failed_still_reports():
    moved = dict(RECORD, simulated_time=float.hex(0.5))
    failures = run.sample_failures(moved, moved, RECORD)
    result, _notes = run.summarize(SPEC, [(False, moved, failures)] * 3,
                                   trace=False)
    assert (result["attempted"], result["failed"]) == (3, 3)
    assert result["correct"] is False


def test_wrong_allreduce_sum_is_detected():
    contributions = np.arange(12.0).reshape(3, 4)
    total = contributions.sum(axis=0)
    result = SimpleNamespace(returns=[total.copy() for _ in range(3)])
    assert check_allreduce_ring(result, contributions, None) == []
    result.returns[1][2] += 1.0
    assert check_allreduce_ring(result, contributions, None)


def test_wrong_dt_checksum_is_detected():
    expected = [float.hex(-2306.25)]
    assert check_nas_dt(SimpleNamespace(returns=[None, -2306.25]), None,
                        expected) == []
    off = math.nextafter(-2306.25, 0.0)
    assert check_nas_dt(SimpleNamespace(returns=[None, off]), None, expected)


def test_unmatched_send_is_detected(tmp_path):
    path = tmp_path / "trace.csv"
    header = "kind,mid,src,dst,tag,bytes,eager,start,end,link,failed\n"
    closed = "comm,1,0,1,7,64,1,0.0,0.5,,0\n"
    path.write_text(header + closed + "comm,2,1,0,7,64,1,0.0,0.6,,0\n")
    assert check_hpl_replay(None, (2, path), None) == []
    path.write_text(header + closed)
    assert check_hpl_replay(None, (2, path), None)
    path.write_text(header + closed + "comm,2,1,0,7,64,1,0.0,0.6,,1\n")
    assert check_hpl_replay(None, (2, path), None)


def test_reference_seconds_scale_by_the_probes_around_each_gap():
    ref = refclock.REFERENCE_PROBE_S
    clock = refclock.RefClock()
    # 1 s of work at the reference speed, then 1 s on a host half as fast
    clock.probes = [(10.0, ref), (11.0 + ref, ref), (12.0 + 2 * ref, 2 * ref),
                    (13.0 + 4 * ref, 2 * ref)]
    end = clock.probes[-1][0]
    assert math.isclose(clock.host_seconds(10.0, end), 3.0)
    # the middle second ran between a fast and a slow probe
    assert math.isclose(clock.reference_seconds(10.0, end),
                        1.0 + 1.0 / 1.5 + 0.5)
    # a starting point before the first probe is scaled by that probe
    assert math.isclose(clock.reference_seconds(9.0, 11.0 + ref), 2.0)


def test_reference_clock_probes_while_the_program_runs():
    clock = refclock.RefClock(period=0.01)
    begin = clock.start()
    deadline = time.monotonic() + 0.2
    while time.monotonic() < deadline:
        pass
    end = clock.stop()
    assert len(clock.probes) >= 4
    assert 0.0 < clock.host_seconds(begin, end) <= end - begin
    assert clock.reference_seconds(begin, end) > 0.0


class _Toy:
    def outer(self):
        time.sleep(0.02)
        self.inner()

    def inner(self):
        time.sleep(0.03)


def test_span_self_time_excludes_child_spans():
    recorder = spans.SpanRecorder()
    original = _Toy.__dict__["outer"]
    recorder.wrap(_Toy, "outer", "a")
    recorder.wrap(_Toy, "inner", "b")
    start = time.perf_counter()
    _Toy().outer()
    total = time.perf_counter() - start
    recorder.restore()
    self_s = recorder.totals["setup"]
    # without the subtraction "a" would hold at least 0.05 s
    assert 0.02 <= self_s["a"] < 0.045
    assert self_s["b"] >= 0.03
    assert self_s["a"] + self_s["b"] <= total
    assert _Toy.__dict__["outer"] is original


def test_traced_run_attributes_its_wall_time():
    from repro.platforms.griffon import griffon
    from repro.smpi import SmpiConfig, smpirun

    def app(mpi):
        data = np.full(1024, float(mpi.rank))
        total = np.empty_like(data)
        yield from mpi.co.execute(1e6)
        yield from mpi.COMM_WORLD.co.Allreduce(data, total)
        return total

    recorder = spans.SpanRecorder()
    spans.install(recorder)
    try:
        result = smpirun(app, 8, griffon(8), ctx="coroutine",
                         config=SmpiConfig(coll_algorithms={"allreduce": "ring"}))
        wall = time.monotonic() - recorder.first_event
    finally:
        recorder.restore()
    assert np.array_equal(result.returns[3], np.full(1024, 28.0))
    metrics = sample.layer_metrics(result, recorder, wall)
    traced_names = {m["name"] for m in SPEC["per_layer"]}
    assert set(metrics) == traced_names - {"span_overhead_share"}
    attributed = sum(recorder.totals["wall"].values())
    assert metrics["unattributed_s"] >= 0.0
    assert math.isclose(attributed + metrics["unattributed_s"], wall)
    assert metrics["pt2pt.messages"] == 8 * 7 * 2
    assert metrics["trace.sink_s"] == 0.0


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "allreduce_ring",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
