"""Tests for the off-line (trace replay) simulator."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nas import dt_app, dt_graph
from repro.offline import TiEvent, TiTrace, record_trace, replay_trace
from repro.platforms import griffon
from repro.smpi import SmpiConfig
from repro.surf import cluster


def pingpong(mpi, size=10_000, reps=2):
    comm = mpi.COMM_WORLD
    buf = np.zeros(size, dtype=np.uint8)
    for _ in range(reps):
        if mpi.rank == 0:
            comm.Send(buf, 1, 0)
            comm.Recv(buf, 1, 0)
        else:
            comm.Recv(buf, 0, 0)
            comm.Send(buf, 0, 0)
    return mpi.wtime()


class TestRecording:
    def test_trace_captures_messages_and_compute(self):
        def app(mpi):
            comm = mpi.COMM_WORLD
            mpi.execute(5e6)
            if mpi.rank == 0:
                comm.Send(np.zeros(100, dtype=np.uint8), 1, 3)
            else:
                comm.Recv(np.zeros(100, dtype=np.uint8), 0, 3)

        _result, trace = record_trace(app, 2, cluster("rec", 2))
        assert trace.n_ranks == 2
        assert trace.total_messages() == 1
        assert trace.total_bytes() == 100
        assert trace.total_flops() == pytest.approx(1e7)
        kinds0 = [e.kind for e in trace.events[0]]
        assert kinds0 == ["compute", "send", "wait"]
        kinds1 = [e.kind for e in trace.events[1]]
        assert kinds1 == ["compute", "recv", "wait"]

    def test_collectives_recorded_as_pt2pt(self):
        def app(mpi):
            buf = np.zeros(10)
            mpi.COMM_WORLD.Bcast(buf, root=0)

        _result, trace = record_trace(app, 4, cluster("rc", 4))
        # binomial bcast on 4 ranks: 3 messages
        assert trace.total_messages() == 3

    def test_meta_records_provenance(self):
        result, trace = record_trace(pingpong, 2, griffon(2))
        assert trace.meta["recorded_on"] == "griffon"
        assert trace.meta["recorded_simulated_time"] == result.simulated_time

    def test_json_roundtrip(self, tmp_path):
        _result, trace = record_trace(pingpong, 2, cluster("js", 2))
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = TiTrace.load(path)
        assert loaded.n_ranks == trace.n_ranks
        assert loaded.total_bytes() == trace.total_bytes()
        assert [e.kind for e in loaded.events[0]] == [
            e.kind for e in trace.events[0]
        ]

    def test_rejects_foreign_json(self):
        with pytest.raises(ConfigError):
            TiTrace.from_json('{"format": "something-else"}')

    def test_event_kind_validated(self):
        with pytest.raises(ConfigError):
            TiEvent("teleport", ())


def _document(rows: list) -> str:
    """A two-rank trace whose rank 1 holds a valid compute and ``rows``."""
    return json.dumps({"format": "repro-ti-trace-1", "n_ranks": 2,
                       "meta": {}, "events": [[], [["compute", 1.0], *rows]]})


class TestMalformedRows:
    """A bad row is refused at load, naming its rank and event index."""

    @pytest.mark.parametrize("row", [
        ["compute"], ["compute", 1.0, 2.0], ["compute", "many"],
        ["compute", None],
    ])
    def test_compute(self, row):
        with pytest.raises(ConfigError, match="rank 1, event 1"):
            TiTrace.from_json(_document([row]))

    @pytest.mark.parametrize("row", [
        ["send", 1, 1], ["send", 1, 1, 64, 0, 0, 9], ["send", 1, 1, 6.4, 0, 0],
        ["send", 1, "1", 64, 0, 0], ["send", 1, 1, 64, 0, None],
        ["send", 1, 1, 2**64, 0, 0],
    ])
    def test_send(self, row):
        with pytest.raises(ConfigError, match="rank 1, event 1"):
            TiTrace.from_json(_document([row]))

    @pytest.mark.parametrize("row", [
        ["recv", 1, 0], ["recv", 1, 0, 3, 0, 0], ["recv", 1, 0.5, 3, 0],
        ["recv", 1, [0], 3, 0],
    ])
    def test_recv(self, row):
        with pytest.raises(ConfigError, match="rank 1, event 1"):
            TiTrace.from_json(_document([row]))

    @pytest.mark.parametrize("row", [
        ["wait"], ["wait", 1], ["wait", [1], [2]], ["wait", [1, 2.5]],
        ["wait", {"1": 1}],
    ])
    def test_wait(self, row):
        with pytest.raises(ConfigError, match="rank 1, event 1"):
            TiTrace.from_json(_document([row]))

    @pytest.mark.parametrize("row", [["teleport", 1], [], 7, "send"])
    def test_unknown_or_shapeless(self, row):
        with pytest.raises(ConfigError, match="rank 1, event 1"):
            TiTrace.from_json(_document([row]))

    def test_a_short_send_no_longer_reaches_the_replay(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(_document([["send", 1, 1]]), encoding="utf-8")
        with pytest.raises(ConfigError, match="'send'"):
            TiTrace.load(path)

    def test_a_refused_append_changes_nothing(self):
        trace = TiTrace(1)
        trace.append(0, TiEvent("wait", ([1, 2],)))
        for bad in (TiEvent("wait", ([3, "x"],)), TiEvent("wait", ((3,),)),
                    TiEvent("send", (1, 2, 3, 4, 5.5))):
            with pytest.raises(ConfigError, match="rank 0, event 1"):
                trace.append(0, bad)
        assert list(trace.events[0]) == [TiEvent("wait", ([1, 2],))]
        assert list(trace.events[0].ints) == [2, 1, 2]

    def test_the_rank_count_is_checked(self):
        text = _document([]).replace('"n_ranks": 2', '"n_ranks": 3')
        with pytest.raises(ConfigError, match="one event list per rank"):
            TiTrace.from_json(text)


class TestReplay:
    def test_replay_reproduces_online_time_exactly(self):
        """The strongest cross-check: same platform + config => same clock."""
        online, trace = record_trace(pingpong, 2, griffon(2))
        replayed = replay_trace(trace, griffon(2))
        assert replayed.simulated_time == pytest.approx(
            online.simulated_time, rel=1e-12
        )

    def test_replay_dt_graph_exact(self):
        graph = dt_graph("BH", "S")
        online, trace = record_trace(
            dt_app, graph.n_ranks, griffon(graph.n_ranks), app_args=(graph,)
        )
        replayed = replay_trace(trace, griffon(graph.n_ranks))
        assert replayed.simulated_time == pytest.approx(
            online.simulated_time, rel=1e-12
        )

    def test_replay_on_faster_platform_is_faster(self):
        _online, trace = record_trace(pingpong, 2, cluster("a", 2))
        slow = replay_trace(trace, cluster("slow", 2,
                                           link_bandwidth="12.5MBps"))
        fast = replay_trace(trace, cluster("fast", 2,
                                           link_bandwidth="1.25GBps"))
        assert fast.simulated_time < slow.simulated_time

    def test_replay_with_different_protocol_config(self):
        _online, trace = record_trace(
            pingpong, 2, cluster("p", 2), app_args=(200_000, 1)
        )
        eager = replay_trace(trace, cluster("pe", 2),
                             config=SmpiConfig(eager_threshold=1 << 22))
        rendezvous = replay_trace(trace, cluster("pr", 2),
                                  config=SmpiConfig(eager_threshold=1024))
        # 200 kB messages: rendezvous pays the handshake
        assert rendezvous.simulated_time > eager.simulated_time

    def test_replay_rejects_wrong_rank_count(self):
        """The paper's §2 point: a trace is tied to its configuration."""
        _online, trace = record_trace(pingpong, 2, cluster("w", 2))
        with pytest.raises(ConfigError):
            replay_trace(trace, cluster("w2", 4), n_ranks=4)

    def test_replay_does_not_need_the_application(self):
        """Replay moves no payload and runs no app code: memory stays flat."""
        def hungry(mpi):
            data = mpi.malloc(500_000)  # 4 MB per rank
            out = np.zeros(1)
            mpi.COMM_WORLD.Allreduce(np.array([data.sum()]), out)
            mpi.free(data)

        online, trace = record_trace(hungry, 4, cluster("m", 4))
        replayed = replay_trace(trace, cluster("m2", 4))
        assert replayed.memory.total_peak < online.memory.total_peak
        assert replayed.simulated_time == pytest.approx(
            online.simulated_time, rel=1e-12
        )

    def test_nonblocking_overlap_preserved(self):
        """A trace of isend-compute-wait must keep the overlap timing."""
        from repro.smpi import request as rq

        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                req = comm.Isend(np.zeros(50_000, dtype=np.uint8), 1, 0)
                mpi.execute(2e8)  # overlaps the transfer
                rq.wait(req)
            else:
                rq.wait(comm.Irecv(np.zeros(50_000, dtype=np.uint8), 0, 0))
            return mpi.wtime()

        online, trace = record_trace(app, 2, cluster("ov", 2))
        replayed = replay_trace(trace, cluster("ov2", 2))
        assert replayed.simulated_time == pytest.approx(
            online.simulated_time, rel=1e-12
        )

    def test_waitany_choice_replayed(self):
        from repro.smpi import request as rq

        def app(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 2:
                reqs = [
                    comm.Irecv(np.zeros(1), i, 0) for i in range(2)
                ]
                idx, _ = rq.waitany(reqs)
                rq.wait(reqs[1 - idx])
                return idx
            mpi.sleep(0.2 if mpi.rank == 0 else 0.0)
            comm.Send(np.zeros(1), 2, 0)

        online, trace = record_trace(app, 3, cluster("wa", 3))
        replayed = replay_trace(trace, cluster("wa2", 3))
        # note: mpi.sleep is not traced, so times differ; the replay must
        # still terminate and keep the message count
        assert replayed.stats.actions_completed > 0
        del online
