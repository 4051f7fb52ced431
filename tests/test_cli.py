"""Tests for the command-line launcher."""

from __future__ import annotations

import os

import pytest

from repro.cli import build_platform, load_app, main
from repro.errors import ConfigError

APP_SOURCE = '''
import numpy as np

def app(mpi):
    out = np.zeros(1)
    mpi.COMM_WORLD.Allreduce(np.array([1.0]), out)
    return float(out[0])

def other_entry(mpi):
    return "other"
'''

PINGPONG_SOURCE = '''
import numpy as np

def app(mpi):
    comm = mpi.COMM_WORLD
    buf = np.zeros(65536, dtype=np.uint8)
    for rep in range(4):
        if mpi.rank == 0:
            comm.Send(buf, dest=1, tag=rep)
            comm.Recv(buf, source=1, tag=rep)
        else:
            comm.Recv(buf, source=0, tag=rep)
            comm.Send(buf, dest=0, tag=rep)
    return mpi.rank
'''


@pytest.fixture
def app_file(tmp_path):
    path = tmp_path / "cli_app.py"
    path.write_text(APP_SOURCE)
    return str(path)


class TestBuildPlatform:
    def test_builtin_names(self):
        assert len(build_platform("griffon", 4).hosts) == 4
        assert len(build_platform("gdx", 10).hosts) == 10

    def test_cluster_spec(self):
        platform = build_platform("cluster:6", 6)
        assert len(platform.hosts) == 6
        custom = build_platform("cluster:2:1.25GBps:10us", 2)
        route = custom.route(custom.host_names()[0], custom.host_names()[1])
        assert route.bandwidth == pytest.approx(1.25e9)

    def test_bad_cluster_spec(self):
        with pytest.raises(ConfigError):
            build_platform("cluster:", 2)
        with pytest.raises(ConfigError):
            build_platform("cluster:2:a:b:c:d", 2)

    def test_xml_file(self, tmp_path):
        from repro.surf import cluster, save_platform_xml

        path = tmp_path / "p.xml"
        save_platform_xml(cluster("x", 3), path)
        platform = build_platform(str(path), 3)
        assert len(platform.hosts) == 3

    def test_unknown_spec(self):
        with pytest.raises(ConfigError):
            build_platform("the-cloud", 4)


class TestLoadApp:
    def test_loads_default_entry(self, app_file):
        assert callable(load_app(app_file))

    def test_loads_custom_entry(self, app_file):
        assert load_app(app_file, "other_entry")(None) == "other"

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_app("/nonexistent/app.py")

    def test_missing_entry(self, app_file):
        with pytest.raises(ConfigError):
            load_app(app_file, "no_such_function")


class TestCommands:
    def test_run(self, app_file, capsys):
        assert main(["run", app_file, "-n", "4", "--platform", "cluster:4"]) == 0
        out = capsys.readouterr().out
        assert "simulated time" in out
        assert "[4.0, 4.0, 4.0, 4.0]" in out

    def test_run_with_options(self, app_file, capsys):
        code = main([
            "run", app_file, "-n", "4", "--platform", "cluster:4",
            "--eager-threshold", "1KiB", "--coll", "allreduce=reduce_bcast",
        ])
        assert code == 0

    def test_record_and_replay_and_info(self, app_file, tmp_path, capsys):
        trace_path = str(tmp_path / "t.json")
        assert main(["run", app_file, "-n", "2", "--platform", "cluster:2",
                     "--record", trace_path]) == 0
        run_out = capsys.readouterr().out
        assert "trace written" in run_out

        assert main(["info", trace_path]) == 0
        info_out = capsys.readouterr().out
        assert "TI trace: 2 ranks" in info_out

        assert main(["replay", trace_path, "--platform", "cluster:2"]) == 0
        replay_out = capsys.readouterr().out
        assert "replaying" in replay_out

    def test_replay_reproduces_recorded_time(self, app_file, tmp_path, capsys):
        trace_path = str(tmp_path / "t.json")
        main(["run", app_file, "-n", "2", "--platform", "cluster:2",
              "--record", trace_path])
        recorded = capsys.readouterr().out
        main(["replay", trace_path, "--platform", "cluster:2"])
        replayed = capsys.readouterr().out
        line = next(l for l in recorded.splitlines() if "simulated" in l)
        line2 = next(l for l in replayed.splitlines()
                     if l.startswith("simulated"))
        assert line.split(":")[1] == line2.split(":")[1]

    def test_replay_checkpoint_and_resume(self, tmp_path, capsys):
        app_path = tmp_path / "pingpong.py"
        app_path.write_text(PINGPONG_SOURCE)
        trace_path = str(tmp_path / "t.json")
        main(["run", str(app_path), "-n", "2", "--platform", "cluster:2",
              "--record", trace_path])
        recorded = capsys.readouterr().out
        line = next(l for l in recorded.splitlines() if "simulated" in l)
        value, unit = line.split(":")[1].split()
        total = float(value) * {"s": 1.0, "ms": 1e-3, "us": 1e-6,
                                "ns": 1e-9}[unit]

        ckpt_path = str(tmp_path / "t.ckpt.json")
        assert main(["replay", trace_path, "--platform", "cluster:2",
                     "--checkpoint-at", str(total / 2),
                     "--checkpoint-out", ckpt_path]) == 0
        ckpt_out = capsys.readouterr().out
        assert "checkpoint" in ckpt_out
        assert os.path.exists(ckpt_path)

        assert main(["replay", trace_path, "--platform", "cluster:2",
                     "--resume-from", ckpt_path]) == 0
        resumed = capsys.readouterr().out
        assert "resumed from" in resumed
        line2 = next(l for l in resumed.splitlines()
                     if l.startswith("simulated"))
        assert line.split(":")[1] == line2.split(":")[1]

    def test_replay_rejects_checkpoint_with_resume(self, app_file, tmp_path,
                                                   capsys):
        trace_path = str(tmp_path / "t.json")
        main(["run", app_file, "-n", "2", "--platform", "cluster:2",
              "--record", trace_path])
        capsys.readouterr()
        assert main(["replay", trace_path, "--platform", "cluster:2",
                     "--checkpoint-at", "0.001",
                     "--resume-from", trace_path]) != 0

    def test_platforms_listing(self, capsys):
        assert main(["platforms"]) == 0
        assert "griffon" in capsys.readouterr().out

    def test_error_exit_code(self, capsys):
        assert main(["run", "/nope.py", "-n", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_coll_option_validation(self, app_file, capsys):
        assert main(["run", app_file, "-n", "2", "--platform", "cluster:2",
                     "--coll", "not-a-pair"]) == 2


class TestStatsFlag:
    def test_run_prints_kernel_stats(self, app_file, capsys):
        assert main(["run", app_file, "-n", "4", "--platform", "cluster:4",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "kernel stats" in out
        assert "flows resolved" in out
        assert "partial shares" in out
        assert "components solved" in out

    def test_replay_accepts_stats(self, app_file, tmp_path, capsys):
        trace_path = str(tmp_path / "t.json")
        main(["run", app_file, "-n", "2", "--platform", "cluster:2",
              "--record", trace_path])
        capsys.readouterr()
        assert main(["replay", trace_path, "--platform", "cluster:2",
                     "--stats"]) == 0
        assert "kernel stats" in capsys.readouterr().out


def _layer_rows(out: str) -> dict[str, float]:
    """``{layer: self seconds}`` parsed from the printed layer table."""
    lines = out.split("wall-time layers (exclusive):\n", 1)[1].splitlines()
    assert lines[0].split() == ["layer", "calls", "self", "s", "share"]
    return {line.split()[0]: float(line.split()[-2]) for line in lines[1:]}


class TestProfileFlag:
    def test_replay_profile_prints_layer_table(self, app_file, tmp_path,
                                               capsys):
        trace_path = str(tmp_path / "t.json")
        main(["run", app_file, "-n", "4", "--platform", "cluster:4",
              "--record", trace_path])
        capsys.readouterr()
        assert main(["replay", trace_path, "--platform", "cluster:4",
                     "--profile"]) == 0
        rows = _layer_rows(capsys.readouterr().out)
        assert {"simix.sched_s", "engine.step_s", "offline.load_s",
                "other", "total"} <= set(rows)
        assert sum(rows.values()) - rows["total"] == pytest.approx(
            rows["total"], abs=1e-3)

    def test_run_profile_prints_layer_table(self, app_file, capsys):
        assert main(["run", app_file, "-n", "4", "--platform", "cluster:4",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "kernel stats" not in out
        assert {"simix.resume_s", "match.s", "pt2pt.s"} <= set(
            _layer_rows(out))

    def test_profile_command_is_run_with_stats_and_profile(self, app_file,
                                                           capsys):
        assert main(["profile", app_file, "-n", "4",
                     "--platform", "cluster:4"]) == 0
        out = capsys.readouterr().out
        assert "kernel stats" in out
        assert "simix.sched_s" in _layer_rows(out)


class TestTraceCommands:
    @pytest.fixture
    def csv_trace(self, app_file, tmp_path, capsys):
        path = str(tmp_path / "run.csv")
        assert main(["run", app_file, "-n", "4", "--platform", "cluster:4",
                     "--trace", path]) == 0
        capsys.readouterr()
        return path

    def test_run_exports_csv(self, csv_trace):
        content = open(csv_trace).read()
        assert content.startswith("kind,mid")
        assert "comm," in content and "link," in content

    def test_run_exports_paje(self, app_file, tmp_path, capsys):
        path = str(tmp_path / "run.paje")
        assert main(["run", app_file, "-n", "4", "--platform", "cluster:4",
                     "--trace", path, "--trace-format", "paje"]) == 0
        assert open(path).read().startswith("%EventDef")
        assert main(["trace", "summary", path]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "top links" in out

    def test_run_exports_ti(self, app_file, tmp_path, capsys):
        path = str(tmp_path / "run.json")
        assert main(["run", app_file, "-n", "2", "--platform", "cluster:2",
                     "--trace", path, "--trace-format", "ti"]) == 0
        run_out = capsys.readouterr().out
        assert main(["replay", path, "--platform", "cluster:2"]) == 0
        replay_out = capsys.readouterr().out
        pick = lambda out: next(l for l in out.splitlines()
                                if l.startswith("simulated"))
        assert pick(run_out) == pick(replay_out)

    def test_summary(self, csv_trace, capsys):
        assert main(["trace", "summary", csv_trace]) == 0
        out = capsys.readouterr().out
        assert "rank activity" in out
        assert "computing" in out

    def test_gantt_ascii_and_svg(self, csv_trace, tmp_path, capsys):
        assert main(["trace", "gantt", csv_trace, "--width", "40",
                     "--critical"]) == 0
        out = capsys.readouterr().out
        assert "r0 |" in out and "*" in out
        svg_path = str(tmp_path / "g.svg")
        assert main(["trace", "gantt", csv_trace, "--svg", svg_path]) == 0
        assert open(svg_path).read().startswith("<svg")

    def test_critical_path(self, csv_trace, capsys):
        assert main(["trace", "critical-path", csv_trace]) == 0
        assert "critical path:" in capsys.readouterr().out

    def test_export_round_trip(self, csv_trace, tmp_path, capsys):
        paje_path = str(tmp_path / "out.paje")
        assert main(["trace", "export", csv_trace, "--format", "paje",
                     "-o", paje_path]) == 0
        back_path = str(tmp_path / "back.csv")
        assert main(["trace", "export", paje_path, "--format", "csv",
                     "-o", back_path]) == 0
        assert open(back_path).read().startswith("kind,mid")

    def test_ti_input_needs_platform(self, app_file, tmp_path, capsys):
        path = str(tmp_path / "run.json")
        main(["run", app_file, "-n", "2", "--platform", "cluster:2",
              "--record", path])
        capsys.readouterr()
        assert main(["trace", "summary", path]) == 2
        assert "--platform" in capsys.readouterr().err
        assert main(["trace", "summary", path,
                     "--platform", "cluster:2"]) == 0

    def test_replay_rejects_ti_reexport(self, app_file, tmp_path, capsys):
        path = str(tmp_path / "run.json")
        main(["run", app_file, "-n", "2", "--platform", "cluster:2",
              "--record", path])
        capsys.readouterr()
        assert main(["replay", path, "--platform", "cluster:2",
                     "--trace", str(tmp_path / "x.json"),
                     "--trace-format", "ti"]) == 2

    def test_replay_exports_trace(self, app_file, tmp_path, capsys):
        ti_path = str(tmp_path / "run.json")
        main(["run", app_file, "-n", "2", "--platform", "cluster:2",
              "--record", ti_path])
        capsys.readouterr()
        csv_path = str(tmp_path / "replay.csv")
        assert main(["replay", ti_path, "--platform", "cluster:2",
                     "--trace", csv_path]) == 0
        assert main(["trace", "summary", csv_path]) == 0
