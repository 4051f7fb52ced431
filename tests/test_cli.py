"""Tests for the command-line launcher."""

from __future__ import annotations

import pickle

import pytest

from repro.cli import build_platform, load_app, main
from repro.errors import ConfigError
from repro.scenario import PlatformSpec
from repro.sweep import SweepSpec

APP_SOURCE = '''
import numpy as np

def app(mpi):
    out = np.zeros(1)
    mpi.COMM_WORLD.Allreduce(np.array([1.0]), out)
    return float(out[0])

def other_entry(mpi):
    return "other"
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


class TestPlatformSpec:
    """The scenario grammar shared by ``repro run`` and sweep specs."""

    @pytest.mark.parametrize("field, entry", [
        ("availability", "cli-l0"), ("availability", "=wave.trace"),
        ("state_profile", "cli-l0="), ("fail_at", "soon:cli-l0"),
        ("fail_at", "0.5"), ("restore_at", "1.0:"),
    ])
    def test_malformed_entries_are_refused_when_made(self, field, entry):
        with pytest.raises(ConfigError, match=field):
            PlatformSpec("cluster:2", **{field: [entry]})
        with pytest.raises(ConfigError, match=field):
            SweepSpec.from_dict({
                "platforms": [{"spec": "cluster:2", field: [entry]}],
                "workloads": [{"builtin": "pingpong", "n": 2}]})

    def test_static_spec_builds_no_engine(self):
        platform, engine = PlatformSpec("cluster:3").build(3)
        assert len(platform.hosts) == 3 and engine is None
        assert not PlatformSpec("cluster:3").is_dynamic()

    def test_paths_resolve_against_base_dir(self, tmp_path):
        from repro.surf import cluster, save_platform_xml

        save_platform_xml(cluster("x", 3), tmp_path / "p.xml")
        (tmp_path / "wave.trace").write_text("0.0 1.0\n0.5 0.5\n")
        spec = PlatformSpec("p.xml", availability=["x-l1=wave.trace"])
        platform, _ = spec.build(3, base_dir=tmp_path)
        assert platform.link("x-l1").availability_profile.value_at(0.7) == 0.5
        # relative to the working directory, neither file exists
        with pytest.raises(ConfigError, match="unknown platform 'p.xml'"):
            spec.build(3)
        with pytest.raises(ConfigError, match="'wave.trace' not found"):
            PlatformSpec("cluster:3", availability=["cli-l1=wave.trace"]
                         ).build(3)

    def test_events_script_the_engine(self):
        spec = PlatformSpec("cluster:2", fail_at=["0.001:node-1"],
                            restore_at=["0.002:node-1"])
        assert spec.events == ((0.001, "node-1", True),
                               (0.002, "node-1", False))
        platform, engine = spec.build(2)
        engine.run()
        assert engine.stats.resource_failures == 1
        assert engine.stats.resource_restores == 1
        assert not engine.is_dead(platform.host("node-1"))
        with pytest.raises(ConfigError, match="no link or host"):
            PlatformSpec("cluster:2", fail_at=["1:nowhere"]).build(2)

    def test_specs_hash_by_their_entries(self):
        a = PlatformSpec("cluster:2", fail_at=["0.5:cli-l0"])
        assert a == PlatformSpec("cluster:2", fail_at=("0.5:cli-l0",))
        assert hash(a) != hash(PlatformSpec("cluster:2"))
        assert pickle.loads(pickle.dumps(a)).events == a.events


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

    def test_platforms_listing(self, capsys):
        assert main(["platforms"]) == 0
        assert "griffon" in capsys.readouterr().out

    def test_error_exit_code(self, capsys):
        assert main(["run", "/nope.py", "-n", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "replay", "profile"])
    def test_there_is_no_ctx_flag(self, command, app_file, capsys):
        """A rank's execution context follows its entry function."""
        ranks = [] if command == "replay" else ["-n", "2"]
        with pytest.raises(SystemExit) as exit_info:
            main([command, app_file, *ranks, "--ctx", "thread"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --ctx thread" in \
            capsys.readouterr().err
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--ctx" not in capsys.readouterr().out

    def test_coll_option_validation(self, app_file, capsys):
        assert main(["run", app_file, "-n", "2", "--platform", "cluster:2",
                     "--coll", "not-a-pair"]) == 2

    @pytest.mark.parametrize("argv", [
        ["replay", "{missing}", "--platform", "cluster:2"],
        ["trace", "summary", "{missing}"],
        ["trace", "gantt", "{missing}"],
        ["trace", "critical-path", "{missing}"],
        ["trace", "export", "{missing}", "--format", "csv", "-o", "{out}"],
        ["info", "{missing}"],
    ], ids=["replay", "summary", "gantt", "critical-path", "export", "info"])
    def test_missing_trace_file_is_a_plain_error(self, tmp_path, capsys, argv):
        """A missing input is a one-line diagnosis with exit code 2, as a
        missing application file is, not a traceback."""
        missing = str(tmp_path / "nope.json")
        argv = [arg.format(missing=missing, out=tmp_path / "out.csv")
                for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            f"error: trace file {missing!r} not found\n"
        assert list(tmp_path.iterdir()) == []


class TestConfigFlags:
    MARKED_APP = '''
import numpy as np
from pathlib import Path

def app(mpi):
    Path(__file__).with_name("ran").touch()
    out = np.zeros(1)
    mpi.COMM_WORLD.Allreduce(np.ones(1), out)
'''

    @pytest.mark.parametrize("flags", [
        ["--coll", "alltoal=pairwise"], ["--coll", "allreduce=nonsense"],
        ["--eager-threshold", "lots"], ["--on-host-down", "panic"],
    ])
    def test_bad_value_is_refused_before_the_run(self, tmp_path, capsys,
                                                 flags):
        app = tmp_path / "app.py"
        app.write_text(self.MARKED_APP)
        assert main(["run", str(app), "-n", "2", "--platform", "cluster:2",
                     *flags]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""
        assert not (tmp_path / "ran").exists()


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


FAULTY_RING_SOURCE = '''
import numpy as np

def app(mpi):
    comm = mpi.COMM_WORLD
    right, left = (mpi.rank + 1) % mpi.size, (mpi.rank - 1) % mpi.size
    out = np.full(500_000, mpi.rank, dtype=np.uint8)
    inp = np.zeros_like(out)
    for step in range(6):
        if mpi.rank % 2 == 0:
            comm.Send(out, dest=right, tag=step)
            comm.Recv(inp, source=left, tag=step)
        else:
            comm.Recv(inp, source=left, tag=step)
            comm.Send(out, dest=right, tag=step)
        mpi.execute(1e6)
    return int(inp[0])
'''


ABORTING_SOURCE = '''
import numpy as np

def app(mpi):
    comm = mpi.COMM_WORLD
    buf = np.zeros(16, dtype=np.uint8)
    if mpi.rank == 0:
        comm.Send(buf, dest=1)
        mpi.execute(1e6)
        raise RuntimeError("boom")
    comm.Recv(buf, source=0)
    comm.Recv(buf, source=0)
'''


class TestScenarioParity:
    """``repro run`` and a one-point sweep read a scenario the same way."""

    FAULT_OPTIONS = {"comm_retries": 4, "retry_backoff": 1e-3,
                     "comm_timeout": 5.0, "on_host_down": "kill-rank"}

    @pytest.fixture
    def scenario(self, tmp_path):
        (tmp_path / "ring.py").write_text(FAULTY_RING_SOURCE)
        (tmp_path / "wave.trace").write_text(
            "PERIODICITY 0.01\n0.0 1.0\n0.004 0.5\n")
        (tmp_path / "outage.trace").write_text("0.003 0\n0.009 1\n")
        return tmp_path

    def cli_result(self, argv, monkeypatch):
        import repro.cli as cli

        seen = []
        report = cli._report
        monkeypatch.setattr(cli, "_report", lambda result, *a, **kw: (
            seen.append(result), report(result, *a, **kw)))
        assert main(argv) == 0
        return seen[0]

    def test_run_with_every_fault_flag_matches_a_one_point_sweep(
            self, scenario, monkeypatch, capsys):
        from repro.sweep import SweepSpec, run_sweep

        d = scenario
        result = self.cli_result([
            "run", str(d / "ring.py"), "-n", "4", "--platform", "cluster:4",
            "--availability", f"cli-backbone={d / 'wave.trace'}",
            "--state-profile", f"cli-l2={d / 'outage.trace'}",
            "--fail-at", "0.002:cli-l1", "--restore-at", "0.007:cli-l1",
            "--comm-retries", "4", "--retry-backoff", "1e-3",
            "--comm-timeout", "5", "--on-host-down", "kill-rank", "--stats",
        ], monkeypatch)
        out = capsys.readouterr().out
        assert "resource faults  : 2 failed, 2 restored" in out
        assert "capacity events" in out
        assert result.returns == [3, 0, 1, 2]
        static = self.cli_result(["run", str(d / "ring.py"), "-n", "4",
                                  "--platform", "cluster:4"], monkeypatch)
        assert result.simulated_time > static.simulated_time

        spec = SweepSpec.from_dict({
            "platforms": [{"spec": "cluster:4",
                           "availability": ["cli-backbone=wave.trace"],
                           "state_profile": ["cli-l2=outage.trace"],
                           "fail_at": ["0.002:cli-l1"],
                           "restore_at": ["0.007:cli-l1"]}],
            "workloads": [{"file": "ring.py", "n": 4}],
            "options": self.FAULT_OPTIONS,
        }, base_dir=d)
        sweep = run_sweep(spec, jobs=1, cache=None)
        assert not sweep.errors
        (point,) = sweep.points
        assert point.simulated_time.hex() == result.simulated_time.hex()
        assert point.stats.to_dict() == result.stats.to_dict()


    CONFIG_FLAGS = ["--eager-threshold", "1KiB", "--zero-copy",
                    "--coll", "allreduce=ring", "--comm-retries", "4",
                    "--retry-backoff", "1e-3", "--comm-timeout", "5",
                    "--on-host-down", "kill-rank"]
    CONFIG_OPTIONS = {"eager_threshold": "1KiB", "zero_copy": True,
                      "coll.allreduce": "ring", **FAULT_OPTIONS}

    def test_every_config_flag_matches_a_one_point_sweep(
            self, scenario, monkeypatch, capsys):
        import dataclasses

        import repro.cli as cli
        from repro.sweep import SweepSpec, run_sweep

        d = scenario
        configs = []
        build = cli._config_from_args
        monkeypatch.setattr(cli, "_config_from_args", lambda args: (
            configs.append(build(args)) or configs[-1]))
        result = self.cli_result([
            "run", str(d / "ring.py"), "-n", "4", "--platform", "cluster:4",
            "--fail-at", "0.002:cli-l1", "--restore-at", "0.007:cli-l1",
            *self.CONFIG_FLAGS], monkeypatch)
        (config,) = configs
        assert config.eager_threshold == 1024 and config.zero_copy
        assert config.coll_algorithms == {"allreduce": "ring"}

        spec = SweepSpec.from_dict({
            "platforms": [{"spec": "cluster:4", "fail_at": ["0.002:cli-l1"],
                           "restore_at": ["0.007:cli-l1"]}],
            "workloads": [{"file": "ring.py", "n": 4}],
            "options": self.CONFIG_OPTIONS,
        }, base_dir=d)
        (point,) = spec.expand()
        assert (dataclasses.asdict(point.smpi_config())
                == dataclasses.asdict(config))
        sweep = run_sweep(spec, jobs=1, cache=None)
        assert not sweep.errors
        (point,) = sweep.points
        assert point.simulated_time.hex() == result.simulated_time.hex()
        assert point.stats.to_dict() == result.stats.to_dict()


class TestStatsBlock:
    """The full ``--stats`` block of one faulty, traced run, pinned."""

    EXPECTED = """\
kernel stats   :
  steps            : 76
  shares           : 53
  partial shares   : 0
  flows resolved   : 65
  components solved: 47
  fill rounds      : 18
  actions          : 92 created, 92 completed
  actions touched  : 132
  heap pops        : 84 (2 stale)
  peak concurrent  : 6
  context switches : 76 (0 fast resumes)
  link samples     : 181
  capacity events  : 13
  resource faults  : 2 failed, 2 restored
  match probes     : 48 (24 fast hits, 0 wildcard scans)
  pooled reuses    : 76
"""

    def test_stats_block_is_unchanged(self, tmp_path, capsys):
        d = tmp_path
        (d / "ring.py").write_text(FAULTY_RING_SOURCE)
        (d / "wave.trace").write_text("PERIODICITY 0.01\n0.0 1.0\n0.004 0.5\n")
        (d / "outage.trace").write_text("0.003 0\n0.009 1\n")
        assert main([
            "run", str(d / "ring.py"), "-n", "4", "--platform", "cluster:4",
            "--availability", f"cli-backbone={d / 'wave.trace'}",
            "--state-profile", f"cli-l2={d / 'outage.trace'}",
            "--fail-at", "0.002:cli-l1", "--restore-at", "0.007:cli-l1",
            "--comm-retries", "4", "--retry-backoff", "1e-3",
            "--comm-timeout", "5", "--on-host-down", "kill-rank", "--stats",
            "--trace", str(d / "t.csv")]) == 0
        out = capsys.readouterr().out
        assert out[out.index("kernel stats"):] == self.EXPECTED


class TestTraceOutputs:
    """``--trace`` streams; the bytes match the in-memory exporters."""

    @pytest.mark.parametrize("fmt", ["csv", "paje"])
    def test_streamed_trace_matches_in_memory_export(self, app_file, tmp_path,
                                                     fmt, capsys):
        from repro.smpi import SmpiConfig, smpirun
        from repro.trace import export_paje

        path = tmp_path / f"run.{fmt}"
        assert main(["run", app_file, "-n", "4", "--platform", "cluster:4",
                     "--trace", str(path), "--trace-format", fmt]) == 0
        assert f"trace written  : {path} ({fmt}, " in capsys.readouterr().out
        tracer = smpirun(load_app(app_file), 4, build_platform("cluster:4", 4),
                         config=SmpiConfig(tracing=True)).trace
        expected = tracer.to_csv() if fmt == "csv" else export_paje(tracer, 4)
        assert path.read_text(encoding="utf-8") == expected

    def test_record_and_ti_trace_write_both_files(self, app_file, tmp_path,
                                                  capsys):
        from repro.offline import TiTrace, record_trace

        record, ti = tmp_path / "r.json", tmp_path / "t.json"
        assert main(["run", app_file, "-n", "2", "--platform", "cluster:2",
                     "--record", str(record), "--trace", str(ti),
                     "--trace-format", "ti"]) == 0
        out = capsys.readouterr().out
        assert f"trace written  : {record}" in out
        assert f"trace written  : {ti}" in out
        assert record.read_bytes() == ti.read_bytes()
        _, trace = record_trace(load_app(app_file), 2,
                                build_platform("cluster:2", 2))
        trace.save(tmp_path / "memory.json")
        assert (tmp_path / "memory.json").read_bytes() == record.read_bytes()
        assert TiTrace.load(ti).n_ranks == 2

    @pytest.mark.parametrize("flags", [
        ["--trace", "t.csv"], ["--trace", "t.paje", "--trace-format", "paje"],
        ["--trace", "t.json", "--trace-format", "ti"], ["--record", "r.json"],
        ["--record", "r.json", "--trace", "t.csv"],
    ])
    def test_aborted_run_leaves_no_file(self, tmp_path, capsys, flags):
        app = tmp_path / "abort.py"
        app.write_text(ABORTING_SOURCE)
        flags = [str(tmp_path / f) if f.startswith(("t.", "r.")) else f
                 for f in flags]
        assert main(["run", str(app), "-n", "2", "--platform", "cluster:2",
                     *flags]) == 2
        assert "boom" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["abort.py"]

    @pytest.mark.parametrize("fmt", ["csv", "paje"])
    def test_aborted_replay_leaves_no_file(self, app_file, tmp_path, capsys,
                                           fmt):
        recorded = tmp_path / "r.json"
        assert main(["run", app_file, "-n", "2", "--platform", "cluster:2",
                     "--record", str(recorded)]) == 0
        before = sorted(tmp_path.iterdir())
        assert main(["replay", str(recorded), "--platform", "cluster:2",
                     "--fail-at", "0.0:cli-l0", "--trace-format", fmt,
                     "--trace", str(tmp_path / f"t.{fmt}")]) == 2
        assert "network failure" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("fmt", ["csv", "paje"])
    def test_refused_replay_leaves_no_file(self, app_file, tmp_path, fmt):
        """A replay refused before it runs (here for a rank count the
        trace was not recorded with) removes the files its sink opened."""
        from repro.offline import record_trace, replay_trace
        from repro.trace import CsvStreamSink, PajeStreamSink

        _, trace = record_trace(load_app(app_file), 2,
                                build_platform("cluster:2", 2))
        before = sorted(tmp_path.iterdir())
        target = tmp_path / f"t.{fmt}"
        sink = (PajeStreamSink(target, 3) if fmt == "paje"
                else CsvStreamSink(target))
        assert sorted(tmp_path.iterdir()) != before  # the sink's files
        with pytest.raises(ConfigError, match="cannot be replayed on 3"):
            replay_trace(trace, build_platform("cluster:3", 3), n_ranks=3,
                         trace_sink=sink)
        assert sorted(tmp_path.iterdir()) == before
