"""Tests for the batched sweep engine (`repro.sweep`).

Covers the spec grammar and its deterministic expansion, the
content-hash memo cache (identical spec -> identical key across
processes; any single-axis edit -> new key), the inline and
process-pool runners, report aggregation, and the CLI subcommands.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.surf import EngineStats
from repro.sweep import (
    PlatformSpec,
    ResultCache,
    SweepSpec,
    point_fingerprint,
    point_key,
    result_rows,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    sensitivity,
)
from repro.sweep.runner import _worker_platform

BASE_SPEC = {
    "name": "unit",
    "platforms": [{"spec": "cluster:2:125MBps:50us"},
                  {"spec": "cluster:2:1.25GBps:10us"}],
    "workloads": [{"builtin": "pingpong", "n": 2,
                   "params": {"size": 32768, "reps": 2}}],
    "axes": {"eager_threshold": [4096, 65536]},
}


def make_spec(tmp_path, **overrides):
    data = json.loads(json.dumps(BASE_SPEC))  # deep copy
    data.update(overrides)
    return SweepSpec.from_dict(data, base_dir=tmp_path)


class TestSpec:
    def test_json_and_toml_load_identically(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        del tomllib
        (tmp_path / "s.json").write_text(json.dumps(BASE_SPEC))
        (tmp_path / "s.toml").write_text(
            'name = "unit"\n'
            '[[platforms]]\nspec = "cluster:2:125MBps:50us"\n'
            '[[platforms]]\nspec = "cluster:2:1.25GBps:10us"\n'
            '[[workloads]]\nbuiltin = "pingpong"\nn = 2\n'
            'params = { size = 32768, reps = 2 }\n'
            '[axes]\neager_threshold = [4096, 65536]\n'
        )
        a = SweepSpec.load(tmp_path / "s.json")
        b = SweepSpec.load(tmp_path / "s.toml")
        assert [p.label() for p in a.expand()] == \
               [p.label() for p in b.expand()]
        assert [point_key(p, tmp_path) for p in a.expand()] == \
               [point_key(p, tmp_path) for p in b.expand()]

    def test_expansion_is_deterministic_and_ordered(self, tmp_path):
        spec = make_spec(tmp_path,
                         axes={"zero_copy": [False, True],
                               "eager_threshold": [1024, 2048]})
        points = spec.expand()
        # 2 platforms x 1 workload x 4 configs
        assert len(points) == 8
        assert [p.index for p in points] == list(range(8))
        # axes iterate in sorted-key order: eager_threshold before zero_copy
        assert points[0].assignment == (("eager_threshold", 1024),
                                        ("zero_copy", False))
        assert points[1].assignment == (("eager_threshold", 1024),
                                        ("zero_copy", True))
        assert [p.label() for p in spec.expand()] == \
               [p.label() for p in points]

    def test_point_config_translation(self, tmp_path):
        spec = make_spec(tmp_path,
                         axes={"coll.alltoall": ["pairwise"]},
                         options={"comm_retries": 2})
        point = spec.expand()[0]
        config = point.smpi_config()
        assert config.coll_algorithms == {"alltoall": "pairwise"}
        assert config.comm_retries == 2

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            make_spec(tmp_path, axes={"warp_speed": [9]})
        # an actor's execution context follows its entry function
        with pytest.raises(ConfigError, match="unknown sweep axis 'ctx'"):
            make_spec(tmp_path, axes={"ctx": ["thread"]})
        with pytest.raises(ConfigError, match="unknown sweep axis 'ctx'"):
            make_spec(tmp_path, options={"ctx": "coroutine"})
        with pytest.raises(ConfigError, match="coll."):
            make_spec(tmp_path, axes={"coll_algorithms": [{}]})

    def test_bad_axis_value_rejected_at_expansion(self, tmp_path):
        spec = make_spec(tmp_path, axes={"on_host_down": ["shrug"]})
        with pytest.raises(ConfigError):
            spec.expand()

    def test_size_strings_parse_like_the_cli(self, tmp_path):
        spec = make_spec(tmp_path, axes={"eager_threshold": ["64KiB"]},
                         options={"memory_limit": "1GiB"})
        (point, _) = spec.expand()
        config = point.smpi_config()
        assert config.eager_threshold == 65536
        assert config.memory_limit == 1024**3
        assert point.label().endswith("eager_threshold=64KiB")
        same = make_spec(tmp_path, axes={"eager_threshold": [65536]},
                         options={"memory_limit": 1024**3}).expand()[0]
        assert point_key(point, tmp_path) == point_key(same, tmp_path)

    @pytest.mark.parametrize("axes, message", [
        ({"eager_threshold": ["lots"]}, "cannot parse size"),
        ({"comm_retries": ["three"]}, "takes int"),
        ({"retry_backoff": [True]}, "takes float"),
        ({"coll.alltoal": ["pairwise"]}, "unknown collective"),
        ({"coll.allreduce": ["nonsense"]}, "unknown algorithm"),
    ])
    def test_bad_values_are_refused_when_the_spec_loads(self, tmp_path, axes,
                                                        message):
        data = dict(BASE_SPEC, axes=axes)
        (tmp_path / "s.json").write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=message):
            SweepSpec.load(tmp_path / "s.json")
        with pytest.raises(ConfigError, match=message):
            make_spec(tmp_path, axes={}, options={
                k: v[0] for k, v in axes.items()})

    def test_structural_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="no platforms"):
            SweepSpec.from_dict({"workloads": BASE_SPEC["workloads"]})
        with pytest.raises(ConfigError, match="no workloads"):
            SweepSpec.from_dict({"platforms": ["cluster:2"]})
        with pytest.raises(ConfigError, match="exactly one of"):
            SweepSpec.from_dict({
                "platforms": ["cluster:2"],
                "workloads": [{"builtin": "pingpong", "file": "x.py",
                               "n": 2}],
            })
        with pytest.raises(ConfigError, match="unknown sweep spec keys"):
            SweepSpec.from_dict(dict(BASE_SPEC, typo=1))

    def test_missing_spec_file(self):
        with pytest.raises(ConfigError, match="not found"):
            SweepSpec.load("no-such-sweep.toml")


class TestCacheKey:
    def test_identical_specs_share_keys(self, tmp_path):
        a = make_spec(tmp_path).expand()
        b = make_spec(tmp_path).expand()
        assert [point_key(p, tmp_path) for p in a] == \
               [point_key(p, tmp_path) for p in b]

    def test_key_stable_across_processes(self, tmp_path):
        """The content hash is machine-stable, not id()/hash()-seeded."""
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(BASE_SPEC))
        script = (
            "import json, sys\n"
            "from repro.sweep import SweepSpec, point_key\n"
            f"spec = SweepSpec.load({str(spec_file)!r})\n"
            "print(json.dumps([point_key(p, spec.base_dir)"
            " for p in spec.expand()]))\n"
        )
        keys = []
        for seed in ("0", "424242"):
            out = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True,
                env={"PYTHONPATH": str(Path(__file__).parent.parent / "src"),
                     "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            )
            keys.append(json.loads(out.stdout))
        assert keys[0] == keys[1]
        parent = [point_key(p, tmp_path) for p in make_spec(tmp_path).expand()]
        assert keys[0] == parent

    def test_any_single_axis_edit_changes_the_key(self, tmp_path):
        base = point_key(make_spec(tmp_path).expand()[0], tmp_path)
        edits = [
            # platform bandwidth
            dict(platforms=[{"spec": "cluster:2:250MBps:50us"},
                            BASE_SPEC["platforms"][1]]),
            # workload parameter
            dict(workloads=[{"builtin": "pingpong", "n": 2,
                             "params": {"size": 65536, "reps": 2}}]),
            # rank count
            dict(workloads=[{"builtin": "pingpong", "n": 4,
                             "params": {"size": 32768, "reps": 2}}]),
            # different builtin
            dict(workloads=[{"builtin": "ring", "n": 2}]),
            # config axis value
            dict(axes={"eager_threshold": [8192, 65536]}),
            # a fixed option
            dict(options={"comm_retries": 1}),
            # a second axis
            dict(axes={"eager_threshold": [4096], "zero_copy": [True]}),
        ]
        seen = {base}
        for overrides in edits:
            key = point_key(make_spec(tmp_path, **overrides).expand()[0],
                            tmp_path)
            assert key not in seen, f"edit {overrides} did not change the key"
            seen.add(key)

    def test_file_workload_content_hashes(self, tmp_path):
        app = tmp_path / "app.py"
        app.write_text("def app(mpi):\n    return mpi.rank\n")
        spec = make_spec(tmp_path, workloads=[{"file": "app.py", "n": 2}])
        first = point_key(spec.expand()[0], tmp_path)
        again = point_key(spec.expand()[0], tmp_path)
        assert first == again
        app.write_text("def app(mpi):\n    return mpi.rank + 1\n")
        assert point_key(spec.expand()[0], tmp_path) != first

    def test_fingerprint_covers_profile_contents(self, tmp_path):
        profile = tmp_path / "wave.trace"
        profile.write_text("PERIODICITY 1.0\n0.0 1.0\n0.5 0.5\n")
        spec = make_spec(tmp_path, platforms=[
            {"spec": "cluster:2", "availability": ["cli-l0=wave.trace"]}])
        first = point_key(spec.expand()[0], tmp_path)
        profile.write_text("PERIODICITY 1.0\n0.0 1.0\n0.5 0.25\n")
        assert point_key(spec.expand()[0], tmp_path) != first

    def test_fingerprint_is_inspectable(self, tmp_path):
        fp = point_fingerprint(make_spec(tmp_path).expand()[0], tmp_path)
        assert fp["workload"]["source"].startswith("builtin:pingpong:")
        assert "<platform" in fp["platform"]["xml"]
        assert fp["config"]["eager_threshold"] == 4096


class TestRunner:
    def test_inline_run_then_full_cache_hit(self, tmp_path):
        spec = make_spec(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(spec, jobs=1, cache=cache)
        assert cold.hits == 0 and cold.misses == 4 and not cold.errors
        assert len(cache) == 4
        warm = run_sweep(spec, jobs=1, cache=cache)
        assert warm.hits == 4 and warm.misses == 0
        for a, b in zip(cold.points, warm.points):
            assert b.cached and a.simulated_time == b.simulated_time
            assert a.stats.to_dict() == b.stats.to_dict()

    def test_force_and_no_cache(self, tmp_path):
        spec = make_spec(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        run_sweep(spec, jobs=1, cache=cache)
        forced = run_sweep(spec, jobs=1, cache=cache, force=True)
        assert forced.hits == 0 and forced.misses == 4
        uncached = run_sweep(spec, jobs=1, cache=None)
        assert uncached.hits == 0 and not uncached.errors

    def test_process_pool_matches_inline(self, tmp_path):
        spec = make_spec(tmp_path)
        inline = run_sweep(spec, jobs=1, cache=None)
        pooled = run_sweep(spec, jobs=2, cache=ResultCache(tmp_path / "c2"))
        assert pooled.workers == 2
        for a, b in zip(inline.points, pooled.points):
            assert a.simulated_time == pytest.approx(b.simulated_time,
                                                     abs=0.0, rel=0.0)

    def test_failed_points_are_reported_not_cached(self, tmp_path):
        spec = make_spec(tmp_path, platforms=[
            {"spec": "cluster:2", "fail_at": ["0.0:cli-l0"]}])
        cache = ResultCache(tmp_path / "cache")
        result = run_sweep(spec, jobs=1, cache=cache)
        assert len(result.errors) == len(result.points)
        assert len(cache) == 0
        again = run_sweep(spec, jobs=1, cache=cache)
        assert again.hits == 0  # errors never memoize

    def test_trace_artifacts_land_in_the_cache(self, tmp_path):
        spec = make_spec(tmp_path, trace=True,
                         axes={"eager_threshold": [4096]})
        cache = ResultCache(tmp_path / "cache")
        result = run_sweep(spec, jobs=1, cache=cache)
        warm = run_sweep(spec, jobs=1, cache=cache)
        assert warm.hits == len(result.points)
        for point_result in list(result.points) + list(warm.points):
            assert point_result.trace_path is not None
            text = Path(point_result.trace_path).read_text()
            assert text.splitlines()[0].startswith("kind")

    def test_worker_platform_is_reused(self, tmp_path):
        spec = PlatformSpec("cluster:2")
        first = _worker_platform(spec, 2, str(tmp_path))
        second = _worker_platform(spec, 2, str(tmp_path))
        assert first is second
        other = _worker_platform(spec, 4, str(tmp_path))
        assert other is not first


class TestReport:
    def test_rows_csv_json_and_sensitivity(self, tmp_path):
        spec = make_spec(tmp_path)
        result = run_sweep(spec, jobs=1, cache=None)
        rows = result_rows(result)
        assert len(rows) == 4
        assert {row["eager_threshold"] for row in rows} == {4096, 65536}
        csv_text = rows_to_csv(rows)
        assert csv_text.splitlines()[0].startswith("point,platform,workload")
        assert len(csv_text.splitlines()) == 5
        parsed = json.loads(rows_to_json(rows))
        assert parsed[0]["simulated_time"] == rows[0]["simulated_time"]
        means = sensitivity(rows, "eager_threshold")
        assert set(means) == {4096, 65536}
        assert all(v > 0 for v in means.values())


class TestSweepCli:
    def write_spec(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(BASE_SPEC))
        return str(spec_file)

    def test_run_status_report(self, tmp_path, capsys):
        spec_file = self.write_spec(tmp_path)
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "run", spec_file, "--jobs", "1",
                     "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert "cache hits     : 0/4" in first
        assert main(["sweep", "run", spec_file, "--jobs", "1",
                     "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "cache hits     : 4/4 (all points served from cache)" in second
        assert main(["sweep", "status", spec_file,
                     "--cache-dir", cache_dir]) == 0
        status = capsys.readouterr().out
        assert "4/4 points ready" in status
        out_csv = tmp_path / "report.csv"
        assert main(["sweep", "report", spec_file, "--cache-dir", cache_dir,
                     "--format", "csv", "-o", str(out_csv)]) == 0
        capsys.readouterr()
        assert len(out_csv.read_text().splitlines()) == 5

    def test_run_reports_failures_with_exit_code(self, tmp_path, capsys):
        spec_file = tmp_path / "bad.json"
        data = json.loads(json.dumps(BASE_SPEC))
        data["platforms"] = [{"spec": "cluster:2", "fail_at": ["0.0:cli-l0"]}]
        spec_file.write_text(json.dumps(data))
        assert main(["sweep", "run", str(spec_file), "--jobs", "1",
                     "--cache-dir", str(tmp_path / "c")]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out

    @pytest.mark.parametrize("axes", [
        {"eager_threshold": ["lots"]}, {"comm_retries": ["three"]},
        {"coll.alltoal": ["pairwise"]}, {"coll.allreduce": ["nonsense"]},
    ])
    @pytest.mark.parametrize("command", ["run", "status"])
    def test_bad_value_exits_2_before_any_simulation(self, tmp_path, capsys,
                                                     axes, command):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps(dict(BASE_SPEC, axes=axes)))
        cache_dir = tmp_path / "cache"
        assert main(["sweep", command, str(spec_file),
                     "--cache-dir", str(cache_dir)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: sweep axis ")
        assert "Traceback" not in err
        assert out == ""
        assert not cache_dir.exists()

    def test_status_reads_size_strings(self, tmp_path, capsys):
        spec_file = tmp_path / "sizes.json"
        spec_file.write_text(json.dumps(
            dict(BASE_SPEC, axes={"eager_threshold": ["4KiB", "64KiB"]})))
        assert main(["sweep", "status", str(spec_file),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "0/4 points ready" in capsys.readouterr().out

    def test_bad_spec_is_a_config_error(self, tmp_path, capsys):
        spec_file = tmp_path / "broken.json"
        spec_file.write_text("{not json")
        assert main(["sweep", "run", str(spec_file)]) == 2
        assert "error:" in capsys.readouterr().err


class TestEngineStatsRoundTrip:
    def test_round_trip_identity(self):
        stats = EngineStats(steps=3, shares=2, fill_rounds=7,
                            extra={"note": 1})
        payload = stats.to_dict()
        assert payload["schema_version"] == EngineStats.SCHEMA_VERSION
        clone = EngineStats.from_dict(payload)
        assert clone == stats
        assert clone.to_dict() == payload

    def test_round_trip_survives_json(self):
        stats = EngineStats(actions_created=5, ctx_switches=11)
        clone = EngineStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert clone == stats

    def test_schema_version_mismatch_rejected(self):
        from repro.errors import SimulationError

        payload = EngineStats().to_dict()
        payload["schema_version"] = EngineStats.SCHEMA_VERSION + 1
        with pytest.raises(SimulationError, match="schema_version"):
            EngineStats.from_dict(payload)
        payload.pop("schema_version")
        with pytest.raises(SimulationError, match="schema_version"):
            EngineStats.from_dict(payload)

    def test_unknown_counter_rejected(self):
        from repro.errors import SimulationError

        payload = EngineStats().to_dict()
        payload["quantum_flux"] = 9
        with pytest.raises(SimulationError, match="quantum_flux"):
            EngineStats.from_dict(payload)
