"""End-to-end benchmark of the SMPI simulator (see README.md).

    python3 e2ebench/run.py --workload allreduce_ring --seed 1 \
        --seconds 30 --trace 0

Runs one workload for about ``--seconds`` seconds, one simulation per
fresh subprocess (``sample.py``), checks every run's outputs, simulated
clock and engine counters, and prints the metrics of ``BENCHMARK.json``
as the last line of standard output: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  Exits 2 without a
result when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("allreduce_ring", "nas_dt_online", "hpl_replay_traced")
#: samples below which a run keeps measuring past ``--seconds``
MIN_PLAIN = 3
MIN_TRACED = 2
#: a run starts no sample after this many seconds and kills any process
#: still running at ``DEADLINE_S``, so that it ends within 180 s
LAST_START_S = 120.0
DEADLINE_S = 170.0
GOLDEN_SEED = 0


class SetupError(Exception):
    """The program could not be run at all: no result is printed."""


def run_child(args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run ``sample.py`` and return its JSON record (None if it died)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen([sys.executable, str(HERE / "sample.py"), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, err.strip().splitlines()[-1] if err.strip() else \
            f"exit code {proc.returncode}"
    return json.loads(lines[-1]), ""


def sample_failures(record: dict, reference: dict | None,
                    golden: dict | None) -> list[str]:
    """Why one sample counts as a failed run (empty when it passed).

    A sample fails when it raised, when its outputs are wrong, or when
    its simulated clock or any engine counter differs from the first
    sample of the same seed (``reference``) or, at the golden seed, from
    the committed golden values.
    """
    failures = list(record.get("errors", []))
    if "simulated_time" not in record:
        return failures or ["no result"]
    for label, ref in (("first sample", reference), ("golden", golden)):
        if ref is None:
            continue
        if record["simulated_time"] != ref["simulated_time"]:
            failures.append(f"simulated clock {record['simulated_time']} != "
                            f"{label} {ref['simulated_time']}")
        names = set(ref["counters"]) | set(record["counters"])
        changed = sorted(n for n in names
                         if record["counters"].get(n) != ref["counters"].get(n))
        if changed:
            failures.append(f"counters {changed} differ from {label}")
    return failures


def _percentile_note(values: list[float]) -> str:
    """The highest order statistic with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, no percentile has 10 samples beyond it"
    index = n - 11
    pct = 100.0 * index / (n - 1)
    return f"n={n}, p{pct:.0f}={sorted(values)[index]:.6g}"


def end_to_end(records: list[dict]) -> dict[str, list[float]]:
    """Per-sample end-to-end values of the untraced samples."""
    return {
        "wall_s": [r["wall_s"] for r in records],
        "setup_s": [r["setup_s"] for r in records],
        "events_per_s": [r["counters"]["actions_completed"] / r["wall_s"]
                         for r in records],
        "wall_per_sim": [r["wall_s"] / r["sim_s"] for r in records],
        "peak_rss_mib": [r["peak_rss_mib"] for r in records],
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict[str, list[float]]:
    """Per-sample per-layer values of the span-traced samples."""
    values: dict[str, list[float]] = {}
    for record in traced:
        for name, value in record["layers"].items():
            values.setdefault(name, []).append(value)
    plain_wall = statistics.median(r["host_wall_s"] for r in plain)
    values["span_overhead_share"] = [
        r["host_wall_s"] / plain_wall - 1.0 for r in traced]
    return values


def summarize(spec: dict, samples: list[tuple[bool, dict, list[str]]],
              trace: bool) -> tuple[dict, list[str]]:
    """The result object and human-readable lines for one run.

    ``samples`` holds ``(traced, record, failures)`` per sample.  Failed
    samples count in ``failed`` and are left out of the metrics, unless
    no sample passed.
    """
    def usable(traced: bool) -> list[dict]:
        # when every sample of a kind failed, report their timings under
        # correct=false rather than no result at all
        timed = [(r, fails) for t, r, fails in samples
                 if t == traced and "host_wall_s" in r]
        return [r for r, fails in timed if not fails] or [r for r, _ in timed]

    plain = usable(False)
    spanned = usable(True)
    if not plain or (trace and not spanned):
        raise SetupError("no sample produced timings: nothing to report")
    if trace:
        values = per_layer(spanned, plain)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(plain)
        wanted = spec["end_to_end"]
    metrics = {}
    notes = []
    for metric in wanted:
        series = values[metric["name"]]
        metrics[metric["name"]] = {"value": statistics.median(series),
                                   "unit": metric["unit"]}
        if metric["unit"] == "s":
            notes.append(f"{metric['name']}: median "
                         f"{statistics.median(series):.6g} s, "
                         f"{_percentile_note(series)}")
    if not trace:
        host = {name: statistics.median(r[name] for r in plain)
                for name in ("host_wall_s", "host_setup_s", "host_speed")}
        notes.append(f"host seconds: wall_s median {host['host_wall_s']:.6g} s,"
                     f" setup_s median {host['host_setup_s']:.6g} s; host "
                     f"speed median {host['host_speed']:.4g} of the reference")
    failed = sum(1 for _, _, fails in samples if fails)
    result = {"correct": failed == 0, "attempted": len(samples),
              "failed": failed, "metrics": metrics}
    return result, notes


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path, expected, deadline: float
            ) -> list[tuple[bool, dict, list[str]]]:
    """Run samples until ``seconds`` are used (and the minimum is met).

    With ``trace`` the samples alternate between untraced and
    span-traced, so the span overhead is measured in the same run.
    """
    golden = None
    if seed == GOLDEN_SEED:
        golden = json.loads((HERE / "golden.json").read_text())[workload]
    samples: list[tuple[bool, dict, list[str]]] = []
    durations: dict[bool, list[float]] = {False: [], True: []}
    reference = None
    start = monotonic()
    while True:
        traced = trace and len(samples) % 2 == 1
        args = ["--workload", workload, "--seed", str(seed),
                "--workdir", str(workdir), "--expected", json.dumps(expected)]
        if traced:
            args.append("--spans")
        began = monotonic()
        record, crash = run_child([*args, "--spawned", repr(began)],
                                  deadline - began)
        durations[traced].append(monotonic() - began)
        if record is None:
            record = {"errors": [f"sample process died: {crash}"]}
        if reference is None and "simulated_time" in record:
            reference = record
        samples.append((traced, record, sample_failures(record, reference,
                                                        golden)))
        elapsed = monotonic() - start
        n_plain = sum(1 for t, _, _ in samples if not t)
        n_traced = len(samples) - n_plain
        if trace:
            enough = n_plain >= 1 and n_traced >= MIN_TRACED
        else:
            enough = n_plain >= MIN_PLAIN
        upcoming = durations[trace and len(samples) % 2 == 1] or durations[False]
        if elapsed >= LAST_START_S or (
                enough and elapsed + statistics.median(upcoming) > seconds):
            return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise SetupError(f"no program source under {ROOT / 'src'}")
        # the untimed warm-up: imports the program (filling the OS page
        # cache and the bytecode cache) and computes reference outputs
        prepared, crash = run_child(["--workload", args.workload,
                                     "--seed", str(args.seed), "--prepare"],
                                    deadline - monotonic())
        if prepared is None:
            raise SetupError(f"cannot run the program: {crash}")
        workdir = ROOT / ".e2ebench_work" / f"{args.workload}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            samples = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir, prepared["expected"],
                              deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass  # another run still uses it
        result, notes = summarize(spec, samples, bool(args.trace))
    except SetupError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    for traced, record, fails in samples:
        if fails:
            print(f"failed {'traced ' if traced else ''}sample: "
                  f"{'; '.join(fails)}")
    for note in notes:
        print(note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
