"""Command-line interface — the ``smpirun`` of this reproduction.

Usage (see ``python -m repro --help``)::

    # run an application file on a simulated platform
    python -m repro run my_app.py -n 16 --platform griffon

    # the application file defines:  def app(mpi): ...
    python -m repro run my_app.py -n 8 --platform cluster:8:125MBps:50us

    # platforms can also come from SimGrid-style XML
    python -m repro run my_app.py -n 4 --platform machines.xml

    # record a time-independent trace / replay one
    python -m repro run my_app.py -n 4 --record trace.json
    python -m repro replay trace.json --platform gdx

    # checkpoint a replay mid-run, resume it later (docs/scaling.md)
    python -m repro replay trace.json --platform gdx --checkpoint-at 1.5
    python -m repro replay trace.json --platform gdx \\
        --resume-from trace.json.ckpt.json

    # export an execution trace and analyse it
    python -m repro run my_app.py -n 4 --trace run.csv
    python -m repro run my_app.py -n 4 --trace run.paje --trace-format paje
    python -m repro trace summary run.csv
    python -m repro trace gantt run.csv --critical
    python -m repro trace critical-path run.csv
    python -m repro trace export run.csv --format paje -o run.paje

    # dynamic platforms: availability profiles and scripted faults
    python -m repro run my_app.py -n 4 --availability cli-l0=wave.trace \\
        --fail-at 0.5:cli-l1 --restore-at 1.0:cli-l1 --comm-retries 3

    # batched campaigns: expand a platform x workload x config grid,
    # simulate on a process pool, memoize results under .repro-cache/
    python -m repro sweep run campaign.toml --jobs 8
    python -m repro sweep status campaign.toml
    python -m repro sweep report campaign.toml --format csv -o results.csv

    # where the simulator's wall time goes, layer by layer
    python -m repro profile my_app.py -n 16

    # inspect things
    python -m repro platforms
    python -m repro info trace.json

The run command mirrors the paper's workflow: the *same* application
executes on platforms you do not own, entirely on this node.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

from .errors import ConfigError, ReproError
from .offline import TiTrace, record_trace_streaming, replay_trace
from .scenario import PlatformSpec, build_platform, load_app
from .simix import available_backends
from .smpi import SmpiConfig, smpirun
from .trace import (
    CsvStreamSink,
    PajeStreamSink,
    Tracer,
    ascii_gantt,
    critical_path,
    export_paje,
    makespan,
    parse_paje,
    state_fractions,
    svg_gantt,
)
from .units import format_size, format_time

__all__ = ["main", "build_platform", "load_app"]


def _config_from_args(args: argparse.Namespace) -> SmpiConfig:
    options = {}
    if args.eager_threshold is not None:
        from .units import parse_size

        options["eager_threshold"] = parse_size(args.eager_threshold)
    if args.zero_copy:
        options["zero_copy"] = True
    if args.trace and args.trace_format != "ti":
        options["tracing"] = True
    for pair in args.coll or []:
        try:
            collective, algorithm = pair.split("=", 1)
        except ValueError:
            raise ConfigError(f"--coll expects name=algorithm, got {pair!r}")
        options.setdefault("coll_algorithms", {})[collective] = algorithm
    for name in ("comm_retries", "retry_backoff", "comm_timeout",
                 "on_host_down"):
        if getattr(args, name) is not None:
            options[name] = getattr(args, name)
    return SmpiConfig(**options)


def _report(result, n_ranks: int, show_stats: bool = False) -> None:
    print(f"simulated time : {format_time(result.simulated_time)}")
    print(f"wall-clock time: {format_time(result.wall_time)}")
    print(f"ranks          : {n_ranks}")
    print(f"peak footprint : {format_size(result.memory.total_peak)}")
    non_null = [r for r in result.returns if r is not None]
    if non_null:
        shown = non_null[:4]
        suffix = " ..." if len(non_null) > 4 else ""
        print(f"rank returns   : {shown}{suffix}")
    if show_stats and result.stats is not None:
        stats = result.stats
        print("kernel stats   :")
        print(f"  steps            : {stats.steps}")
        print(f"  shares           : {stats.shares}")
        print(f"  partial shares   : {stats.partial_shares}")
        print(f"  flows resolved   : {stats.flows_resolved}")
        print(f"  components solved: {stats.components_solved}")
        print(f"  fill rounds      : {getattr(stats, 'fill_rounds', 0)}")
        print(f"  actions          : {stats.actions_created} created, "
              f"{stats.actions_completed} completed")
        print(f"  actions touched  : {stats.actions_touched}")
        print(f"  heap pops        : {stats.heap_pops} "
              f"({stats.stale_heap_entries} stale)")
        print(f"  peak concurrent  : {stats.peak_concurrent}")
        print(f"  context switches : {stats.ctx_switches} "
              f"({stats.ctx_fast_resumes} fast resumes)")
        if stats.link_samples:
            print(f"  link samples     : {stats.link_samples}")
        if getattr(stats, "capacity_events", 0):
            print(f"  capacity events  : {stats.capacity_events}")
        failures = getattr(stats, "resource_failures", 0)
        restores = getattr(stats, "resource_restores", 0)
        if failures or restores:
            print(f"  resource faults  : {failures} failed, "
                  f"{restores} restored")
        probes = getattr(stats, "match_probes", 0)
        if probes:
            print(f"  match probes     : {probes} "
                  f"({stats.match_fast_hits} fast hits, "
                  f"{stats.wildcard_scans} wildcard scans)")
        if getattr(stats, "pooled_reuses", 0):
            print(f"  pooled reuses    : {stats.pooled_reuses}")


def _scenario(args: argparse.Namespace) -> PlatformSpec:
    """The --platform spec with its profile and fault flags."""
    return PlatformSpec(args.platform, args.availability, args.state_profile,
                        args.fail_at, args.restore_at)


def _trace_sink(args: argparse.Namespace, n_ranks: int):
    """The streaming sink writing a csv/paje ``--trace``, or None."""
    if not args.trace or args.trace_format == "ti":
        return None
    if args.trace_format == "paje":
        return PajeStreamSink(args.trace, n_ranks)
    return CsvStreamSink(args.trace)


def _report_trace(result, args: argparse.Namespace) -> None:
    tracer = result.trace
    print(f"trace written  : {args.trace} ({args.trace_format}, "
          f"{tracer.n_comm_records} messages, "
          f"{tracer.n_compute_records} compute bursts)")


def _cmd_run(args: argparse.Namespace) -> int:
    app = load_app(args.app, args.entry)
    platform, engine = _scenario(args).build(args.n)
    config = _config_from_args(args)
    sink = _trace_sink(args, args.n)
    run = dict(config=config, engine=engine, ctx=args.ctx, trace_sink=sink)
    ti_files = [args.record] if args.record else []
    if args.trace and args.trace_format == "ti":
        ti_files.append(args.trace)
    if ti_files:
        result = record_trace_streaming(app, args.n, platform, ti_files[0],
                                        **run)
        for copy in ti_files[1:]:
            shutil.copyfile(ti_files[0], copy)
        for target in ti_files:
            print(f"trace written  : {target} (ti)")
    else:
        result = smpirun(app, args.n, platform, **run)
    if sink is not None:
        _report_trace(result, args)
    _report(result, args.n, show_stats=args.stats)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = TiTrace.load(args.trace_file)
    if args.trace and args.trace_format == "ti":
        raise ConfigError(
            "replay consumes a TI trace; re-exporting it as 'ti' would "
            "copy the input — use --trace-format csv or paje"
        )
    if args.resume_from is not None and (args.trace or
                                         args.checkpoint_at is not None):
        raise ConfigError("--resume-from continues an untraced replay: it "
                          "takes neither --trace nor --checkpoint-at")
    platform, engine = _scenario(args).build(trace.n_ranks)
    if args.resume_from is not None:
        from .offline import load_checkpoint, resume_replay

        result = resume_replay(trace, platform,
                               load_checkpoint(args.resume_from),
                               ctx=args.ctx)
        print(f"resumed from   : {args.resume_from}")
    else:
        result = replay_trace(trace, platform, config=_config_from_args(args),
                              engine=engine, ctx=args.ctx,
                              trace_sink=_trace_sink(args, trace.n_ranks),
                              checkpoint_at=args.checkpoint_at)
        if args.checkpoint_at is not None:
            from .offline import save_checkpoint

            if result.checkpoint is None:
                print(f"checkpoint     : none (run ended before "
                      f"t={args.checkpoint_at:g})")
            else:
                out = (args.checkpoint_out
                       or f"{args.trace_file}.ckpt.json")
                target = save_checkpoint(result.checkpoint, out)
                print(f"checkpoint     : {target} "
                      f"(cut at t={result.checkpoint['engine']['now']:g})")
    print(f"replaying      : {trace.summary()}")
    if "recorded_on" in trace.meta:
        recorded_t = trace.meta.get("recorded_simulated_time")
        print(f"recorded on    : {trace.meta['recorded_on']}"
              + (f" ({format_time(recorded_t)})" if recorded_t else ""))
    if args.trace:
        _report_trace(result, args)
    _report(result, trace.n_ranks, show_stats=args.stats)
    return 0


def _print_sweep_summary(result) -> None:
    """How many points ran, how many came from the cache, which failed."""
    n = len(result.points)
    where = ("inline" if result.workers == 0
             else f"{result.workers} worker processes")
    print(f"simulated      : {result.misses} points ({where})")
    print(f"cache hits     : {result.hits}/{n}"
          + (" (all points served from cache)" if result.hits == n else ""))
    print(f"wall-clock time: {format_time(result.wall_time)}")
    for failed in result.errors:
        print(f"  FAILED {failed.point.label()}: {failed.error}")


def _write_rows(rows: list[dict], args: argparse.Namespace) -> None:
    """Print ``rows`` as --format table/csv/json, or write them to -o."""
    from .sweep import format_table, rows_to_csv, rows_to_json

    if args.format == "csv":
        text = rows_to_csv(rows)
    elif args.format == "json":
        text = rows_to_json(rows)
    else:
        text = format_table(rows) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"report written : {args.output} ({args.format}, "
              f"{len(rows)} rows)")
    else:
        print(text, end="")


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from .sweep import ResultCache, SweepSpec, run_sweep

    spec = SweepSpec.load(args.spec)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    print(f"sweep          : {spec.name} — {spec.describe()}")
    result = run_sweep(spec, jobs=args.jobs, cache=cache, force=args.force,
                       echo=print if args.verbose else None)
    _print_sweep_summary(result)
    return 1 if result.errors else 0


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    from .sweep import ResultCache, SweepSpec, point_key

    spec = SweepSpec.load(args.spec)
    cache = ResultCache(args.cache_dir)
    points = spec.expand()
    cached = 0
    print(f"sweep          : {spec.name} — {spec.describe()}")
    for point in points:
        key = point_key(point, spec.base_dir)
        hit = key in cache
        cached += hit
        print(f"  [{'cached' if hit else ' todo '}] "
              f"{point.index:>3}  {point.label()}")
    print(f"cache          : {cached}/{len(points)} points ready "
          f"under {args.cache_dir}")
    return 0


def _cmd_sweep_report(args: argparse.Namespace) -> int:
    from .sweep import ResultCache, SweepSpec, result_rows, run_sweep

    spec = SweepSpec.load(args.spec)
    result = run_sweep(spec, jobs=args.jobs, cache=ResultCache(args.cache_dir))
    for failed in result.errors:
        print(f"  FAILED {failed.point.label()}: {failed.error}",
              file=sys.stderr)
    _write_rows(result_rows(result), args)
    return 1 if result.errors else 0


def _cmd_coll_sweep(args: argparse.Namespace) -> int:
    """``repro coll sweep``: size x ranks x algorithm collective campaign."""
    from .sweep import (ResultCache, coll_rows, coll_sweep_spec, crossovers,
                        run_sweep, size_ladder)

    if args.algos.strip() == "all":
        from .smpi.coll import ALGORITHMS

        algos = sorted(ALGORITHMS.get(args.coll, {}))
    else:
        algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    spec = coll_sweep_spec(
        collective=args.coll,
        sizes=size_ladder(args.b, args.e, args.f),
        nprocs=args.np or [8],
        algos=algos,
        platform=args.platform,
        warmup=args.warmup,
        iters=args.iters,
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    print(f"sweep          : {spec.name} — {spec.describe()}")
    result = run_sweep(spec, jobs=args.jobs, cache=cache, force=args.force,
                       echo=print if args.verbose else None)
    _print_sweep_summary(result)
    rows = coll_rows(result)
    _write_rows(rows, args)
    if args.format == "table":
        points = crossovers(rows)
        if points:
            print("crossovers:")
            for c in points:
                print(f"  {c['platform']} n={c['n']}: {c['below_best']} "
                      f"(<= {c['below_size']} B) -> {c['above_best']} "
                      f"(>= {c['above_size']} B)")
    return 1 if result.errors else 0


def _cmd_platforms(_args: argparse.Namespace) -> int:
    print("built-in platforms:")
    print("  griffon          92 nodes, 3 cabinets (33/27/32), GigE + 10G core")
    print("  gdx              312 nodes, 18 switch groups, GigE throughout")
    print("  cluster:N[:bw[:lat]]   ad-hoc single-switch cluster")
    print("  <file>.xml       SimGrid-style platform description")
    return 0


def _load_trace(args: argparse.Namespace) -> tuple[Tracer, int]:
    """Sniff and load a trace file for the ``trace`` subcommands.

    Accepts the three ``--trace-format`` outputs: CSV, Paje, or a
    time-independent JSON trace.  TI traces carry amounts, not times, so
    they are replayed (``--platform`` required) with tracing enabled to
    synthesize the timed records the analyses need.
    """
    text = Path(args.file).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        ti = TiTrace.load(args.file)
        if args.platform is None:
            raise ConfigError(
                f"{args.file!r} is a time-independent trace: it has no "
                "timestamps of its own — pass --platform to replay it "
                "and analyse the resulting timed trace"
            )
        platform = build_platform(args.platform, ti.n_ranks)
        result = replay_trace(ti, platform,
                              config=SmpiConfig(tracing=True))
        return result.trace, ti.n_ranks
    if stripped.startswith("%EventDef"):
        return parse_paje(text)
    tracer = Tracer.from_csv(text)
    ranks = {r.src for r in tracer.comms} | {r.dst for r in tracer.comms}
    ranks |= {c.rank for c in tracer.computes}
    return tracer, (max(ranks) + 1) if ranks else 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    tracer, n_ranks = _load_trace(args)
    horizon = makespan(tracer)
    closed = [r for r in tracer.comms if r.closed]
    total_bytes = sum(r.nbytes for r in closed)
    print(f"makespan       : {format_time(horizon)}")
    print(f"ranks          : {n_ranks}")
    print(f"messages       : {len(closed)} "
          f"({format_size(total_bytes)} total)")
    print(f"compute bursts : {len([c for c in tracer.computes if c.closed])}")
    fractions = state_fractions(tracer, n_ranks)
    if fractions:
        print("rank activity  : (fraction of makespan)")
        print("  rank   computing  communicating  waiting")
        for rank, frac in enumerate(fractions):
            print(f"  {rank:>4}   {frac['computing']:>9.1%}  "
                  f"{frac['communicating']:>13.1%}  {frac['waiting']:>7.1%}")
    if tracer.timeline is not None:
        top = tracer.timeline.top(horizon, k=5)
        if top:
            print("top links      : (mean / peak utilization)")
            for usage in top:
                print(f"  {usage.name:<20} {usage.mean_utilization:>6.1%} / "
                      f"{usage.peak_utilization:>6.1%}  "
                      f"busy {format_time(usage.busy_time)}")
    return 0


def _cmd_trace_gantt(args: argparse.Namespace) -> int:
    tracer, n_ranks = _load_trace(args)
    if args.svg:
        svg = svg_gantt(tracer, n_ranks, critical=args.critical)
        Path(args.svg).write_text(svg, encoding="utf-8")
        print(f"svg written    : {args.svg}")
    else:
        print(ascii_gantt(tracer, n_ranks, width=args.width,
                          critical=args.critical))
    return 0


def _cmd_trace_critical(args: argparse.Namespace) -> int:
    tracer, _n_ranks = _load_trace(args)
    path = critical_path(tracer)
    print(path.describe())
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    tracer, n_ranks = _load_trace(args)
    if args.format == "paje":
        text = export_paje(tracer, n_ranks)
    else:
        text = tracer.to_csv()
    Path(args.output).write_text(text, encoding="utf-8")
    print(f"trace written  : {args.output} ({args.format})")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    trace = TiTrace.load(args.trace)
    print(trace.summary())
    for key, value in trace.meta.items():
        print(f"  {key}: {value}")
    for rank in range(min(trace.n_ranks, 4)):
        kinds = [e.kind for e in trace.events[rank]]
        print(f"  rank {rank}: {len(kinds)} events "
              f"({kinds[:8]}{' ...' if len(kinds) > 8 else ''})")
    return 0


def _add_fault_flags(p: argparse.ArgumentParser) -> None:
    """Dynamic-platform and fault-semantics flags (docs/faults.md)."""
    p.add_argument("--availability", action="append", metavar="RES=FILE",
                   help="attach a capacity-scaling profile file to a link "
                        "or host (repeatable)")
    p.add_argument("--state-profile", action="append", metavar="RES=FILE",
                   help="attach an ON/OFF state profile file to a link or "
                        "host (repeatable)")
    p.add_argument("--fail-at", action="append", metavar="T:RES",
                   help="fail a link or host at simulated time T "
                        "(repeatable)")
    p.add_argument("--restore-at", action="append", metavar="T:RES",
                   help="restore a failed link or host at simulated time T "
                        "(repeatable)")
    p.add_argument("--comm-retries", type=int, default=None, metavar="N",
                   help="retry failed pt2pt transfers up to N times")
    p.add_argument("--retry-backoff", type=float, default=None, metavar="S",
                   help="base retry delay in seconds (doubles per attempt)")
    p.add_argument("--comm-timeout", type=float, default=None, metavar="S",
                   help="give up on transfers still in flight after S "
                        "simulated seconds")
    p.add_argument("--on-host-down", choices=("raise", "kill-rank"),
                   default=None,
                   help="host-failure policy: fail-fast (raise) or "
                        "terminate the host's ranks (kill-rank)")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    """Platform and SMPI-configuration flags of run, replay and profile."""
    p.add_argument("--platform", default="cluster:64",
                   help="griffon | gdx | cluster:N[:bw[:lat]] | file.xml")
    p.add_argument("--eager-threshold", default=None,
                   help="eager/rendezvous switch, e.g. 64KiB")
    p.add_argument("--zero-copy", action="store_true",
                   help="fold payloads (timing only, erroneous results)")
    p.add_argument("--coll", action="append", metavar="NAME=ALGO",
                   help="force a collective algorithm (repeatable)")
    p.add_argument("--ctx", choices=available_backends(),
                   default=None,
                   help="execution-context backend for rank actors "
                        "(default: auto — coroutine for generator apps, "
                        "thread for plain functions; REPRO_CTX env var "
                        "overrides)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    """Trace export and counter flags of run and replay."""
    p.add_argument("--trace", metavar="FILE",
                   help="export an execution trace to FILE")
    p.add_argument("--trace-format", choices=("csv", "paje", "ti"),
                   default="csv",
                   help="format for --trace (default: csv)")
    p.add_argument("--stats", action="store_true",
                   help="print kernel counters (shares, flow re-solves)")
    p.add_argument("--profile", action="store_true",
                   help="time the command per simulator layer (exclusive "
                        "wall seconds) and print the table after it")


def make_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="single-node on-line simulation of MPI applications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _run_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("app", help="Python file defining app(mpi)")
        p.add_argument("-n", type=int, required=True, help="MPI rank count")
        p.add_argument("--entry", default="app",
                       help="entry function name (default: app)")
        p.add_argument("--record", metavar="TRACE.json",
                       help="record a time-independent trace")
        _add_sim_flags(p)
        _add_output_flags(p)
        _add_fault_flags(p)
        p.set_defaults(func=_cmd_run)

    _run_args(sub.add_parser("run", help="simulate an application file"))
    profile = sub.add_parser(
        "profile", help="'run' with --stats --profile: where the simulator "
                        "spends its wall time, layer by layer")
    _run_args(profile)
    profile.set_defaults(stats=True, profile=True)

    replay = sub.add_parser("replay", help="replay a recorded trace")
    replay.add_argument("trace_file", metavar="trace",
                        help="time-independent trace JSON file")
    _add_sim_flags(replay)
    _add_output_flags(replay)
    replay.add_argument("--checkpoint-at", type=float, default=None,
                        metavar="T",
                        help="capture a resumable checkpoint at the first "
                             "quiescent cut past simulated date T "
                             "(requires tracing off; see docs/scaling.md)")
    replay.add_argument("--checkpoint-out", default=None, metavar="FILE",
                        help="where to write the --checkpoint-at capture "
                             "(default: <trace>.ckpt.json)")
    replay.add_argument("--resume-from", default=None, metavar="FILE",
                        help="resume a checkpointed replay instead of "
                             "starting from t=0 (bit-identical finish)")
    _add_fault_flags(replay)
    replay.set_defaults(func=_cmd_replay)

    trace = sub.add_parser("trace", help="analyse an exported trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def _trace_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="trace file (.csv, .paje, or TI .json)")
        p.add_argument("--platform", default=None,
                       help="platform for replaying TI traces "
                            "(required for .json inputs)")

    summary = trace_sub.add_parser("summary",
                                   help="per-rank fractions, top links")
    _trace_input(summary)
    summary.set_defaults(func=_cmd_trace_summary)

    gantt = trace_sub.add_parser("gantt", help="render a Gantt chart")
    _trace_input(gantt)
    gantt.add_argument("--width", type=int, default=72,
                       help="chart width in characters (default: 72)")
    gantt.add_argument("--critical", action="store_true",
                       help="overlay the critical path")
    gantt.add_argument("--svg", metavar="OUT.svg",
                       help="write an SVG chart instead of ASCII")
    gantt.set_defaults(func=_cmd_trace_gantt)

    crit = trace_sub.add_parser("critical-path",
                                help="extract the critical path")
    _trace_input(crit)
    crit.set_defaults(func=_cmd_trace_critical)

    export = trace_sub.add_parser("export",
                                  help="convert between trace formats")
    _trace_input(export)
    export.add_argument("--format", choices=("csv", "paje"), required=True,
                        help="output format")
    export.add_argument("-o", "--output", required=True, metavar="OUT",
                        help="output file")
    export.set_defaults(func=_cmd_trace_export)

    sweep = sub.add_parser(
        "sweep", help="batched simulation campaigns with memoized results")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    def _sweep_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", help="sweep spec file (.toml or .json)")
        p.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                       help="memo-cache root (default: .repro-cache)")

    sweep_run = sweep_sub.add_parser(
        "run", help="expand the spec and simulate the missing points")
    _sweep_common(sweep_run)
    sweep_run.add_argument("--jobs", type=int, default=None, metavar="N",
                           help="worker processes (default: one per CPU, "
                                "capped at the number of points; 1 = inline)")
    sweep_run.add_argument("--force", action="store_true",
                           help="re-simulate every point, overwriting the "
                                "cache")
    sweep_run.add_argument("--no-cache", action="store_true",
                           help="simulate without reading or writing the "
                                "memo cache")
    sweep_run.add_argument("--verbose", action="store_true",
                           help="print one line per completed point")
    sweep_run.set_defaults(func=_cmd_sweep_run)

    sweep_status = sweep_sub.add_parser(
        "status", help="list the run matrix and which points are cached")
    _sweep_common(sweep_status)
    sweep_status.set_defaults(func=_cmd_sweep_status)

    sweep_report = sweep_sub.add_parser(
        "report", help="aggregate per-point results into a table")
    _sweep_common(sweep_report)
    sweep_report.add_argument("--format", choices=("table", "csv", "json"),
                              default="table",
                              help="output format (default: table)")
    sweep_report.add_argument("-o", "--output", metavar="OUT",
                              help="write the report to OUT instead of "
                                   "stdout")
    sweep_report.add_argument("--jobs", type=int, default=None, metavar="N",
                              help="worker processes for any points not yet "
                                   "cached")
    sweep_report.set_defaults(func=_cmd_sweep_report)

    coll = sub.add_parser(
        "coll", help="collective-algorithm tooling (size/ranks/algo sweeps)")
    coll_sub = coll.add_subparsers(dest="coll_command", required=True)

    coll_sweep = coll_sub.add_parser(
        "sweep",
        help="latency/bandwidth of a collective over a size x ranks x "
             "algorithm grid (memoized)")
    coll_sweep.add_argument("--coll", default="allreduce", metavar="NAME",
                            help="collective to sweep (default: allreduce)")
    coll_sweep.add_argument("--b", default="1KiB", metavar="SIZE",
                            help="smallest message size (default: 1KiB)")
    coll_sweep.add_argument("--e", default="64MiB", metavar="SIZE",
                            help="largest message size (default: 64MiB)")
    coll_sweep.add_argument("--f", type=float, default=2.0, metavar="FACTOR",
                            help="geometric size step (default: 2)")
    coll_sweep.add_argument("--np", type=int, action="append", default=None,
                            metavar="N",
                            help="rank count (repeatable; default: 8)")
    coll_sweep.add_argument("--algos", default="auto", metavar="A,B,...",
                            help="comma-separated algorithm names, or 'all' "
                                 "for every registered one (default: auto)")
    coll_sweep.add_argument("--warmup", type=int, default=1, metavar="K",
                            help="untimed iterations per point (default: 1)")
    coll_sweep.add_argument("--iters", type=int, default=3, metavar="K",
                            help="timed iterations per point (default: 3)")
    coll_sweep.add_argument("--platform", default="griffon", metavar="SPEC",
                            help="platform spec, as for 'repro run' "
                                 "(default: griffon)")
    coll_sweep.add_argument("--jobs", type=int, default=None, metavar="N",
                            help="worker processes (default: one per CPU, "
                                 "capped at the number of points; 1 = inline)")
    coll_sweep.add_argument("--cache-dir", default=".repro-cache",
                            metavar="DIR",
                            help="memo-cache root (default: .repro-cache)")
    coll_sweep.add_argument("--force", action="store_true",
                            help="re-simulate every point, overwriting the "
                                 "cache")
    coll_sweep.add_argument("--no-cache", action="store_true",
                            help="simulate without reading or writing the "
                                 "memo cache")
    coll_sweep.add_argument("--format", choices=("table", "csv", "json"),
                            default="table",
                            help="row output format (default: table)")
    coll_sweep.add_argument("-o", "--output", metavar="OUT",
                            help="write the rows to OUT instead of stdout")
    coll_sweep.add_argument("--verbose", action="store_true",
                            help="print one line per completed point")
    coll_sweep.set_defaults(func=_cmd_coll_sweep)

    platforms = sub.add_parser("platforms", help="list built-in platforms")
    platforms.set_defaults(func=_cmd_platforms)

    info = sub.add_parser("info", help="summarise a trace file")
    info.add_argument("trace")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if not getattr(args, "profile", False):
            return args.func(args)
        from .profile import SpanRecorder

        with SpanRecorder() as spans:
            code = args.func(args)
        print("wall-time layers (exclusive):")
        print(spans.report())
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
