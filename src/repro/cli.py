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


#: SmpiConfig fields run, replay and profile expose, each as the flag
#: ``--field-name`` (``--coll`` sets ``coll.<name>`` keys); the values go
#: through SmpiConfig.from_options, the parser of sweep specs too
_CONFIG_FLAGS = {
    "eager_threshold": dict(help="eager/rendezvous switch, e.g. 64KiB"),
    "zero_copy": dict(action="store_true",
                      help="fold payloads (timing only, erroneous results)"),
    "comm_retries": dict(type=int, metavar="N",
                         help="retry failed pt2pt transfers up to N times"),
    "retry_backoff": dict(type=float, metavar="S",
                          help="base retry delay in seconds (doubles per "
                               "attempt)"),
    "comm_timeout": dict(type=float, metavar="S",
                         help="give up on transfers still in flight after S "
                              "simulated seconds"),
    "on_host_down": dict(metavar="POLICY",
                         help="host-failure policy: fail-fast (raise) or "
                              "terminate the host's ranks (kill-rank)"),
}


def _config_from_args(args: argparse.Namespace) -> SmpiConfig:
    options = {name: getattr(args, name) for name in _CONFIG_FLAGS
               if getattr(args, name) is not None}
    for pair in args.coll_algorithms or []:
        collective, sep, algorithm = pair.partition("=")
        if not sep:
            raise ConfigError(f"--coll expects name=algorithm, got {pair!r}")
        options[f"coll.{collective}"] = algorithm
    return SmpiConfig.from_options(
        options, tracing=bool(args.trace) and args.trace_format != "ti")


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
        print(f"  fill rounds      : {stats.fill_rounds}")
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
        if stats.capacity_events:
            print(f"  capacity events  : {stats.capacity_events}")
        if stats.resource_failures or stats.resource_restores:
            print(f"  resource faults  : {stats.resource_failures} failed, "
                  f"{stats.resource_restores} restored")
        if stats.match_probes:
            print(f"  match probes     : {stats.match_probes} "
                  f"({stats.match_fast_hits} fast hits, "
                  f"{stats.wildcard_scans} wildcard scans)")
        if stats.pooled_reuses:
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
    run = dict(config=config, engine=engine, trace_sink=sink)
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


def _trace_file(path: str) -> str:
    """``path``, or a :class:`ConfigError` when no file is there."""
    if not Path(path).exists():
        raise ConfigError(f"trace file {path!r} not found")
    return path


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = TiTrace.load(_trace_file(args.trace_file))
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
                               load_checkpoint(args.resume_from))
        print(f"resumed from   : {args.resume_from}")
    else:
        result = replay_trace(trace, platform, config=_config_from_args(args),
                              engine=engine,
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


def _run_campaign(spec, args: argparse.Namespace):
    """Simulate ``spec``'s missing points; print how many ran, how many
    came from the cache, and which failed."""
    from .sweep import ResultCache, run_sweep

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    print(f"sweep          : {spec.name} — {spec.describe()}")
    result = run_sweep(spec, jobs=args.jobs, cache=cache, force=args.force,
                       echo=print if args.verbose else None)
    n = len(result.points)
    where = ("inline" if result.workers == 0
             else f"{result.workers} worker processes")
    print(f"simulated      : {result.misses} points ({where})")
    print(f"cache hits     : {result.hits}/{n}"
          + (" (all points served from cache)" if result.hits == n else ""))
    print(f"wall-clock time: {format_time(result.wall_time)}")
    for failed in result.errors:
        print(f"  FAILED {failed.point.label()}: {failed.error}")
    return result


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
    from .sweep import SweepSpec

    result = _run_campaign(SweepSpec.load(args.spec), args)
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
    from .sweep import coll_rows, coll_sweep_spec, crossovers, size_ladder

    if args.algos.strip() == "all":
        from .smpi.coll import ALGORITHMS

        # an unknown collective reaches the spec, which names it
        algos = sorted(ALGORITHMS.get(args.coll, ["auto"]))
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
    result = _run_campaign(spec, args)
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
    text = Path(_trace_file(args.file)).read_text(encoding="utf-8")
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
    trace = TiTrace.load(_trace_file(args.trace))
    print(trace.summary())
    for key, value in trace.meta.items():
        print(f"  {key}: {value}")
    for rank in range(min(trace.n_ranks, 4)):
        kinds = [e.kind for e in trace.events[rank]]
        print(f"  rank {rank}: {len(kinds)} events "
              f"({kinds[:8]}{' ...' if len(kinds) > 8 else ''})")
    return 0


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    """Platform, fault (docs/faults.md), SMPI-configuration, trace and
    counter flags of run, replay and profile."""
    p.add_argument("--platform", default="cluster:64",
                   help="griffon | gdx | cluster:N[:bw[:lat]] | file.xml")
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
    for name, flag in _CONFIG_FLAGS.items():
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       default=None, **flag)
    p.add_argument("--coll", dest="coll_algorithms", action="append",
                   metavar="NAME=ALGO",
                   help="force a collective algorithm (repeatable)")
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

    # the campaign commands' flags (sweep run/status/report, coll sweep),
    # each declared once in the group the commands take as a parent
    cache, jobs, simulate, rows = (argparse.ArgumentParser(add_help=False)
                                   for _ in range(4))
    cache.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                       help="memo-cache root (default: .repro-cache)")
    jobs.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="worker processes for the points not yet cached "
                           "(default: one per CPU, capped at the number of "
                           "points; 1 = inline)")
    simulate.add_argument("--force", action="store_true",
                          help="re-simulate every point, overwriting the "
                               "cache")
    simulate.add_argument("--no-cache", action="store_true",
                          help="simulate without reading or writing the "
                               "memo cache")
    simulate.add_argument("--verbose", action="store_true",
                          help="print one line per completed point")
    rows.add_argument("--format", choices=("table", "csv", "json"),
                      default="table", help="output format (default: table)")
    rows.add_argument("-o", "--output", metavar="OUT",
                      help="write the rows to OUT instead of stdout")

    sweep = sub.add_parser(
        "sweep", help="batched simulation campaigns with memoized results")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    for name, func, parents, help in (
            ("run", _cmd_sweep_run, [jobs, simulate],
             "expand the spec and simulate the missing points"),
            ("status", _cmd_sweep_status, [],
             "list the run matrix and which points are cached"),
            ("report", _cmd_sweep_report, [rows, jobs],
             "aggregate per-point results into a table")):
        p = sweep_sub.add_parser(name, parents=[cache, *parents], help=help)
        p.add_argument("spec", help="sweep spec file (.toml or .json)")
        p.set_defaults(func=func)

    coll = sub.add_parser(
        "coll", help="collective-algorithm tooling (size/ranks/algo sweeps)")
    coll_sub = coll.add_subparsers(dest="coll_command", required=True)

    coll_sweep = coll_sub.add_parser(
        "sweep", parents=[jobs, cache, simulate, rows],
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
