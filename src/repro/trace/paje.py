"""Paje trace export/import (the format SimGrid's tracing speaks).

:func:`export_paje` turns a :class:`~repro.trace.Tracer` into a
self-describing Paje trace: the ``%EventDef`` header declares the event
layouts, then one line per event.  The container hierarchy is::

    simulation (root)
    ├── rank 0..N-1      — one container per MPI rank, with a state
    │                      strip (computing / communicating / waiting)
    ├── one container per sampled link   — bandwidth_used + capacity
    └── one container per sampled host   — flops_used + capacity

Messages are Paje *links* from the sender's container to the
receiver's; the (custom, declared) ``Size`` and ``Tag`` fields keep the
byte count and MPI tag, and the link's value records the protocol
(``eager``/``rendezvous``), so the export loses nothing the analysis
layer needs.  Visualisers such as Vite, or ``pj_dump``, load the file
directly; :func:`parse_paje` loads it back into a :class:`Tracer` (plus
:class:`~repro.trace.Timeline`) so every ``python -m repro trace``
subcommand also consumes ``.paje`` files.

Compute-burst flop counts are not representable as Paje states; a
parsed trace reports computing *intervals* with ``flops=0``.
"""

from __future__ import annotations

import math
import shlex

from ..errors import ConfigError
from .analysis import makespan, state_intervals
from .timeline import Timeline
from .tracer import CommRecord, ComputeRecord, ResourceEventRecord, Tracer

__all__ = ["export_paje", "parse_paje"]

#: (state name, alias, "r g b") — colors are what Vite renders
_STATE_DEFS = (
    ("computing", "c", "0.18 0.49 0.20"),
    ("communicating", "m", "0.08 0.40 0.75"),
    ("waiting", "w", "0.88 0.88 0.88"),
)

_HEADER = """\
%EventDef PajeDefineContainerType 0
%       Alias string
%       Type string
%       Name string
%EndEventDef
%EventDef PajeDefineStateType 1
%       Alias string
%       Type string
%       Name string
%EndEventDef
%EventDef PajeDefineVariableType 2
%       Alias string
%       Type string
%       Name string
%EndEventDef
%EventDef PajeDefineLinkType 3
%       Alias string
%       Type string
%       StartContainerType string
%       EndContainerType string
%       Name string
%EndEventDef
%EventDef PajeDefineEntityValue 4
%       Alias string
%       Type string
%       Name string
%       Color color
%EndEventDef
%EventDef PajeCreateContainer 5
%       Time date
%       Alias string
%       Type string
%       Container string
%       Name string
%EndEventDef
%EventDef PajeDestroyContainer 6
%       Time date
%       Type string
%       Name string
%EndEventDef
%EventDef PajeSetState 7
%       Time date
%       Type string
%       Container string
%       Value string
%EndEventDef
%EventDef PajeSetVariable 8
%       Time date
%       Type string
%       Container string
%       Value double
%EndEventDef
%EventDef PajeStartLink 9
%       Time date
%       Type string
%       Container string
%       Value string
%       StartContainer string
%       Key string
%       Size double
%       Tag int
%EndEventDef
%EventDef PajeEndLink 10
%       Time date
%       Type string
%       Container string
%       Value string
%       EndContainer string
%       Key string
%EndEventDef
"""


def _t(value: float) -> str:
    return f"{value:.9f}"


def export_paje(tracer, n_ranks: int | None = None,
                timeline: Timeline | None = None) -> str:
    """Serialise ``tracer`` (and its utilization timeline) as Paje text.

    ``timeline`` defaults to ``tracer.timeline``; open records (``end``
    never set — aborted runs) are dropped, like every exporter does.
    """
    if timeline is None:
        timeline = getattr(tracer, "timeline", None)
    strips = state_intervals(tracer, n_ranks)
    horizon = makespan(tracer)

    # resource containers: sampled resources first (legacy order), then
    # resources known only through capacity steps or failure events
    res_kinds: dict[str, str] = {}
    if timeline is not None:
        for name in timeline.names():
            res_kinds[name] = timeline.kinds[name]
        for name in timeline.capacity_series:
            res_kinds.setdefault(name, timeline.kinds.get(name, "link"))
    res_events = list(getattr(tracer, "resource_events", ()))
    for event in res_events:
        res_kinds.setdefault(event.name, event.kind)
    has_failed_comm = any(getattr(r, "failed", False) for r in tracer.comms)
    links_have_events = any(e.kind == "link" for e in res_events)
    hosts_have_events = any(e.kind == "host" for e in res_events)

    lines = [_HEADER.rstrip("\n")]
    out = lines.append
    # -- type hierarchy ---------------------------------------------------
    out('0 R 0 "simulation"')
    out('0 P R "rank"')
    out('1 ST P "rank state"')
    for name, alias, color in _STATE_DEFS:
        out(f'4 {alias} ST "{name}" "{color}"')
    out('3 LK R P P "message"')
    out('4 e LK "eager" "0.95 0.61 0.07"')
    out('4 r LK "rendezvous" "0.55 0.14 0.67"')
    if has_failed_comm:
        out('4 f LK "failed" "0.84 0.11 0.11"')
    if res_kinds:
        out('0 L R "link"')
        out('0 H R "host"')
    if timeline is not None and (timeline.names() or timeline.capacity_series):
        out('2 UL L "bandwidth_used"')
        out('2 CL L "capacity"')
        out('2 UH H "flops_used"')
        out('2 CH H "capacity"')
    if links_have_events:
        out('1 SL L "resource state"')
        out('4 on SL "up" "0.18 0.49 0.20"')
        out('4 off SL "down" "0.84 0.11 0.11"')
    if hosts_have_events:
        out('1 SH H "resource state"')
        out('4 onh SH "up" "0.18 0.49 0.20"')
        out('4 offh SH "down" "0.84 0.11 0.11"')

    # -- containers -------------------------------------------------------
    zero = _t(0.0)
    out(f'5 {zero} root R 0 "simulation"')
    for rank in range(len(strips)):
        out(f'5 {zero} rank{rank} P root "rank {rank}"')
    resource_alias: dict[str, str] = {}
    for i, (name, kind) in enumerate(res_kinds.items()):
        alias = f"{'L' if kind == 'link' else 'H'}{i}"
        resource_alias[name] = alias
        out(f'5 {zero} {alias} {"L" if kind == "link" else "H"} '
            f'root "{name}"')

    # -- timed events, globally time-ordered ------------------------------
    events: list[tuple[float, int, str]] = []
    seq = 0

    def emit(t: float, line: str) -> None:
        nonlocal seq
        events.append((t, seq, line))
        seq += 1

    for rank, strip in enumerate(strips):
        for start, _end, state in strip:
            alias = {s: a for s, a, _ in _STATE_DEFS}[state]
            emit(start, f'7 {_t(start)} ST rank{rank} {alias}')
    for r in tracer.comms:
        if not (math.isfinite(r.start) and math.isfinite(r.end)):
            continue
        value = "e" if r.eager else "r"
        # a failed transfer keeps its protocol on the start link and is
        # flagged by the distinct "failed" value on the end link
        end_value = "f" if getattr(r, "failed", False) else value
        emit(r.start, f'9 {_t(r.start)} LK root {value} rank{r.src} '
                      f'm{r.mid} {r.nbytes} {r.tag}')
        emit(r.end, f'10 {_t(r.end)} LK root {end_value} rank{r.dst} '
                    f'm{r.mid}')
    if timeline is not None:
        sampled = set(timeline.names())
        for name, kind, capacity, times, usages in timeline.iter_series():
            alias = resource_alias[name]
            used, cap = ("UL", "CL") if kind == "link" else ("UH", "CH")
            emit(0.0, f'8 {zero} {cap} {alias} {capacity:g}')
            for t, usage in zip(times, usages):
                emit(t, f'8 {_t(t)} {used} {alias} {usage:g}')
        for name, steps in timeline.capacity_series.items():
            alias = resource_alias[name]
            cap = "CL" if res_kinds[name] == "link" else "CH"
            if name not in sampled:  # capacity-only resources still get
                emit(0.0, f'8 {zero} {cap} {alias} '  # an initial value
                          f'{timeline.capacities[name]:g}')
            for t, capacity in steps:
                emit(t, f'8 {_t(t)} {cap} {alias} {capacity:g}')
    for event in res_events:
        alias = resource_alias[event.name]
        stype = "SL" if event.kind == "link" else "SH"
        value = ("off" if event.event == "fail" else "on")
        if event.kind == "host":
            value += "h"
        emit(event.t, f'7 {_t(event.t)} {stype} {alias} {value}')

    for rank in range(len(strips)):
        emit(horizon, f'6 {_t(horizon)} P rank{rank}')
    for name, alias in resource_alias.items():
        kind = "L" if res_kinds[name] == "link" else "H"
        emit(horizon, f'6 {_t(horizon)} {kind} {alias}')
    emit(horizon, f'6 {_t(horizon)} R root')

    events.sort(key=lambda e: (e[0], e[1]))
    lines.extend(line for _, _, line in events)
    return "\n".join(lines) + "\n"


# -- import ----------------------------------------------------------------


def _parse_header(text: str) -> dict[str, tuple[str, list[str]]]:
    """Map event id -> (event name, declared field names)."""
    defs: dict[str, tuple[str, list[str]]] = {}
    name = ident = None
    fields: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("%EventDef"):
            _, name, ident = line.split()
            fields = []
        elif line.startswith("%EndEventDef"):
            if name is not None and ident is not None:
                defs[ident] = (name, fields)
            name = ident = None
        elif line.startswith("%") and name is not None:
            fields.append(line.lstrip("% \t").split()[0])
    return defs


def parse_paje(text: str) -> tuple[Tracer, int]:
    """Load a Paje trace produced by :func:`export_paje`.

    Returns ``(tracer, n_ranks)``; the tracer carries comm records with
    full fidelity, computing intervals as ``flops=0`` compute records,
    and — when the trace has resource containers — a rebuilt
    :class:`Timeline` on ``tracer.timeline``.
    """
    defs = _parse_header(text)
    if not defs:
        raise ConfigError("not a Paje trace (no %EventDef header)")

    tracer = Tracer()
    timeline = Timeline()
    containers: dict[str, tuple[str, str]] = {}  # alias -> (type, name)
    values: dict[str, str] = {}  # entity-value alias -> name
    rank_of: dict[str, int] = {}
    state_open: dict[str, tuple[float, str]] = {}  # container -> (t, state)
    open_links: dict[str, dict] = {}
    capacities: dict[str, float] = {}
    pending_samples: dict[str, list[tuple[float, float]]] = {}
    pending_cap_steps: dict[str, list[tuple[float, float]]] = {}

    def fieldmap(ident: str, parts: list[str]) -> dict[str, str]:
        names = defs[ident][1]
        return dict(zip(names, parts))

    def close_state(container: str, t: float) -> None:
        prev = state_open.pop(container, None)
        if prev is None:
            return
        t0, state = prev
        if state == "computing" and container in rank_of and t > t0:
            tracer.computes.append(
                ComputeRecord(rank_of[container], 0.0, t0, t))

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            continue
        parts = shlex.split(line)
        ident = parts[0]
        if ident not in defs:
            raise ConfigError(f"Paje line references undefined event: {line!r}")
        event, _fields = defs[ident]
        row = fieldmap(ident, parts[1:])
        if event == "PajeCreateContainer":
            containers[row["Alias"]] = (row["Type"], row["Name"])
            if row["Type"] == "P":
                rank_of[row["Alias"]] = len(rank_of)
        elif event == "PajeDefineEntityValue":
            values[row["Alias"]] = row["Name"]
        elif event == "PajeSetState":
            container = row["Container"]
            t = float(row["Time"])
            state = values.get(row["Value"], row["Value"])
            if row["Type"] in ("SL", "SH"):  # resource up/down strip
                _ctype, name = containers.get(container, ("L", container))
                tracer.resource_events.append(ResourceEventRecord(
                    name=name,
                    kind="link" if row["Type"] == "SL" else "host",
                    event="fail" if state == "down" else "restore",
                    t=t,
                ))
            else:
                close_state(container, t)
                state_open[container] = (t, state)
        elif event == "PajeStartLink":
            open_links[row["Key"]] = {
                "start": float(row["Time"]),
                "src": row["StartContainer"],
                "eager": values.get(row["Value"], row["Value"]) == "eager",
                "nbytes": int(float(row.get("Size", "0"))),
                "tag": int(row.get("Tag", "0")),
            }
        elif event == "PajeEndLink":
            started = open_links.pop(row["Key"], None)
            if started is None:
                continue  # unmatched end: tolerate truncated traces
            key = row["Key"]
            mid = int(key[1:]) if key[1:].isdigit() else len(tracer.comms)
            tracer.comms.append(CommRecord(
                mid=mid,
                src=rank_of.get(started["src"], 0),
                dst=rank_of.get(row["EndContainer"], 0),
                tag=started["tag"],
                nbytes=started["nbytes"],
                eager=started["eager"],
                start=started["start"],
                end=float(row["Time"]),
                failed=values.get(row["Value"], row["Value"]) == "failed",
            ))
        elif event == "PajeSetVariable":
            container = row["Container"]
            t = float(row["Time"])
            value = float(row["Value"])
            vtype = row["Type"]
            if vtype in ("CL", "CH"):
                if container in capacities:  # later values are steps
                    pending_cap_steps.setdefault(container, []).append(
                        (t, value))
                else:  # the t=0 initial value is the nominal capacity
                    capacities[container] = value
            elif vtype in ("UL", "UH"):
                pending_samples.setdefault(container, []).append((t, value))
        elif event == "PajeDestroyContainer":
            close_state(row["Name"], float(row["Time"]))

    for container, (t0, _state) in list(state_open.items()):
        close_state(container, t0)  # zero-length leftovers: drop

    for container, samples in pending_samples.items():
        ctype, name = containers.get(container, ("L", container))
        kind = "host" if ctype == "H" else "link"
        capacity = capacities.get(container, 0.0)
        for t, usage in samples:
            timeline.load_row(name, kind, capacity, t, usage)
    for container, steps in pending_cap_steps.items():
        ctype, name = containers.get(container, ("L", container))
        kind = "host" if ctype == "H" else "link"
        for t, capacity in steps:
            timeline.load_capacity_row(name, kind, t, capacity)
    tracer.timeline = (timeline if timeline.names()
                       or timeline.capacity_series else None)
    tracer.resource_events.sort(key=lambda e: (e.t, e.name))
    tracer.comms.sort(key=lambda r: (r.start, r.mid))
    tracer.computes.sort(key=lambda c: (c.start, c.rank))
    return tracer, len(rank_of)
