"""Time-stamped event traces of simulated executions.

When ``SmpiConfig.tracing`` is on, the runtime records one
:class:`CommRecord` per message (start/end simulated times, endpoints,
bytes, protocol) and one :class:`ComputeRecord` per compute burst, and
the engine samples per-resource utilization into a
:class:`~repro.trace.Timeline` attached as :attr:`Tracer.timeline`.
The trace supports the analyses behind the evaluation figures
(:mod:`repro.trace.analysis`), renders as a Gantt chart
(:mod:`repro.trace.gantt`), and exports as CSV here or as a Paje trace
(:mod:`repro.trace.paje`) for external tooling.

CSV schema (one flat table, ``kind`` discriminates)::

    kind,mid,src,dst,tag,nbytes_or_flops,eager,start,end,capacity,failed
    comm,3,0,1,0,1000,1,0.0001,0.0082,,0
    compute,,0,,,1e6,,0.0,0.001,,
    link,,cli-l0,,,9.8e7,,0.0001,,1.25e8,
    resource,,cli-l0,link,,,fail,0.004,,,
    capacity,,cli-l0,link,,,,0.002,,6.25e7,

``comm`` rows carry the message id, endpoints, byte count, protocol
(``eager`` 1/0) and whether the transfer died on a network failure
(``failed`` 1/0 — failed comms close at the failure time); ``compute``
rows put the rank in ``src`` and the flop count in ``nbytes_or_flops``;
``link`` rows are utilization samples — the resource name in ``src``,
the consumed rate in ``nbytes_or_flops``, the sample time in ``start``
and the resource capacity in ``capacity`` (``dst`` holds ``host`` for
CPU samples, empty for links).  ``resource`` rows record failures and
recoveries (name in ``src``, kind in ``dst``, ``fail``/``restore`` in
``eager``, time in ``start``); ``capacity`` rows are availability steps
(new effective capacity in ``capacity``, time in ``start``).  Loading a
pre-fault 10-column trace still works: the missing trailing columns
default to empty.

Records whose ``end`` was never set (the simulation aborted mid-flight)
are *dropped* by every exporter — a half-open interval would serialize
as ``nan`` and break downstream CSV consumers; pass
``include_open=True`` to keep them with an empty ``end`` field instead.
"""

from __future__ import annotations

import csv
import io
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "CommRecord",
    "ComputeRecord",
    "ResourceEventRecord",
    "Tracer",
    "comm_csv_line",
    "compute_csv_line",
    "resource_csv_line",
    "write_timeline_csv",
]


CSV_HEADER = ("kind", "mid", "src", "dst", "tag", "nbytes_or_flops",
              "eager", "start", "end", "capacity", "failed")
CSV_HEADER_LINE = ",".join(CSV_HEADER) + "\n"
#: timeline lines formatted into one string per ``write`` call
LINES_PER_WRITE = 4096


@dataclass
class CommRecord:
    mid: int
    src: int
    dst: int
    tag: int
    nbytes: int
    eager: bool
    start: float
    end: float = float("nan")
    #: the transfer died on a resource failure; ``end`` is the failure time
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def closed(self) -> bool:
        """True once the transfer completed or failed (``end`` recorded)."""
        return math.isfinite(self.end)


@dataclass
class ComputeRecord:
    rank: int
    flops: float
    start: float
    end: float = float("nan")

    @property
    def closed(self) -> bool:
        return math.isfinite(self.end)


@dataclass
class ResourceEventRecord:
    """A resource failure or recovery observed during the run."""

    name: str
    kind: str  # "link" or "host"
    event: str  # "fail" or "restore"
    t: float


def _field(text: str) -> str:
    """``text`` as one CSV field, byte for byte what :mod:`csv` writes.

    Only a delimiter, a quote or a line break can make :mod:`csv` quote
    a field, and only a NUL can make it refuse one; such a field goes
    through :mod:`csv` itself, which follows the running Python's rules
    (whether a bare ``\\r`` is quoted differs between versions, and
    before 3.11 a NUL raises :class:`csv.Error`).  Any other text is
    written as it is.
    """
    if ("," in text or '"' in text or "\r" in text or "\n" in text
            or "\0" in text):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow((text, ""))
        return buf.getvalue()[:-2]  # drop the empty field's ",\n"
    return text


# Numbers are written with ``str``, as :mod:`csv` writes them (``repr``
# of a NumPy 2 scalar is ``np.float64(...)``, its ``str`` is the number).
def comm_csv_line(r: CommRecord) -> str:
    """The CSV line of one comm record (shared by exporter and sinks)."""
    end = r.end if r.closed else ""
    return (f"comm,{r.mid!s},{r.src!s},{r.dst!s},{r.tag!s},{r.nbytes!s},"
            f"{int(r.eager)},{r.start!s},{end!s},,{int(r.failed)}\n")


def compute_csv_line(c: ComputeRecord) -> str:
    """The CSV line of one compute record."""
    end = c.end if c.closed else ""
    return f"compute,,{c.rank!s},,,{c.flops!s},,{c.start!s},{end!s},,\n"


def resource_csv_line(e: ResourceEventRecord) -> str:
    """The CSV line of one resource failure/recovery record."""
    return (f"resource,,{_field(e.name)},{_field(e.kind)},,,"
            f"{_field(e.event)},{e.t!s},,,\n")


def write_timeline_csv(write, timeline) -> None:
    """Pass ``timeline``'s sample lines, then its capacity-step lines, to
    ``write``, one resource at a time.

    Each resource's leading fields and its capacity field are formatted
    once; a sample line then costs the ``str`` of its two numbers.  Lines
    are joined :data:`LINES_PER_WRITE` at a time, so a long series is
    never held as text all at once.
    """
    n = LINES_PER_WRITE
    for name, kind, capacity, times, usages in timeline.iter_series():
        kind = "" if kind == "link" else _field(kind)
        head = f"link,,{_field(name)},{kind},,"
        tail = f",,{capacity!s},\n"
        for i in range(0, len(times), n):
            write("".join([f"{head}{usage!s},,{t!s}{tail}"
                           for t, usage in zip(times[i:i + n],
                                               usages[i:i + n])]))
    for name, steps in timeline.capacity_series.items():
        head = (f"capacity,,{_field(name)},"
                f"{_field(timeline.kinds.get(name, 'link'))},,,,")
        for i in range(0, len(steps), n):
            write("".join([f"{head}{t!s},,{capacity!s},\n"
                           for t, capacity in steps[i:i + n]]))


class Tracer:
    """Accumulates records; negligible overhead when tracing is off.

    With a *sink* attached (``Tracer(sink=...)``, see
    :mod:`repro.trace.sink`) the tracer streams instead of accumulating:
    a record is handed to the sink as soon as it can never change again,
    and only the *open window* — records whose transfer is still in
    flight, plus the closed records queued behind them (output order is
    start order) — stays in memory.  Every list the in-memory mode
    exposes (``comms``/``computes``/``resource_events``) then holds only
    that bounded window, so whole-trace analyses must run on the
    exported file (``Tracer.load``), not the live object.
    """

    def __init__(self, sink=None) -> None:
        self.comms: list[CommRecord] = []
        self.computes: list[ComputeRecord] = []
        self.resource_events: list[ResourceEventRecord] = []
        self._open_comms: dict[int, CommRecord] = {}
        #: per-resource utilization samples, attached by the runtime when
        #: the engine supports it (:meth:`repro.surf.Engine.enable_timeline`)
        self.timeline = None
        #: streaming sink (None = historical accumulate-then-export mode)
        self.sink = sink
        #: closed-prefix flush queue: comm records in start order, popped
        #: as their head becomes closed (streaming mode only)
        self._comm_window: deque[CommRecord] = deque()
        #: records ever started/recorded, for summaries in streaming mode
        self.n_comm_records = 0
        self.n_compute_records = 0

    # -- hooks called by the runtime ------------------------------------------------

    def comm_start(self, message) -> None:
        activity = message.transfer
        start = activity.scheduler.engine.now if activity is not None else 0.0
        record = CommRecord(
            mid=message.mid,
            src=message.src,
            dst=message.dst,
            tag=message.tag,
            nbytes=message.nbytes,
            eager=message.eager,
            start=start,
        )
        self._open_comms[message.mid] = record
        self.n_comm_records += 1
        if self.sink is None:
            self.comms.append(record)
        else:
            self._comm_window.append(record)

    def _flush_closed(self) -> None:
        """Stream the closed prefix of the comm window to the sink.

        Comm rows must leave in start order (the in-memory exporter's
        order), so a still-open head blocks the queue; the window length
        is bounded by the number of concurrently in-flight transfers.
        """
        window = self._comm_window
        sink = self.sink
        while window and window[0].closed:
            sink.comm_row(window.popleft())

    def comm_end(self, message) -> None:
        record = self._open_comms.pop(message.mid, None)
        if record is not None and message.transfer is not None:
            record.end = message.transfer.scheduler.engine.now
        if self.sink is not None:
            self._flush_closed()

    def comm_fail(self, message) -> None:
        """Close a transfer's record at the failure time, flagged failed."""
        record = self._open_comms.pop(message.mid, None)
        if record is not None and message.transfer is not None:
            record.end = message.transfer.scheduler.engine.now
            record.failed = True
        if self.sink is not None:
            self._flush_closed()

    def compute(self, rank: int, flops: float, start: float, end: float) -> None:
        record = ComputeRecord(rank, flops, start, end)
        self.n_compute_records += 1
        if self.sink is None:
            self.computes.append(record)
        else:  # compute records are born closed: stream immediately
            self.sink.compute_row(record)

    def resource_event(self, name: str, kind: str, event: str, t: float) -> None:
        """Record a resource failure/recovery (engine listener hook)."""
        record = ResourceEventRecord(name, kind, event, t)
        if self.sink is None:
            self.resource_events.append(record)
        else:
            self.sink.resource_row(record)

    def finish(self, now: float | None = None) -> None:
        """End of run: drain the sink and let it write its output.

        No-op without a sink.  Records still open at the end (aborted
        transfers) are dropped, exactly like ``to_csv``'s default; closed
        records queued behind them still flush, in start order.
        """
        if self.sink is None:
            return
        self._flush_closed()
        for record in self._comm_window:
            if record.closed:  # closed behind a never-closed head
                self.sink.comm_row(record)
        self._comm_window.clear()
        self.sink.finalize(self)

    # -- analysis helpers --------------------------------------------------------------

    def bytes_by_pair(self) -> dict[tuple[int, int], int]:
        """Total bytes sent per (src, dst) pair."""
        out: dict[tuple[int, int], int] = {}
        for record in self.comms:
            key = (record.src, record.dst)
            out[key] = out.get(key, 0) + record.nbytes
        return out

    def messages_of(self, rank: int) -> list[CommRecord]:
        return [r for r in self.comms if r.src == rank or r.dst == rank]

    def open_records(self) -> list[CommRecord | ComputeRecord]:
        """Records never finalized (the simulation died around them)."""
        return [r for r in self.comms + self.computes  # type: ignore[operator]
                if not r.closed]

    # -- export ------------------------------------------------------------------------------

    def to_csv(self, include_open: bool = False) -> str:
        """Serialise as CSV (schema in the module docstring).

        Open records (aborted/failed simulations leave transfers whose
        ``end`` was never recorded) are dropped by default so the file
        never contains ``nan``; ``include_open=True`` keeps them with an
        empty ``end`` field instead.
        """
        buf = io.StringIO()
        write = buf.write
        write(CSV_HEADER_LINE)
        for r in self.comms:
            if r.closed or include_open:
                write(comm_csv_line(r))
        for c in self.computes:
            if c.closed or include_open:
                write(compute_csv_line(c))
        for e in self.resource_events:
            write(resource_csv_line(e))
        if self.timeline is not None:
            write_timeline_csv(write, self.timeline)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Tracer":
        """Rebuild a tracer (and timeline) from :meth:`to_csv` output."""
        from ..errors import ConfigError
        from .timeline import Timeline

        tracer = cls()
        timeline = Timeline()
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or tuple(header[:2]) != ("kind", "mid"):
            raise ConfigError("not a repro trace CSV (bad header)")

        def _end(field: str) -> float:
            return float(field) if field else float("nan")

        n_cols = len(CSV_HEADER)
        for row in reader:
            if not row:
                continue
            if len(row) < n_cols:  # pre-fault traces lack trailing columns
                row = row + [""] * (n_cols - len(row))
            kind = row[0]
            if kind == "comm":
                tracer.comms.append(CommRecord(
                    mid=int(row[1]), src=int(row[2]), dst=int(row[3]),
                    tag=int(row[4]), nbytes=int(float(row[5])),
                    eager=bool(int(row[6])), start=float(row[7]),
                    end=_end(row[8]),
                    failed=bool(int(row[10])) if row[10] else False,
                ))
            elif kind == "compute":
                tracer.computes.append(ComputeRecord(
                    rank=int(row[2]), flops=float(row[5]),
                    start=float(row[7]), end=_end(row[8]),
                ))
            elif kind == "resource":
                tracer.resource_events.append(ResourceEventRecord(
                    name=row[2], kind=row[3] or "link",
                    event=row[6], t=float(row[7]),
                ))
            elif kind == "link":
                timeline.load_row(
                    name=row[2], kind=row[3] or "link",
                    capacity=float(row[9]) if row[9] else 0.0,
                    t=float(row[7]), usage=float(row[5]),
                )
            elif kind == "capacity":
                timeline.load_capacity_row(
                    name=row[2], kind=row[3] or "link",
                    t=float(row[7]), capacity=float(row[9]),
                )
            else:
                raise ConfigError(f"unknown trace CSV row kind {kind!r}")
        tracer.timeline = (timeline if timeline.names()
                           or timeline.capacity_series else None)
        return tracer

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Tracer":
        return cls.from_csv(Path(path).read_text(encoding="utf-8"))
