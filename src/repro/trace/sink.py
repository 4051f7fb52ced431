"""Streaming trace sinks: bounded-memory export of simulation traces.

The historical export path accumulates every :class:`~repro.trace.tracer.
CommRecord` in memory and serialises once at the end (``Tracer.to_csv``)
— O(messages) resident bytes, which is exactly what a 10k+-rank run
cannot afford.  A *sink* inverts that: the :class:`~repro.trace.Tracer`
hands each record over as soon as it can never change again (see
``Tracer._flush_closed``), the sink writes its CSV line through the
file object's own buffer, and only the open-transfer window stays in
memory.

Sinks implement five calls, the first four invoked by the tracer and
``abort`` by the run's finish path (``SmpiWorld.run``)::

    comm_row(record)      # one closed CommRecord, in start order
    compute_row(record)   # one closed ComputeRecord
    resource_row(record)  # one ResourceEventRecord
    finalize(tracer)      # end of run: write trailers, close files
    abort()               # the run raised: close and delete every file

:class:`CsvStreamSink` produces output byte-identical to
``Tracer.save``: the CSV schema orders sections (comms, computes,
resource events, timeline) while streaming interleaves them, so the
non-comm sections spill to side files during the run and are stitched
back in section order at finalize.  :class:`PajeStreamSink` spills the
same CSV during the run and renders the Paje file at finalize — the Paje
format needs a *global* time sort, so the final render materialises the
trace once, but the live simulation (when memory pressure peaks) stays
bounded.  No sink keeps a row buffer: a line is written as soon as it
is formatted, and timeline lines at most ``LINES_PER_WRITE`` at a time.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

from .tracer import (
    CSV_HEADER_LINE,
    Tracer,
    comm_csv_line,
    compute_csv_line,
    resource_csv_line,
    write_timeline_csv,
)

__all__ = ["TraceSink", "CsvStreamSink", "PajeStreamSink"]


class TraceSink:
    """Interface of a streaming trace consumer (see module docstring)."""

    def comm_row(self, record) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def compute_row(self, record) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def resource_row(self, record) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def finalize(self, tracer) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def abort(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


def _open(path: Path):
    return open(path, "w", encoding="utf-8", newline="")


class CsvStreamSink(TraceSink):
    """Stream a run's trace to ``path`` in ``Tracer.to_csv`` format.

    The main file receives the header and then comm lines as they close;
    compute and resource lines spill to ``<path>.computes`` /
    ``<path>.resources`` side files that are appended (and deleted) at
    finalize, followed by the timeline lines — so the finished file is
    byte-identical to what ``Tracer.save`` writes from an in-memory run.
    Each line is written through the file object's own buffer as soon
    as it is formatted.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._main = _open(self.path)
        self._main.write(CSV_HEADER_LINE)
        self._computes = _open(
            self.path.with_name(self.path.name + ".computes"))
        self._resources = _open(
            self.path.with_name(self.path.name + ".resources"))

    def comm_row(self, record) -> None:
        self._main.write(comm_csv_line(record))

    def compute_row(self, record) -> None:
        self._computes.write(compute_csv_line(record))

    def resource_row(self, record) -> None:
        self._resources.write(resource_csv_line(record))

    def _append_spill(self, spill) -> None:
        spill.close()
        with open(spill.name, "r", encoding="utf-8", newline="") as lines:
            shutil.copyfileobj(lines, self._main)
        os.unlink(spill.name)

    def finalize(self, tracer) -> None:
        self._append_spill(self._computes)
        self._append_spill(self._resources)
        if tracer.timeline is not None:
            write_timeline_csv(self._main.write, tracer.timeline)
        self._main.close()

    def abort(self) -> None:
        for file in (self._main, self._computes, self._resources):
            file.close()
            Path(file.name).unlink(missing_ok=True)


class PajeStreamSink(TraceSink):
    """Stream to a CSV spill during the run; render Paje at finalize.

    The Paje format interleaves every event in one global time sort, so
    it cannot be emitted incrementally without holding the whole trace —
    instead the run streams to a bounded CSV spill (memory stays O(open
    transfers) while the simulation itself is live), and the spill is
    reloaded and rendered once at finalize, after the simulation state
    has been torn down.  The rendered file is byte-identical to
    ``export_paje`` on an in-memory tracer: CSV round-trips floats via
    ``repr``, which is exact.
    """

    def __init__(self, path: str | Path, n_ranks: int) -> None:
        self.path = Path(path)
        self.n_ranks = n_ranks
        self._spill = CsvStreamSink(
            self.path.with_name(self.path.name + ".spill.csv"))

    def comm_row(self, record) -> None:
        self._spill.comm_row(record)

    def compute_row(self, record) -> None:
        self._spill.compute_row(record)

    def resource_row(self, record) -> None:
        self._spill.resource_row(record)

    def abort(self) -> None:
        self._spill.abort()

    def finalize(self, tracer) -> None:
        from .paje import export_paje

        self._spill.finalize(tracer)
        loaded = Tracer.load(self._spill.path)
        self.path.write_text(
            export_paje(loaded, self.n_ranks, timeline=loaded.timeline),
            encoding="utf-8",
        )
        os.unlink(self._spill.path)
