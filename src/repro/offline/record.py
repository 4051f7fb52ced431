"""Recording time-independent traces from on-line runs.

:func:`record_trace` runs an application exactly like
:func:`~repro.smpi.runtime.smpirun` while a :class:`Recorder` observes the
protocol layer: every compute burst, posted send/receive and blocking
wait is appended to the calling rank's event list, in program order
(guaranteed because ranks execute strictly sequentially).

Scope notes (the standard limitations of trace-based tooling, cf. paper
§2):

* collectives are captured as their point-to-point decomposition — the
  trace embeds the algorithm that ran, so a replay cannot re-select
  algorithms for a different implementation;
* a successful ``Test`` is recorded as a wait (the dependency is real);
  unsuccessful polls are not recorded, so busy-poll loops replay without
  their poll-delay cost;
* ``mpi.sleep`` is not captured (no MPI counterpart in a TI trace).
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import Any, Callable

from ..smpi.runtime import SmpiResult, smpirun
from ..surf.platform import Platform
from .trace import TiEvent, TiTrace

__all__ = ["Recorder", "StreamingRecorder", "record_trace",
           "record_trace_streaming"]


class Recorder:
    """Accumulates one TI trace while an on-line simulation runs."""

    def __init__(self, n_ranks: int) -> None:
        self.n_ranks = n_ranks
        self.trace = TiTrace(n_ranks)
        self._ids = itertools.count()

    def _emit(self, rank: int, event: TiEvent) -> None:
        self.trace.append(rank, event)

    # -- hooks called by the runtime/protocol --------------------------------------------

    def compute(self, rank: int, flops: float) -> None:
        self._emit(rank, TiEvent("compute", (float(flops),)))

    def send(self, rank: int, dst: int, nbytes: int, tag: int, ctx: int) -> int:
        op_id = next(self._ids)
        self._emit(
            rank, TiEvent("send", (op_id, dst, int(nbytes), tag, ctx))
        )
        return op_id

    def recv(self, rank: int, src: int, tag: int, ctx: int) -> int:
        op_id = next(self._ids)
        self._emit(rank, TiEvent("recv", (op_id, src, tag, ctx)))
        return op_id

    def wait(self, rank: int, op_ids: list[int]) -> None:
        if op_ids:
            self._emit(rank, TiEvent("wait", (list(op_ids),)))

    def abort(self) -> None:
        """The run raised: close and delete what this recording wrote."""


class StreamingRecorder(Recorder):
    """Recorder that spills events to disk as they happen.

    Events append to a JSONL spill file (``[rank, [kind, *args]]`` per
    line), each line written through the file object's own buffer,
    instead of growing per-rank lists, so recording a 10k+-rank run
    holds no more events in memory than the file buffer while the
    simulation is live.
    :meth:`finish` regroups the spill into the canonical
    :class:`~repro.offline.trace.TiTrace` JSON — that final pass
    materialises the trace once, after simulation state is gone — and
    the written file is byte-identical to ``TiTrace.save`` from an
    in-memory recording.
    """

    def __init__(self, n_ranks: int, path: str | Path) -> None:
        super().__init__(n_ranks)
        self.trace = None  # streaming: no in-memory trace
        self.path = Path(path)
        self._spill_path = self.path.with_name(self.path.name + ".spill")
        self._spill = open(self._spill_path, "w", encoding="utf-8")
        self.n_events = 0

    def _emit(self, rank: int, event: TiEvent) -> None:
        self._spill.write(json.dumps([rank, event.to_json()]) + "\n")
        self.n_events += 1

    def abort(self) -> None:
        self._spill.close()
        self._spill_path.unlink(missing_ok=True)

    def finish(self, meta: dict | None = None) -> TiTrace:
        """Regroup the spill into ``path`` (canonical TI JSON)."""
        self._spill.close()
        trace = TiTrace(self.n_ranks)
        with open(self._spill_path, "r", encoding="utf-8") as spill:
            for line in spill:
                if not line.strip():
                    continue
                rank, row = json.loads(line)
                trace.append(rank, TiEvent.from_json(row))
        if meta:
            trace.meta.update(meta)
        trace.save(self.path)
        os.unlink(self._spill_path)
        return trace


def record_trace(
    app: Callable[..., Any],
    n_ranks: int,
    platform: Platform,
    **smpirun_kwargs: Any,
) -> tuple[SmpiResult, TiTrace]:
    """Run ``app`` on-line and capture its TI trace.

    Returns the normal :class:`SmpiResult` *and* the trace; the trace's
    ``meta`` records the recording platform and simulated time so replays
    can report provenance.
    """
    recorder = Recorder(n_ranks)
    result = smpirun(app, n_ranks, platform, recorder=recorder,
                     **smpirun_kwargs)
    recorder.trace.meta.update(
        {
            "recorded_on": platform.name,
            "recorded_simulated_time": result.simulated_time,
        }
    )
    return result, recorder.trace


def record_trace_streaming(
    app: Callable[..., Any],
    n_ranks: int,
    platform: Platform,
    path: str | Path,
    **smpirun_kwargs: Any,
) -> SmpiResult:
    """Run ``app`` on-line and stream its TI trace straight to ``path``.

    The constant-memory twin of :func:`record_trace`: events spill to
    disk as they happen and the canonical trace file is assembled at the
    end, byte-identical to ``record_trace(...)[1].save(path)``.
    """
    recorder = StreamingRecorder(n_ranks, path)
    result = smpirun(app, n_ranks, platform, recorder=recorder,
                     **smpirun_kwargs)
    recorder.finish(
        {
            "recorded_on": platform.name,
            "recorded_simulated_time": result.simulated_time,
        }
    )
    return result
