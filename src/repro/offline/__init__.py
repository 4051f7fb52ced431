"""offline — trace-based ("post-mortem") simulation, the paper's §2 foil.

The paper contrasts its on-line approach with off-line simulators that
replay "a log of MPI communication events (time-stamp, source,
destination, data size)".  This package implements that alternative on
top of the same kernel, which makes the comparison concrete:

* :mod:`repro.offline.record` — capture a *time-independent trace* from
  an on-line run: per-rank sequences of compute amounts, message
  envelopes and wait dependencies (SimGrid's TI-trace format in spirit);
* :mod:`repro.offline.replay` — re-execute a trace on any platform /
  network model, without the application;
* :mod:`repro.offline.trace` — the trace itself, one column set per
  rank, serialised to JSON for exchange (:class:`TiTrace.save`/``load``).

The replayer reproduces the on-line simulator's timing exactly for the
platform the trace was recorded on (a strong cross-check, asserted in the
test suite), runs without the application's memory or compute footprint —
and exhibits precisely the limitation the paper describes: the trace is
tied to the recorded configuration (rank count, message sizes, matching
choices), so what-if studies that change application behaviour need
on-line simulation.
"""

from .record import record_trace, record_trace_streaming
from .replay import replay_trace
from .trace import TiEvent, TiTrace

__all__ = ["TiEvent", "TiTrace", "record_trace", "record_trace_streaming",
           "replay_trace"]
