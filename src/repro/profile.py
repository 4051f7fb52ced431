"""Wall-time profiling: exclusive per-layer timers installed from outside.

Perf work on this codebase is measured, not guessed, in two layers:

* **deterministic counters** — always on, free, and identical across
  runs: :class:`~repro.surf.stats.EngineStats` counts steps, shares,
  matching probes, context switches and pool reuses.
* **wall timers** — this module.  Nothing in the simulator is
  instrumented.  :class:`SpanRecorder` is a context manager: on entry it
  replaces the functions listed in :data:`LAYERS` with wrappers that push
  a span on one stack, and on exit it puts every original object back.
  Each span is charged its *self* time — its duration minus the time its
  child spans cover — so the per-layer rows are exclusive, and an
  ``other`` row (time inside the ``with`` block but in no span) makes
  them sum to the profiled wall.  With no recorder active no wrapper
  exists, so an unprofiled run pays nothing.

The layer names are the ones the ``e2ebench`` basket reports.  Rank code,
context switches and protocol glue that is not wrapped are charged to the
span they run under, ``simix.resume_s``.

Spans only nest strictly if a wrapped function returns before the actor
that called it is suspended.  On the thread backend a plain rank can
suspend inside ``Protocol.start_send``/``start_recv`` (they flush deferred
compute), so those are not wrapped; every function below returns without
ever parking its caller, on either backend.

``repro run --profile``, ``repro replay --profile`` and ``repro profile``
run the whole command inside a recorder and print :meth:`SpanRecorder.report`.
"""

from __future__ import annotations

import importlib
from time import perf_counter

__all__ = ["LAYERS", "SpanRecorder"]

_DATATYPES = ("PredefinedDatatype", "ContiguousDatatype", "VectorDatatype")

#: layer -> [(module, owner class or None for the module, function names)]
LAYERS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "simix.sched_s": [("repro.simix.context", "Scheduler", ("run",))],
    "simix.resume_s": [("repro.simix.actor", "Actor", ("resume",))],
    "engine.step_s": [("repro.surf.engine", "Engine", ("step",))],
    "engine.poll_s": [("repro.surf.engine", "Engine",
                       ("poll_progress", "next_deadline"))],
    "engine.post_s": [("repro.surf.engine", "Engine",
                       ("communicate", "execute", "sleep"))],
    "maxmin.share_s": [("repro.surf.engine", "Engine", ("share_resources",))],
    "maxmin.solve_s": [("repro.surf.maxmin", "IncrementalMaxMin",
                        ("solve_dirty",))],
    "match.s": [
        ("repro.simix.mailbox", "IndexedMessageQueue",
         ("push", "pop", "peek", "pop_if")),
        ("repro.simix.mailbox", "IndexedRecvQueue",
         ("push", "pop", "pop_source", "remove_first")),
    ],
    "pt2pt.s": [("repro.smpi.pt2pt", "Protocol",
                 ("_start_transfer", "_on_transfer_done", "_deliver"))],
    # pt2pt imports payload_key by name: patch the name it calls
    "intern.hash_s": [("repro.smpi.pt2pt", None, ("payload_key",))],
    "payload.pack_s": [("repro.smpi.datatype", cls, ("pack",))
                       for cls in _DATATYPES],
    "payload.unpack_s": [("repro.smpi.datatype", cls, ("unpack",))
                         for cls in _DATATYPES],
    "offline.load_s": [("repro.offline.trace", "TiTrace", ("load",))],
    "trace.timeline_s": [("repro.trace.timeline", "Timeline", ("record",))],
    "trace.sink_s": [("repro.trace.sink", "CsvStreamSink",
                      ("comm_row", "compute_row", "resource_row",
                       "finalize"))],
    "trace.tracer_s": [("repro.trace.tracer", "Tracer",
                        ("comm_start", "comm_end", "comm_fail", "compute"))],
}


def targets():
    """Yield ``(layer, owner, name)`` for every function :data:`LAYERS` names."""
    for layer, entries in LAYERS.items():
        for module_name, attr, names in entries:
            module = importlib.import_module(module_name)
            owner = module if attr is None else getattr(module, attr)
            for name in names:
                yield layer, owner, name


def _own(owner, name: str):
    # a class's own attribute, so a classmethod stays a descriptor and a
    # missing name fails loudly instead of wrapping an inherited method
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


class SpanRecorder:
    """Exclusive wall seconds per layer of everything run inside ``with``."""

    def __init__(self) -> None:
        #: one ``[child seconds]`` cell per open span
        self.stack: list[list[float]] = []
        #: layer -> ``[self seconds, calls]``
        self.cells: dict[str, list] = {layer: [0.0, 0] for layer in LAYERS}
        #: seconds between entering and leaving the ``with`` block
        self.wall = 0.0
        self._start = 0.0
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "SpanRecorder":
        try:
            for layer, owner, name in targets():
                self._wrap(owner, name, self.cells[layer])
        except BaseException:
            self._restore()
            raise
        self._start = perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.wall = perf_counter() - self._start
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap(self, owner, name: str, cell: list) -> None:
        original = _own(owner, name)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        stack = self.stack

        def span(*args, **kwargs):
            stack.append([0.0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()[0]
                if stack:
                    stack[-1][0] += elapsed
                cell[0] += elapsed - children
                cell[1] += 1

        self._undo.append((owner, name, original))
        setattr(owner, name, classmethod(span) if is_classmethod else span)

    def table(self) -> dict[str, float]:
        """Self seconds of every layer hit, plus ``other``: sums to ``wall``."""
        rows = {layer: cell[0] for layer, cell in self.cells.items() if cell[1]}
        rows["other"] = self.wall - sum(rows.values())
        return rows

    def report(self) -> str:
        """The :meth:`table` as aligned text, largest layer first."""
        rows = sorted(self.table().items(), key=lambda kv: kv[1], reverse=True)
        width = max(len(layer) for layer, _ in rows)
        wall = self.wall or 1.0
        lines = [f"  {'layer':<{width}}  {'calls':>10}  {'self s':>10}  "
                 f"{'share':>6}"]
        for layer, seconds in rows + [("total", self.wall)]:
            calls = self.cells[layer][1] if layer in self.cells else ""
            lines.append(f"  {layer:<{width}}  {calls:>10}  {seconds:>10.4f}  "
                         f"{seconds / wall:>6.1%}")
        return "\n".join(lines)
