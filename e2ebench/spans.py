"""Outside-in span tracing: per-layer exclusive wall time of one run.

The simulator is not instrumented from inside.  Instead this module
replaces public functions of each layer (named after the ``repro``
module that owns them) with wrappers that push a span on an in-memory
stack, and charges each span's *self time* -- its duration minus the
time its child spans cover -- to the span's layer.  Totals are kept in
memory and returned once, when the run is over.

The stack is only correct because the ranks run on the coroutine
context backend: every rank is a generator resumed from
``Actor.resume``, so a wrapped call always returns before the frame
that made it is suspended and spans nest strictly.  ``sample.py`` pins
``ctx="coroutine"`` for that reason.

``Scheduler.run`` is the boundary between set-up and the simulation
proper: its entry is the first simulated event.  :func:`mark_first_event`
wraps only that function, so untimed runs pay one wrapper call in all.
"""

from __future__ import annotations

import importlib
from time import monotonic, perf_counter

#: layer name -> [(module, owner attribute or None for the module, names)]
LAYERS = {
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
                 ("start_send", "start_recv"))],
    # pt2pt imports payload_key by name: patch the name it calls
    "intern.hash_s": [("repro.smpi.pt2pt", None, ("payload_key",))],
    "payload.pack_s": [
        ("repro.smpi.datatype", cls, ("pack",))
        for cls in ("PredefinedDatatype", "ContiguousDatatype",
                    "VectorDatatype")
    ],
    "payload.unpack_s": [
        ("repro.smpi.datatype", cls, ("unpack",))
        for cls in ("PredefinedDatatype", "ContiguousDatatype",
                    "VectorDatatype")
    ],
    "offline.load_s": [("repro.offline.trace", "TiTrace", ("load",))],
    "trace.timeline_s": [("repro.trace.timeline", "Timeline", ("record",))],
    "trace.sink_s": [("repro.trace.sink", "CsvStreamSink",
                      ("comm_row", "compute_row", "resource_row",
                       "finalize"))],
    "trace.tracer_s": [("repro.trace.tracer", "Tracer",
                        ("comm_start", "comm_end", "comm_fail", "compute"))],
}


def _owner(module_name: str, attr: str | None):
    module = importlib.import_module(module_name)
    return module if attr is None else getattr(module, attr)


def _original(owner, name: str):
    # a class's own attribute, so classmethods stay descriptors and an
    # inherited method is never wrapped twice
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


class SpanRecorder:
    """Span stack plus per-layer self-time totals for one process."""

    def __init__(self, clock=monotonic) -> None:
        #: one ``[child_seconds]`` cell per open span
        self.stack: list[list[float]] = []
        #: per-phase ``{layer: self seconds}``; ``setup`` until the first
        #: simulated event, ``wall`` from then on
        self.totals: dict[str, dict[str, float]] = {"setup": {}, "wall": {}}
        self.current = self.totals["setup"]
        #: counts gathered by post-call hooks (see :func:`install`)
        self.counts: dict[str, int] = {}
        #: ``clock()`` at the entry of ``Scheduler.run``; the clock returns
        #: ``time.monotonic()`` values
        self.clock = clock
        self.first_event: float | None = None
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, _original(owner, name)))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, owner, name: str, layer: str, after=None) -> None:
        """Time ``owner.name`` as a span of ``layer``.

        ``after(args, kwargs, result)`` runs after each successful call.
        """
        original = _original(owner, name)
        fn = original.__func__ if isinstance(original, classmethod) else original
        stack = self.stack
        recorder = self

        def span(*args, **kwargs):
            stack.append([0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()[0]
                if stack:
                    stack[-1][0] += elapsed
                bucket = recorder.current
                bucket[layer] = bucket.get(layer, 0.0) + elapsed - children
            if after is not None:
                after(args, kwargs, result)
            return result

        if isinstance(original, classmethod):
            replacement = classmethod(span)
        else:
            replacement = span
        self._patch(owner, name, replacement)

    def mark(self, owner, name: str) -> None:
        """Switch to the ``wall`` phase when ``owner.name`` is entered."""
        original = _original(owner, name)
        recorder = self

        def first_event(*args, **kwargs):
            if recorder.first_event is None:
                recorder.first_event = recorder.clock()
                recorder.current = recorder.totals["wall"]
            return original(*args, **kwargs)

        self._patch(owner, name, first_event)


def mark_first_event(recorder: SpanRecorder) -> None:
    """Record the first simulated event and nothing else."""
    recorder.mark(_owner("repro.simix.context", "Scheduler"), "run")


def install(recorder: SpanRecorder) -> None:
    """Wrap every function of :data:`LAYERS` and the counting hooks."""

    def rate_changes(args, _kwargs, _result):
        recorder.count("maxmin.rate_changed", len(args[0].last_rate_changed))

    def sent(args, kwargs, _result):
        recorder.count("pt2pt.messages")
        # the interned envelope is (kind, tag, ctx, nbytes, eager)
        meta = kwargs["request"].meta
        if meta is not None and meta[4]:
            recorder.count("pt2pt.eager")

    def packed(_args, _kwargs, result):
        recorder.count("payload.bytes_copied", int(result.nbytes))

    def unpacked(args, _kwargs, _result):
        datatype, _data, _buf, count = args
        recorder.count("payload.bytes_copied", datatype.size * count)

    def loaded(_args, _kwargs, trace):
        recorder.count("offline.events", sum(map(len, trace.events)))

    def finalized(args, _kwargs, _result):
        recorder.count("trace.bytes_written", args[0].path.stat().st_size)

    # ContiguousDatatype delegates to its base type, which does the copy
    hooks = {
        ("TiTrace", "load"): loaded,
        ("CsvStreamSink", "finalize"): finalized,
        ("IncrementalMaxMin", "solve_dirty"): rate_changes,
        ("Protocol", "start_send"): sent,
        ("PredefinedDatatype", "pack"): packed,
        ("VectorDatatype", "pack"): packed,
        ("PredefinedDatatype", "unpack"): unpacked,
        ("VectorDatatype", "unpack"): unpacked,
    }
    for layer, targets in LAYERS.items():
        for module_name, attr, names in targets:
            owner = _owner(module_name, attr)
            for name in names:
                if isinstance(owner, type) and name not in owner.__dict__:
                    continue
                recorder.wrap(owner, name, layer, hooks.get((attr, name)))
    # the phase switch wraps outermost, so Scheduler.run's own span is
    # already charged to the wall phase
    mark_first_event(recorder)
