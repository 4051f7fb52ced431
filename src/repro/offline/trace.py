"""Time-independent trace format.

A TI trace is one ordered event list per rank.  Events carry *amounts*,
never time-stamps — durations are what the replay simulation computes —
which is what makes the trace portable across target platforms (the
"trace extrapolation" limitation discussed in the paper's §2 concerns
changing the *application* configuration, not the platform).

Event kinds:

* ``("compute", flops)``
* ``("send", op_id, dst, nbytes, tag, ctx)`` — nonblocking send posted
* ``("recv", op_id, src, tag, ctx)`` — nonblocking receive posted
  (``src`` may be ANY_SOURCE: the replay re-matches, and — as the paper
  warns — may match differently on a different platform)
* ``("wait", [op_ids...])`` — block until all listed operations complete

Ranks and contexts are world-level (the trace flattens communicators the
way real MPI tracing tools do).

A loaded trace holds one small object per event: :class:`TiEvent` has
slots, no ``__dict__``, and :meth:`TiEvent.from_json` stores the
canonical :data:`KINDS` string instead of the one the JSON decoder made
for that row.  :meth:`TiTrace.save` writes the document rank by rank, so
the whole trace never exists twice in memory (as row lists plus one
string); the bytes are those of :meth:`TiTrace.to_json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..errors import ConfigError

__all__ = ["TiEvent", "TiTrace"]

#: canonical event kinds
KINDS = ("compute", "send", "recv", "wait")
#: a decoded kind string -> the :data:`KINDS` object equal to it
_CANONICAL = {kind: kind for kind in KINDS}


@dataclass(frozen=True, slots=True)
class TiEvent:
    """One trace event; ``args`` depends on ``kind`` (see module doc)."""

    kind: str
    args: tuple

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown trace event kind {self.kind!r}")

    def to_json(self) -> list:
        """The compact JSON row form: ``[kind, *args]``."""
        return [self.kind, *self.args]

    @classmethod
    def from_json(cls, row: list) -> "TiEvent":
        """Rebuild an event from its :meth:`to_json` row."""
        kind, *args = row
        if kind == "wait":
            args = (list(args[0]),)
        return cls(_CANONICAL.get(kind, kind), tuple(args))


@dataclass
class TiTrace:
    """A complete recorded execution: one event list per world rank."""

    n_ranks: int
    events: list[list[TiEvent]] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.events:
            self.events = [[] for _ in range(self.n_ranks)]
        if len(self.events) != self.n_ranks:
            raise ConfigError("one event list per rank required")

    def append(self, rank: int, event: TiEvent) -> None:
        """Record ``event`` at the end of ``rank``'s stream."""
        self.events[rank].append(event)

    # -- statistics -------------------------------------------------------------------

    def total_messages(self) -> int:
        """Number of point-to-point messages posted across all ranks."""
        return sum(
            1 for rank_events in self.events for e in rank_events
            if e.kind == "send"
        )

    def total_bytes(self) -> int:
        """Total payload bytes of every posted send."""
        return sum(
            e.args[2] for rank_events in self.events for e in rank_events
            if e.kind == "send"
        )

    def total_flops(self) -> float:
        """Total computation recorded, in flops."""
        return sum(
            e.args[0] for rank_events in self.events for e in rank_events
            if e.kind == "compute"
        )

    def summary(self) -> str:
        """One-line human summary (ranks / messages / bytes / flops)."""
        return (
            f"TI trace: {self.n_ranks} ranks, "
            f"{self.total_messages()} messages, "
            f"{self.total_bytes()} bytes, {self.total_flops():.3g} flops"
        )

    # -- (de)serialisation ----------------------------------------------------------------

    def _json_chunks(self) -> Iterator[str]:
        """The :meth:`to_json` document in pieces: a head, one piece per
        rank (with its separator), and the closing brackets."""
        head = json.dumps({
            "format": "repro-ti-trace-1",
            "n_ranks": self.n_ranks,
            "meta": self.meta,
            "events": [],
        })
        yield head[:-2]  # drop the empty list's "]" and the closing "}"
        for rank, rank_events in enumerate(self.events):
            rows = json.dumps([e.to_json() for e in rank_events])
            yield f", {rows}" if rank else rows
        yield "]}"

    def to_json(self) -> str:
        """Serialise to the versioned ``repro-ti-trace-1`` JSON document."""
        return "".join(self._json_chunks())

    @classmethod
    def from_json(cls, text: str) -> "TiTrace":
        """Parse a :meth:`to_json` document (format field is checked)."""
        payload = json.loads(text)
        if payload.get("format") != "repro-ti-trace-1":
            raise ConfigError("not a repro TI trace")
        trace = cls(
            n_ranks=payload["n_ranks"],
            events=[
                [TiEvent.from_json(row) for row in rank_events]
                for rank_events in payload["events"]
            ],
            meta=payload.get("meta", {}),
        )
        return trace

    def save(self, path: str | Path) -> None:
        """Write the :meth:`to_json` document to ``path``, rank by rank.

        A save that fails (a ``meta`` or an event JSON cannot encode)
        leaves no partial file behind.
        """
        try:
            with open(path, "w", encoding="utf-8") as out:
                for chunk in self._json_chunks():
                    out.write(chunk)
        except Exception:
            Path(path).unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "TiTrace":
        """Read a trace previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
