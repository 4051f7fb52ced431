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

A trace holds each rank's events as columns (:class:`RankEvents`): one
kind code per event in a ``bytearray``, every integer argument in one
``array('q')`` (a wait's operands as their count followed by the ids)
and every compute amount in one ``array('d')``.  An HPL-shaped event
costs about 30 bytes.  The columns are read in order with one cursor
into each, so no per-event offset is stored; ``trace.events[rank]`` is
a read-only sequence that builds a :class:`TiEvent` when an item is
read.  Every event is checked when it is encoded: a wrong kind, a wrong
argument count, a non-integer where an integer belongs or a wait whose
operands are not a list raises :class:`~repro.errors.ConfigError`
naming the rank and the event index.

Compute amounts are stored as float64, so a hand-written integer amount
(``["compute", 5]``) re-saves as a float (``["compute", 5.0]``); every
document that :meth:`TiTrace.save` or the recorder writes already holds
floats there and round-trips byte for byte.

:meth:`TiTrace.load` reads the text once and decodes the ``"events"``
array one rank at a time, so only one rank's rows exist as Python lists
at any moment.  :meth:`TiTrace.save` writes the document rank by rank
from the columns; the bytes are those of :meth:`TiTrace.to_json`.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, islice
from json.decoder import WHITESPACE
from pathlib import Path
from typing import Any, Iterator

from ..errors import ConfigError

__all__ = ["RankEvents", "TiEvent", "TiTrace"]

#: canonical event kinds; an event's kind code is its index here
KINDS = ("compute", "send", "recv", "wait")
COMPUTE, SEND, RECV, WAIT = range(len(KINDS))
_CODES = {kind: code for code, kind in enumerate(KINDS)}
#: integer arguments of a send and of a receive
_ARITY = {SEND: 5, RECV: 4}
FORMAT = "repro-ti-trace-1"


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
        return cls(kind, tuple(args))


class RankEvents(Sequence):
    """One rank's events as columns, read-only as a sequence.

    ``kinds`` holds one :data:`KINDS` code per event, ``ints`` the integer
    arguments of every send, receive and wait in event order, ``flops``
    the amount of every compute.  Reading an item walks the columns from
    the start; iterate (or read the columns, as the replayer does) to
    visit events in order.
    """

    __slots__ = ("kinds", "ints", "flops")

    def __init__(self) -> None:
        self.kinds = bytearray()
        self.ints = array("q")
        self.flops = array("d")

    def _push(self, rank: int, kind: Any, args: Any) -> None:
        """Encode one event of ``rank``; a malformed one changes nothing
        and raises :class:`~repro.errors.ConfigError`."""
        ints = self.ints
        mark = len(ints)
        try:
            code = _CODES[kind]
            if code == WAIT:
                (ids,) = args
                if not isinstance(ids, list):
                    raise TypeError("a wait's operands must be a list")
                ints.append(len(ids))
                ints.extend(ids)
            elif code == COMPUTE:
                (amount,) = args
                self.flops.append(amount)
            elif len(args) == _ARITY[code]:
                ints.extend(args)
            else:
                raise ValueError(f"expected {_ARITY[code]} arguments")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            del ints[mark:]
            raise ConfigError(
                f"trace rank {rank}, event {len(self.kinds)}: malformed "
                f"{kind!r} event {args!r} ({exc!s})") from None
        self.kinds.append(code)

    def rows(self) -> Iterator[list]:
        """Every event as its JSON row ``[kind, *args]``, in order."""
        ints, flops = self.ints.tolist(), self.flops.tolist()
        at = fat = 0
        for code in self.kinds:
            if code == COMPUTE:
                yield ["compute", flops[fat]]
                fat += 1
            elif code == WAIT:
                end = at + 1 + ints[at]
                yield ["wait", ints[at + 1:end]]
                at = end
            else:
                end = at + _ARITY[code]
                yield [KINDS[code], *ints[at:end]]
                at = end

    def __iter__(self) -> Iterator[TiEvent]:
        for row in self.rows():
            yield TiEvent(row[0], tuple(row[1:]))

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        n = len(self.kinds)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trace event index out of range")
        return next(islice(self, index, None))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RankEvents):
            return (self.kinds == other.kinds and self.ints == other.ints
                    and self.flops == other.flops)
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RankEvents({list(self)!r})"


@dataclass
class TiTrace:
    """A complete recorded execution: one event sequence per world rank.

    ``events`` may be given as one iterable of :class:`TiEvent` per rank;
    they are encoded into :class:`RankEvents` columns.
    """

    n_ranks: int
    events: list[RankEvents] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        given = self.events
        if given and len(given) != self.n_ranks:
            raise ConfigError("one event list per rank required")
        self.events = [RankEvents() for _ in range(self.n_ranks)]
        for rank, rank_events in enumerate(given):
            push = self.events[rank]._push
            for event in rank_events:
                push(rank, event.kind, event.args)

    def append(self, rank: int, event: TiEvent) -> None:
        """Record ``event`` at the end of ``rank``'s stream."""
        self.events[rank]._push(rank, event.kind, event.args)

    # -- statistics -------------------------------------------------------------------

    def total_messages(self) -> int:
        """Number of point-to-point messages posted across all ranks."""
        return sum(rank.kinds.count(SEND) for rank in self.events)

    def total_bytes(self) -> int:
        """Total payload bytes of every posted send."""
        return sum(row[3] for rank in self.events for row in rank.rows()
                   if row[0] == "send")

    def total_flops(self) -> float:
        """Total computation recorded, in flops."""
        return sum(chain.from_iterable(rank.flops for rank in self.events))

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
            "format": FORMAT,
            "n_ranks": self.n_ranks,
            "meta": self.meta,
            "events": [],
        })
        yield head[:-2]  # drop the empty list's "]" and the closing "}"
        for rank, rank_events in enumerate(self.events):
            rows = json.dumps(list(rank_events.rows()))
            yield f", {rows}" if rank else rows
        yield "]}"

    def to_json(self) -> str:
        """Serialise to the versioned ``repro-ti-trace-1`` JSON document."""
        return "".join(self._json_chunks())

    @classmethod
    def from_json(cls, text: str) -> "TiTrace":
        """Parse a :meth:`to_json` document (format field is checked).

        The top-level object is walked member by member; the
        ``"events"`` array is decoded one rank's rows at a time, each
        encoded into columns before the next is read.
        """
        decode = json.JSONDecoder().raw_decode
        skip = WHITESPACE.match
        pos = skip(text).end()
        if not text.startswith("{", pos):
            raise ConfigError("not a repro TI trace")
        fields: dict[str, Any] = {}
        ranks: list[RankEvents] = []
        pos = skip(text, pos + 1).end()
        first = True
        while not text.startswith("}", pos):
            if not first:
                pos = _expect(text, pos, ",")
            first = False
            key, pos = decode(text, pos)
            if not isinstance(key, str):
                raise json.JSONDecodeError("Expecting property name", text,
                                           pos)
            pos = _expect(text, skip(text, pos).end(), ":")
            if key != "events":
                fields[key], pos = decode(text, pos)
            elif not text.startswith("[", pos):
                raise ConfigError("trace events must be one list per rank")
            else:
                pos = skip(text, pos + 1).end()
                while not text.startswith("]", pos):
                    if ranks:
                        pos = _expect(text, pos, ",")
                    rows, pos = decode(text, pos)
                    ranks.append(_decode_rank(len(ranks), rows))
                    pos = skip(text, pos).end()
                pos += 1
            pos = skip(text, pos).end()
        if skip(text, pos + 1).end() != len(text):
            raise json.JSONDecodeError("Extra data", text, pos + 1)
        if fields.get("format") != FORMAT:
            raise ConfigError("not a repro TI trace")
        trace = cls(n_ranks=fields["n_ranks"], meta=fields.get("meta", {}))
        if len(ranks) != trace.n_ranks:
            raise ConfigError("one event list per rank required")
        trace.events = ranks
        return trace

    def save(self, path: str | Path) -> None:
        """Write the :meth:`to_json` document to ``path``, rank by rank.

        A save that fails (a ``meta`` that cannot encode) leaves no
        partial file behind.
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


def _decode_rank(rank: int, rows: Any) -> RankEvents:
    """Encode one rank's decoded JSON rows into columns."""
    if not isinstance(rows, list):
        raise ConfigError(f"trace rank {rank}: events must be a list")
    columns = RankEvents()
    push = columns._push
    for row in rows:
        if not isinstance(row, list) or not row:
            raise ConfigError(
                f"trace rank {rank}, event {len(columns)}: malformed row "
                f"{row!r}")
        push(rank, row[0], row[1:])
    return columns


def _expect(text: str, pos: int, token: str) -> int:
    """The position after ``token`` at ``pos`` and any whitespace after it."""
    if not text.startswith(token, pos):
        raise json.JSONDecodeError(f"Expecting {token!r}", text, pos)
    return WHITESPACE.match(text, pos + 1).end()
