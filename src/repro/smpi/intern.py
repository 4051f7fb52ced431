"""Content-keyed interning pools — RAM folding beyond user arrays.

The paper's ``SMPI_SHARED_MALLOC`` folds identical per-rank *user* arrays
into one allocation (:mod:`repro.smpi.shared`).  At 10k+ ranks the same
redundancy appears one layer down: every rank of a folded application
packs byte-identical message payloads and stamps identical envelope
metadata.  This module extends the folding to that rank state:

* :func:`intern_meta` folds small immutable metadata tuples through one
  process-global dict: the first tuple seen is handed out for every
  equal one, for the process lifetime;
* a per-:class:`~repro.smpi.runtime.SmpiWorld` :class:`PayloadPool`
  (``world.payload_pool``) folds packed message payloads, stored once,
  handed out by reference and reference-counted so the pool drops them
  when the last user releases.  It is wired to the world's
  :class:`~repro.smpi.memory.MemoryTracker` so the interned-vs-naive
  byte gap is measurable (``MemoryReport.intern_naive_peak`` /
  ``intern_stored_peak``).

Payloads are keyed in two levels, so folding costs little when nothing
folds.  Level 1, paid on every send, is :func:`payload_key`: the length
plus a digest of a few KiB sampled at fixed offsets (short payloads are
hashed whole), read in place with no copy.  Level 2, paid only when a
live payload already has the same fingerprint, compares the bytes.  Two
payloads therefore fold exactly when their bytes are equal; a
fingerprint shared by different payloads costs one compare, never a
wrong fold.

Interned payload arrays are frozen (``writeable=False``): receivers only
ever copy out of them, and an accidental in-place write would corrupt
every logical copy at once — freezing turns that bug into an exception.

A rendezvous payload may be *borrowed*: a read-only view of the sender's
own buffer (see :mod:`repro.smpi.datatype`).  The fingerprint and the
compare read it in place, and on a miss the entry holds the view itself.
The sender gets its buffer back when its one message completes, so a
borrowed entry never has a second reference: the acquire that folds onto
it first gives the entry bytes of its own (the folding message's
snapshot when it has one, else a copy).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Hashable

import numpy as np

__all__ = ["PayloadEntry", "PayloadPool", "intern_meta", "payload_key"]


class PayloadEntry:
    """One live interned payload: the handle a message holds until release."""

    __slots__ = ("key", "value", "refcount", "borrowed")

    def __init__(self, key: tuple, value: np.ndarray,
                 borrowed: bool = False) -> None:
        #: the :func:`payload_key` fingerprint (the entry's bucket)
        self.key = key
        #: the frozen payload array: pool-owned, or when ``borrowed`` a
        #: read-only view of its one sender's buffer
        self.value = value
        self.refcount = 0
        #: ``value`` is valid only until its sender's send completes
        self.borrowed = borrowed


class PayloadPool:
    """Packed payloads folded by byte equality under a sampled fingerprint.

    Each :func:`payload_key` fingerprint maps to a small bucket of live
    entries whose bytes all differ.  An acquire compares the payload's
    bytes only against the entries of its own bucket, which is empty
    unless a live payload has the same fingerprint; the handle it returns
    names the exact entry, so release stays exact when different payloads
    share a fingerprint.  Counters and accounting are those of a store
    keyed by the full bytes.

    ``on_account(naive_delta, stored_delta)`` is invoked on every change
    to the pool's byte accounting: *naive* bytes are what every acquirer
    would have paid without interning, *stored* bytes are what the pool
    actually holds.  The :class:`~repro.smpi.memory.MemoryTracker` plugs
    in here so folding wins show up in :class:`MemoryReport`.
    """

    def __init__(
        self, on_account: Callable[[int, int], None] | None = None
    ) -> None:
        self._on_account = on_account
        #: total acquire() calls (naive allocation count)
        self.acquires = 0
        #: acquire() calls served by an existing entry
        self.hits = 0
        #: bytes all acquirers would hold without interning (current)
        self.naive_bytes = 0
        #: bytes the pool actually holds (current)
        self.stored_bytes = 0
        self._buckets: dict[tuple, list[PayloadEntry]] = {}

    def _account(self, naive_delta: int, stored_delta: int) -> None:
        self.naive_bytes += naive_delta
        self.stored_bytes += stored_delta
        if self._on_account is not None:
            self._on_account(naive_delta, stored_delta)

    @property
    def saved_bytes(self) -> int:
        """Bytes folding is currently saving (naive minus stored)."""
        return self.naive_bytes - self.stored_bytes

    def stats(self) -> dict:
        """Plain-dict counters for result tables and ``EngineStats.extra``."""
        return {
            "acquires": self.acquires,
            "hits": self.hits,
            "entries": len(self),
            "naive_bytes": self.naive_bytes,
            "stored_bytes": self.stored_bytes,
            "saved_bytes": self.saved_bytes,
        }

    def acquire(self, key: tuple, data: np.ndarray,
                borrowed: bool = False) -> PayloadEntry:
        """Take one reference on the entry holding ``data``'s bytes.

        ``data`` is a contiguous uint8 payload and ``key`` is
        ``payload_key(data)``, so equal elements mean equal bytes.  On a
        miss ``data`` itself becomes the entry's value and is frozen, so
        it must be a freshly packed array nobody else writes to, or, with
        ``borrowed``, a view of a send buffer that stays unchanged until
        this reference is released.  Pair with :meth:`release`.
        """
        self.acquires += 1
        nbytes = int(data.nbytes)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = []
        else:
            for entry in bucket:
                if np.array_equal(entry.value, data):
                    if entry.borrowed:
                        # the second reference may outlive the first
                        # sender's send: the entry takes its own bytes
                        owned = entry.value.copy() if borrowed else data
                        owned.setflags(write=False)
                        entry.value = owned
                        entry.borrowed = False
                    self.hits += 1
                    self._account(nbytes, 0)
                    entry.refcount += 1
                    return entry
        data.setflags(write=False)
        entry = PayloadEntry(key, data, borrowed)
        bucket.append(entry)
        self._account(nbytes, nbytes)
        entry.refcount = 1
        return entry

    def release(self, entry: PayloadEntry) -> bool:
        """Drop one reference; returns True when the entry was evicted.

        Releasing an already evicted entry is ignored (idempotent
        release), matching how protocol teardown paths may race a normal
        delivery release.
        """
        if entry.refcount <= 0:
            return False
        assert not entry.borrowed or entry.refcount == 1, \
            "a borrowed payload entry was shared"
        entry.refcount -= 1
        nbytes = int(entry.value.nbytes)
        self._account(-nbytes, 0)
        if entry.refcount:
            return False
        self._account(0, -nbytes)
        bucket = self._buckets[entry.key]
        bucket.remove(entry)  # no __eq__: removes by identity
        if not bucket:
            del self._buckets[entry.key]
        return True

    def __len__(self) -> int:
        return sum(map(len, self._buckets.values()))


#: payloads up to this many bytes are fingerprinted whole
_WHOLE_BYTES = 4096
#: larger payloads are fingerprinted on this many windows ...
_WINDOWS = 16
#: ... of this many bytes each, the first at offset 0, the last ending at
#: the payload's end and the rest evenly spaced between
_WINDOW_BYTES = 256


def payload_key(data: np.ndarray) -> tuple:
    """Level-1 key of a packed payload: ``(nbytes, fingerprint)``.

    The fingerprint is a 16-byte blake2b digest of the whole payload up
    to 4 KiB, and beyond that of sixteen 256-byte windows at fixed
    offsets (first and last bytes included), read through a
    ``memoryview`` with no copy.  Its cost is therefore bounded whatever
    the payload size: it is paid on every interned send.  Equal bytes
    always give equal keys; unequal bytes may too, which is why
    :class:`PayloadPool` compares the bytes (level 2) before folding —
    but only when a live payload shares the key.

    ``data`` must be C-contiguous, as every packed payload is.
    """
    if not data.flags.c_contiguous:
        raise ValueError(
            "payload_key needs a C-contiguous array (packed payloads are "
            "contiguous uint8); got a strided view")
    view = memoryview(data).cast("B")
    nbytes = len(view)
    if nbytes <= _WHOLE_BYTES:
        digest = hashlib.blake2b(view, digest_size=16).digest()
        return (nbytes, digest)
    hasher = hashlib.blake2b(digest_size=16)
    span = nbytes - _WINDOW_BYTES
    for i in range(_WINDOWS):
        start = i * span // (_WINDOWS - 1)
        hasher.update(view[start:start + _WINDOW_BYTES])
    return (nbytes, hasher.digest())


#: :func:`intern_meta`'s tuples, each the first of its value seen
_METAS: dict[tuple, tuple] = {}


def intern_meta(*fields: Hashable) -> tuple:
    """Intern an arbitrary tuple of hashable metadata fields.

    The protocol stamps every request with its interned envelope
    metadata ``(kind, tag, ctx, nbytes, ...)`` — at scale the population
    of distinct envelopes is tiny compared to the request count, so one
    tuple serves thousands of requests.  Equal fields always return the
    same tuple object.
    """
    return _METAS.setdefault(fields, fields)
