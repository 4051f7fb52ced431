"""Actions: the units of ongoing simulated work.

An action is anything that takes simulated time: a network transfer, a
computation, a sleep.  Actions move through a small state machine::

    LATENCY ---(latency elapsed)---> RUNNING ---(work done)---> DONE
       \\                                |
        +---------- cancel -------------+--------> FAILED

* In ``LATENCY`` a network action waits out its constant start-up delay
  (sum of link latencies, scaled by the model's latency factor) without
  consuming bandwidth.
* In ``RUNNING`` the action has ``remaining`` work units left (bytes or
  flops) and consumes resources at the rate the max-min solver assigns.
* Sleep actions carry only a deadline.

The engine owns the clocking; actions only record their parameters and
bookkeeping (who to wake on completion, via an opaque ``observer`` the
SIMIX layer sets).

Actions are *lazily updated*: ``remaining`` is the work left **as of**
``last_touched``, not as of the engine clock.  The pair is only
re-materialized when the action's rate actually changes
(:meth:`Action.set_rate`) or when its predicted ``deadline`` — the
absolute simulated date at which the current phase ends — is reached
(:meth:`Action.expire`).  Between those two moments the action is never
touched, which is what lets the engine process an event without visiting
every pending action.  ``epoch`` counts invalidations of the prediction;
the engine stamps heap entries with it so stale predictions are skipped
on pop rather than eagerly deleted.  Every exit from ``LATENCY`` or
``RUNNING`` (:meth:`Action.expire`, :meth:`Action.fail`) bumps it too, so
an entry whose epoch still matches belongs to a pending action.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import TYPE_CHECKING, Any, Callable

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .resources import Host, Link

__all__ = ["ActionState", "Action", "NetworkAction", "ComputeAction", "SleepAction"]

#: process-wide action id allocator.  Aids are ordering-significant:
#: completion-heap ties break on aid and harvests deliver observers
#: aid-sorted.
_ids = itertools.count()


class ActionState(enum.Enum):
    LATENCY = "latency"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class Action:
    """Base class; concrete kinds below.  Engine-facing API only."""

    __slots__ = (
        "aid",
        "name",
        "state",
        "remaining",
        "latency_remaining",
        "rate",
        "rate_bound",
        "weight",
        "start_time",
        "finish_time",
        "observer",
        "last_touched",
        "deadline",
        "epoch",
    )

    def __init__(
        self,
        name: str,
        amount: float,
        latency: float = 0.0,
        rate_bound: float = math.inf,
        weight: float = 1.0,
    ) -> None:
        if amount < 0:
            raise SimulationError(f"action {name!r}: negative amount")
        if latency < 0:
            raise SimulationError(f"action {name!r}: negative latency")
        self.aid = next(_ids)
        self.name = name
        self.remaining = float(amount)
        self.latency_remaining = float(latency)
        self.rate = 0.0
        self.rate_bound = rate_bound
        self.weight = weight
        self.state = ActionState.LATENCY if latency > 0 else ActionState.RUNNING
        self.start_time = math.nan
        self.finish_time = math.nan
        #: callable invoked by the engine when the action completes/fails
        self.observer: Callable[[Action], None] | None = None
        #: simulated time at which ``remaining``/``latency_remaining`` were
        #: last materialized (engine-maintained; 0 for standalone use)
        self.last_touched = 0.0
        #: absolute date of the next phase change at the current rate
        #: (latency expiry or completion; inf while unknowable)
        self.deadline = math.inf
        #: bumped on every prediction invalidation — heap entries carrying
        #: an older epoch are stale and skipped on pop
        self.epoch = 0

    # -- engine-facing ------------------------------------------------------

    def constraints(self) -> tuple["Link | Host", ...]:
        """Resources this action consumes while RUNNING (empty for sleeps)."""
        raise NotImplementedError

    @property
    def is_pending(self) -> bool:
        return self.state in (ActionState.LATENCY, ActionState.RUNNING)

    def time_to_completion(self) -> float:
        """Time until this action finishes at its current rate (inf if stalled)."""
        if self.state is ActionState.LATENCY:
            # After the latency phase the transfer still has to run; only the
            # latency expiry is scheduled, the engine re-shares afterwards.
            return self.latency_remaining
        if self.state is not ActionState.RUNNING:
            return math.inf
        if self.remaining <= 0:
            return 0.0
        if self.rate <= 0:
            return math.inf
        return self.remaining / self.rate

    # -- lazy updates (engine hot path) -------------------------------------

    def set_rate(self, rate: float, now: float) -> float:
        """Assign a new sharing rate at simulated time ``now``.

        Materializes ``remaining`` (work done since ``last_touched`` at the
        old rate is subtracted), re-anchors the action at ``now``, and
        recomputes and returns the completion ``deadline``.  Callers must
        skip the call when the rate is unchanged: the existing prediction
        is still exact, and re-anchoring would perturb the floating-point
        trajectory.
        """
        remaining = self.remaining
        if self.rate > 0.0:
            remaining -= self.rate * (now - self.last_touched)
            if remaining < 0.0:
                remaining = 0.0
            self.remaining = remaining
        self.last_touched = now
        self.rate = rate
        self.epoch += 1
        if remaining <= 0:
            deadline = now
        elif rate > 0.0:
            deadline = now + remaining / rate
        else:
            deadline = math.inf
        self.deadline = deadline
        return deadline

    def expire(self, now: float) -> None:
        """Apply the phase change whose ``deadline`` has been reached.

        LATENCY actions become RUNNING (or DONE when they carry no work,
        e.g. sleeps) and wait for the next share to receive a rate;
        RUNNING actions complete.
        """
        self.epoch += 1
        if self.state is ActionState.LATENCY:
            self.latency_remaining = 0.0
            self.last_touched = now
            if self.remaining <= 0:
                self.state = ActionState.DONE
            else:
                self.state = ActionState.RUNNING
                self.rate = 0.0
                self.deadline = math.inf
        elif self.state is ActionState.RUNNING:
            self.remaining = 0.0
            self.state = ActionState.DONE

    # -- standalone countdown API (kept for model-level callers/tests) ------

    def advance(self, delta: float) -> bool:
        """Progress the action by ``delta`` simulated seconds.

        Countdown-style companion to the engine's deadline-driven path,
        for standalone use of actions outside an :class:`Engine` (it does
        not maintain ``last_touched``/``deadline``).  Returns True when
        the action changed state (latency expired, work completed).
        """
        if self.state is ActionState.LATENCY:
            self.latency_remaining -= delta
            if self.latency_remaining <= 1e-15:
                self.latency_remaining = 0.0
                self.state = ActionState.RUNNING
                if self.remaining <= 0:
                    self.state = ActionState.DONE
                return True
        elif self.state is ActionState.RUNNING:
            self.remaining -= self.rate * delta
            if self.remaining <= 1e-9 * max(1.0, self.rate):
                self.remaining = 0.0
                self.state = ActionState.DONE
                return True
        return False

    def fail(self) -> None:
        """Cancel the action; the observer is notified by the engine."""
        if self.is_pending:
            self.state = ActionState.FAILED
            self.epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(#{self.aid} {self.name!r} {self.state.value}"
            f" remaining={self.remaining:.3g})"
        )


class NetworkAction(Action):
    """A point-to-point data transfer crossing a fixed set of links."""

    __slots__ = ("links", "src", "dst", "size", "payload")

    def __init__(
        self,
        name: str,
        size: float,
        links: tuple["Link", ...],
        latency: float,
        rate_bound: float = math.inf,
        weight: float = 1.0,
        src: str = "",
        dst: str = "",
    ) -> None:
        super().__init__(name, size, latency, rate_bound, weight)
        self.links = links
        self.src = src
        self.dst = dst
        self.size = float(size)
        #: opaque payload carried with the transfer (the MPI layer stores
        #: the message here so data really moves end-to-end)
        self.payload: Any = None
        if size == 0 and latency == 0:
            # zero-byte, zero-latency transfer completes instantly
            self.state = ActionState.DONE

    def constraints(self) -> tuple["Link", ...]:
        return self.links


class ComputeAction(Action):
    """A CPU burst of ``flops`` floating-point operations on one host."""

    __slots__ = ("host",)

    def __init__(
        self,
        name: str,
        flops: float,
        host: "Host",
        rate_bound: float = math.inf,
    ) -> None:
        # A host with several cores lets one action use only one core's
        # share at full speed; the bound reflects that.
        per_core = host.speed
        super().__init__(name, flops, 0.0, min(rate_bound, per_core))
        self.host = host
        if flops <= 0:
            self.state = ActionState.DONE

    def constraints(self) -> tuple["Host", ...]:
        return (self.host,)


class SleepAction(Action):
    """Pure delay: finishes after ``duration`` simulated seconds."""

    __slots__ = ()

    def __init__(self, name: str, duration: float) -> None:
        super().__init__(name, 0.0, latency=duration)
        if duration <= 0:
            self.state = ActionState.DONE

    def constraints(self) -> tuple[()]:
        return ()
