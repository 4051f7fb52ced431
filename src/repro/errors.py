"""Exception hierarchy shared by every repro subsystem.

All errors raised by the library derive from :class:`ReproError` so callers
can catch the whole family with one ``except`` clause.  Layer-specific
errors subclass it: the simulation kernel raises :class:`SimulationError`,
the MPI layer raises :class:`MpiError` (which also carries the numeric MPI
error code from :mod:`repro.smpi.constants`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class PlatformError(ReproError):
    """A platform description is invalid (bad topology, missing host, ...)."""


class RoutingError(PlatformError):
    """No route exists between two hosts of a platform."""


class SimulationError(ReproError):
    """The simulation kernel reached an inconsistent state."""


class DeadlockError(SimulationError):
    """Every simulated process is blocked and no action can complete.

    This is the simulated equivalent of an MPI application hanging: for
    example two ranks that both call a blocking ``Recv`` first.  The message
    lists the blocked actors and what each is waiting for.
    """


class ActorFailure(SimulationError):
    """A simulated process raised an exception; wraps the original one."""

    def __init__(self, actor_name: str, original: BaseException):
        super().__init__(f"actor {actor_name!r} failed: {original!r}")
        self.actor_name = actor_name
        self.original = original


class ContextError(SimulationError):
    """An execution context was used outside its contract.

    The common case: an actor on a ``coroutine`` context (its entry is a
    generator function) tried to block from a plain (non-generator) frame
    — pure-Python continuations cannot suspend a synchronous call stack,
    so the blocking path must be written in the generator dialect or the
    entry made a plain function, which runs on a thread.
    """


class ContextLeakError(SimulationError):
    """Actor contexts survived simulation teardown.

    Raised (or logged, when teardown is already unwinding another error)
    when execution contexts still hold live frames or kernel threads after
    every actor was killed and resumed — previously this leaked silently.
    """

    def __init__(self, leaks: list[str]):
        super().__init__(
            f"{len(leaks)} actor context(s) still alive after teardown: "
            + ", ".join(leaks)
        )
        self.leaks = leaks


class UnknownFlowError(SimulationError):
    """A solver operation named a flow that is not registered.

    Raised by :meth:`repro.surf.maxmin.IncrementalMaxMin.remove_flow` on a
    double removal (e.g. a cancel racing a completion harvest) so the
    offending flow is identified instead of surfacing as a bare
    ``KeyError``; pass ``strict=False`` for an idempotent removal.
    """

    def __init__(self, key):
        super().__init__(
            f"flow {key!r} is not registered (removed twice, or never added)"
        )
        self.key = key


class MpiError(ReproError):
    """An MPI call failed.  ``code`` is the MPI error class constant."""

    def __init__(self, code: int, message: str):
        super().__init__(f"MPI error {code}: {message}")
        self.code = code
        self.message = message


class CalibrationError(ReproError):
    """Model calibration failed (too few samples, degenerate fit, ...)."""


class OutOfMemoryError(ReproError):
    """The simulated heap exceeded the host node's memory budget.

    Mirrors the "OM" bars of Fig. 16: without RAM folding, large DT classes
    do not fit on a single host node.  The message names the offending
    rank (``rank is None`` for folded/shared allocations, which are
    charged globally) and breaks the in-use total down into that rank's
    private heap and the shared (folded) pool, so a breach at 10k ranks
    is attributable without a debugger.
    """

    def __init__(
        self,
        requested: int,
        in_use: int,
        limit: int,
        rank: int | None = None,
        rank_bytes: int | None = None,
        shared_bytes: int | None = None,
    ):
        who = "shared (folded) pool" if rank is None else f"rank {rank}"
        message = (
            f"simulated allocation of {requested} B by {who} exceeds host "
            f"memory: {in_use} B in use of {limit} B limit"
        )
        breakdown = []
        if rank is not None and rank_bytes is not None:
            breakdown.append(f"rank {rank} private: {rank_bytes} B")
        if shared_bytes is not None:
            breakdown.append(f"shared pool: {shared_bytes} B")
        if breakdown:
            message += f" ({', '.join(breakdown)})"
        super().__init__(message)
        self.requested = requested
        self.in_use = in_use
        self.limit = limit
        self.rank = rank
        self.rank_bytes = rank_bytes
        self.shared_bytes = shared_bytes


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""
