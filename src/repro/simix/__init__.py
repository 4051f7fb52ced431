"""SIMIX — the process layer between SURF and the MPI API (paper Fig. 1).

SIMIX turns the passive action kernel into an *on-line* simulator: each
simulated process (:class:`~repro.simix.actor.Actor`) runs unmodified
user Python code on an *execution context* supplied by a pluggable
backend (:mod:`repro.simix.contexts`), and the :class:`Scheduler`
enforces that **exactly one context runs at a time** — the paper's fully
sequential design that sidesteps parallel-discrete-event correctness
issues.  User code blocks by waiting on *activities* (communications,
executions, sleeps); the scheduler then advances the SURF clock to the
next completion and resumes whoever it unblocked.

Two context backends exist, bit-identical in simulated time:

* ``coroutine`` (default for generator-dialect code) — each actor is a
  plain Python generator resumed on the scheduler's own stack; no kernel
  objects, no synchronisation round-trips.
* ``thread`` — the original one-OS-thread-per-rank design with an
  Event-pair baton; the equivalence oracle, and the backend that runs
  plain (non-generator) functions.
"""

from .activity import Activity, CommActivity, ExecActivity, SleepActivity
from .actor import Actor
from .context import Scheduler
from .contexts import (
    CTX_ENV_VAR,
    AutoBackend,
    ContextBackend,
    CoroutineBackend,
    ExecutionContext,
    ThreadBackend,
    available_backends,
    run_blocking,
    select_backend,
)
from .mailbox import (
    IndexedMessageQueue,
    IndexedRecvQueue,
    MatchCounters,
)

__all__ = [
    "Activity",
    "Actor",
    "AutoBackend",
    "CTX_ENV_VAR",
    "CommActivity",
    "ContextBackend",
    "CoroutineBackend",
    "ExecActivity",
    "ExecutionContext",
    "IndexedMessageQueue",
    "IndexedRecvQueue",
    "MatchCounters",
    "Scheduler",
    "SleepActivity",
    "ThreadBackend",
    "available_backends",
    "run_blocking",
    "select_backend",
]
