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

Three context backends exist, all bit-identical in simulated time:

* ``coroutine`` (default for generator-dialect code) — each actor is a
  plain Python generator resumed on the scheduler's own stack; no kernel
  objects, no synchronisation round-trips.
* ``greenlet`` — cooperative green threads, used automatically for plain
  (non-generator) functions when the optional ``greenlet`` package is
  importable.
* ``thread`` — the original one-OS-thread-per-rank design with an
  Event-pair baton; kept as the equivalence oracle and as the fallback
  for plain functions without greenlet.
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
    GreenletBackend,
    ThreadBackend,
    available_backends,
    greenlet_available,
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
    "GreenletBackend",
    "IndexedMessageQueue",
    "IndexedRecvQueue",
    "MatchCounters",
    "Scheduler",
    "SleepActivity",
    "ThreadBackend",
    "available_backends",
    "greenlet_available",
    "run_blocking",
    "select_backend",
]
