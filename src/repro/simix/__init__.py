"""SIMIX — the process layer between SURF and the MPI API (paper Fig. 1).

SIMIX turns the passive action kernel into an *on-line* simulator: each
simulated process (:class:`~repro.simix.actor.Actor`) runs unmodified
user Python code on an *execution context* (:mod:`repro.simix.contexts`),
and the :class:`Scheduler` enforces that **exactly one context runs at a
time** — the paper's fully sequential design that sidesteps
parallel-discrete-event correctness issues.  User code blocks by waiting
on *activities* (communications, executions, sleeps); the scheduler then
advances the SURF clock to the next completion and resumes whoever it
unblocked.

An actor's entry function picks its context; the two are bit-identical
in simulated time:

* ``coroutine`` (generator functions) — each actor is a plain Python
  generator resumed on the scheduler's own stack; no kernel objects, no
  synchronisation round-trips.
* ``thread`` (plain functions) — the original one-OS-thread-per-rank
  design with a lock-pair baton; run on generator functions too, it is
  the equivalence oracle (``tests/oracles.py``).
"""

from .activity import Activity, CommActivity, ExecActivity, SleepActivity
from .actor import Actor
from .context import Scheduler
from .contexts import ExecutionContext, run_blocking
from .mailbox import (
    IndexedMessageQueue,
    IndexedRecvQueue,
    MatchCounters,
)

__all__ = [
    "Activity",
    "Actor",
    "CommActivity",
    "ExecActivity",
    "ExecutionContext",
    "IndexedMessageQueue",
    "IndexedRecvQueue",
    "MatchCounters",
    "Scheduler",
    "SleepActivity",
    "run_blocking",
]
