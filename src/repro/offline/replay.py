"""Replaying time-independent traces (the off-line simulator).

Each rank's replay actor walks its recorded events: compute bursts
become engine compute actions, message events re-post through the *same*
point-to-point protocol the on-line simulator uses (payloads folded —
a trace has no data), and wait events block on the recorded operations.
The replayer reads the rank's :class:`~repro.offline.trace.RankEvents`
columns directly — a kind code, then the arguments at a cursor into the
integer or the compute-amount column — and builds no event object.
The network model, platform and MPI protocol parameters are free to
differ from the recording run — that is the point of off-line simulation.

Invariants worth knowing:

* replaying on the recording platform with the recording configuration
  reproduces the on-line simulated time exactly (asserted in tests);
* the trace is tied to the recorded rank count and message sizes — the
  limitation the paper's §2 develops; :func:`replay_trace` refuses a
  mismatched rank count rather than silently mis-simulating.

Replay runs are also the *checkpointable* runs of the scale path
(``docs/scaling.md``): each rank's replayer exposes its position — next
event index, in-flight requests, what it is blocked on — so
:mod:`repro.offline.snapshot` can capture a mid-run cut and a later
process can resume it bit-identically (``checkpoint_at=``/
:func:`~repro.offline.snapshot.resume_replay`).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, MpiError
from ..smpi import constants
from ..smpi import request as rq
from ..smpi.config import SmpiConfig
from ..smpi.request import Request
from ..smpi.runtime import SmpiResult, SmpiWorld, check_ctx
from ..surf.platform import Platform
from .trace import RECV, SEND, WAIT, TiTrace

__all__ = ["replay_trace"]

_EMPTY = np.zeros(0, dtype=np.uint8)


class _RankReplayer:
    """One rank's replay position, visible to the checkpoint layer.

    The :meth:`run` generator is what the actor runs; the attributes are
    what a snapshot serializes:

    * ``next_index`` — the next trace event to process (a resumed run
      finds its column cursors with
      :meth:`~repro.offline.trace.RankEvents.cursor`);
    * ``live`` — in-flight requests by trace op id (issued, not waited);
    * ``blocked`` — what the rank is parked on right now:
      ``("compute", ExecActivity)``, ``("wait", [Request, ...])`` for a
      recorded wait, ``("drain", [Request, ...])`` for the final implicit
      waitall, or ``None`` while the rank holds the baton.

    ``resume_block`` re-enters a restored block before the event loop
    continues — the restored activity/requests wrap engine actions whose
    numeric state the engine snapshot carried over.
    """

    def __init__(self, world: SmpiWorld, rank: int, events,
                 next_index: int = 0, live: dict | None = None,
                 resume_block=None) -> None:
        self.world = world
        self.rank = rank
        self.events = events
        self.next_index = next_index
        self.live: dict[int, Request] = live if live is not None else {}
        self.blocked = None
        self._resume_block = resume_block

    # -- blocking helpers (each mirrors the on-line runtime exactly) --------

    def _co_compute(self, activity, flops: float):
        world = self.world
        actor = world.current_actor
        start = world.engine.now
        yield from activity.co_wait(actor)
        self.blocked = None
        if activity.failed:
            raise MpiError(
                constants.ERR_OTHER,
                f"host failure killed compute burst on rank {self.rank}",
            )
        if world.config.tracing:
            world.trace.compute(self.rank, flops, start, world.engine.now)

    def _co_wait(self, pending: list[Request]):
        # a replay reads no status: settle, raising what a waitall raises
        yield from rq.co_settle(pending)
        self.blocked = None

    # -- the actor body ------------------------------------------------------

    def run(self):
        # generator dialect, passed to add_actor as the *bound method* so
        # backend selection sees a generator function and runs the
        # replayer as a coroutine continuation, not a parked OS thread
        world = self.world
        protocol = world.protocol
        rank = self.rank
        if self._resume_block is not None:
            kind, payload = self._resume_block
            self._resume_block = None
            self.blocked = (kind, payload)
            if kind == "compute":
                activity, flops = payload
                yield from self._co_compute(activity, flops)
            else:  # "wait" / "drain"
                yield from self._co_wait(payload)
        kinds, ints, flops = (self.events.kinds, self.events.ints,
                              self.events.flops)
        live = self.live
        at, fat = self.events.cursor(self.next_index)
        while self.next_index < len(kinds):
            code = kinds[self.next_index]
            self.next_index += 1
            if code == WAIT:
                end = at + 1 + ints[at]
                pending = [live.pop(i) for i in ints[at + 1:end]
                           if i in live]
                at = end
                if pending:
                    self.blocked = ("wait", pending)
                    yield from self._co_wait(pending)
            elif code == SEND:
                request = Request(world, "send", rank)
                protocol.start_send(
                    src=rank, dst=ints[at + 1], tag=ints[at + 3],
                    ctx=ints[at + 4], data=_EMPTY, request=request,
                    wire_bytes=ints[at + 2],
                )
                live[ints[at]] = request
                at += 5
            elif code == RECV:
                request = Request(world, "recv", rank)
                protocol.start_recv(
                    dst=rank, source=ints[at + 1], tag=ints[at + 2],
                    ctx=ints[at + 3], buffer=None, request=request,
                )
                live[ints[at]] = request
                at += 4
            else:  # compute
                amount = flops[fat]
                fat += 1
                if amount <= 0:
                    continue
                actor = world.current_actor
                activity = world.scheduler.execute(
                    actor, amount, f"exec-r{rank}")
                self.blocked = ("compute", (activity, amount))
                yield from self._co_compute(activity, amount)
        # reap anything the application never waited on explicitly
        leftovers = list(self.live.values())
        self.live.clear()
        if leftovers:
            self.blocked = ("drain", leftovers)
            yield from self._co_wait(leftovers)


def replay_trace(
    trace: TiTrace,
    platform: Platform,
    n_ranks: int | None = None,
    hosts: list[str] | None = None,
    config: SmpiConfig | None = None,
    network_model=None,
    engine=None,
    ctx: str | None = None,
    trace_sink=None,
    checkpoint_at: float | None = None,
) -> SmpiResult:
    """Simulate the recorded execution on ``platform``.

    ``n_ranks`` may be passed for API symmetry but must equal the trace's
    rank count — a TI trace cannot be re-shaped (paper §2).  Replayers
    are generators, so they run on coroutine contexts; ``ctx`` takes
    only ``None`` or ``"coroutine"`` (:func:`repro.smpi.runtime.check_ctx`).

    ``checkpoint_at`` arms mid-run checkpointing: at the first quiescent
    scheduler cut with simulated clock >= the given date, the full
    simulation state is captured (the run then continues normally) and
    returned as ``result.checkpoint`` — feed it to
    :func:`repro.offline.snapshot.resume_replay` (or save it with
    :func:`~repro.offline.snapshot.save_checkpoint`) to warm-start a
    later run from that cut.  Checkpointing requires tracing disabled
    and no ``comm_timeout`` watchdogs (see ``docs/scaling.md``).
    """
    checkpoint_box: dict = {}
    try:
        check_ctx(ctx)
        if n_ranks is not None and n_ranks != trace.n_ranks:
            raise ConfigError(
                f"trace was recorded with {trace.n_ranks} ranks and cannot "
                f"be replayed on {n_ranks}: time-independent traces are "
                "tied to the recorded application configuration"
            )

        world = SmpiWorld(platform, trace.n_ranks, hosts, config,
                          network_model, engine, trace_sink=trace_sink)

        replayers = []
        for rank in range(trace.n_ranks):
            replayer = _RankReplayer(world, rank, trace.events[rank])
            replayers.append(replayer)
            actor = world.scheduler.add_actor(
                f"replay-{rank}", world.host_of(rank), replayer.run
            )
            world.register_actor(rank, actor)

        if checkpoint_at is not None:
            from .snapshot import arm_checkpoint

            arm_checkpoint(world, replayers, trace, checkpoint_at,
                           checkpoint_box)
    except BaseException:
        # a refused replay leaves no trace file, as a failed run does not
        if trace_sink is not None:
            trace_sink.abort()
        raise

    result = world.run()
    result.checkpoint = checkpoint_box.get("checkpoint")
    return result
