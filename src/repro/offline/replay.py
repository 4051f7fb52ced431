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
    """One rank's replay: :meth:`run` walks the rank's columns once,
    from the first event to the last."""

    def __init__(self, world: SmpiWorld, rank: int, events) -> None:
        self.world = world
        self.rank = rank
        self.events = events

    # -- blocking helper (mirrors the on-line runtime exactly) --------------

    def _co_compute(self, activity, flops: float):
        world = self.world
        actor = world.current_actor
        start = world.engine.now
        yield from activity.co_wait(actor)
        if activity.failed:
            raise MpiError(
                constants.ERR_OTHER,
                f"host failure killed compute burst on rank {self.rank}",
            )
        if world.config.tracing:
            world.trace.compute(self.rank, flops, start, world.engine.now)

    # -- the actor body ------------------------------------------------------

    def run(self):
        # generator dialect, passed to add_actor as the *bound method* so
        # backend selection sees a generator function and runs the
        # replayer as a coroutine continuation, not a parked OS thread
        world = self.world
        protocol = world.protocol
        rank = self.rank
        kinds, ints, flops = (self.events.kinds, self.events.ints,
                              self.events.flops)
        live: dict[int, Request] = {}  # in-flight requests by trace op id
        at = fat = 0
        for code in kinds:
            if code == WAIT:
                end = at + 1 + ints[at]
                pending = [live.pop(i) for i in ints[at + 1:end]
                           if i in live]
                at = end
                if pending:
                    # a replay reads no status: settle, raising what a
                    # waitall raises
                    yield from rq.co_settle(pending)
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
                activity = world.scheduler.execute(
                    world.current_actor, amount, f"exec-r{rank}")
                yield from self._co_compute(activity, amount)
        # reap anything the application never waited on explicitly
        leftovers = list(live.values())
        live.clear()
        if leftovers:
            yield from rq.co_settle(leftovers)


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
) -> SmpiResult:
    """Simulate the recorded execution on ``platform``.

    ``n_ranks`` may be passed for API symmetry but must equal the trace's
    rank count — a TI trace cannot be re-shaped (paper §2).  Replayers
    are generators, so they run on coroutine contexts; ``ctx`` takes
    only ``None`` or ``"coroutine"`` (:func:`repro.smpi.runtime.check_ctx`).
    """
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

        for rank in range(trace.n_ranks):
            replayer = _RankReplayer(world, rank, trace.events[rank])
            actor = world.scheduler.add_actor(
                f"replay-{rank}", world.host_of(rank), replayer.run
            )
            world.register_actor(rank, actor)
    except BaseException:
        # a refused replay leaves no trace file, as a failed run does not
        if trace_sink is not None:
            trace_sink.abort()
        raise

    return world.run()
