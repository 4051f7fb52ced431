"""The SMPI runtime: wiring applications onto the simulation stack.

:func:`smpirun` is the entry point — the Python analogue of SMPI's
``smpirun`` launcher.  It takes an application function, a process count
and a platform, spins up one actor (OS thread) per MPI rank, runs the
whole simulation on the calling thread, and returns an
:class:`SmpiResult` with the simulated time, wall-clock cost, per-rank
return values and resource statistics.

The application receives an :class:`Mpi` facade (its "MPI header"): rank
and size shortcuts, ``COMM_WORLD``, wall-clock (:meth:`Mpi.wtime` returns
*simulated* time), the sampling macros, and the folded/unfolded heap.

Thread-safety note (paper section 5.2): global variables of the
application are the one thing the simulator cannot privatise for the
user; as in the paper, applications must keep rank state local (the
``Mpi`` facade makes that natural in Python — everything hangs off the
per-rank handle).
"""

from __future__ import annotations

import inspect
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..errors import ConfigError, MpiError, SimulationError
from ..simix import Scheduler
from ..simix.actor import Actor
from ..simix.contexts import run_blocking
from ..surf import Engine, Host, Platform
from ..surf.network_model import NetworkModel
from ..trace import Tracer
from . import constants
from .comm import Communicator
from .config import SmpiConfig
from .group import Group
from .intern import PayloadEntry, PayloadPool
from .memory import MemoryReport, MemoryTracker
from .pt2pt import EMPTY_PAYLOAD, Message, Protocol
from .request import Request, sync_twin
from .sampling import Sampler
from .shared import SharedHeap

__all__ = ["Mpi", "SmpiResult", "SmpiWorld", "smpirun"]


class SmpiWorld:
    """Global state of one SMPI simulation."""

    def __init__(
        self,
        platform: Platform,
        n_ranks: int,
        hosts: list[str] | None = None,
        config: SmpiConfig | None = None,
        network_model: NetworkModel | None = None,
        engine: Engine | None = None,
        recorder=None,
        trace_sink=None,
    ) -> None:
        self.config = config or SmpiConfig()
        #: optional repro.offline.record.Recorder observing this run
        self.recorder = recorder
        # ``engine`` may be any Engine-compatible kernel — notably the
        # packet-level testbed (repro.packetsim.PacketEngine)
        self.engine = engine or Engine(platform, network_model=network_model)
        self.scheduler = Scheduler(self.engine)
        #: per-world message-id allocator — per-run ids keep repeated
        #: runs in one process byte-identical
        self.msg_seq = itertools.count()
        #: free lists recycling completed requests/messages (bounded; a
        #: reuse draws fresh rid/mid numbers, so id streams — and thus
        #: clocks — are identical with and without pooling)
        self._request_pool: list[Request] = []
        self._message_pool: list[Message] = []
        self.protocol = Protocol(self)
        self.sampler = Sampler(self)
        self.heap = SharedHeap(self)
        # a streaming sink (repro.trace.sink) keeps trace memory bounded:
        # closed records flush to disk instead of accumulating in lists
        self.trace = Tracer(sink=trace_sink)
        if self.config.tracing:
            # engine-level observability: per-link utilization sampling
            # piggybacks on the incremental share (PacketEngine and other
            # duck-typed kernels without the hook are simply not sampled)
            enable = getattr(self.engine, "enable_timeline", None)
            if enable is not None:
                self.trace.timeline = enable()
        self.n_ranks = n_ranks

        names = hosts if hosts is not None else platform.host_names()
        if not names:
            raise SimulationError("platform has no hosts")
        #: host name of each world rank (round-robin placement by default)
        self.rank_hosts = [names[i % len(names)] for i in range(n_ranks)]

        #: ranks terminated by a host failure (``on_host_down="kill-rank"``)
        self.dead_ranks: set[int] = set()
        # observe resource failures/recoveries for tracing and the
        # host-down policy (duck-typed kernels without the hook opt out)
        listeners = getattr(self.engine, "resource_listeners", None)
        if listeners is not None:
            listeners.append(self._on_resource_event)

        limit = self.config.memory_limit
        if limit is None:
            limit = min(platform.host(h).memory for h in set(self.rank_hosts))
        self.memory = MemoryTracker(
            n_ranks, limit=limit, enforce=self.config.enforce_memory_limit
        )
        #: pool folding byte-identical packed payloads
        #: (``config.payload_interning``); accounting lands in the
        #: memory tracker's interned-vs-naive counters
        self.payload_pool = PayloadPool(on_account=self.memory.note_intern)

        self._actors: list[Actor] = []
        self._actor_rank: dict[int, int] = {}  # actor aid -> world rank
        #: per-rank compute time accumulated by bypassed sample sites,
        #: flushed into one engine action at the next observable point
        self._deferred_flops = [0.0] * n_ranks
        #: how many ranks hold deferred compute: while none does, the
        #: protocol's flush check is this one attribute test
        self.deferring = 0
        self._next_ctx = 0
        self._filesystem = None
        self._comm_cache: dict[tuple, Communicator] = {}
        self._epochs: dict[tuple, int] = {}
        self.comm_world = self.new_communicator(
            Group(tuple(range(n_ranks))), "MPI_COMM_WORLD"
        )

    @property
    def filesystem(self):
        """The simulated shared filesystem (created on first MPI-IO use)."""
        if self._filesystem is None:
            from .io import FileSystem

            self._filesystem = FileSystem(self)
        return self._filesystem

    # -- communicator/context management ---------------------------------------------------

    def allocate_context(self) -> int:
        """Fresh even context id (ctx+1 is the collective plane)."""
        ctx = self._next_ctx
        self._next_ctx += 2
        return ctx

    def new_communicator(
        self, group: Group, name: str = "", token: tuple | None = None
    ) -> Communicator:
        """Create a communicator; with ``token``, agree across ranks.

        Collective creation calls (Dup/Create/Split) pass a token that is
        identical on every participating rank; the first caller allocates,
        later callers receive the cached instance, so every rank ends up
        with the same context id without extra messages.
        """
        if token is None:
            return Communicator(self, group, self.allocate_context(), name)
        cached = self._comm_cache.get(token)
        if cached is None:
            cached = Communicator(self, group, self.allocate_context(), name)
            self._comm_cache[token] = cached
        return cached

    def comm_token(self, kind: str, parent_ctx: int, extra: Any = None) -> tuple:
        """Per-rank epoch counter making collective comm-creation tokens.

        Every rank of a communicator calls Dup/Create/Split in the same
        order (they are collective), so the per-rank counter values agree
        and the token is rank-independent.
        """
        counter_key = (kind, parent_ctx, self.current_rank)
        epoch = self._epochs.get(counter_key, 0)
        self._epochs[counter_key] = epoch + 1
        return (kind, parent_ctx, epoch, extra)

    # -- rank/actor plumbing ---------------------------------------------------------------

    def register_actor(self, rank: int, actor: Actor) -> None:
        self._actors.append(actor)
        self._actor_rank[actor.aid] = rank

    @property
    def current_actor(self) -> Actor:
        return self.scheduler.current

    @property
    def current_rank(self) -> int:
        """World rank of the calling actor thread."""
        actor = self.scheduler.current
        try:
            return self._actor_rank[actor.aid]
        except KeyError:
            raise MpiError(
                constants.ERR_OTHER, f"actor {actor.name} is not an MPI rank"
            ) from None

    def host_of(self, rank: int) -> str:
        return self.rank_hosts[rank]

    def wake_rank(self, rank: int) -> None:
        if 0 <= rank < len(self._actors):
            self.scheduler.wake(self._actors[rank])

    # -- free-list pools (matching fast path, docs/performance.md) ----------------------

    _POOL_CAP = 4096  # bound pooled-object memory per world

    def acquire_request(self, kind: str, owner_rank: int) -> Request:
        """A fresh-or-recycled :class:`Request` bound to this world."""
        pool = self._request_pool
        if pool:
            request = pool.pop()
            request._reset(self, kind, owner_rank)
            self.engine.stats.pooled_reuses += 1
            return request
        return Request(self, kind, owner_rank)

    def release_request(self, request: Request) -> None:
        """Offer a finished request back to the free list.

        Only plain, cleanly completed requests of this world recycle —
        and only once their message (if any) is closed, since an open
        message still reaches back through ``send_req``/``recv_req``.
        Anything else (persistent handles, cancelled or errored requests,
        foreign worlds) is simply left for the garbage collector.
        """
        if (type(request) is not Request or request.world is not self
                or not request.complete or request.cancelled
                or request.error_exc is not None):
            return
        message = request.message
        if message is not None and not message.closed:
            return
        request.message = None
        request.meta = None
        request.trace_id = None
        request.raw_data = None
        request._recv_buffer = None
        request._on_complete = []
        pool = self._request_pool
        if len(pool) < self._POOL_CAP:
            pool.append(request)

    def acquire_message(
        self,
        src: int,
        dst: int,
        tag: int,
        ctx: int,
        data: np.ndarray,
        eager: bool,
        wire_bytes: int,
        send_req: Request | None,
        payload_key: PayloadEntry | None,
        borrowed: bool = False,
    ) -> Message:
        """A fresh-or-recycled :class:`Message` with a fresh ``mid``."""
        fields = (src, dst, tag, ctx, data, eager, wire_bytes,
                  next(self.msg_seq), send_req)
        pool = self._message_pool
        if pool:
            message = pool.pop()
            # the dataclass __init__ sets every field, defaults included
            Message.__init__(message, *fields, payload_key=payload_key,
                             borrowed=borrowed)
            self.engine.stats.pooled_reuses += 1
            return message
        return Message(*fields, payload_key=payload_key, borrowed=borrowed)

    def release_message(self, message: Message) -> None:
        """Recycle a closed message (protocol-internal terminal point)."""
        if message.probed or not message.closed:
            # probed envelopes may be application-held; never recycle
            return
        message.data = EMPTY_PAYLOAD
        message.send_req = None
        message.recv_req = None
        message.transfer = None
        message.watchdog = None
        pool = self._message_pool
        if len(pool) < self._POOL_CAP:
            pool.append(message)

    # -- the run ----------------------------------------------------------------------------

    def run(self) -> SmpiResult:
        """Run the registered ranks to the end and report the run.

        The one finish path of :func:`smpirun` and the trace replays.  If
        the run raises, the trace sink and the TI recorder close and
        remove every file they created (a partial trace would read as a
        whole one) and the error propagates unchanged.
        """
        wall_start = time.perf_counter()
        try:
            simulated = self.scheduler.run()
        except BaseException:
            if self.trace.sink is not None:
                self.trace.sink.abort()
            if self.recorder is not None:
                self.recorder.abort()
            raise
        wall = time.perf_counter() - wall_start
        if self.trace.timeline is not None:
            self.trace.timeline.close(simulated)
            self.engine.stats.link_samples = self.trace.timeline.n_samples
        self.trace.finish(simulated)

        memory = self.memory.report()
        if self.payload_pool.acquires or memory.intern_naive_peak:
            # surface the interned-vs-naive gap next to the engine counters
            self.engine.stats.extra["interning"] = {
                "payload": self.payload_pool.stats(),
                "naive_peak_bytes": memory.intern_naive_peak,
                "stored_peak_bytes": memory.intern_stored_peak,
                "saved_bytes": memory.intern_saved,
            }
        return SmpiResult(
            simulated_time=simulated,
            wall_time=wall,
            returns=[actor.result
                     for actor in self.scheduler.actors[:self.n_ranks]],
            memory=memory,
            stats=self.engine.stats,
            trace=self.trace,
            sampler_stats=self.sampler.site_stats(),
        )

    # -- fault handling (docs/faults.md) ------------------------------------------------

    def _on_resource_event(self, event: str, resource, now: float) -> None:
        """Engine listener: trace resource events, apply the host-down policy."""
        if event == "capacity":
            return  # capacity steps already land in the engine timeline
        kind = "host" if isinstance(resource, Host) else "link"
        if self.config.tracing:
            self.trace.resource_event(resource.name, kind, event, now)
        if (event == "fail" and kind == "host"
                and self.config.on_host_down == "kill-rank"):
            for rank, host in enumerate(self.rank_hosts):
                if host == resource.name and rank not in self.dead_ranks:
                    self._kill_rank(rank)

    def _kill_rank(self, rank: int) -> None:
        """Terminate a rank whose host died; fail peers waiting on it."""
        self.dead_ranks.add(rank)
        if rank < len(self._actors):
            actor = self._actors[rank]
            if not actor.finished:
                actor.kill()
                self.scheduler.wake(actor)
        self.protocol.fail_peer(rank)

    # -- services used by Mpi facade and the protocol -----------------------------------------

    def defer_flops(self, flops: float) -> None:
        """Accumulate compute for the calling rank without an engine action.

        Bypassed sample replays use this so that tight sampled loops cost
        O(1) scheduler round-trips instead of one per iteration; the
        accumulated time becomes visible at the next flush point (any
        message, wtime, sleep, or rank completion).
        """
        if flops > 0:
            rank = self.current_rank
            if not self._deferred_flops[rank]:
                self.deferring += 1
            self._deferred_flops[rank] += flops

    def has_deferred(self) -> bool:
        """Does the calling rank hold deferred compute?  (No generator.)"""
        return self._deferred_flops[self.current_rank] > 0

    def co_flush_deferred(self):
        """Generator twin of :meth:`flush_deferred` (canonical)."""
        rank = self.current_rank
        amount = self._deferred_flops[rank]
        if amount > 0:
            self._deferred_flops[rank] = 0.0
            self.deferring -= 1
            yield from self.co_execute_flops(amount)

    def co_execute_flops(self, flops: float):
        """Generator twin of :meth:`execute_flops` (canonical)."""
        if flops <= 0:
            return
        if self.recorder is not None:
            self.recorder.compute(self.current_rank, flops)
        actor = self.current_actor
        start = self.engine.now
        activity = self.scheduler.execute(actor, flops, f"exec-r{self.current_rank}")
        yield from activity.co_wait(actor)
        if activity.failed:
            raise MpiError(
                constants.ERR_OTHER,
                f"host failure killed compute burst on rank "
                f"{self.current_rank}",
            )
        if self.config.tracing:
            self.trace.compute(self.current_rank, flops, start, self.engine.now)

    def co_sleep(self, seconds: float):
        """Park the calling rank for ``seconds`` of simulated time."""
        if seconds <= 0:
            return
        actor = self.current_actor
        yield from self.scheduler.sleep_activity(seconds).co_wait(actor)

    def co_tiny_progress(self):
        """Advance simulated time by the Test-poll delay (see request.py)."""
        yield from self.co_sleep(self.config.test_delay)


# the blocking compute calls are generated from their ``co_`` bodies
SmpiWorld.flush_deferred = sync_twin(
    SmpiWorld.co_flush_deferred, "flush_deferred",
    "Charge the calling rank's accumulated deferred compute.",
    lambda world: world.current_actor)
SmpiWorld.execute_flops = sync_twin(
    SmpiWorld.co_execute_flops, "execute_flops",
    "Run a compute action for the calling rank and wait it out.",
    lambda world, _flops: world.current_actor)


@dataclass
class SmpiResult:
    """Everything a simulation run reports back."""

    simulated_time: float
    wall_time: float
    returns: list[Any]
    memory: MemoryReport
    stats: Any
    trace: Tracer
    sampler_stats: dict = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SmpiResult(simulated={self.simulated_time:.6f}s, "
            f"wall={self.wall_time:.3f}s, ranks={len(self.returns)})"
        )


class MpiCo:
    """Generator-dialect twins of the blocking :class:`Mpi` calls.

    Reached as ``mpi.co``; each method returns a continuation to drive
    with ``yield from``, so generator-function applications block on the
    coroutine context they run on, which cannot suspend plain synchronous
    frames.
    """

    def __init__(self, world: SmpiWorld):
        self._world = world

    def execute(self, flops: float):
        """``yield from mpi.co.execute(flops)`` — twin of :meth:`Mpi.execute`."""
        yield from self._world.co_execute_flops(flops)

    def sleep(self, seconds: float):
        """``yield from mpi.co.sleep(s)`` — twin of :meth:`Mpi.sleep`."""
        yield from self._world.co_flush_deferred()
        yield from self._world.co_sleep(seconds)

    def wtime(self):
        """``t = yield from mpi.co.wtime()`` — twin of :meth:`Mpi.wtime`."""
        yield from self._world.co_flush_deferred()
        return self._world.engine.now


class Mpi:
    """The per-rank handle an application receives (its 'mpi.h')."""

    def __init__(self, world: SmpiWorld, rank: int):
        self._world = world
        self._rank = rank
        #: generator-dialect twins of the blocking calls (``mpi.co``)
        self.co = MpiCo(world)

    # -- identity ------------------------------------------------------------------------

    @property
    def COMM_WORLD(self) -> Communicator:
        return self._world.comm_world

    @property
    def comm_world(self) -> Communicator:
        return self._world.comm_world

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._world.n_ranks

    @property
    def config(self) -> SmpiConfig:
        return self._world.config

    def _run(self, gen):
        """Drive one of :attr:`co`'s continuations to completion in-stack."""
        return run_blocking(gen, lambda: self._world.current_actor)

    def wtime(self) -> float:
        """MPI_Wtime: the *simulated* clock."""
        return self._run(self.co.wtime())

    # -- compute modelling ------------------------------------------------------------------

    def execute(self, flops: float) -> None:
        """Charge an explicit compute burst of ``flops`` (SMPI_SAMPLE_DELAY
        semantics with a flop argument)."""
        self._run(self.co.execute(flops))

    def sleep(self, seconds: float) -> None:
        """Advance this rank's simulated time without using the CPU."""
        self._run(self.co.sleep(seconds))

    def sample_local(self, key: str, n: int = 1) -> Iterator[None]:
        return self._world.sampler.sample_local(key, n)

    def sample_global(self, key: str, n: int = 1) -> Iterator[None]:
        return self._world.sampler.sample_global(key, n)

    def sample_delay(self, flops: float) -> None:
        self._world.sampler.sample_delay(flops)

    def sample_auto(self, key: str, precision: float = 0.05,
                    max_samples: int = 100) -> Iterator[None]:
        return self._world.sampler.sample_auto(key, precision, max_samples)

    # -- memory modelling ---------------------------------------------------------------------

    def malloc(self, shape, dtype=np.float64) -> np.ndarray:
        """Tracked per-rank allocation."""
        return self._world.heap.malloc(shape, dtype)

    def free(self, array: np.ndarray) -> None:
        self._world.heap.free(array)

    def shared_malloc(self, key: str, shape, dtype=np.float64) -> np.ndarray:
        """SMPI_SHARED_MALLOC: folded allocation shared across ranks."""
        return self._world.heap.shared_malloc(key, shape, dtype)

    def shared_free(self, key: str) -> None:
        self._world.heap.shared_free(key)

    # -- MPI-IO ----------------------------------------------------------------------------

    def File(self):
        """The MPI-IO File class bound to this world (mpi.File().Open(...))."""
        from . import io

        return io.File


def check_ctx(ctx: str | None) -> None:
    """Refuse a ``ctx=`` other than ``None`` or ``"coroutine"``.

    An actor's context follows its entry function, so the keyword picks
    nothing: ``"coroutine"`` names what every generator rank already
    runs on and is accepted for old callers.
    """
    if ctx not in (None, "coroutine"):
        raise ConfigError(
            f"ctx={ctx!r}: a rank's execution context follows its entry "
            "function (a generator function runs on a coroutine, anything "
            "else on a thread); the thread oracle for generator ranks is "
            "tests/oracles.thread_contexts")


def smpirun(
    app: Callable[..., Any],
    n_ranks: int,
    platform: Platform,
    app_args: tuple = (),
    hosts: list[str] | None = None,
    config: SmpiConfig | None = None,
    network_model: NetworkModel | None = None,
    engine: Engine | None = None,
    recorder=None,
    ctx: str | None = None,
    trace_sink=None,
) -> SmpiResult:
    """Simulate ``app`` on ``n_ranks`` MPI processes over ``platform``.

    ``app`` is called as ``app(mpi, *app_args)`` on every rank's execution
    context, where ``mpi`` is that rank's :class:`Mpi` handle.  A plain
    function runs on a thread context (one OS thread per rank); a
    *generator function* runs on a coroutine context — zero kernel
    objects per rank — by reaching every blocking call through its
    ``co_*`` twin (``yield from comm.co.Send(...)``).  ``ctx`` takes only
    ``None`` or ``"coroutine"``, which mean the same (:func:`check_ctx`).

    Blocks until every rank returned; raises
    :class:`~repro.errors.ActorFailure` if any rank raised and
    :class:`~repro.errors.DeadlockError` on communication deadlock.
    Passing ``engine`` substitutes the simulation kernel — the
    packet-level testbed uses this to run identical applications.
    """
    if n_ranks < 1:
        raise SimulationError("need at least one MPI rank")
    check_ctx(ctx)
    world = SmpiWorld(platform, n_ranks, hosts, config, network_model, engine,
                      recorder=recorder, trace_sink=trace_sink)

    if inspect.isgeneratorfunction(app):
        def make_main(rank: int) -> Callable[[], Any]:
            def main() -> Any:
                result = yield from app(Mpi(world, rank), *app_args)
                # deferred bursts count toward the end
                yield from world.co_flush_deferred()
                return result

            return main
    else:
        def make_main(rank: int) -> Callable[[], Any]:
            def main() -> Any:
                result = app(Mpi(world, rank), *app_args)
                world.flush_deferred()  # deferred bursts count toward the end
                return result

            return main

    for rank in range(n_ranks):
        actor = world.scheduler.add_actor(
            f"rank-{rank}", world.host_of(rank), make_main(rank)
        )
        world.register_actor(rank, actor)

    return world.run()
