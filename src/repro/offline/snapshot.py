"""Checkpoint/restore of replay runs (the scale path's warm starts).

A *checkpoint* is a plain-JSON-compatible dict capturing everything a
replay run needs to continue from a mid-run cut:

* the engine snapshot (:func:`snapshot_engine`): clock, stats, every
  in-flight action's numeric state, the completion heap, the incremental
  solver's membership/rates/dirtiness, the availability map, the dead
  set and the profile cursors;
* the protocol state: live requests, in-flight messages, the posted and
  unexpected match queues (replay payloads are empty sentinels, so no
  data travels into the checkpoint);
* each rank's replay position: next trace event, in-flight operations,
  and what the rank is blocked on (a compute burst, a recorded wait, or
  the final drain);
* the id allocators (action/request/message sequencers), so the resumed
  run numbers everything exactly as the uninterrupted one — heap
  tie-breaks and observer delivery order depend on it.

Capture happens at a *quiescent scheduler cut*: every rank blocked, no
completions awaiting delivery (``Scheduler.on_quiescent``).  Restoring
re-revives the actions, wraps them in fresh activities (re-binding the
observers the snapshot could not serialize), re-enters each rank's block
point, and continues — the resumed run's simulated clock is
**bit-identical** to the uninterrupted run's, which the fuzz tests in
``tests/test_snapshot.py`` pin at random cut points.

Checkpointing requires tracing disabled (utilization series are
streamed, not checkpointed), no ``comm_timeout`` watchdogs and no
scripted fault events (their callbacks are closures); ``arm_checkpoint``
rejects such configurations up front.

This module owns the whole checkpoint layout, the engine's part
included, and one number guards all of it: :data:`CHECKPOINT_VERSION`.
:func:`snapshot_engine` / :func:`restore_engine` capture and rebuild a
bare :class:`~repro.surf.engine.Engine` on their own (the engine tests
and model-level studies use them directly), but their payload carries no
version: a stale layout is refused at the checkpoint, before any part of
it is read.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ..errors import ConfigError, SimulationError
from ..smpi import request as rq
from ..smpi.config import SmpiConfig
from ..smpi.intern import intern_meta
from ..smpi.pt2pt import Message, _PostedRecv
from ..smpi.request import Request
from ..smpi.runtime import SmpiResult, SmpiWorld
from ..simix.activity import CommActivity, ExecActivity
from ..surf.action import (Action, ActionState, ComputeAction, NetworkAction,
                           SleepAction)
from ..surf.action import _ids as _action_ids
from ..surf.engine import Engine
from ..surf.platform import Platform
from ..surf.resources import Host
from ..surf.stats import EngineStats
from .trace import TiTrace

__all__ = [
    "CHECKPOINT_VERSION",
    "arm_checkpoint",
    "capture_replay",
    "resume_replay",
    "save_checkpoint",
    "load_checkpoint",
    "restore_engine",
    "snapshot_engine",
    "warm_replay",
]

#: wire-format version of replay checkpoints, engine part included; bump
#: on any layout change so stale checkpoints are refused, not misread.
#: v2: the engine part lost its own ``"version"`` field
CHECKPOINT_VERSION = 2

_EMPTY = np.zeros(0, dtype=np.uint8)


# -- the engine ---------------------------------------------------------------


class _Harvested:
    """The action of a restored heap entry whose action was harvested
    before the snapshot: its epoch, -1, matches no entry, so the entry
    pops as stale."""

    __slots__ = ()
    epoch = -1


_HARVESTED = _Harvested()


def snapshot_engine(engine: Engine) -> dict:
    """Serialize an engine's full dynamic state as a plain dict.

    The payload is JSON-compatible (Python's ``json`` round-trips the
    ``inf``/``nan`` values the numeric fields legitimately hold) and
    :func:`restore_engine` rebuilds an engine from it that continues the
    run **bit-identically** to the uninterrupted one: action ids, heap
    tie-breaks, solver re-solve order and float trajectories are all
    preserved.  Observers are *not* captured — they are closures into
    the layer driving the engine, and that layer (here, the replay
    checkpoint) re-attaches its own observers to the actions
    :func:`restore_engine` returns.

    A snapshot is only taken of the canonical engine (the test oracles
    subclass it with other event loops) at a *quiescent* cut: every
    completion already delivered.  The capture refuses (raising
    :class:`SimulationError`) when undelivered completions are queued,
    when an :meth:`~repro.surf.engine.Engine.at` callback is pending (its
    closure cannot be serialized), when a timeline is attached
    (utilization series are streamed, not checkpointed).
    """
    if type(engine) is not Engine:
        raise SimulationError(
            "snapshot supports the default lazy/incremental engine only"
        )
    if engine._instant_done or engine._finished:
        raise SimulationError(
            "engine is not quiescent: completions await delivery "
            "(step once more, then capture)"
        )
    if engine.timeline is not None:
        raise SimulationError(
            "snapshot does not capture the utilization timeline; "
            "checkpoint runs with tracing disabled"
        )
    for action in engine.pending.values():
        if action.name.startswith("at-"):
            raise SimulationError(
                f"pending scheduled callback {action.name!r} cannot be "
                "snapshotted (its closure is not serializable)"
            )

    solver = engine._solver
    members = []
    for aid in solver.flow_keys_in_seq_order():
        try:
            rate = solver.rate(aid)
        except KeyError:  # enrolled but never solved (NaN sentinel)
            rate = None
        members.append([aid, rate])
    retired_aids = {a.aid for a in engine._retired}
    actions = [_serialize_action(a) for a in engine.pending.values()]
    actions += [_serialize_action(a) for a in engine._retired
                if a.aid not in engine.pending]
    return {
        "now": engine.now,
        "stats": engine.stats.to_dict(),
        "availability": dict(engine._availability),
        "dead_resources": sorted(engine._dead_resources),
        "next_aid": _action_ids.peek,
        "actions": actions,
        "pending": list(engine.pending),
        "heap": [[deadline, aid, epoch]
                 for deadline, aid, epoch, _action in engine._heap],
        "newly_running": [a.aid for a in engine._newly_running],
        "retired": sorted(retired_aids),
        "needs_share": engine._needs_share,
        "members": members,
        "dirty_cons": sorted(_resource_ref(key)
                             for key in solver.dirty_constraint_keys()),
        "dirty_flows": sorted(solver._dirty_flows),
        "profiles": [
            {"resource": _resource_ref(record[0]),
             "kind": record[1], "pulls": record[3]}
            for record in engine._profile_cursors
        ],
        "profile_heap": [list(entry) for entry in engine._profile_heap],
    }


def _resource_ref(resource) -> list:
    return ["host" if isinstance(resource, Host) else "link", resource.name]


def _resource_by_ref(platform: Platform, ref):
    rtype, name = ref
    return platform.host(name) if rtype == "host" else platform.link(name)


def _serialize_action(action: Action) -> dict:
    data = {
        "aid": action.aid,
        "name": action.name,
        "state": action.state.name,
        "remaining": action.remaining,
        "latency_remaining": action.latency_remaining,
        "rate": action.rate,
        "rate_bound": action.rate_bound,
        "weight": action.weight,
        "start_time": action.start_time,
        "finish_time": action.finish_time,
        "last_touched": action.last_touched,
        "deadline": action.deadline,
        "epoch": action.epoch,
    }
    if isinstance(action, NetworkAction):
        data["kind"] = "network"
        data["src"] = action.src
        data["dst"] = action.dst
        data["size"] = action.size
        data["routed"] = bool(action.links)
    elif isinstance(action, ComputeAction):
        data["kind"] = "compute"
        data["host"] = action.host.name
    elif isinstance(action, SleepAction):
        data["kind"] = "sleep"
    else:
        raise SimulationError(
            f"cannot snapshot action of type {type(action).__name__}"
        )
    return data


def _revive_action(platform: Platform, data: dict) -> Action:
    """Rebuild one serialized action, observer-less, slots verbatim."""
    kind = data["kind"]
    if kind == "network":
        action = NetworkAction.__new__(NetworkAction)
        if data["routed"]:
            # re-derive the link tuple from the (frozen, hence identical)
            # platform topology; the numeric state is never re-derived
            # from the network model
            action.links = platform.route(data["src"], data["dst"]).links
        else:
            action.links = ()
        action.src = data["src"]
        action.dst = data["dst"]
        action.size = float(data["size"])
        action.payload = None
    elif kind == "compute":
        action = ComputeAction.__new__(ComputeAction)
        action.host = platform.host(data["host"])
    elif kind == "sleep":
        action = SleepAction.__new__(SleepAction)
    else:
        raise SimulationError(f"unknown serialized action kind {kind!r}")
    action.aid = data["aid"]
    action.name = data["name"]
    action.state = ActionState[data["state"]]
    action.remaining = data["remaining"]
    action.latency_remaining = data["latency_remaining"]
    action.rate = data["rate"]
    action.rate_bound = data["rate_bound"]
    action.weight = data["weight"]
    action.start_time = data["start_time"]
    action.finish_time = data["finish_time"]
    action.last_touched = data["last_touched"]
    action.deadline = data["deadline"]
    action.epoch = data["epoch"]
    action.observer = None
    return action


def restore_engine(
    platform: Platform,
    snap: dict,
    network_model=None,
    cpu_model=None,
) -> tuple[Engine, dict]:
    """Rebuild an engine from a :func:`snapshot_engine` payload.

    Returns ``(engine, actions)`` where ``actions`` maps each serialized
    aid to its revived :class:`~repro.surf.action.Action` so the driving
    layer can re-attach observers.  ``platform`` must be the platform
    the snapshot was taken on (same topology and nominal capacities),
    and ``network_model``/``cpu_model`` must equal the original run's
    for the continuation to stay bit-identical — the snapshot stores
    every in-flight action's *numeric* state verbatim, but actions
    created after the restore consult the models again.
    """
    engine = Engine(platform, network_model=network_model,
                    cpu_model=cpu_model)
    engine.now = snap["now"]
    engine.stats = EngineStats.from_dict(snap["stats"])
    engine._availability = dict(snap["availability"])
    engine._dead_resources = set(snap["dead_resources"])
    engine._needs_share = snap["needs_share"]

    actions: dict[int, Action] = {}
    for data in snap["actions"]:
        action = _revive_action(platform, data)
        actions[action.aid] = action
    engine.pending = {aid: actions[aid] for aid in snap["pending"]}
    # an entry of an action the snapshot does not hold (harvested before
    # the cut) is stale: bind it to an action it never matches
    engine._heap = [(deadline, aid, epoch, actions.get(aid, _HARVESTED))
                    for deadline, aid, epoch in snap["heap"]]
    engine._newly_running = [actions[aid] for aid in snap["newly_running"]]
    engine._retired = [actions[aid] for aid in snap["retired"]]

    # Solver: re-enroll every member flow in original seq order (so
    # component re-solves sort members identically), seed the solved
    # rates, then reset dirtiness to exactly the serialized cut.
    # Component solves run progressive filling from scratch, so this
    # state is indistinguishable from having solved its way here.
    solver = engine._solver
    for aid, rate in snap["members"]:
        engine._enroll(actions[aid])
        if rate is not None:
            solver.seed_rate(aid, rate)
    solver.clear_dirty()
    for ref in snap["dirty_cons"]:
        solver.mark_dirty(_resource_by_ref(platform, ref))
    for aid in snap["dirty_flows"]:
        solver.mark_flow_dirty(aid)

    # Profiles: the construction-time install is replaced.  Re-open each
    # (platform-attached) profile and discard the consumed prefix; the
    # upcoming-point heap is restored verbatim so firing order and
    # tie-breaks are preserved.
    cursors = []
    for spec in snap["profiles"]:
        resource = _resource_by_ref(platform, spec["resource"])
        profile = getattr(resource, f"{spec['kind']}_profile", None)
        if profile is None:
            raise SimulationError(
                f"snapshot references a {spec['kind']} profile on "
                f"{resource.name!r} that the platform does not carry"
            )
        events = profile.iter_events()
        for _ in range(spec["pulls"]):
            next(events, None)
        cursors.append([resource, spec["kind"], events, spec["pulls"],
                        profile])
    engine._profile_cursors = cursors
    engine._profile_heap = heap = [tuple(entry)
                                   for entry in snap["profile_heap"]]
    engine._next_point = heap[0][0] if heap else math.inf

    # continue numbering where the original left off: heap ties break
    # on aid and harvests deliver aid-sorted, so ids must line up
    _action_ids.advance_to(snap["next_aid"])
    return engine, actions


# -- capture ------------------------------------------------------------------


def _check_checkpointable(world: SmpiWorld) -> None:
    """Reject configurations whose state a checkpoint cannot carry."""
    if world.config.tracing:
        raise ConfigError(
            "checkpointing requires tracing disabled: utilization "
            "timelines and trace records are streamed, not checkpointed"
        )
    if world.config.comm_timeout is not None:
        raise ConfigError(
            "checkpointing is incompatible with comm_timeout watchdogs "
            "(their callbacks are closures and cannot be serialized)"
        )
    if world.recorder is not None:
        raise ConfigError("cannot checkpoint a recording run")


def arm_checkpoint(world: SmpiWorld, replayers: list, trace: TiTrace,
                   at_time: float, box: dict) -> None:
    """Install a quiescent-cut hook capturing the run at ``at_time``.

    The capture happens at the first quiescent scheduler cut whose
    simulated clock is >= ``at_time`` (the run continues normally
    afterwards); the checkpoint dict lands in ``box["checkpoint"]``.
    """
    _check_checkpointable(world)

    def hook() -> None:
        if "checkpoint" in box or world.engine.now < at_time:
            return
        checkpoint = capture_replay(world, replayers, trace)
        if checkpoint is not None:
            box["checkpoint"] = checkpoint

    world.scheduler.on_quiescent = hook


def capture_replay(world: SmpiWorld, replayers: list,
                   trace: TiTrace) -> dict | None:
    """Capture a quiescent replay cut; None when the cut is not clean.

    A cut is *clean* when the engine holds no undelivered completions —
    the scheduler hook simply retries at the next cut otherwise.
    """
    engine = world.engine
    if engine._instant_done or engine._finished:
        return None

    requests: dict[int, Request] = {}
    messages: dict[int, Message] = {}

    def note_request(request) -> None:
        if request is None or request.rid in requests:
            return
        if request.error_exc is not None:
            raise SimulationError(
                "cannot checkpoint a run with undelivered operation "
                f"errors (request #{request.rid}: {request.error_exc})"
            )
        requests[request.rid] = request
        if request.message is not None:
            note_message(request.message)

    def note_message(message) -> None:
        if message.mid in messages:
            return
        if message.watchdog is not None:
            raise SimulationError(
                f"message {message.mid} carries a live watchdog; "
                "checkpointing requires comm_timeout=None"
            )
        messages[message.mid] = message
        note_request(message.send_req)
        note_request(message.recv_req)

    rank_states = []
    for rank, replayer in enumerate(replayers):
        for request in replayer.live.values():
            note_request(request)
        actor = world._actors[rank]
        blocked = None if actor.finished else replayer.blocked
        state: dict = {
            "next_index": replayer.next_index,
            "live": [[op_id, request.rid]
                     for op_id, request in replayer.live.items()],
            "blocked": None,
        }
        if blocked is not None:
            kind, payload = blocked
            if kind == "compute":
                activity, _flops = payload
                state["blocked"] = {"kind": "compute",
                                    "aid": activity.action.aid}
            else:
                for request in payload:
                    note_request(request)
                state["blocked"] = {"kind": kind,
                                    "rids": [r.rid for r in payload]}
        rank_states.append(state)

    protocol = world.protocol
    if any(protocol._probe_waiters.values()):
        raise SimulationError("cannot checkpoint with actors blocked in "
                              "Probe")
    posted = []
    for key, mailbox in protocol._posted.items():
        if not mailbox:
            continue
        for recv in mailbox:
            note_request(recv.request)
        posted.append([list(key), [
            {"source": r.source, "tag": r.tag, "ctx": r.ctx,
             "rid": r.request.rid} for r in mailbox
        ]])
    unexpected = []
    for key, mailbox in protocol._unexpected.items():
        if not mailbox:
            continue
        for message in mailbox:
            note_message(message)
        unexpected.append([list(key), [m.mid for m in mailbox]])

    message_rows = []
    for message in messages.values():
        transfer = message.transfer
        transfer_aid = None
        if transfer is not None and not transfer.done:
            transfer_aid = transfer.action.aid
        message_rows.append({
            "mid": message.mid,
            "src": message.src, "dst": message.dst,
            "tag": message.tag, "ctx": message.ctx,
            "eager": message.eager,
            "wire_bytes": message.wire_bytes,
            "delivered": message.delivered,
            "attempts": message.attempts,
            "handshake": message.handshake,
            "send_rid": None if message.send_req is None
                        else message.send_req.rid,
            "recv_rid": None if message.recv_req is None
                        else message.recv_req.rid,
            "transfer_aid": transfer_aid,
        })
    request_rows = [{
        "rid": r.rid, "kind": r.kind, "owner": r.owner_rank,
        "complete": r.complete, "cancelled": r.cancelled,
        "source": r.source, "tag": r.tag,
        "received_bytes": r.received_bytes,
        "mid": None if r.message is None else r.message.mid,
    } for r in requests.values()]

    return {
        "version": CHECKPOINT_VERSION,
        "trace": {
            "n_ranks": trace.n_ranks,
            "event_counts": [len(events) for events in trace.events],
        },
        "config": _config_dict(world.config),
        "rank_hosts": list(world.rank_hosts),
        "engine": snapshot_engine(engine),
        "msg_next": world.msg_seq.peek,
        "req_next": rq._ids.peek,
        "next_ctx": world._next_ctx,
        "requests": request_rows,
        "messages": message_rows,
        "posted": posted,
        "unexpected": unexpected,
        "ranks": rank_states,
    }


def _config_dict(config: SmpiConfig) -> dict:
    import dataclasses

    return dataclasses.asdict(config)


# -- restore ------------------------------------------------------------------


def resume_replay(
    trace: TiTrace,
    platform: Platform,
    checkpoint: dict,
    network_model=None,
) -> SmpiResult:
    """Continue a checkpointed replay run to completion.

    ``trace`` and ``platform`` must be the ones the checkpoint was taken
    with (the trace's shape is validated; the platform's topology feeds
    the revived actions' link tuples), and ``network_model`` must equal
    the original run's.  The returned result's ``simulated_time`` is
    bit-identical to the uninterrupted run's.
    """
    from .replay import _RankReplayer

    version = checkpoint.get("version")
    if version != CHECKPOINT_VERSION:
        raise ConfigError(
            f"replay checkpoint version {version!r} is not the supported "
            f"version {CHECKPOINT_VERSION}"
        )
    shape = checkpoint["trace"]
    if shape["n_ranks"] != trace.n_ranks or shape["event_counts"] != [
            len(events) for events in trace.events]:
        raise ConfigError(
            "checkpoint does not match this trace (rank count or "
            "per-rank event counts differ)"
        )

    try:
        config = SmpiConfig().with_options(**checkpoint["config"])
    except ConfigError as exc:
        raise ConfigError(f"checkpoint config is stale: {exc}") from exc
    engine, actions = restore_engine(platform, checkpoint["engine"],
                                     network_model=network_model)
    world = SmpiWorld(platform, trace.n_ranks,
                      hosts=checkpoint["rank_hosts"], config=config,
                      engine=engine)
    world.msg_seq.reset(checkpoint["msg_next"])
    world._next_ctx = checkpoint["next_ctx"]

    requests: dict[int, Request] = {}
    for row in checkpoint["requests"]:
        request = Request(world, row["kind"], row["owner"])
        request.rid = row["rid"]
        request.complete = row["complete"]
        request.cancelled = row["cancelled"]
        request.source = row["source"]
        request.tag = row["tag"]
        request.received_bytes = row["received_bytes"]
        requests[request.rid] = request
    rq._ids.advance_to(checkpoint["req_next"])

    messages: dict[int, Message] = {}
    for row in checkpoint["messages"]:
        message = Message(row["src"], row["dst"], row["tag"], row["ctx"],
                          _EMPTY, row["eager"], row["wire_bytes"], row["mid"])
        message.delivered = row["delivered"]
        message.attempts = row["attempts"]
        message.handshake = row["handshake"]
        if row["send_rid"] is not None:
            message.send_req = requests[row["send_rid"]]
            message.send_req.message = message
            message.send_req.meta = intern_meta(
                "send", message.tag, message.ctx, message.wire_bytes,
                message.eager)
        if row["recv_rid"] is not None:
            recv_req = requests[row["recv_rid"]]
            message.recv_req = recv_req
            recv_req.message = message
            recv_req.meta = intern_meta("recv", message.tag, message.ctx, -1)
            recv_req._recv_buffer = None  # replay receives are raw-bytes
        messages[message.mid] = message

    protocol = world.protocol
    for key, entries in checkpoint["posted"]:
        for entry in entries:
            request = requests[entry["rid"]]
            request.meta = intern_meta("recv", entry["tag"], entry["ctx"],
                                       -1)
            # routes through the protocol so the dead-rank source index
            # is rebuilt alongside the queue itself
            protocol.post_restored_recv(
                key[0], key[1],
                _PostedRecv(entry["source"], entry["tag"], entry["ctx"],
                            request, None))
    for key, mids in checkpoint["unexpected"]:
        _posted, mailbox = protocol._queues(*key)
        for mid in mids:
            mailbox.push(messages[mid])

    # re-wire in-flight transfers: a fresh CommActivity around the revived
    # action re-binds the observer the engine snapshot dropped, and the
    # protocol's delivery callback is re-attached
    for row in checkpoint["messages"]:
        aid = row["transfer_aid"]
        if aid is None:
            continue
        message = messages[row["mid"]]
        action = actions[aid]
        activity = CommActivity(
            world.scheduler, action,
            world.host_of(message.src), world.host_of(message.dst),
            max(message.nbytes, 1), name=action.name,
        )
        activity.callbacks.append(
            lambda m=message: protocol._on_transfer_done(m))
        message.transfer = activity

    replayers = []
    for rank, state in enumerate(checkpoint["ranks"]):
        live = {op_id: requests[rid] for op_id, rid in state["live"]}
        resume_block = None
        blocked = state["blocked"]
        if blocked is not None:
            if blocked["kind"] == "compute":
                action = actions[blocked["aid"]]
                activity = ExecActivity(world.scheduler, action,
                                        name=action.name)
                resume_block = ("compute", (activity, 0.0))
            else:
                resume_block = (blocked["kind"],
                                [requests[rid] for rid in blocked["rids"]])
        replayer = _RankReplayer(world, rank, trace.events[rank],
                                 next_index=state["next_index"],
                                 live=live, resume_block=resume_block)
        replayers.append(replayer)
        actor = world.scheduler.add_actor(
            f"replay-{rank}", world.host_of(rank), replayer.run
        )
        world.register_actor(rank, actor)

    return world.run()


def warm_replay(
    trace: TiTrace,
    platform: Platform,
    checkpoint_at: float,
    store,
    config: SmpiConfig | None = None,
    network_model=None,
) -> SmpiResult:
    """Replay with a checkpoint store: resume on hit, capture on miss.

    ``store`` is a :class:`repro.sweep.cache.SnapshotStore` (or anything
    with its ``key_for``/``get``/``put`` shape).  On a store hit the
    common run prefix up to ``checkpoint_at`` is skipped entirely; either
    way the returned clock is the cold run's, bit-exact.
    """
    from .replay import replay_trace

    config = config or SmpiConfig()
    key = store.key_for(trace, platform, config, checkpoint_at)
    checkpoint = store.get(key)
    if checkpoint is not None:
        return resume_replay(trace, platform, checkpoint,
                             network_model=network_model)
    result = replay_trace(trace, platform, config=config,
                          network_model=network_model,
                          checkpoint_at=checkpoint_at)
    if result.checkpoint is not None:
        store.put(key, result.checkpoint)
    return result


# -- disk round trip ----------------------------------------------------------


def save_checkpoint(checkpoint: dict, path: str | Path) -> Path:
    """Write a checkpoint to ``path`` as JSON.

    The payload uses Python's JSON dialect (bare ``Infinity``/``NaN``
    for the numeric fields that legitimately hold them), so read it back
    with :func:`load_checkpoint` / Python's ``json`` module.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(checkpoint, separators=(",", ":")),
                      encoding="utf-8")
    return target


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    checkpoint = json.loads(Path(path).read_text(encoding="utf-8"))
    version = checkpoint.get("version")
    if version != CHECKPOINT_VERSION:
        raise ConfigError(
            f"replay checkpoint version {version!r} is not the supported "
            f"version {CHECKPOINT_VERSION}"
        )
    return checkpoint
