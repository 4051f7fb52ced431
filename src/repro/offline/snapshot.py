"""Checkpoint/restore of replay runs (the scale path's warm starts).

A *checkpoint* is a plain-JSON-compatible dict capturing everything a
replay run needs to continue from a mid-run cut:

* the engine snapshot (:meth:`repro.surf.Engine.snapshot`): clock,
  stats, every in-flight action's numeric state, the completion heap,
  the incremental solver's membership/rates/dirtiness, profile cursors;
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
"""

from __future__ import annotations

import json
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
from ..surf.engine import Engine
from ..surf.platform import Platform
from .trace import TiTrace

__all__ = [
    "CHECKPOINT_VERSION",
    "arm_checkpoint",
    "capture_replay",
    "resume_replay",
    "save_checkpoint",
    "load_checkpoint",
    "warm_replay",
]

#: wire-format version of replay checkpoints; bump on any layout change
CHECKPOINT_VERSION = 1

_EMPTY = np.zeros(0, dtype=np.uint8)


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
        "engine": engine.snapshot(),
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
    engine, actions = Engine.restore(platform, checkpoint["engine"],
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
