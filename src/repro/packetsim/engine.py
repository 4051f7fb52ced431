"""PacketEngine: the Engine-compatible facade of the packet simulator.

Duck-types :class:`repro.surf.engine.Engine` — ``communicate`` /
``execute`` / ``sleep`` / ``step`` / ``busy`` / ``cancel`` / ``now`` /
``platform`` / ``stats`` — so the SIMIX scheduler and the whole SMPI layer
run over it unchanged.  Transfers become windowed packet flows over the
platform's links (store-and-forward, half-duplex queues); computations and
sleeps become plain timed events (the testbed runs one rank per host, so
CPU sharing is not needed for fidelity).

Per-flow measurement noise (lognormal on packet service times and message
start-up) makes repeated "measurements" jitter like a real cluster; it is
fully reproducible from the seed.
"""

from __future__ import annotations

import math

import numpy as np

from .. import rng as rng_mod
from ..errors import SimulationError
from ..log import bind_clock, get_logger
from ..surf.action import Action, ActionState, ComputeAction, NetworkAction, SleepAction
from ..surf.stats import EngineStats
from ..surf.platform import Platform
from ..surf.resources import Host, Link
from .core import EventQueue, FlowState, LinkChannel, segment_sizes, wire_bytes

__all__ = ["PacketEngine", "PacketParams"]

_log = get_logger("packetsim")


class PacketParams:
    """Wire-level knobs of the packet testbed."""

    def __init__(
        self,
        window_bytes: int = 1024 * 1024,
        noise: float = 0.0,
        seed: int | None = None,
        loopback_bandwidth: float = 12.5e9,
    ) -> None:
        if window_bytes < 1460:
            raise SimulationError("window must hold at least one MSS")
        if noise < 0:
            raise SimulationError("noise must be >= 0")
        self.window_bytes = window_bytes
        self.noise = noise
        self.seed = seed
        self.loopback_bandwidth = loopback_bandwidth


class PacketEngine:
    """Packet-level kernel over a :class:`~repro.surf.platform.Platform`."""

    def __init__(self, platform: Platform, params: PacketParams | None = None):
        platform.freeze()
        self.platform = platform
        self.params = params or PacketParams()
        self.now = 0.0
        self.stats = EngineStats()
        self._events = EventQueue()
        self._channels: dict[str, LinkChannel] = {}
        self._flows: dict[int, FlowState] = {}
        self._action_flow: dict[int, FlowState] = {}
        self._completed: list[Action] = []
        self._pending_actions = 0
        self._rng = rng_mod.substream(self.params.seed, "packetsim")
        bind_clock(lambda: self.now)

    # -- Engine-compatible surface -------------------------------------------------------

    @property
    def busy(self) -> bool:
        return bool(self._events) or bool(self._completed)

    def poll_progress(self) -> bool:
        """True while :meth:`step` can make progress (everything the
        packet engine simulates is event-queue driven, so this is just
        ``busy``; the scheduler uses it for deadlock detection)."""
        return self.busy

    @property
    def pending(self) -> list:
        # only used by diagnostics; expose a count-ish stand-in
        return [None] * self._pending_actions

    def communicate(
        self,
        src: str,
        dst: str,
        size: float,
        name: str = "comm",
        rate_cap: float = math.inf,
        extra_latency: float = 0.0,
    ) -> NetworkAction:
        route = self.platform.route(src, dst)
        action = NetworkAction(
            name, size, route.links, latency=0.0, rate_bound=rate_cap,
            src=src, dst=dst,
        )
        # the packet engine drives the action itself; neutralise the state
        # machine the analytical engine would use
        action.state = ActionState.RUNNING
        action.start_time = self.now
        self.stats.actions_created += 1
        self._pending_actions += 1
        self.stats.peak_concurrent = max(self.stats.peak_concurrent, self._pending_actions)

        jitter = self._draw_noise()
        start_at = self.now + extra_latency * jitter

        if not route.links:
            # loopback: memcpy-speed, no network
            duration = max(size, 1) / self.params.loopback_bandwidth + 1e-7
            self._events.push(start_at + duration, lambda: self._finish(action))
            return action

        segments = segment_sizes(int(size))
        seg_unit = max(segments[0], 1)
        rate_factor = self._draw_noise()
        bottleneck = min(link.bandwidth for link in route.links)
        if rate_cap < bottleneck:
            # an implementation that cannot drive the wire at full speed
            # behaves like slightly slower links for this flow
            rate_factor *= bottleneck / rate_cap
        flow = FlowState(
            fid=action.aid,
            links=route.links,
            segments=segments,
            window=self._window_for(segments, route.links),
            # a warmed TCP connection starts around a 64 KiB congestion
            # window; slow start only shows beyond the rendezvous sizes
            init_cwnd=max(4, 65536 // seg_unit),
            rate_factor=rate_factor,
        )
        self._flows[action.aid] = flow
        self._action_flow[action.aid] = flow
        self._events.push(start_at, lambda: self._pump(action, flow))
        return action

    def execute(self, host: Host | str, flops: float, name: str = "exec") -> ComputeAction:
        if isinstance(host, str):
            host = self.platform.host(host)
        action = ComputeAction(name, flops, host)
        action.state = ActionState.RUNNING
        action.start_time = self.now
        self.stats.actions_created += 1
        self._pending_actions += 1
        duration = flops / host.speed
        self._events.push(self.now + duration, lambda: self._finish(action))
        return action

    def sleep(self, duration: float, name: str = "sleep") -> SleepAction:
        action = SleepAction(name, max(duration, 0.0))
        action.state = ActionState.RUNNING
        action.start_time = self.now
        self.stats.actions_created += 1
        self._pending_actions += 1
        self._events.push(self.now + max(duration, 0.0), lambda: self._finish(action))
        return action

    def step(self) -> list[Action]:
        """Process events until at least one action completes (or drained)."""
        if self._completed:
            return self._drain_completed()
        while self._events:
            when, thunk = self._events.pop()
            if when < self.now - 1e-12:
                raise SimulationError("packet event queue went backwards in time")
            self.now = max(self.now, when)
            thunk()
            if self._completed:
                return self._drain_completed()
        return []

    def run(self) -> float:
        """Standalone drain (used by unit tests)."""
        while self.busy:
            self.step()
        return self.now

    def cancel(self, action: Action) -> None:
        flow = self._action_flow.pop(action.aid, None)
        if flow is not None:
            flow.delivered = len(flow.segments)  # stop pumping
        if action.is_pending:
            action.state = ActionState.FAILED
            action.finish_time = self.now
            self._completed.append(action)

    # -- internals ---------------------------------------------------------------------------

    def _drain_completed(self) -> list[Action]:
        done, self._completed = self._completed, []
        for action in done:
            self.stats.actions_completed += 1
            self._pending_actions -= 1
            if action.observer is not None:
                action.observer(action)
        return done

    def _finish(self, action: Action) -> None:
        if action.state is ActionState.RUNNING:
            action.state = ActionState.DONE
            action.finish_time = self.now
            action.remaining = 0.0
            self._completed.append(action)

    def _channel(self, link: Link) -> LinkChannel:
        channel = self._channels.get(link.name)
        if channel is None:
            channel = self._channels[link.name] = LinkChannel(link)
        return channel

    def _window_for(self, segments: list[int], links) -> int:
        """Segments allowed in flight: the byte window over the segment size.

        Very large messages use coarse super-segments; the window must
        still cover the store-and-forward pipeline (one segment per hop
        plus slack) or the flow would be artificially window-bound.
        """
        unit = max(segments[0], 1) if segments else 1460
        pipeline_floor = 2 * len(links) + 2
        return max(2, pipeline_floor, self.params.window_bytes // unit)

    def _draw_noise(self) -> float:
        if self.params.noise <= 0:
            return 1.0
        return float(np.exp(self._rng.normal(0.0, self.params.noise)))

    def _pump(self, action: Action, flow: FlowState) -> None:
        """Inject as many segments as the window allows."""
        while flow.can_inject():
            payload = flow.segments[flow.next_segment]
            flow.next_segment += 1
            flow.in_flight += 1
            self._send_segment(action, flow, payload, hop=0, at=self.now)

    def _send_segment(
        self, action: Action, flow: FlowState, payload: int, hop: int, at: float
    ) -> None:
        """Store-and-forward the segment across hop ``hop``."""
        if hop >= len(flow.links):
            self._delivered(action, flow, at)
            return
        link = flow.links[hop]
        channel = self._channel(link)
        bytes_on_wire = int(wire_bytes(payload) * flow.rate_factor)
        _start, arrival = channel.transmit(max(at, self.now), bytes_on_wire)
        self._events.push(
            arrival, lambda: self._send_segment(action, flow, payload, hop + 1, arrival)
        )

    def _delivered(self, action: Action, flow: FlowState, at: float) -> None:
        flow.delivered += 1
        flow.last_delivery = at
        if flow.done:
            self._flows.pop(flow.fid, None)
            self._action_flow.pop(action.aid, None)
            self._finish(action)
            return
        # ack returns at latency cost only; then the window slides
        ack_latency = sum(link.latency for link in flow.links)

        def on_ack() -> None:
            flow.on_ack()
            self._pump(action, flow)

        self._events.push(at + ack_latency, on_ack)

    # -- inspection --------------------------------------------------------------------------

    def link_utilisation(self) -> dict[str, int]:
        """Bytes carried per link so far (testbed diagnostics)."""
        return {
            name: channel.bytes_carried for name, channel in self._channels.items()
        }
