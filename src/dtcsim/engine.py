"""One simulation run: chain wiring, event dispatch, trace, metrics.

Node ids: the sender is -1, the intermediate nodes are 0 .. hops-2 (node 0
nearest the sender), and the receiver is hops-1.  Every frame moves one
hop over a link of the scenario's hop latency: data and local
retransmissions to id+1, acks to id-1.  So the transmitter of an arriving
frame follows from its direction, and link-layer acks go back to it.

Every arriving frame gets its link-layer ack draw, always at arrival.  The
ack's arrival is pushed only when the transmitter is a node whose cache
entry is AWAITING that frame id, the one reader of an ll ack; frame ids are
unique, so no later entry can await it either.  Leaving the other pushes
out keeps every draw and the relative order of every other event, so the
results are the same as if every survivor were pushed.

The run loop pops ``(fire_at, seq, target, kind, arg)`` tuples (see
``events``) and branches on the int ``kind``, frame arrivals first.  It
calls the protocol state machines in ``node`` and ``endpoints``, which
emit straight back into the ``Simulation`` as their sink:

    send_data(src, segment) -> frame_id   toward the receiver
    send_ack(src, ack)                    toward the sender
    schedule(at, target, kind, arg=...)   the queue's own method: a timer
    note(node_id, action, seq)            a cache transition, trace only

Each send takes the next frame id, draws once from the random source and,
if the frame survives, pushes its arrival.  So the order in which a
handler emits is the order of frame ids, draws and pushes, and it is part
of every result; keep it when editing a handler.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .events import (
    FRAME_ARRIVAL,
    LL_ACK_ARRIVAL,
    LL_TIMEOUT,
    LOCAL_RTO,
    SEND_SLOT,
    SENDER,
    SENDER_RTO,
    EventQueue,
    RandomSource,
)
from .endpoints import TcpReceiver, TcpSender
from .linklayer import DropOverride, derive_loss_model, transmit
from .node import AWAITING, CachingNode
from .packets import AckSegment, DataSegment, render_payload


class LivenessError(RuntimeError):
    """The run exceeded its event budget without completing."""


class RunMetrics(NamedTuple):
    """Counters collected from one completed run."""

    e2e_retransmissions: int
    per_node_data_tx: tuple             # indexed by intermediate node 0..hops-2
    sender_data_tx: int
    completion_time: int                # microseconds from transfer start
    delivered_segments: int
    local_retransmissions_total: int
    rng_draws: int                      # replay check: must match per (scenario, seed)


class Simulation:
    """Executes one scenario to completion; deterministic in (scenario, seed)."""

    def __init__(
        self,
        scenario,
        trace: Optional[Callable[[str], None]] = None,
        drop_override: Optional[DropOverride] = None,
    ) -> None:
        self.scenario = scenario
        self.queue = EventQueue()
        self.schedule = self.queue.schedule
        self.rng = RandomSource(scenario.seed)
        self.loss = derive_loss_model(scenario.p_data)
        self.latency = scenario.hop_latency
        self._next_frame_id = 0
        self.trace = trace
        self.drop_override = drop_override
        self.receiver_id = scenario.hops - 1
        self.sender = TcpSender(
            scenario.total_segments,
            scenario.window,
            self,
            rto_min=scenario.effective_rto_min(),
            rto_max=scenario.rto_max,
            rto_initial=scenario.effective_rto_initial(),
            send_spacing=scenario.effective_send_spacing(),
            fast_retransmit=scenario.fast_retransmit,
        )
        self.receiver = TcpReceiver(scenario.total_segments)
        self.nodes = [
            CachingNode(
                node_id,
                self.receiver_id - node_id,     # hops to the receiver
                scenario.hop_latency,
                self,
                enabled=scenario.dtc_enabled,
                ll_wait=scenario.ll_wait(),
                max_local_retries=scenario.max_local_retries,
            )
            for node_id in range(self.receiver_id)
        ]

    # -- trace helpers -------------------------------------------------------

    def _name(self, node_id: int) -> str:
        if node_id == SENDER:
            return "S"
        if node_id == self.receiver_id:
            return "R"
        return str(node_id)

    def _trace_hop(self, src: int, dst: int, payload, kind: str, delivered: bool) -> None:
        result = "delivered" if delivered else "lost"
        suffix = "" if kind == "llack" else " " + render_payload(payload)
        self.trace(
            f"HOP from={self._name(src)} to={self._name(dst)} "
            f"kind={kind} result={result} t={self.queue.now}{suffix}"
        )

    # -- the sink the state machines emit into ----------------------------------

    def send_data(self, src: int, segment: DataSegment) -> int:
        """Transmit a data segment from src toward the receiver; its frame id."""
        frame_id = self._next_frame_id
        self._next_frame_id = frame_id + 1
        delivered = transmit(self.queue, src, src + 1, frame_id, segment, self.loss.p_data,
                             self.latency, self.rng, self.drop_override)
        if self.trace is not None:
            self._trace_hop(src, src + 1, segment, "data", delivered)
        return frame_id

    def send_ack(self, src: int, ack: AckSegment) -> None:
        """Transmit a TCP ack from src toward the sender."""
        frame_id = self._next_frame_id
        self._next_frame_id = frame_id + 1
        delivered = transmit(self.queue, src, src - 1, frame_id, ack, self.loss.p_tcp_ack,
                             self.latency, self.rng, self.drop_override)
        if self.trace is not None:
            self._trace_hop(src, src - 1, ack, "ack", delivered)

    def note(self, node_id: int, action: str, seq: int) -> None:
        """Trace a cache transition; nothing else sees it."""
        if self.trace is not None:
            self.trace(f"DTC node={node_id} action={action} seq={seq} t={self.queue.now}")

    # -- event loop -----------------------------------------------------------------

    def run(self) -> RunMetrics:
        queue = self.queue
        rng = self.rng
        trace = self.trace
        sender = self.sender
        receiver = self.receiver
        nodes = self.nodes
        receiver_id = self.receiver_id
        latency = self.latency
        p_ll_ack = self.loss.p_ll_ack
        budget = self.scenario.max_events
        processed = 0
        sender.start(queue.now)
        while True:
            event = queue.pop_next()
            if event is None:
                raise LivenessError(
                    f"event queue drained at t={queue.now}us with "
                    f"{receiver.delivered_in_order}/{receiver.total} segments delivered"
                )
            processed += 1
            if processed > budget:
                raise LivenessError(
                    f"run exceeded the {budget} event budget at t={queue.now}us "
                    f"({receiver.delivered_in_order}/{receiver.total} delivered)"
                )
            now, _, target, kind, arg = event
            if kind == FRAME_ARRIVAL:
                frame_id, segment = arg
                is_data = type(segment) is DataSegment
                transmitter = target - 1 if is_data else target + 1
                # drawn always, pushed only to its one reader (module docstring)
                acked = rng.uniform_draw() >= p_ll_ack
                if acked and 0 <= transmitter < receiver_id:
                    entry = nodes[transmitter].cache
                    if entry is not None and entry.state is AWAITING and entry.frame_id == frame_id:
                        queue.schedule(now + latency, transmitter, LL_ACK_ARRIVAL, arg=frame_id)
                if trace is not None:
                    self._trace_hop(target, transmitter, segment, "llack", acked)
                if is_data:
                    if target == receiver_id:
                        self.send_ack(receiver_id, receiver.on_data(segment))
                    else:
                        nodes[target].on_data(segment, now)
                elif target == SENDER:
                    sender.on_ack(segment, now)
                    if sender.completed_at is not None:
                        break
                else:
                    nodes[target].on_ack(segment, now)
            elif kind == LL_ACK_ARRIVAL:
                nodes[target].on_ll_ack(arg)
            elif kind == LL_TIMEOUT:
                nodes[target].on_ll_timeout(arg, now)
            elif kind == LOCAL_RTO:
                nodes[target].on_local_rto(arg, now)
            elif kind == SENDER_RTO:
                sender.on_rto(arg, now)
            elif kind == SEND_SLOT:
                sender.on_send_slot(now)
            else:
                raise AssertionError(f"unknown event kind {kind!r}")
        # the state machines hold this simulation as their sink; cut that
        # cycle so a finished run is freed at once, not at the next full
        # garbage collection (a sweep's peak memory would show the wait)
        sender.out = None
        for node in nodes:
            node.out = None
        return self._collect()

    def _collect(self) -> RunMetrics:
        return RunMetrics(
            e2e_retransmissions=self.sender.e2e_retransmissions,
            per_node_data_tx=tuple(n.data_tx_count for n in self.nodes),
            sender_data_tx=self.sender.total_data_tx,
            completion_time=self.sender.completed_at,
            delivered_segments=self.receiver.delivered_in_order,
            local_retransmissions_total=sum(n.local_retx_count for n in self.nodes),
            rng_draws=self.rng.draws,
        )
