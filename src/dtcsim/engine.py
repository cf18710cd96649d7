"""One simulation run: chain wiring, event dispatch, trace, metrics.

Node ids: the sender is -1, the intermediate nodes are 0 .. hops-2 (node 0
nearest the sender), and the receiver is hops-1.  Every frame moves one
hop over a link of the scenario's hop latency: data and local
retransmissions to id+1, acks to id-1.  So the transmitter of an arriving
frame follows from its direction, and link-layer acks go back to it.

The run loop pops ``(fire_at, seq, target, kind, arg)`` tuples (see
``events``) and branches on the int ``kind``, frame arrivals first.  The
protocol state machines in ``node`` and ``endpoints`` answer with action
tuples, which ``_apply`` carries out in order: transmissions draw from the
random source and push arrivals, timer actions push timer events.  That
order of draws and pushes is part of the result; keep it when editing.
"""

from __future__ import annotations

from typing import Callable, Optional

from .events import (
    FRAME_ARRIVAL,
    LL_ACK_ARRIVAL,
    LL_TIMEOUT,
    LOCAL_RTO,
    SEND_SLOT,
    SENDER_RTO,
    EventQueue,
    RandomSource,
)
from .endpoints import TcpReceiver, TcpSender
from .harness import RunMetrics, build_chain
from .linklayer import DropOverride, derive_loss_model, ll_acknowledge, transmit
from .node import CachingNode, FrameIdSource
from .packets import ORIGIN_E2E, AckSegment, DataSegment, LinkFrame, render_payload

SENDER = -1


class LivenessError(RuntimeError):
    """The run exceeded its event budget without completing."""


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
        self.rng = RandomSource(scenario.seed)
        self.loss = derive_loss_model(scenario.p_data)
        self.latency = scenario.hop_latency
        self.frame_ids = FrameIdSource()
        self.trace = trace
        self.drop_override = drop_override
        topology = build_chain(scenario)
        self.receiver_id = topology.receiver_id
        self.sender = TcpSender(
            scenario.total_segments,
            scenario.window,
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
                topology.hops_to_receiver[node_id],
                scenario.hop_latency,
                self.frame_ids,
                enabled=scenario.dtc_enabled,
                ll_wait=scenario.ll_wait(),
                max_local_retries=scenario.max_local_retries,
            )
            for node_id in topology.node_ids
        ]

    # -- trace helpers -------------------------------------------------------

    def _name(self, node_id: int) -> str:
        if node_id == SENDER:
            return "S"
        if node_id == self.receiver_id:
            return "R"
        return str(node_id)

    def _trace_hop(self, frame: LinkFrame, kind: str, delivered: bool) -> None:
        result = "delivered" if delivered else "lost"
        suffix = "" if kind == "llack" else " " + render_payload(frame.payload)
        self.trace(
            f"HOP from={self._name(frame.src)} to={self._name(frame.dst)} "
            f"kind={kind} result={result} t={self.queue.now}{suffix}"
        )

    # -- transmission helpers --------------------------------------------------

    def _tx_data(self, src: int, segment: DataSegment, frame_id: Optional[int]) -> None:
        if frame_id is None:
            frame_id = self.frame_ids.next()
        delivered = transmit(self.queue, src, src + 1, frame_id, segment, self.loss.p_data,
                             self.latency, self.rng, self.drop_override)
        if self.trace is not None:
            self._trace_hop(LinkFrame(frame_id, segment, src, src + 1), "data", delivered)

    def _tx_ack(self, src: int, ack: AckSegment) -> None:
        frame_id = self.frame_ids.next()
        delivered = transmit(self.queue, src, src - 1, frame_id, ack, self.loss.p_tcp_ack,
                             self.latency, self.rng, self.drop_override)
        if self.trace is not None:
            self._trace_hop(LinkFrame(frame_id, ack, src, src - 1), "ack", delivered)

    # -- action interpreter ------------------------------------------------------

    def _apply(self, source: int, actions: list) -> None:
        queue = self.queue
        for action in actions:
            tag = action[0]
            if tag == "fwd_data":
                self._tx_data(source, action[1], action[2])
            elif tag == "tx_ack_up":
                self._tx_ack(source, action[1])
            elif tag == "tx_data":
                self._tx_data(SENDER, DataSegment(action[1], ORIGIN_E2E), None)
            elif tag == "arm_rto":
                queue.schedule(action[1], SENDER, SENDER_RTO, arg=action[2])
            elif tag == "arm_send_slot":
                queue.schedule(action[1], SENDER, SEND_SLOT)
            elif tag == "note":
                if self.trace is not None:
                    self.trace(
                        f"DTC node={source} action={action[1]} seq={action[2]} "
                        f"t={queue.now}"
                    )
            elif tag == "arm_ll_timeout":
                queue.schedule(action[1], source, LL_TIMEOUT, arg=action[2])
            elif tag == "arm_local_rto":
                queue.schedule(action[1], source, LOCAL_RTO, arg=action[2])
            elif tag == "local_tx":
                self._tx_data(source, action[1], None)
            elif tag == "completed":
                pass                    # the run loop watches sender.completed_at
            else:
                raise AssertionError(f"unknown action {tag!r}")

    # -- event loop -----------------------------------------------------------------

    def run(self):
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
        self._apply(SENDER, sender.start(queue.now))
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
                acked = ll_acknowledge(queue, transmitter, frame_id, p_ll_ack, latency, rng)
                if trace is not None:
                    self._trace_hop(LinkFrame(frame_id, segment, target, transmitter),
                                    "llack", acked)
                if is_data:
                    if target == receiver_id:
                        self._tx_ack(receiver_id, receiver.on_data(segment))
                    else:
                        self._apply(target, nodes[target].on_data(segment, now))
                elif target == SENDER:
                    self._apply(SENDER, sender.on_ack(segment, now))
                    if sender.completed_at is not None:
                        break
                else:
                    self._apply(target, nodes[target].on_ack(segment, now))
            elif kind == LL_ACK_ARRIVAL:
                if 0 <= target < receiver_id:
                    nodes[target].on_ll_ack(arg)
            elif kind == LL_TIMEOUT:
                self._apply(target, nodes[target].on_ll_timeout(arg, now))
            elif kind == LOCAL_RTO:
                self._apply(target, nodes[target].on_local_rto(arg, now))
            elif kind == SENDER_RTO:
                self._apply(SENDER, sender.on_rto(arg, now))
            elif kind == SEND_SLOT:
                self._apply(SENDER, sender.on_send_slot(now))
            else:
                raise AssertionError(f"unknown event kind {kind!r}")
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
