"""One simulation run: chain wiring, event queue, lossy links, trace, metrics.

Node ids: the sender is -1, the intermediate nodes are 0 .. hops-2 (node 0
nearest the sender), and the receiver is hops-1.  Every frame moves one
hop over a link of the scenario's hop latency: data and local
retransmissions to id+1, acks to id-1.  So the transmitter of an arriving
frame follows from its direction, and link-layer acks go back to it.

The ``Simulation`` is its own event queue, virtual clock and random
source: it holds the heap of ``(fire_at, seq, target, kind, arg)`` tuples
(see ``events``), the insertion counter behind ``seq``, ``now``, one
seeded generator and the count of its draws.  The run loop pops the heap
inline and branches on the int ``kind``, frame arrivals first.  It calls
the protocol state machines in ``node`` and ``endpoints``, whose handlers
return nothing and emit straight back into the ``Simulation``, their sink
``out`` (a recorder stands in for it in unit tests):

    send(src, payload) -> frame_id        a DataSegment toward the receiver,
                                          an AckSegment toward the sender
    schedule(at, target, kind, arg=...)   a timer; never behind the clock
    note(node_id, action, seq)            a cache transition, trace only

Loss is memoryless: each send takes the next frame id and makes one
uniform draw against its kind's threshold.  Data segments are the
largest frames and lose most often (``p_data``); TCP acks lose at half
that rate and link-layer acks at a quarter.  A frame that survives has
its arrival pushed one hop latency later; a lost one is simply gone, and
recovery is someone else's job.  A drop override (tests only) may decide
a send instead of the draw.

Every arriving frame gets its link-layer ack draw, always at arrival.  The
ack's arrival is pushed only when the transmitter is a node whose cache
entry is AWAITING that frame id, the one reader of an ll ack; frame ids are
unique, so no later entry can await it either.  Leaving the other pushes
out keeps every draw and the relative order of every other event, so the
results are the same as if every survivor were pushed.

So the order in which a handler emits is the order of frame ids, draws and
pushes, and it is part of every result; keep it when editing a handler.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Callable, NamedTuple, Optional

from .events import (
    FRAME_ARRIVAL,
    LL_ACK_ARRIVAL,
    LL_TIMEOUT,
    LOCAL_RTO,
    SEND_SLOT,
    SENDER,
    SENDER_RTO,
    SchedulingError,
)
from .endpoints import TcpReceiver, TcpSender
from .node import AWAITING, CachingNode
from .packets import DataSegment, render_payload

# A drop override lets tests script exact losses.  It is called as
# drop_override(frame_id, segment, src, dst) and returns True to force a
# loss, False to force delivery, None to fall through to the random draw.
DropOverride = Callable[[int, object, int, int], Optional[bool]]


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
        # the engine pushes frames and ll acks at now + latency unchecked;
        # a latency of at least 1 us keeps those pushes ahead of the clock
        if scenario.hop_latency < 1:
            raise ValueError(f"hop_latency must be >= 1 us, got {scenario.hop_latency}")
        self.scenario = scenario
        self._heap: list[tuple] = []
        self._seq = 0                               # next event's insertion order
        self.now = 0                                # virtual time, microseconds
        self._random = random.Random(scenario.seed).random
        self.draws = 0
        # per-kind loss thresholds in the fixed 4:2:1 size-based ratio
        self.p_data = scenario.p_data
        self.p_tcp_ack = scenario.p_data / 2.0
        self.p_ll_ack = scenario.p_data / 4.0
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
            f"kind={kind} result={result} t={self.now}{suffix}"
        )

    # -- the sink the state machines emit into ----------------------------------

    def send(self, src: int, payload) -> int:
        """Transmit one frame from src: a data segment toward the receiver,
        an ack toward the sender; its frame id."""
        frame_id = self._next_frame_id
        self._next_frame_id = frame_id + 1
        if type(payload) is DataSegment:
            dst = src + 1
            threshold = self.p_data
            kind = "data"
        else:
            dst = src - 1
            threshold = self.p_tcp_ack
            kind = "ack"
        forced = None
        if self.drop_override is not None:
            forced = self.drop_override(frame_id, payload, src, dst)
        if forced is None:
            self.draws += 1
            delivered = self._random() >= threshold
        else:
            delivered = not forced
        if delivered:
            seq = self._seq
            self._seq = seq + 1
            heappush(self._heap, (self.now + self.latency, seq, dst, FRAME_ARRIVAL,
                                  (frame_id, payload)))
        if self.trace is not None:
            self._trace_hop(src, dst, payload, kind, delivered)
        return frame_id

    def schedule(self, fire_at: int, target: int, kind: int, arg: object = None) -> None:
        """Push one timer event; fire_at may not lie behind the clock."""
        if fire_at < self.now:
            raise SchedulingError(
                f"event kind {kind} for node {target} scheduled at t={fire_at}us "
                f"behind the clock t={self.now}us"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (fire_at, seq, target, kind, arg))

    def note(self, node_id: int, action: str, seq: int) -> None:
        """Trace a cache transition; nothing else sees it."""
        if self.trace is not None:
            self.trace(f"DTC node={node_id} action={action} seq={seq} t={self.now}")

    # -- event loop -----------------------------------------------------------------

    def run(self) -> RunMetrics:
        heap = self._heap
        rand = self._random
        trace = self.trace
        sender = self.sender
        receiver = self.receiver
        nodes = self.nodes
        receiver_id = self.receiver_id
        latency = self.latency
        p_ll_ack = self.p_ll_ack
        budget = self.scenario.max_events
        processed = 0
        sender.start(self.now)
        while heap:
            now, _, target, kind, arg = heappop(heap)
            self.now = now
            processed += 1
            if processed > budget:
                raise LivenessError(
                    f"run exceeded the {budget} event budget at t={now}us "
                    f"({receiver.delivered_in_order}/{receiver.total} delivered)"
                )
            if kind == FRAME_ARRIVAL:
                frame_id, segment = arg
                is_data = type(segment) is DataSegment
                transmitter = target - 1 if is_data else target + 1
                # drawn always, pushed only to its one reader (module docstring)
                self.draws += 1
                acked = rand() >= p_ll_ack
                if acked and 0 <= transmitter < receiver_id:
                    entry = nodes[transmitter].cache
                    if entry is not None and entry.state is AWAITING and entry.frame_id == frame_id:
                        seq = self._seq
                        self._seq = seq + 1
                        heappush(heap, (now + latency, seq, transmitter, LL_ACK_ARRIVAL, frame_id))
                if trace is not None:
                    self._trace_hop(target, transmitter, segment, "llack", acked)
                if is_data:
                    if target == receiver_id:
                        self.send(receiver_id, receiver.on_data(segment))
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
        else:
            raise LivenessError(
                f"event queue drained at t={self.now}us with "
                f"{receiver.delivered_in_order}/{receiver.total} segments delivered"
            )
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
            rng_draws=self.draws,
        )
