"""One simulation run: chain wiring, event queue, lossy links, trace, metrics.

Node ids: the sender is -1, the intermediate nodes are 0 .. hops-2 (node 0
nearest the sender), and the receiver is hops-1.  Every frame moves one
hop over a link of the scenario's hop latency: data and local
retransmissions to id+1, acks to id-1.  So the transmitter of an arriving
frame follows from its direction, and link-layer acks go back to it.

The ``Simulation`` is its own event queue, virtual clock and random
source: it holds the heap of event tuples (see ``events``), the insertion
counter behind ``seq``, ``now``, one seeded generator and the count of its
draws.  The run loop pops the heap inline.  It handles a frame arrival
itself and makes any other event's call.  The calls are the handlers of
the protocol state machines in ``node`` and ``endpoints``, the stations.
Each is built from the run's ``Scenario``, whose knobs it reads itself:
``TcpSender(scenario, out)``, ``CachingNode(node_id, scenario, out)`` and
``TcpReceiver(scenario, out)``.  ``stations`` lists them by node id (the
sender's -1 wraps to the last entry), and a frame arrival goes to
``stations[target].on_data`` or ``.on_ack``, except at a relay (below).
Every handler returns
nothing and emits straight back into the ``Simulation``, its sink ``out``
(a recorder stands in for it in unit tests):

    send(src, payload) -> frame_id        a DataSegment toward the receiver,
                                          an AckSegment toward the sender
    schedule(at, call, arg=None)          a timer: call(arg, now) at time at,
                                          never behind the clock
    await_ll_ack(src, frame_id, at,       node src's wait for the ll ack of
                 call, arg)               the frame it just sent: a timer as
                                          above, at or after the arrival
    note(node_id, action, seq)            a cache transition: a DTC trace
                                          record; a node notes only into a
                                          run that traces

Loss is memoryless: each send takes the next frame id and makes one
uniform draw against its kind's threshold.  Data segments are the
largest frames and lose most often (``p_data``); TCP acks lose at half
that rate and link-layer acks at a quarter.  A frame that survives has
its arrival pushed one hop latency later; a lost one is simply gone, and
recovery is someone else's job.  A drop override (tests only) may decide
a send instead of the draw.

Every arriving frame gets its link-layer ack draw, always at arrival.  The
ack's arrival, a call of the transmitter's ``on_ll_ack``, is pushed only
when the transmitter is a node whose cache entry holds that frame id, the
one reader of an ll ack; frame ids are unique, so no later entry can hold
it either.  Such an entry still awaits the ll ack, since neither its ll
ack nor its ll timeout (below) can fire before the frame arrives, so the
run reads the entry's frame id and not its state.

A node arms that wait with ``await_ll_ack`` right after it sends the
frame.  The timer takes its insertion number there, as ``schedule``
would, but is pushed at once only if the frame was lost.  Otherwise the
run holds it until the frame arrives and, after the ll-ack draw, pushes
it with that number, unless it can no longer fire: the node no longer
awaits the frame, so the timer is stale already, or the ll ack survived
and lands before the timer's time, and landing it stales the timer.  On
a tie the timer, armed before the ll ack was pushed, pops first, so it
is pushed.  The timer's time is never before the arrival, so a timer
pushed there pops just where it would have popped had it been pushed
when armed.

Leaving these pushes out keeps every draw and the relative order of every
other event, so the results are the same as if every surviving ll ack
and every timer were pushed; ``tests/reference_loop.py`` runs that
naive schedule and checks it.

So the order in which a handler emits is the order of frame ids, draws and
pushes, and it is part of every result; keep it when editing a handler.

With caching off every intermediate node is a relay, and the run loop
forwards a frame arriving there itself, as ``send`` would: one data
transmission counted on the node for data, the next frame id, the drop
override or one loss draw, and the trace record.  A surviving frame is
then carried on inline as the next arrival, with its ll-ack draw, without
a heap push and pop: to the next relay, or into the sender's or the
receiver's handler.  The carry stops, and the arrival is pushed as
``send`` pushes it, when a queued event fires at or before the arrival
(on a tie the queued event, pushed earlier, pops first), or when one more
event would exceed the budget.  Otherwise the arrival is the very next
event the heap would pop, so carrying it processes the same events in the
same order.  A skipped push takes no insertion number; the counter still
grows with every push, so no two events change their relative order.  A
carried hop counts as a processed event, so the budget cuts a run at the
same event.

A run given a ``trace`` callable passes it one tuple per event, built only
when the callable is there:

    (t, HOP, src, dst, kind, delivered, payload)   a frame or ll ack on a link
    (t, DTC, node_id, action, seq)                 a cache transition

``kind`` is "data", "ack" or "llack"; an llack record carries the payload
of the frame it acknowledges.  ``renderer(hops, write)`` is the one code
that turns records into trace text: it returns such a callable, which
formats each record as its whole line, newline included, and passes the
line to ``write`` at once.  ``dtcsim run --trace`` passes
``sys.stdout.write``; a caller that wants the lines passes ``list.append``.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import count
from typing import Callable, NamedTuple, Optional

from .events import SchedulingError
from .endpoints import TcpReceiver, TcpSender
from .node import CachingNode
from .packets import DataSegment

# A drop override lets tests script exact losses.  It is called as
# drop_override(frame_id, segment, src, dst) and returns True to force a
# loss, False to force delivery, None to fall through to the random draw.
DropOverride = Callable[[int, object, int, int], Optional[bool]]


# the tag at index 1 of a trace record
HOP = "HOP"
DTC = "DTC"


def render_payload(payload) -> str:
    """Stable textual form of a segment: the tail of each data and ack line
    that ``renderer`` writes, and so of the golden traces."""
    if type(payload) is DataSegment:
        return f"DATA seq={payload.seq} origin={payload.origin}"
    inner = ",".join(map(str, sorted(payload.sack)))
    return f"ACK no={payload.ack_no} sack={{{inner}}}"


def renderer(hops: int, write: Callable[[str], object]) -> Callable[[tuple], None]:
    """The trace sink of one run over ``hops`` links.

    It formats each record as its whole line, newline included, and hands
    the line to ``write`` before it returns, so a run that raises has
    written every record before the failure.  Nodes are named S (the
    sender), 0 .. hops-2 and R (the receiver).
    """
    # indexed by node id: the sender's -1 wraps to the last entry
    names = [*map(str, range(hops - 1)), "R", "S"]

    def sink(record: tuple) -> None:
        if record[1] == HOP:
            t, _, src, dst, kind, delivered, payload = record
            result = "delivered" if delivered else "lost"
            if kind == "llack":
                write(f"HOP from={names[src]} to={names[dst]} kind=llack result={result} t={t}\n")
            else:
                write(f"HOP from={names[src]} to={names[dst]} kind={kind} result={result} "
                      f"t={t} {render_payload(payload)}\n")
        else:
            t, _, node_id, action, seq = record
            write(f"DTC node={node_id} action={action} seq={seq} t={t}\n")

    return sink


class LivenessError(RuntimeError):
    """The run stopped without completing: its event budget ran out, or its
    queue drained.  The message starts with ``<cell_id> seed=<seed>: ``."""


class EventBudgetExceeded(LivenessError):
    """The run used up its event budget (``Scenario.event_budget``)."""


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
        trace: Optional[Callable[[tuple], None]] = None,
        drop_override: Optional[DropOverride] = None,
    ) -> None:
        self.scenario = scenario
        self._heap: list[tuple] = []
        self._seq = count()                         # each event's insertion order
        self.now = 0                                # virtual time, microseconds
        self._random = random.Random(scenario.seed).random
        self.draws = 0
        # per-kind loss thresholds in the fixed 4:2:1 size-based ratio
        self.p_data = scenario.p_data
        self.p_tcp_ack = scenario.p_data / 2.0
        self.p_ll_ack = scenario.p_data / 4.0
        self.latency = scenario.hop_latency
        self._frame_ids = count()
        self.trace = trace
        self.drop_override = drop_override
        self.receiver_id = scenario.hops - 1
        self.sender = TcpSender(scenario, self)
        self.receiver = TcpReceiver(scenario, self)
        self.nodes = [CachingNode(i, scenario, self) for i in range(self.receiver_id)]
        # by node id, the ll timeout of the last frame the node awaits, held
        # while that frame is in flight; and the id of the last frame send lost
        self._held: list[Optional[tuple]] = [None] * self.receiver_id
        self._lost_frame = -1
        # indexed by node id: the sender's -1 wraps to the last entry
        self.stations = [*self.nodes, self.receiver, self.sender]

    # -- trace records ----------------------------------------------------------

    def _trace_hop(self, src: int, dst: int, payload, kind: str, delivered: bool) -> None:
        self.trace((self.now, HOP, src, dst, kind, delivered, payload))

    # -- the sink the state machines emit into ----------------------------------

    def send(self, src: int, payload) -> int:
        """Transmit one frame from src: a data segment toward the receiver,
        an ack toward the sender; its frame id."""
        frame_id = next(self._frame_ids)
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
            heappush(self._heap, (self.now + self.latency, next(self._seq), None,
                                  (dst, frame_id, payload)))
        else:
            self._lost_frame = frame_id
        if self.trace is not None:
            self._trace_hop(src, dst, payload, kind, delivered)
        return frame_id

    def schedule(self, fire_at: int, call: Callable, arg: object = None) -> None:
        """Push one timer: ``call(arg, now)`` at fire_at, which may not lie
        behind the clock."""
        if fire_at < self.now:
            raise SchedulingError(f"{call.__qualname__} scheduled at t={fire_at}us "
                                  f"behind the clock t={self.now}us")
        heappush(self._heap, (fire_at, next(self._seq), call, arg))

    def await_ll_ack(self, src: int, frame_id: int, fire_at: int, call: Callable, arg: object) -> None:
        """Arm node src's wait for the ll ack of frame_id, which it has just
        sent: a timer ``call(arg, now)`` at fire_at, no earlier than the
        frame's arrival.  It takes its insertion number here, as
        ``schedule`` would, and is pushed at once if the frame was lost, or
        else held until the frame arrives."""
        timer = (fire_at, next(self._seq), call, arg)
        if frame_id == self._lost_frame:
            heappush(self._heap, timer)
        else:
            self._held[src] = timer

    def note(self, node_id: int, action: str, seq: int) -> None:
        """Trace a cache transition; nothing else sees it, and a node notes
        only into a run that traces."""
        self.trace((self.now, DTC, node_id, action, seq))

    # -- event loop -----------------------------------------------------------------

    def run(self) -> RunMetrics:
        heap = self._heap
        rand = self._random
        trace = self.trace
        drop_override = self.drop_override
        sender = self.sender
        receiver = self.receiver
        nodes = self.nodes
        held = self._held
        stations = self.stations
        receiver_id = self.receiver_id
        # with caching off every intermediate node is a relay
        relays = not self.scenario.dtc_enabled
        latency = self.latency
        p_data = self.p_data
        p_tcp_ack = self.p_tcp_ack
        p_ll_ack = self.p_ll_ack
        budget = self.scenario.event_budget()
        processed = 0
        sender.start(self.now)
        while heap:
            now, _, call, arg = heappop(heap)
            self.now = now
            processed += 1
            if processed > budget:
                raise EventBudgetExceeded(
                    f"{self.scenario.cell_id} seed={self.scenario.seed}: "
                    f"run exceeded the {budget} event budget at t={now}us "
                    f"({receiver.delivered_in_order}/{receiver.total} delivered)"
                )
            if call is not None:
                call(arg, now)
                continue
            target, frame_id, segment = arg
            is_data = type(segment) is DataSegment
            while True:
                # drawn always, pushed only to its one reader, which then gets
                # its held ll timeout only if that may fire first (module
                # docstring)
                self.draws += 1
                acked = rand() >= p_ll_ack
                if trace is not None:
                    self._trace_hop(target, target - 1 if is_data else target + 1, segment, "llack", acked)
                if not (relays and 0 <= target < receiver_id):
                    transmitter = target - 1 if is_data else target + 1
                    if 0 <= transmitter < receiver_id:
                        node = nodes[transmitter]
                        entry = node.cache
                        # an entry holding this frame still awaits its ll ack:
                        # the ll ack and the held ll timeout are pushed no
                        # earlier than this arrival, and every other move
                        # empties or replaces the entry
                        if entry is not None and entry.frame_id == frame_id:
                            if acked:
                                heappush(heap, (now + latency, next(self._seq), node.on_ll_ack, frame_id))
                            timer = held[transmitter]
                            if not acked or timer[0] <= now + latency:
                                heappush(heap, timer)
                    if is_data:
                        stations[target].on_data(segment, now)
                    else:
                        stations[target].on_ack(segment, now)
                        if sender.completed_at is not None:
                            return self._collect()
                    break
                # a relay forwards the frame as send() would ...
                if is_data:
                    nodes[target].data_tx_count += 1
                    dst = target + 1
                    threshold = p_data
                else:
                    dst = target - 1
                    threshold = p_tcp_ack
                frame_id = next(self._frame_ids)
                forced = None
                if drop_override is not None:
                    forced = drop_override(frame_id, segment, target, dst)
                if forced is None:
                    self.draws += 1
                    delivered = rand() >= threshold
                else:
                    delivered = not forced
                if trace is not None:
                    self._trace_hop(target, dst, segment, "data" if is_data else "ack", delivered)
                if not delivered:
                    break
                # ... and carries it on as the next event, into a relay or a
                # station, while nothing queued fires first (a tie pops the
                # queued event first) and the budget allows
                at = now + latency
                if (heap and heap[0][0] <= at) or processed == budget:
                    heappush(heap, (at, next(self._seq), None, (dst, frame_id, segment)))
                    break
                now = self.now = at
                processed += 1
                target = dst
        raise LivenessError(
            f"{self.scenario.cell_id} seed={self.scenario.seed}: "
            f"event queue drained at t={self.now}us with "
            f"{receiver.delivered_in_order}/{receiver.total} segments delivered"
        )

    def _collect(self) -> RunMetrics:
        # the state machines hold this simulation as their sink; cut that
        # cycle so a finished run is freed at once, not at the next full
        # garbage collection (a sweep's peak memory would show the wait)
        for station in self.stations:
            station.out = None
        return RunMetrics(
            e2e_retransmissions=self.sender.e2e_retransmissions,
            per_node_data_tx=tuple(n.data_tx_count for n in self.nodes),
            sender_data_tx=self.sender.total_data_tx,
            completion_time=self.sender.completed_at,
            delivered_segments=self.receiver.delivered_in_order,
            local_retransmissions_total=sum(n.local_retx_count for n in self.nodes),
            rng_draws=self.draws,
        )
