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
itself, and the sender's live timeout at an open pacing gate (below), and
makes any other event's call.  The calls are the handlers of
the protocol state machines in ``node`` and ``endpoints``, the stations.
Each is built from the run's ``Scenario``, whose knobs it reads itself:
``TcpSender(scenario, out)``, ``CachingNode(node_id, scenario, out)`` and
``TcpReceiver(scenario, out)``.  ``stations`` lists them by node id (the
sender's -1 wraps to the last entry), with None at a relay (below), and a
frame arrival goes to ``stations[target].on_data`` or ``.on_ack``, except
where that entry is None.  Every handler returns
nothing and emits straight back into the ``Simulation``, its sink ``out``
(a recorder stands in for it in unit tests):

    send(src, payload, awaits_ll_ack=False) -> number
                                          a DataSegment toward the receiver,
                                          an AckSegment toward the sender:
                                          its arrival's insertion number, -1
                                          if it is lost; awaits_ll_ack: node
                                          src waits for its ll ack (below)
    schedule(at, call, arg=None)          a timer: call(arg, now) at time at,
                                          never behind the clock, and free
                                          to lie past MAX_TIME_US (below)
    note(node_id, action, seq)            a cache transition: a DTC trace
                                          record; a node notes only into a
                                          run that traces

A run ends in its run loop, in one of three ways.  It returns its
``RunMetrics`` at the ack that completes the transfer; it raises
``EventBudgetExceeded`` at the event one past its budget; or its horizon
pops.  The horizon is one event, ``(MAX_TIME_US + 1, -1, _horizon,
None)``, pushed as the run starts.  Its -1 is taken from no counter, so
no other event's number or order moves, and it pops after every event at
or below the bound and first on a tie past it.  It raises
``TimeBoundExceeded`` naming the earliest event still queued, which lies
past the bound, or, with nothing else queued, ``LivenessError`` as a
drained queue; the TCP sender always has an rto queued, so only a stub
sender drains.  So no push checks the bound, the heap is never empty
before the horizon pops, and every event a run handles, carried ones
too, lies within the bound.  A completed run takes the horizon out of the
heap, which keeps the events still queued.

Loss is memoryless: each send makes one uniform draw against its kind's
threshold.  Data segments are the largest frames and lose most often
(``p_data``); TCP acks lose at half that rate and link-layer acks at a
quarter.  A frame that survives has its arrival pushed one hop latency
later, and the arrival's insertion number is the frame's id; a lost one
is simply gone, and recovery is someone else's job.  A drop override
(tests only) may decide a send instead of the draw.

Every arriving frame gets its link-layer ack draw, always at arrival.  An
ll ack has one reader: the transmitter of a data frame (a slot never
holds an ack frame), when that is a node whose cache slot holds that
frame, that is, the slot is not empty and its ``cached_frame_id`` is the
arrival's insertion number; insertion numbers are unique, and no arrival
has the -1 of a lost frame, so no later slot can hold it either.
Such a slot still awaits the ll ack, since neither its ll ack nor its ll
timeout (below) can come before the frame arrives, so the run reads no
more of its state than that it is full.

A node awaits that ll ack for the frame it sends with
``send(src, payload, awaits_ll_ack=True)``, the forward that fills its
slot.  The wait's timer is the node's ``on_ll_timeout`` at its
``ll_wait`` after the send, with its ``timer_generation``.  If the frame
was lost, ``send`` pushes it at once, taking its insertion number there
as ``schedule`` would.  Otherwise the run builds the timer only where it
pushes it, at the frame's arrival, from what it reads there: the send
time is the arrival time less one hop latency; the number is the
arrival's own ``seq``, free once the arrival pops, and so in the same
place among all other numbers as one taken in ``send`` right after the
arrival's; and the generation is the node's, which no move changes while
the slot still holds the frame (an ack that passes an AWAITING slot
either empties it, bumping the generation, or leaves it alone, and the
wait's own two outcomes come no earlier than the arrival).  There the
wait ends in one outcome, never both: after the ll-ack draw the run keeps
the ll ack if it survived and lands before the timer's time, which
landing it stales, and pushes the timer otherwise.  The ll ack lands a
hop latency after the arrival, two after the send, so it can land first
only in a run whose ``ll_wait`` is over two hop latencies: one test per
run, not per frame.  A pushed timer pops at or before the landing (on a
tie the timer, which took its number before the ll ack, pops first), and
locks the slot or finds it stale, so the ll ack could change nothing.  A
node that no longer holds the frame gets neither: its timer is stale
already.  The timer's time is never before the arrival, so a timer
pushed there pops just where it would have popped had it been pushed
when armed.

A kept ll ack is node state, not an event: the run stores
``(lands_at, seq, frame)`` as the node's entry of ``_ll_acks``, the ll
ack taking its insertion number ``seq`` there as a push would, and
``frame`` the number of its frame's arrival.  ``_ll_acks``
holds one entry per caching node and one more, always None, that an
arrival at the sender or the receiver reads.  Just before a frame arrival
hands a frame to that node, the run applies the ll ack, as
``nodes[n].on_ll_ack(frame, now)``, if it comes before the arrival in
``(time, seq)``: a tie in time goes by insertion number.  The node's
timers need no apply: the ll timeout of a kept ll ack is never pushed; a
live local rto belongs to a ``LOCKED`` slot, which an ll ack leaves
alone; and every other timer of the node is stale either way.  An ll ack
that no later arrival at its node applies changes nothing that is read.

Leaving these events out keeps every draw and the relative order of
every other event, so the results are the same as if every surviving ll
ack and every timer were pushed; ``tests/reference_loop.py`` runs that
naive schedule and checks it.

So the order in which a handler emits is the order of draws and pushes,
and it is part of every result; keep it when editing a handler.

With caching off every intermediate node is a relay: no ``CachingNode``
is built, ``nodes`` is empty, and the relay's entry of ``stations`` is
None.  The run loop forwards a frame arriving there itself, counting a
data frame's transmission in ``relay_data_tx`` by node id.  A run that
traces or has a drop override forwards it with ``send``, so ``send`` is
the one place that asks the override for a frame or traces it.
Any other run carries the frame on as the next arrival without a heap
push and pop, through the next relays, to where it is lost or into the
sender's or the receiver's handler.  Each carried hop is one loss draw
against the frame's threshold, the arrival's ll-ack draw (no node awaits
it, so it is drawn and not kept) and the relay's count; after the carry
the draw counter, the processed events and the clock advance once by
the hops carried, a frame that stops at a relay having made one more
loss draw than arrivals.  No node awaits a carried frame's ll ack, so
none reads its id.  The carry stops, and the arrival is pushed with the
clock at the last carried hop, when a queued event fires at or before
the arrival (on a tie the queued event, pushed earlier, pops first), the
horizon among them, or when one more event would exceed the budget.
No relay pushes, so the head of the heap stays put during a carry, and
that bound is computed once, before its first hop; a queued event at
the carry's own time allows no hop.  Otherwise each arrival is the very
next event the heap would pop, so carrying it processes the same events
in the same order.  A skipped push takes no insertion number; the
counter still grows with every push, so no two events change their
relative order.  A carried hop counts as a processed event, so the
budget cuts a run at the same event.

``send`` holds the first surviving frame it sends since the run loop
last took an event, instead of pushing it, and pushes any further one.
At the top of the loop a held frame goes through ``heappushpop``: it is
the next event itself, without touching the heap, unless a queued event
comes first in ``(time, seq)``; then that event pops and the frame goes
into the heap.  The frame took its insertion number in ``send``, so the
events come in the same order either way, and the endpoints', the
caching nodes' and a traced or driven run's relays' frames need no heap
round trip while nothing queued comes first.  An untraced relay keeps
the carry above: sending every relayed frame through the slot made
caching-off runs slower (ROADMAP, "Tried and dropped"), and a traced
caching-off run, which does, is slower for it (README, "Performance").
The slot is open only inside ``run``, so a ``send`` outside a run pushes
every frame.  The reference loop has its own ``send``, which pushes every
frame and every awaited ll timeout and counts the data frames on the
wire, and its own ``schedule``.

The sender's timeout is most of a caching-off run's pops, and the run loop
handles it itself where it can.  As the run starts it takes the sender's
``on_rto`` as the loop will pop it, a bound method equal to every one the
sender pushes, or None where that is not the unwrapped
``TcpSender.on_rto``: a class-level or an instance-level wrapper, or a
stub that is a plain function.  With None the loop calls every timeout's
handler.  Otherwise a popped timer whose call equals it is the sender's
timeout.  One of a stale generation changes nothing.  One that finds the
pacing gate busy, a seq queued in it or the clock before its next free
time, calls the handler.  At an open gate the loop runs the handler's
open-gate branch itself: the backoff rule; the resend of
``in_flight[cumulative]``, with its counters and the gate's next free
time; and the re-arm at ``now + min(rto << backoff, rto_max)`` with the
next generation, pushing the popped call again under an insertion number
taken after the resend's, as ``_arm_rto`` does.  The resend is the
event's first send, so the slot is empty: an untraced, undriven run makes
its draw and holds the frame itself, as the relay carry does, and a
traced or driven one sends it with ``send``.  So every push, draw and
processed event is the handler's, and ``on_rto`` stays the one full
definition of the timeout, which the reference loop and the unit tests
call; an edit to its open-gate branch must be made here too.

A run given a ``trace`` callable passes it one tuple per event, built only
when the callable is there:

    (t, HOP, src, dst, kind, delivered, payload)   a frame or ll ack on a link
    (t, DTC, node_id, action, seq)                 a cache transition

``kind`` is "data", "ack" or "llack"; an llack record carries the payload
of the frame it acknowledges.  ``renderer(hops, write)`` is the one code
that turns records into trace text.  It is a context manager, ``with
renderer(hops, write) as sink:``, whose ``sink`` is such a callable: it
formats each record as its whole line, newline included, and passes
``write`` one string of ``TRACE_CHUNK_LINES`` whole lines at a time.  The
``with`` writes the lines still held as it exits, whether its body
returned or raised, so every line is written before an error leaves it.
``dtcsim run --trace`` passes ``sys.stdout.write``; a caller that wants
the lines passes ``list.append`` and splits the joined text.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from heapq import heappop, heappush, heappushpop
from itertools import count
from typing import Callable, Iterator, NamedTuple, Optional

from .events import MAX_TIME_US, SENDER, SchedulingError
from .endpoints import TcpReceiver, TcpSender
from .node import CachingNode
from .packets import DataSegment

# A drop override lets tests script exact losses.  It is called as
# drop_override(segment, src, dst) and returns True to force a loss, False
# to force delivery, None to fall through to the random draw.
DropOverride = Callable[[object, int, int], Optional[bool]]


# the unwrapped sender timeout, whose open-gate branch the run loop runs
# itself; captured as the package imports, before anything can wrap it
_SENDER_ON_RTO = TcpSender.on_rto

# the tag at index 1 of a trace record
HOP = "HOP"
DTC = "DTC"

# the lines a renderer joins into one write, about 40 KB of trace; the
# trace-run workload ran equally fast from 32 to 1,024 lines a chunk
# (2 vCPU, Python 3.11.7), 13 % slower at one and 4 % at 8,192
TRACE_CHUNK_LINES = 512


def render_payload(payload) -> str:
    """Stable textual form of a segment: the tail of each data and ack line
    that ``renderer`` writes, and so of the golden traces."""
    if type(payload) is DataSegment:
        return f"DATA seq={payload.seq} origin={payload.origin}"
    inner = ",".join(map(str, sorted(payload.sack)))
    return f"ACK no={payload.ack_no} sack={{{inner}}}"


@contextmanager
def renderer(hops: int, write: Callable[[str], object]) -> Iterator[Callable[[tuple], None]]:
    """The trace sink of one run over ``hops`` links, for the length of a
    ``with`` block.

    The sink formats each record as its whole line, newline included, and
    holds it; every ``TRACE_CHUNK_LINES`` records it hands ``write`` the
    lines held, joined into one string.  On exit, whether the body returned
    or raised, it writes the lines still held, so a run that raises has
    written every record before its error leaves the ``with``.  The lines
    are dropped before each write, so a write that raised is not retried.
    Nodes are named S (the sender), 0 .. hops-2 and R (the receiver).
    """
    # indexed by node id: the sender's -1 wraps to the last entry
    names = [*map(str, range(hops - 1)), "R", "S"]
    lines: list[str] = []
    append = lines.append
    # the chunk's payload texts by payload: a text is a function of the
    # value, and a DataSegment never equals an AckSegment; most frames
    # cross several hops within one chunk
    texts: dict = {}

    def flush() -> None:
        chunk = "".join(lines)
        lines.clear()
        texts.clear()
        write(chunk)

    def sink(record: tuple) -> None:
        if record[1] == HOP:
            t, _, src, dst, kind, delivered, payload = record
            result = "delivered" if delivered else "lost"
            if kind == "llack":
                append(f"HOP from={names[src]} to={names[dst]} kind=llack result={result} t={t}\n")
            else:
                text = texts.get(payload)
                if text is None:
                    text = texts[payload] = render_payload(payload)
                append(f"HOP from={names[src]} to={names[dst]} kind={kind} result={result} "
                       f"t={t} {text}\n")
        else:
            t, _, node_id, action, seq = record
            append(f"DTC node={node_id} action={action} seq={seq} t={t}\n")
        if len(lines) == TRACE_CHUNK_LINES:
            flush()

    try:
        yield sink
    finally:
        if lines:
            flush()


class LivenessError(RuntimeError):
    """The run stopped without completing: its event budget ran out, or its
    horizon popped, with an event queued past ``MAX_TIME_US`` or, raised
    as this class itself, with its queue drained.  The message starts with
    ``<cell_id> seed=<seed>: ``."""


class EventBudgetExceeded(LivenessError):
    """The run used up its event budget (``Scenario.event_budget``)."""


class TimeBoundExceeded(LivenessError):
    """The run's horizon popped with an event queued past ``MAX_TIME_US``;
    the message names the earliest such event, a handler's qualified name
    or "a frame arrival", and its time."""


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
        self.trace = trace
        self.drop_override = drop_override
        self.receiver_id = scenario.hops - 1
        self.sender = TcpSender(scenario, self)
        self.receiver = TcpReceiver(scenario, self)
        # with caching off no node is built: every intermediate node is a
        # relay, which the run loop runs itself, counting its data
        # transmissions here by node id
        self.nodes = [CachingNode(i, scenario, self)
                      for i in range(self.receiver_id)] if scenario.dtc_enabled else []
        relays = self.receiver_id - len(self.nodes)
        # indexed by node id, None at a relay: the sender's -1 wraps to the
        # last entry
        self.stations = self.nodes + [None] * relays + [self.receiver, self.sender]
        self.relay_data_tx = [0] * relays
        # by node id, the ll ack a node has yet to apply, as (lands_at, seq,
        # the number of its frame's arrival); an endpoint reads the last
        # entry, which stays None
        self._ll_acks: list[Optional[tuple]] = [None] * (len(self.nodes) + 1)
        # the frame arrival send holds for the run loop to take next, None
        # while the slot is empty; () closes it until run() starts, so a
        # send outside a run pushes every frame
        self._next: Optional[tuple] = ()

    # -- trace records ----------------------------------------------------------

    def _trace_hop(self, src: int, dst: int, payload, kind: str, delivered: bool) -> None:
        self.trace((self.now, HOP, src, dst, kind, delivered, payload))

    # -- the sink the state machines emit into ----------------------------------

    def send(self, src: int, payload, awaits_ll_ack: bool = False) -> int:
        """Transmit one frame from src: a data segment toward the receiver,
        an ack toward the sender.  A surviving frame is held for the run
        loop when the slot is empty, and pushed otherwise; its arrival's
        insertion number is returned, and -1 for a lost frame.  With
        awaits_ll_ack, node src waits for the frame's ll ack: a lost
        frame's ll timeout is pushed here, a surviving one's is built at
        its arrival (module docstring)."""
        if type(payload) is DataSegment:
            dst = src + 1
            threshold = self.p_data
        else:
            dst = src - 1
            threshold = self.p_tcp_ack
        drop = self.drop_override
        if drop is not None and (forced := drop(payload, src, dst)) is not None:
            delivered = not forced
        else:
            self.draws += 1
            delivered = self._random() >= threshold
        number = -1
        if delivered:
            number = next(self._seq)
            arrival = (self.now + self.latency, number, None, (dst, payload))
            if self._next is None:
                self._next = arrival
            else:
                heappush(self._heap, arrival)
        elif awaits_ll_ack:
            node = self.nodes[src]
            heappush(self._heap, (self.now + node.ll_wait, next(self._seq), node.on_ll_timeout,
                                  node.timer_generation))
        if self.trace is not None:
            self._trace_hop(src, dst, payload, "data" if dst > src else "ack", delivered)
        return number

    def schedule(self, fire_at: int, call: Callable, arg: object = None) -> None:
        """Push one timer: ``call(arg, now)`` at fire_at, which may not lie
        behind the clock.  It may lie past ``MAX_TIME_US``: the run's
        horizon stops the run before it pops (module docstring)."""
        if fire_at < self.now:
            raise SchedulingError(f"{call.__qualname__} scheduled at t={fire_at}us "
                                  f"behind the clock t={self.now}us")
        heappush(self._heap, (fire_at, next(self._seq), call, arg))

    def note(self, node_id: int, action: str, seq: int) -> None:
        """Trace a cache transition; nothing else sees it, and a node notes
        only into a run that traces."""
        self.trace((self.now, DTC, node_id, action, seq))

    # -- event loop -----------------------------------------------------------------

    def run(self) -> RunMetrics:
        heap = self._heap
        rand = self._random
        trace = self.trace
        # a traced or driven run relays through send(), the one place that
        # traces a frame or asks the override
        by_send = trace is not None or self.drop_override is not None
        sender = self.sender
        # the sender's timeout as the loop pops it, None where it is wrapped
        # or stubbed: then the loop calls every timeout's handler
        sender_rto = sender.on_rto
        if getattr(sender_rto, "__func__", None) is not _SENDER_ON_RTO:
            sender_rto = None
        else:
            rto_max = sender.rto_max
            in_flight = sender.in_flight
            spacing = sender.spacing
            tx_queue = sender._tx_queue
        nodes = self.nodes
        n_nodes = len(nodes)
        relay_data_tx = self.relay_data_tx
        ll_acks = self._ll_acks
        stations = self.stations
        latency = self.latency
        p_data = self.p_data
        p_tcp_ack = self.p_tcp_ack
        p_ll_ack = self.p_ll_ack
        # an ll ack lands a hop latency after its frame's arrival, and the
        # node's ll timeout fires its ll wait after the send: the ll ack can
        # come first only if the wait spans more than the round trip
        ll_ack_first = self.scenario.ll_wait() > 2 * latency
        budget = self.scenario.event_budget()
        processed = 0
        self._next = None
        # the horizon takes no insertion number, so it moves no other event
        heappush(heap, (MAX_TIME_US + 1, -1, self._horizon, None))
        sender.start(self.now)
        while True:
            arrival = self._next
            if arrival is not None:
                # the first frame the last event sent: the next event itself
                # unless a queued one comes first
                self._next = None
                now, seq, call, arg = heappushpop(heap, arrival)
            else:
                now, seq, call, arg = heappop(heap)
            self.now = now
            processed += 1
            if processed > budget:
                raise EventBudgetExceeded(
                    f"{self.scenario.cell_id} seed={self.scenario.seed}: "
                    f"run exceeded the {budget} event budget at t={now}us "
                    f"({self.receiver.delivered_in_order}/{self.receiver.total} delivered)"
                )
            if call is not None:
                if call == sender_rto:
                    # the sender's own timeout (module docstring): a stale
                    # one changes nothing, a busy gate takes the handler,
                    # and the handler's open-gate branch runs here
                    if arg != sender.rto_generation:
                        continue
                    if not tx_queue and now >= sender._next_free_at:
                        # the backoff rule, and the re-arm's timeout
                        # min(rto << backoff, rto_max) after it
                        timeout = sender.rto << sender.backoff
                        if timeout < rto_max:
                            sender.backoff += 1
                            timeout <<= 1
                            if timeout > rto_max:
                                timeout = rto_max
                        else:
                            timeout = rto_max
                        # resend the oldest segment, a retransmission
                        entry = in_flight[sender.cumulative]
                        sender.e2e_retransmissions += 1
                        entry[1] += 1
                        if by_send:
                            self.send(SENDER, entry[2])
                        else:
                            # the slot is empty: this is the event's first send
                            self.draws += 1
                            if rand() >= p_data:
                                self._next = (now + latency, next(self._seq), None,
                                              (SENDER + 1, entry[2]))
                        sender._next_free_at = now + spacing
                        # re-armed as _arm_rto would: the next generation,
                        # numbered after the resend, with the same call
                        sender.rto_generation = arg = arg + 1
                        heappush(heap, (now + timeout, next(self._seq), call, arg))
                        continue
                call(arg, now)
                continue
            target, segment = arg
            is_data = type(segment) is DataSegment
            # drawn always, kept only for its one reader when it lands
            # before the reader's ll timeout, which is pushed otherwise
            # (module docstring)
            self.draws += 1
            acked = rand() >= p_ll_ack
            if trace is not None:
                self._trace_hop(target, target - 1 if is_data else target + 1, segment, "llack", acked)
            station = stations[target]
            if station is None:
                # a relay forwards the frame: through send() in a traced or
                # driven run ...
                if is_data:
                    relay_data_tx[target] += 1
                if by_send:
                    self.send(target, segment)
                    continue
                # ... and otherwise carries it on, hop by hop, as the next
                # event, into a relay or a station, while nothing queued
                # fires first (a tie pops the queued event first) and the
                # budget allows.  No relay pushes, so the bound holds for
                # the whole carry; a queued event at now itself allows none,
                # and the horizon keeps every carried hop within MAX_TIME_US
                room = budget - processed
                gap = (heap[0][0] - now - 1) // latency
                if gap < room:
                    room = gap if gap > 0 else 0
                step = 1 if is_data else -1
                threshold = p_data if is_data else p_tcp_ack
                hops = 0
                while rand() >= threshold:
                    if hops == room:
                        # the clock at the last carried hop, as a push reads it
                        self.now = now + hops * latency
                        heappush(heap, (self.now + latency, next(self._seq), None,
                                        (target + step, segment)))
                        break
                    hops += 1
                    target += step
                    # the arrival's ll-ack draw: with caching off no node
                    # awaits it, so nothing reads it
                    rand()
                    station = stations[target]
                    if station is not None:
                        break
                    if is_data:
                        relay_data_tx[target] += 1
                # a loss draw and an ll-ack draw per hop carried, and a frame
                # that stops at a relay, lost or pushed, made one loss draw more
                self.draws += 2 * hops + (station is None)
                processed += hops
                now = self.now = now + hops * latency
                if station is None:
                    continue
                # into an endpoint, with caching off: no node awaits an ll
                # ack or keeps one, so acked and seq go unread
            if is_data and 0 < target <= n_nodes:
                # the transmitter, when its slot holds this frame, still
                # awaits the ll ack: the ll ack and the ll timeout come no
                # earlier than this arrival, and every other move empties or
                # refills the slot.  No node awaits an ack frame's ll ack
                node = nodes[target - 1]
                if node.state is not None and node.cached_frame_id == seq:
                    if acked and ll_ack_first:
                        ll_acks[target - 1] = (now + latency, next(self._seq), seq)
                    else:
                        # the timer the frame's send armed, numbered with
                        # the arrival's own number
                        heappush(heap, (now - latency + node.ll_wait, seq,
                                        node.on_ll_timeout, node.timer_generation))
            # the target node's ll ack, if it comes before this arrival in
            # (time, seq)
            pending = ll_acks[target if target < n_nodes else -1]
            if pending is not None and pending < (now, seq):
                ll_acks[target] = None
                station.on_ll_ack(pending[2], now)
            if is_data:
                station.on_data(segment, now)
            else:
                station.on_ack(segment, now)
                if sender.completed_at is not None:
                    return self._collect()

    def _horizon(self, arg: None, now: int) -> None:
        """Stop the run: past ``MAX_TIME_US``, naming the earliest event
        still queued, or, with nothing queued, as drained."""
        head = f"{self.scenario.cell_id} seed={self.scenario.seed}: "
        if not self._heap:
            raise LivenessError(f"{head}event queue drained with {self.receiver.delivered_in_order}"
                                f"/{self.receiver.total} segments delivered")
        fire_at, _, call, _ = self._heap[0]
        raise TimeBoundExceeded(
            f"{head}{'a frame arrival' if call is None else call.__qualname__} scheduled at "
            f"t={fire_at}us, past the {MAX_TIME_US} us bound on virtual time")

    def _collect(self) -> RunMetrics:
        # the state machines hold this simulation as their sink, and the
        # horizon is its method; cut those references so a finished run is
        # freed at once, not at the next full garbage collection (a sweep's
        # peak memory would show the wait).  The heap keeps every other
        # event still queued
        self._heap.remove((MAX_TIME_US + 1, -1, self._horizon, None))
        for station in (*self.nodes, self.receiver, self.sender):
            station.out = None
        return RunMetrics(
            e2e_retransmissions=self.sender.e2e_retransmissions,
            # one of the two lists is empty
            per_node_data_tx=tuple([n.data_tx_count for n in self.nodes] + self.relay_data_tx),
            # each segment is sent once, and once more per retransmission
            sender_data_tx=self.scenario.total_segments + self.sender.e2e_retransmissions,
            completion_time=self.sender.completed_at,
            delivered_segments=self.receiver.delivered_in_order,
            local_retransmissions_total=sum(n.local_retx_count for n in self.nodes),
            rng_draws=self.draws,
        )
