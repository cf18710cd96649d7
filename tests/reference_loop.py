"""A naive run loop that every shortcut of the engine's must match.

``Reference`` is a ``Simulation`` whose ``run`` skips nothing:

  * every frame that survives its link is pushed and popped, and a relay
    (a node id whose station is None) forwards it with ``send``, so no
    frame is carried;
  * every surviving frame's ll ack is pushed to its transmitter when that
    is a caching node, whose ``on_ll_ack`` ignores a frame it does not
    await;
  * every timer a station arms is pushed when it is armed, an awaited ll
    timeout through ``schedule`` right after its frame's send.

It has its own ``send``, ``schedule``, trace records and ``_collect``, so
no shortcut of the engine's transmit, push, trace or counter collection
is shared with it, and the same stations, the same draws and the same
drop override as the engine; the events it adds emit nothing.  It counts
the data frames its ``send`` transmits, by sending node, and the
sender's repeats of a seq, and reports those as the run's transmissions
and end-to-end retransmissions, so the stations' own counters are checked
against the wire, not shared with it.  So a run that completes in both
gives equal RunMetrics and equal trace records, and where the engine cuts
a run at its event budget, its records are a prefix of the reference's.

It pushes no horizon and bounds no time: a timer past ``MAX_TIME_US``
pops like any other, and its queue may drain.  It is compared with the
engine only on grids whose runs end far below that bound.
"""

from heapq import heappop, heappush

from dtcsim.engine import HOP, EventBudgetExceeded, LivenessError, RunMetrics, Simulation
from dtcsim.events import SENDER, SchedulingError
from dtcsim.packets import DataSegment

# the reference pops at most one ll ack and one stale timer more than the
# engine per frame arrival the engine processes, so 3x the engine's budget
# takes it at least as far as the engine goes
BUDGET_FACTOR = 3


class Reference(Simulation):
    def __init__(self, scenario, trace=None, drop_override=None):
        super().__init__(scenario, trace, drop_override)
        # data frames on the wire by sending node id (the sender's -1 is
        # the last entry), the seqs the sender has sent and its repeats
        self.data_sends = [0] * (scenario.hops + 1)
        self.sender_seqs = set()
        self.sender_repeats = 0

    def _trace_hop(self, src, dst, payload, kind, delivered):
        self.trace((self.now, HOP, src, dst, kind, delivered, payload))

    def send(self, src, payload, awaits_ll_ack=False):
        is_data = type(payload) is DataSegment
        dst = src + 1 if is_data else src - 1
        if is_data:
            self.data_sends[src] += 1
            if src == SENDER:
                self.sender_repeats += payload.seq in self.sender_seqs
                self.sender_seqs.add(payload.seq)
        forced = None
        if self.drop_override is not None:
            forced = self.drop_override(payload, src, dst)
        if forced is None:
            self.draws += 1
            delivered = self._random() >= (self.p_data if is_data else self.p_tcp_ack)
        else:
            delivered = not forced
        number = -1
        if delivered:
            number = next(self._seq)
            heappush(self._heap, (self.now + self.latency, number, None, (dst, payload)))
        if self.trace is not None:
            self._trace_hop(src, dst, payload, "data" if is_data else "ack", delivered)
        if awaits_ll_ack:
            node = self.nodes[src]
            self.schedule(self.now + node.ll_wait, node.on_ll_timeout, node.timer_generation)
        return number

    def schedule(self, fire_at, call, arg=None):
        if fire_at < self.now:
            raise SchedulingError(f"{call.__qualname__} scheduled at t={fire_at}us behind the clock")
        heappush(self._heap, (fire_at, next(self._seq), call, arg))

    def run(self):
        heap = self._heap
        budget = BUDGET_FACTOR * self.scenario.event_budget()
        processed = 0
        self.sender.start(self.now)
        while heap:
            now, seq, call, arg = heappop(heap)
            self.now = now
            processed += 1
            if processed > budget:
                raise EventBudgetExceeded(f"reference run exceeded the {budget} event budget")
            if call is not None:
                call(arg, now)
                continue
            target, segment = arg
            is_data = type(segment) is DataSegment
            transmitter = target - 1 if is_data else target + 1
            self.draws += 1
            acked = self._random() >= self.p_ll_ack
            if acked and 0 <= transmitter < len(self.nodes):
                heappush(heap, (now + self.latency, next(self._seq),
                                self.nodes[transmitter].on_ll_ack, seq))
            if self.trace is not None:
                self._trace_hop(target, transmitter, segment, "llack", acked)
            if self.stations[target] is None:
                self.send(target, segment)
            elif is_data:
                self.stations[target].on_data(segment, now)
            else:
                self.stations[target].on_ack(segment, now)
                if self.sender.completed_at is not None:
                    return self._collect()
        raise LivenessError(f"reference run drained its queue at t={self.now}us")

    def _collect(self):
        # the transmissions as counted on the wire; a node's own resend
        # cannot be told there from a forwarded local segment, so its local
        # retransmissions are the node's count
        return RunMetrics(
            e2e_retransmissions=self.sender_repeats,
            per_node_data_tx=tuple(self.data_sends[:self.receiver_id]),
            sender_data_tx=self.data_sends[SENDER],
            completion_time=self.sender.completed_at,
            delivered_segments=self.receiver.delivered_in_order,
            local_retransmissions_total=sum(node.local_retx_count for node in self.nodes),
            rng_draws=self.draws,
        )
