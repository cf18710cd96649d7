"""Simplified TCP endpoints: fixed-window sender and in-order receiver.

The endpoints are deliberately stock TCP: the sender keeps a small
receiver-advertised window, an adaptive retransmission timeout with
exponential backoff, and timeout-driven recovery (fast retransmit exists
behind a flag, default off).  Neither endpoint knows anything about the
in-network caches between them.

Both are built from the run's ``Scenario`` and read their knobs from it:
the sender its transfer size, window, RTO bounds, pacing and
fast-retransmit knobs, the receiver its transfer size and its node id
``hops - 1``.  Their handlers return nothing; they emit into the sink
``out`` given at construction (its calls are described in ``engine``).
The sender emits segments toward the chain and schedules its own
handlers: ``on_rto`` for the retransmission timer, with its generation,
and ``on_send_slot`` for the next opening of the pacing gate.  The
receiver just answers each segment with its ack.

The sender builds each ``DataSegment`` once, when the window admits its
seq, and keeps it in the seq's ``in_flight`` entry; every transmission,
first or repeat, sends that stored value.  The keys of ``in_flight`` are
always ``range(cumulative, next_new)``, so the oldest unacknowledged
segment is ``cumulative``.  A timeout that finds the pacing gate open and
empty resends that segment itself; only a closed or busy gate takes it
through the gate's queue.  The run loop (``engine``) runs that open-gate
branch of the unwrapped ``on_rto`` itself, reading and writing the
sender's fields as the handler does, so an edit to the branch must be
made there too; the reference loop, which always calls ``on_rto``, and
the pins check that the two agree.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .events import SENDER
from .packets import ORIGIN_E2E, AckSegment, DataSegment


def update_rto(srtt: Optional[int], rttvar: int, sample: int, rto_min: int = 0):
    """One adaptive-timeout update from a new round-trip sample.

    First sample seeds srtt = sample and rttvar = sample / 2; afterwards
    rttvar blends with gain 1/4 (against the old srtt) and srtt with gain
    1/8.  The timeout is srtt + 4*rttvar floored at rto_min.  Integer
    microseconds throughout.
    """
    if srtt is None:
        new_srtt = sample
        new_rttvar = sample // 2
    else:
        new_rttvar = (3 * rttvar + abs(srtt - sample)) // 4
        new_srtt = (7 * srtt + sample) // 8
    return new_srtt, new_rttvar, max(rto_min, new_srtt + 4 * new_rttvar)


class TcpSender:
    """Window-clamped sender driving one unidirectional transfer.

    Outgoing data passes a pacing gate that enforces a minimum spacing
    between consecutive transmissions (the stand-in for frame
    serialization time, which the per-hop latency constant otherwise
    absorbs).  With spacing 0 the gate is transparent.
    """

    def __init__(self, scenario, out) -> None:
        self.total = scenario.total_segments
        self.window = scenario.window
        self.out = out
        self.next_new = 1               # lowest never-sent segment
        self.cumulative = 1             # receiver's next expected segment
        self.in_flight = {}             # seq -> [first_sent_at | None, transmissions, segment]
        self.srtt: Optional[int] = None
        self.rttvar = 0
        self.rto = scenario.effective_rto_initial()
        self.rto_min = scenario.effective_rto_min()
        self.rto_max = scenario.rto_max
        self.backoff = 0
        self.rto_generation = 0
        self.fast_retransmit = scenario.fast_retransmit
        self.dup_acks = 0
        self.e2e_retransmissions = 0
        self.completed_at: Optional[int] = None
        self.spacing = scenario.effective_send_spacing()
        self._tx_queue = deque()        # seqs waiting in the pacing gate
        self._next_free_at = 0
        self._slot_armed = False

    # -- pacing gate --------------------------------------------------------

    def _queue_tx(self, seq: int) -> None:
        if seq not in self._tx_queue:
            self._tx_queue.append(seq)

    def _drain(self, now: int) -> None:
        while self._tx_queue and now >= self._next_free_at:
            seq = self._tx_queue.popleft()
            entry = self.in_flight.get(seq)
            if entry is None:
                continue                # acknowledged while waiting in the gate
            if entry[1]:                # sent before: a retransmission
                self.e2e_retransmissions += 1
            else:
                entry[0] = now
            entry[1] += 1
            self.out.send(SENDER, entry[2])
            self._next_free_at = now + self.spacing
        if self._tx_queue and not self._slot_armed:
            self._slot_armed = True
            self.out.schedule(self._next_free_at, self.on_send_slot)

    def on_send_slot(self, arg: None, now: int) -> None:
        self._slot_armed = False
        self._drain(now)

    # -- timer --------------------------------------------------------------

    def _arm_rto(self, now: int) -> None:
        self.rto_generation += 1
        self.out.schedule(now + min(self.rto << self.backoff, self.rto_max),
                          self.on_rto, self.rto_generation)

    # -- transfer -----------------------------------------------------------

    def _fill_window(self, now: int) -> None:
        """Queue never-sent segments up to the window, then drain the gate."""
        while self.next_new <= self.total and len(self.in_flight) < self.window:
            self.in_flight[self.next_new] = [None, 0, DataSegment(self.next_new, ORIGIN_E2E)]
            self._tx_queue.append(self.next_new)
            self.next_new += 1
        self._drain(now)

    def start(self, now: int) -> None:
        """Queue the initial window (segments 1..w) and arm the timer."""
        self._fill_window(now)
        self._arm_rto(now)

    def on_ack(self, ack: AckSegment, now: int) -> None:
        if ack.ack_no < self.cumulative:
            return                      # stale duplicate
        if ack.ack_no > self.cumulative:
            for seq in range(self.cumulative, ack.ack_no):
                entry = self.in_flight.pop(seq)
                # round-trip sample from each newly covered segment that was
                # never retransmitted (Karn's rule); acks delayed behind a
                # recovery legitimately stretch the estimate
                if entry[1] == 1:
                    self.srtt, self.rttvar, self.rto = update_rto(
                        self.srtt, self.rttvar, now - entry[0], self.rto_min
                    )
            self.cumulative = ack.ack_no
            self.backoff = 0
            self.dup_acks = 0
            self._fill_window(now)
            if self.cumulative == self.total + 1:
                self.completed_at = now
            else:
                self._arm_rto(now)
            return
        # duplicate at the current cumulative point: recover by timeout
        # unless fast retransmit is switched on
        self.dup_acks += 1
        if self.fast_retransmit and self.dup_acks == 3:
            self._queue_tx(self.cumulative)
            self._drain(now)

    def on_rto(self, generation: int, now: int) -> None:
        if generation != self.rto_generation:
            return
        # back off only up to the ceiling: every later timeout is rto_max,
        # and the shifted value stays a small int
        if self.rto << self.backoff < self.rto_max:
            self.backoff += 1
        if self._tx_queue or now < self._next_free_at:
            # the gate is busy: queue the oldest behind it (a no-op when the
            # never-sent oldest is still waiting there)
            self._queue_tx(self.cumulative)
            self._drain(now)
        else:
            # an empty gate has sent everything in flight, so this is a
            # retransmission; resend it here, as _drain would
            entry = self.in_flight[self.cumulative]
            self.e2e_retransmissions += 1
            entry[1] += 1
            self.out.send(SENDER, entry[2])
            self._next_free_at = now + self.spacing
        self._arm_rto(now)


class TcpReceiver:
    """In-order delivery with selective acknowledgment of the holes above."""

    def __init__(self, scenario, out) -> None:
        self.total = scenario.total_segments
        self.node_id = scenario.hops - 1
        self.out = out
        self.next_expected = 1
        self.out_of_order = set()

    @property
    def delivered_in_order(self) -> int:
        return self.next_expected - 1

    def on_data(self, segment: DataSegment, now: int) -> None:
        """Absorb one segment; always answer with the current ack."""
        seq = segment.seq
        if seq == self.next_expected:
            self.next_expected += 1
            while self.next_expected in self.out_of_order:
                self.out_of_order.discard(self.next_expected)
                self.next_expected += 1
        elif seq > self.next_expected:
            self.out_of_order.add(seq)
        # duplicates below next_expected change nothing but still get re-acked
        self.out.send(self.node_id, AckSegment(self.next_expected, frozenset(self.out_of_order)))
