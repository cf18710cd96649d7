"""Per-node one-segment cache with link-layer-ack-driven locking.

Each intermediate node of a caching run relays data toward the receiver
and acks toward the sender, and keeps at most one data segment cached.
The slot is node state: ``state`` is None while it is empty, and
otherwise one of three states of the segment ``cached``, which the
forward ``cached_frame_id`` cached (the insertion number of that frame's
arrival, as ``out.send`` returns it, or -1 where the frame was lost):

  * AWAITING: the node has just forwarded the segment and waits for the
    next hop's link-layer ack.  The segment pins the slot.  The ll ack
    makes it REPLACEABLE; the expiry of the wait makes it LOCKED.
  * REPLACEABLE: the next hop link-acked the segment, so it presumably
    arrived.  Newer data takes the slot; an ack that shows the segment
    still missing downstream makes it LOCKED.
  * LOCKED: the segment was presumably lost past this node.  The node
    holds a local retransmission timer at 1.5x its round-trip estimate
    to the receiver, backing off per retry (``local_retries``); after
    the last retry the node resends once more and empties the slot.

In any state, a passing ack that vouches for the cached segment empties
the slot.  A passing ack that fails to vouch for a locked segment
triggers a local retransmission, gets the segment added to its selective
set, and is dropped outright when that addition fills every gap.  Data
below the node's own forwarded cumulative point means the ack died
upstream, so the node swallows the data and regenerates the ack.

A node's timers are its own handlers, ``on_ll_timeout`` and
``on_local_rto``, armed with a generation stamp.  The local rto is armed
with ``out.schedule``.  The ll timeout is armed by the send of the frame
it waits on, ``out.send(node_id, segment, awaits_ll_ack=True)``, the
forward that fills the slot: the engine reads the rest from the node,
``ll_wait``, ``on_ll_timeout`` and ``timer_generation``, and builds the
timer only where it pushes it.  Any cache mutation bumps the node's
counter so stale expiries fall through harmlessly.  The wait for an ll
ack ends in one outcome: the engine keeps the ll ack when it lands before
the ll timeout and pushes the timeout otherwise, never both.  A kept ll
ack is no event either: the engine calls ``on_ll_ack`` just before the
node's next frame arrival that the ll ack comes before (see ``engine``).

A node is built from its id and the run's ``Scenario``, whose ll-ack
wait, local retry limit and chain geometry it reads itself.
Handlers return nothing; they emit into the sink ``out`` given at
construction (its calls are described in ``engine``), and the order of
those calls is part of every result.  A node notes its cache transitions
only when ``out.trace`` was set at its construction, so an untraced run
makes no note calls.
"""

from __future__ import annotations

from typing import Optional

from .packets import (
    ORIGIN_LOCAL,
    AckSegment,
    DataSegment,
    gaps_filled_with,
    sack_add,
    sack_covers,
)

# the states of a full cache slot (see the module docstring)
AWAITING = "awaiting"
REPLACEABLE = "replaceable"
LOCKED = "locked"


def initial_rtt(hops_to_receiver: int, hop_latency: int) -> int:
    """Topology-seeded round-trip estimate: out and back over known hops."""
    if hops_to_receiver < 1:
        raise ValueError("a relaying node is at least one hop from the receiver")
    return 2 * hops_to_receiver * hop_latency


class CachingNode:
    def __init__(self, node_id: int, scenario, out) -> None:
        self.node_id = node_id
        self.hops_to_receiver = scenario.hops - 1 - node_id
        # the one cache slot: its state, None while empty, and its segment,
        # the id of the forward that cached it (its arrival's number, -1 if
        # it was lost) and its local retries
        self.state: Optional[str] = None
        self.cached: Optional[DataSegment] = None
        self.cached_frame_id = -1
        self.local_retries = 0
        self.rtt_est = initial_rtt(self.hops_to_receiver, scenario.hop_latency)
        self.pending_rtt = {}           # seq -> forwarded_at, awaiting ack coverage
        self._seen = set()              # seqs ever relayed (first-sighting filter)
        self.last_ack_forwarded = 1     # highest cumulative ack sent toward the sender
        self.data_tx_count = 0
        self.local_retx_count = 0
        self.ll_wait = scenario.ll_wait()
        self.max_local_retries = scenario.max_local_retries
        self.timer_generation = 0
        self.out = out
        # cache transitions are noted only into a sink that traces them
        self.traced = out.trace is not None

    # -- helpers --------------------------------------------------------------

    def _resend_cached(self, seq: int) -> None:
        """Transmit the cached segment again: one local retransmission."""
        self.data_tx_count += 1
        self.local_retx_count += 1
        # Karn hygiene: a seq we retransmit ourselves yields no rtt sample
        self.pending_rtt.pop(seq, None)
        if self.traced:
            self.out.note(self.node_id, "local_retx", seq)
        self.out.send(self.node_id, DataSegment(seq, ORIGIN_LOCAL))

    def _arm_local_rto(self, now: int) -> None:
        """Arm the slot's local retransmission timer at its current tier:
        1.5x the round-trip estimate, doubled per retry."""
        self.timer_generation += 1
        self.out.schedule(now + (3 * self.rtt_est) // 2 * (1 << self.local_retries),
                          self.on_local_rto, self.timer_generation)

    def _retransmit_cached(self, now: int) -> None:
        """Resend the cached segment and restart its timer tier."""
        self._resend_cached(self.cached.seq)
        self._arm_local_rto(now)

    def _lock(self, now: int) -> None:
        """Pin the cached segment until an ack covers it; arm the first timer tier."""
        self.state = LOCKED
        self.local_retries = 0
        if self.traced:
            self.out.note(self.node_id, "lock", self.cached.seq)
        self._arm_local_rto(now)

    # -- data path ------------------------------------------------------------

    def on_data(self, segment: DataSegment, now: int) -> None:
        out = self.out
        seq = segment.seq
        if seq < self.last_ack_forwarded:
            # we already forwarded an ack covering this segment; that ack
            # evidently died upstream, so regenerate it instead of relaying
            if self.traced:
                out.note(self.node_id, "regen_ack", self.last_ack_forwarded)
            out.send(self.node_id, AckSegment(self.last_ack_forwarded))
            return
        self.data_tx_count += 1
        state = self.state
        if state is None or state == REPLACEABLE:
            # free slot, or the previous tenant was link-acknowledged and is
            # presumably received downstream; a segment still awaiting its
            # ll ack keeps the slot (it may be the one that needs us)
            self.timer_generation += 1
            if self.traced:
                out.note(self.node_id, "cache", seq)
            self.cached_frame_id = out.send(self.node_id, segment, awaits_ll_ack=True)
            self.state = AWAITING
            self.cached = segment
        else:
            out.send(self.node_id, segment)
        if seq not in self._seen:
            self._seen.add(seq)
            self.pending_rtt[seq] = now
        else:
            # a repeat pass means someone retransmitted this segment, so the
            # eventual ack coverage is ambiguous; never sample it (Karn)
            self.pending_rtt.pop(seq, None)

    def on_ll_ack(self, frame_id: int, now: int) -> None:
        if self.state == AWAITING and self.cached_frame_id == frame_id:
            self.state = REPLACEABLE
            self.timer_generation += 1      # pending ll timeout is now stale

    def on_ll_timeout(self, generation: int, now: int) -> None:
        if generation != self.timer_generation:
            return
        assert self.state == AWAITING
        self._lock(now)

    def on_local_rto(self, generation: int, now: int) -> None:
        if generation != self.timer_generation:
            return
        assert self.state == LOCKED
        self.local_retries += 1
        if self.local_retries <= self.max_local_retries:
            self._retransmit_cached(now)
        else:
            # final try: retransmit once more, then yield to end-to-end recovery
            seq = self.cached.seq
            self._resend_cached(seq)
            self.state = None
            self.timer_generation += 1
            if self.traced:
                self.out.note(self.node_id, "clear", seq)

    # -- ack path ---------------------------------------------------------------

    def on_ack(self, ack: AckSegment, now: int) -> None:
        out = self.out
        # round-trip samples for every pending segment this ack vouches for
        if self.pending_rtt:
            for seq in sorted(self.pending_rtt):
                if sack_covers(ack, seq):
                    sample = now - self.pending_rtt.pop(seq)
                    self.rtt_est = (7 * self.rtt_est + sample) // 8
        forward = ack
        state = self.state
        if state is not None:
            cached = self.cached.seq
            if sack_covers(ack, cached):
                # the receiver has it, or a node closer to the receiver does
                self.state = None
                self.timer_generation += 1
                if self.traced:
                    out.note(self.node_id, "clear", cached)
            elif state == LOCKED:
                self._retransmit_cached(now)
                if gaps_filled_with(ack, cached):
                    # with our segment back in flight nothing above the
                    # cumulative point is missing; the sender needs no ack
                    # (and must not get a synthesized cumulative one)
                    if self.traced:
                        out.note(self.node_id, "drop_ack", cached)
                    return
                forward = sack_add(ack, cached)
            elif state == REPLACEABLE:
                # the next hop link-acked this segment, yet the ack stream
                # says it is still missing downstream: lock it and vouch for
                # it; the timer (or the next uncovering ack) retransmits
                self._lock(now)
                forward = sack_add(ack, cached)
        if forward.ack_no > self.last_ack_forwarded:
            self.last_ack_forwarded = forward.ack_no
        out.send(self.node_id, forward)
