"""Per-node one-segment cache with link-layer-ack-driven locking.

Each intermediate node of a caching run relays data toward the receiver
and acks toward the sender, and keeps at most one data segment cached, as
an entry in one of three states:

  * AWAITING: the node has just forwarded the segment and waits for the
    next hop's link-layer ack.  The entry pins the slot.  The ll ack
    makes it REPLACEABLE; the expiry of the wait makes it LOCKED.
  * REPLACEABLE: the next hop link-acked the segment, so it presumably
    arrived.  Newer data takes the slot; an ack that shows the segment
    still missing downstream makes it LOCKED.
  * LOCKED: the segment was presumably lost past this node.  The entry
    holds a local retransmission timer at 1.5x the node's round-trip
    estimate to the receiver, backing off per retry; after the last
    retry the node resends once more and empties the slot.

In any state, a passing ack that vouches for the cached segment empties
the slot.  A passing ack that fails to vouch for a locked segment
triggers a local retransmission, gets the segment added to its selective
set, and is dropped outright when that addition fills every gap.  Data
below the node's own forwarded cumulative point means the ack died
upstream, so the node swallows the data and regenerates the ack.

A node's timers are its own handlers, ``on_ll_timeout`` and
``on_local_rto``, armed with a generation stamp: the ll timeout with
``out.await_ll_ack`` right after the send of the frame it waits on, the
local rto with ``out.schedule``.  Any cache mutation bumps the node's
counter so stale expiries fall through harmlessly; the engine does not
even push an ll timeout whose ll ack lands first (see ``engine``).

With caching off a node's handlers never run: the engine's run loop
relays every frame itself and counts the node's data transmissions.

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

# cache entry states (see the module docstring)
AWAITING = "awaiting"
REPLACEABLE = "replaceable"
LOCKED = "locked"


def initial_rtt(hops_to_receiver: int, hop_latency: int) -> int:
    """Topology-seeded round-trip estimate: out and back over known hops."""
    if hops_to_receiver < 1:
        raise ValueError("a relaying node is at least one hop from the receiver")
    return 2 * hops_to_receiver * hop_latency


class CacheEntry:
    __slots__ = ("segment", "state", "frame_id", "local_retries")

    def __init__(self, segment: DataSegment, frame_id: int) -> None:
        self.segment = segment
        self.state = AWAITING
        self.frame_id = frame_id
        self.local_retries = 0


class CachingNode:
    def __init__(self, node_id: int, scenario, out) -> None:
        self.node_id = node_id
        self.hops_to_receiver = scenario.hops - 1 - node_id
        self.cache: Optional[CacheEntry] = None
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

    def _arm_local_rto(self, entry: CacheEntry, now: int) -> None:
        """Arm the entry's local retransmission timer at its current tier:
        1.5x the round-trip estimate, doubled per retry."""
        self.timer_generation += 1
        self.out.schedule(now + (3 * self.rtt_est) // 2 * (1 << entry.local_retries),
                          self.on_local_rto, self.timer_generation)

    def _retransmit_cached(self, entry: CacheEntry, now: int) -> None:
        """Resend the cached segment and restart its timer tier."""
        self._resend_cached(entry.segment.seq)
        self._arm_local_rto(entry, now)

    def _lock(self, entry: CacheEntry, now: int) -> None:
        """Pin the entry until an ack covers it; arm the first timer tier."""
        entry.state = LOCKED
        entry.local_retries = 0
        if self.traced:
            self.out.note(self.node_id, "lock", entry.segment.seq)
        self._arm_local_rto(entry, now)

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
        entry = self.cache
        if entry is None or entry.state == REPLACEABLE:
            # free slot, or the previous tenant was link-acknowledged and is
            # presumably received downstream; an entry still awaiting its
            # ll ack keeps the slot (it may be the one that needs us)
            self.timer_generation += 1
            if self.traced:
                out.note(self.node_id, "cache", seq)
            frame_id = out.send(self.node_id, segment)
            self.cache = CacheEntry(segment, frame_id)
            out.await_ll_ack(self.node_id, frame_id, now + self.ll_wait, self.on_ll_timeout,
                             self.timer_generation)
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
        entry = self.cache
        if entry is not None and entry.state == AWAITING and entry.frame_id == frame_id:
            entry.state = REPLACEABLE
            self.timer_generation += 1      # pending ll timeout is now stale

    def on_ll_timeout(self, generation: int, now: int) -> None:
        if generation != self.timer_generation:
            return
        entry = self.cache
        assert entry is not None and entry.state == AWAITING
        self._lock(entry, now)

    def on_local_rto(self, generation: int, now: int) -> None:
        if generation != self.timer_generation:
            return
        entry = self.cache
        assert entry is not None and entry.state == LOCKED
        entry.local_retries += 1
        if entry.local_retries <= self.max_local_retries:
            self._retransmit_cached(entry, now)
        else:
            # final try: retransmit once more, then yield to end-to-end recovery
            seq = entry.segment.seq
            self._resend_cached(seq)
            self.cache = None
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
        entry = self.cache
        if entry is not None:
            cached = entry.segment.seq
            if sack_covers(ack, cached):
                # the receiver has it, or a node closer to the receiver does
                self.cache = None
                self.timer_generation += 1
                if self.traced:
                    out.note(self.node_id, "clear", cached)
            elif entry.state == LOCKED:
                self._retransmit_cached(entry, now)
                if gaps_filled_with(ack, cached):
                    # with our segment back in flight nothing above the
                    # cumulative point is missing; the sender needs no ack
                    # (and must not get a synthesized cumulative one)
                    if self.traced:
                        out.note(self.node_id, "drop_ack", cached)
                    return
                forward = sack_add(ack, cached)
            elif entry.state == REPLACEABLE:
                # the next hop link-acked this segment, yet the ack stream
                # says it is still missing downstream: lock it and vouch for
                # it; the timer (or the next uncovering ack) retransmits
                self._lock(entry, now)
                forward = sack_add(ack, cached)
        if forward.ack_no > self.last_ack_forwarded:
            self.last_ack_forwarded = forward.ack_no
        out.send(self.node_id, forward)
