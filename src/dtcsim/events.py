"""Event kinds, virtual time units and the event tuple of a run.

One run owns one event queue and one random source, both held by its
``engine.Simulation``; everything is single threaded and replayable:
equal-time events pop in insertion order, and identical seeds produce
identical draw sequences.

An event is a plain heap tuple ``(fire_at, seq, target, kind, arg)``:

    fire_at   virtual time in integer microseconds
    seq       insertion counter, unique per run; makes heap order total
              and keeps equal-time events FIFO, so comparisons never
              reach ``kind`` or ``arg``
    target    node id the event is delivered to
    kind      one of the int codes below
    arg       FRAME_ARRIVAL: (frame_id, segment); LL_ACK_ARRIVAL: the
              acknowledged frame id; LL_TIMEOUT, LOCAL_RTO, SENDER_RTO:
              the timer generation (stale unless it matches the owner's
              counter); SEND_SLOT: None

The order in which a run schedules events and consumes random draws is
part of its result: two runs agree byte for byte only if they handle the
same events in the same order and draw from the source in the same
order.  A faster engine must preserve both; it may handle an event
without pushing it (``engine`` says when).
"""

from __future__ import annotations

# virtual time is integer microseconds; integers keep replay exact
US_PER_MS = 1_000
US_PER_S = 1_000_000

SENDER = -1             # node id of the TCP sender; see ``engine`` for the rest

# event kinds
FRAME_ARRIVAL = 0       # a link frame reached the target node
LL_ACK_ARRIVAL = 1      # a link-layer ack reached the frame's transmitter; the
                        # ack is drawn for every frame, but pushed only to a
                        # node whose cache entry awaits it
LL_TIMEOUT = 2          # a node's wait for a link-layer ack expired
LOCAL_RTO = 3           # a node's local retransmission timer expired
SENDER_RTO = 4          # the sender's retransmission timer expired
SEND_SLOT = 5           # the sender's pacing gate opened


class SchedulingError(RuntimeError):
    """An event was scheduled before the current clock (programming fault)."""
