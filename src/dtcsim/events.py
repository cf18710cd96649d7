"""Deterministic event queue, virtual clock, and seeded random source.

One run owns one queue and one random source; everything is single
threaded and replayable: equal-time events pop in insertion order, and
identical seeds produce identical draw sequences.

An event is a plain heap tuple ``(fire_at, seq, target, kind, arg)``:

    fire_at   virtual time in integer microseconds
    seq       insertion counter, unique per queue; makes heap order total
              and keeps equal-time events FIFO, so comparisons never
              reach ``kind`` or ``arg``
    target    node id the event is delivered to
    kind      one of the int codes below
    arg       FRAME_ARRIVAL: (frame_id, segment); LL_ACK_ARRIVAL: the
              acknowledged frame id; LL_TIMEOUT, LOCAL_RTO, SENDER_RTO:
              the timer generation (stale unless it matches the owner's
              counter); SEND_SLOT: None

The order in which a run schedules events and consumes random draws is
part of its result: two runs agree byte for byte only if they push the
same events in the same order and draw from the source in the same
order.  A faster engine must preserve both.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Optional

# virtual time is integer microseconds; integers keep replay exact
SimTime = int

US_PER_MS = 1_000
US_PER_S = 1_000_000

# event kinds
FRAME_ARRIVAL = 0       # a link frame reached the target node
LL_ACK_ARRIVAL = 1      # a link-layer ack reached the frame's transmitter
LL_TIMEOUT = 2          # a node's wait for a link-layer ack expired
LOCAL_RTO = 3           # a node's local retransmission timer expired
SENDER_RTO = 4          # the sender's retransmission timer expired
SEND_SLOT = 5           # the sender's pacing gate opened


class SchedulingError(RuntimeError):
    """An event was scheduled before the current clock (programming fault)."""


class EventQueue:
    """Min-heap of event tuples ordered by (fire_at, insertion order).

    ``now`` advances to each popped event's fire time.
    """

    __slots__ = ("_heap", "_counter", "now")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._counter = 0
        self.now: SimTime = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, fire_at: SimTime, target: int, kind: int, *, arg: object = None) -> None:
        """Push one event.

        ``arg`` is keyword-only, so the positional arguments of every call
        are (fire_at, target, kind): the shape perfbench records and
        replays when it times the queue on its own.
        """
        if fire_at < self.now:
            raise SchedulingError(
                f"event kind {kind} for node {target} scheduled at t={fire_at}us "
                f"behind the clock t={self.now}us"
            )
        heappush(self._heap, (fire_at, self._counter, target, kind, arg))
        self._counter += 1

    def pop_next(self) -> Optional[tuple]:
        """Next event in (fire_at, seq) order, or None when drained."""
        if not self._heap:
            return None
        event = heappop(self._heap)
        self.now = event[0]
        return event


class RandomSource:
    """Seeded uniform source; a run consumes it in event-processing order."""

    __slots__ = ("seed", "_rng", "draws")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self.draws = 0

    def uniform_draw(self) -> float:
        """One value in [0, 1); advances the generator state."""
        self.draws += 1
        return self._rng.random()
