"""Virtual time units and the event tuple of a run.

One run owns one event queue and one random source, both held by its
``engine.Simulation``; everything is single threaded and replayable:
equal-time events pop in insertion order, and identical seeds produce
identical draw sequences.

An event is a plain heap tuple ``(fire_at, seq, call, arg)``:

    fire_at   virtual time in integer microseconds
    seq       insertion counter, unique per run (the horizon's -1 is
              taken from no counter); makes heap order total and keeps
              equal-time events FIFO, so comparisons never reach ``call``
              or ``arg``
    call      the handler the event fires, a bound method of the station
              that is its owner (or the run's horizon, ``engine``), called
              as ``call(arg, now)``; None for a frame arrival, which the run
              loop handles itself
    arg       a frame arrival: (target node id, segment), whose seq is
              the frame's id;
              a timer (``on_ll_timeout``, ``on_local_rto``, ``on_rto``):
              its generation, stale unless it matches the owner's counter;
              the sender's pacing gate (``on_send_slot``) and the
              horizon: None

The order in which a run schedules events and consumes random draws is
part of its result: two runs agree byte for byte only if they handle the
same events in the same order and draw from the source in the same
order.  A faster engine must preserve both; it may handle an event
without pushing it, carry a frame over several hops and advance the
draw, event and clock counters once for all of them, leave
out an event that cannot change the run, hold a node's ll ack as state,
push a timer later than it was armed under the insertion number it
took then, or run a handler's branch in its loop instead of calling it,
with the handler's draws and pushes in the handler's order (``engine``
says when).
"""

from __future__ import annotations

# virtual time is integer microseconds; integers keep replay exact
US_PER_MS = 1_000
US_PER_S = 1_000_000

# the latest time a timer may fire, about 285 years: below it an int is exact
# as a float, so every mean of a run's times is too.  Scenario keeps every
# time knob, set or derived, within it, and a run stops at its first event
# past it (``engine``); the largest pinned completion time is about 2**39
MAX_TIME_US = 2**53

SENDER = -1             # node id of the TCP sender; see ``engine`` for the rest


class SchedulingError(RuntimeError):
    """An event was scheduled before the current clock (programming fault)."""
