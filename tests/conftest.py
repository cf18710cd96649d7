import sys
from contextlib import contextmanager
from unittest import mock

from dtcsim import engine
from dtcsim.packets import DataSegment


class ScriptedDrops:
    """Force specific data-frame losses: {(seq, src_node): times_to_drop}.

    Anything unmatched falls through to the scenario's random loss draw.
    """

    def __init__(self, rules):
        self.remaining = dict(rules)

    def __call__(self, segment, src, dst):
        if type(segment) is DataSegment:
            key = (segment.seq, src)
            if self.remaining.get(key, 0) > 0:
                self.remaining[key] -= 1
                return True
        return None


class Recorder:
    """A sink for a node, the sender or the receiver that records what it
    emits, in order.

    Stands in for the engine (see ``dtcsim.engine`` for the calls): ``send``
    hands out frame ids 0, 1, 2, ... to every frame, data or ack, where
    the engine returns its arrival's insertion number.  Each
    call is recorded as a tuple; a timer's ``call`` is the station's bound
    handler, which compares equal to ``station.on_rto`` and the like.  A
    send that awaits its ll ack is recorded as the send and then the timer
    the engine arms for the wait, read from the node and the ``now`` of
    the handler that sends:

        ("send", src, payload, frame_id)
        ("schedule", fire_at, call, arg)    from schedule, and from send
                                            with awaits_ll_ack
        ("note", node_id, action, seq)
    """

    # not None: a node notes its cache transitions only into a sink that traces
    trace = True

    def __init__(self) -> None:
        self.calls = []
        self.next_frame_id = 0

    def send(self, src, payload, awaits_ll_ack=False):
        frame_id = self.next_frame_id
        self.next_frame_id += 1
        self.calls.append(("send", src, payload, frame_id))
        if awaits_ll_ack:
            handler = sys._getframe(1).f_locals
            node, now = handler["self"], handler["now"]
            self.schedule(now + node.ll_wait, node.on_ll_timeout, node.timer_generation)
        return frame_id

    def schedule(self, fire_at, call, arg=None):
        self.calls.append(("schedule", fire_at, call, arg))

    def note(self, node_id, action, seq):
        self.calls.append(("note", node_id, action, seq))


def emitted(handler, *args):
    """Call one handler of a station; the calls it made on its sink."""
    out = handler.__self__.out
    out.calls.clear()
    assert handler(*args) is None
    return list(out.calls)


@contextmanager
def watch_pushes(on_push):
    """Call ``on_push(fire_at, call, arg)`` just before each event push a
    Simulation makes inside the block, while the run's state is as the
    pusher left it.  A frame the run loop takes from its held slot counts
    as pushed only when a queued event comes first, so that it goes into
    the heap."""
    push, pushpop = engine.heappush, engine.heappushpop

    def watched(heap, event):
        fire_at, _, call, arg = event
        on_push(fire_at, call, arg)
        push(heap, event)

    def watched_pushpop(heap, event):
        if heap and heap[0] < event:
            fire_at, _, call, arg = event
            on_push(fire_at, call, arg)
        return pushpop(heap, event)

    with mock.patch.object(engine, "heappush", watched), \
            mock.patch.object(engine, "heappushpop", watched_pushpop):
        yield
