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

    def __call__(self, frame_id, segment, src, dst):
        if type(segment) is DataSegment:
            key = (segment.seq, src)
            if self.remaining.get(key, 0) > 0:
                self.remaining[key] -= 1
                return True
        return None


class Recorder:
    """A sink for a node or a sender that records what they emit, in order.

    Stands in for the engine (see ``dtcsim.engine`` for the calls): ``send``
    hands out frame ids 0, 1, 2, ... to every frame, data or ack.  Each
    call is recorded as a tuple:

        ("send", src, payload, frame_id)
        ("schedule", fire_at, target, kind, arg)
        ("note", node_id, action, seq)
    """

    def __init__(self) -> None:
        self.calls = []
        self.next_frame_id = 0

    def send(self, src, payload):
        frame_id = self.next_frame_id
        self.next_frame_id += 1
        self.calls.append(("send", src, payload, frame_id))
        return frame_id

    def schedule(self, fire_at, target, kind, arg=None):
        self.calls.append(("schedule", fire_at, target, kind, arg))

    def note(self, node_id, action, seq):
        self.calls.append(("note", node_id, action, seq))


def emitted(handler, *args):
    """Call one handler of a node or sender; the calls it made on its sink."""
    out = handler.__self__.out
    out.calls.clear()
    assert handler(*args) is None
    return list(out.calls)


@contextmanager
def watch_pushes(on_push):
    """Call ``on_push(fire_at, target, kind, arg)`` just before each event
    push a Simulation makes inside the block, while the run's state is as
    the pusher left it."""
    push = engine.heappush

    def watched(heap, event):
        fire_at, _, target, kind, arg = event
        on_push(fire_at, target, kind, arg)
        push(heap, event)

    with mock.patch.object(engine, "heappush", watched):
        yield
