import pytest

from dtcsim.engine import Simulation
from dtcsim.events import FRAME_ARRIVAL, LL_ACK_ARRIVAL, EventQueue, RandomSource
from dtcsim.harness import Scenario
from dtcsim.linklayer import derive_loss_model, transmit
from dtcsim.node import REPLACEABLE
from dtcsim.packets import AckSegment, DataSegment

from conftest import watch_pushes


class Fixed:
    """Random source stub returning the values in `first` in turn, then
    `value` for good; it counts draws."""

    def __init__(self, value, first=()):
        self.value = value
        self.first = list(first)
        self.draws = 0

    def uniform_draw(self):
        self.draws += 1
        return self.first.pop(0) if self.first else self.value


def send_data(q, rng, threshold, fid=0, seq=1, src=0, dst=1, latency=10, drop_override=None):
    return transmit(q, src, dst, fid, DataSegment(seq), threshold, latency, rng, drop_override)


# -- loss model ----------------------------------------------------------------

def test_ratio_at_ten_percent():
    model = derive_loss_model(0.10)
    assert (model.p_data, model.p_tcp_ack, model.p_ll_ack) == (0.10, 0.05, 0.025)


def test_zero_loss_model():
    assert derive_loss_model(0.0) == derive_loss_model(0.0)
    model = derive_loss_model(0.0)
    assert (model.p_data, model.p_tcp_ack, model.p_ll_ack) == (0.0, 0.0, 0.0)


def test_ratio_at_fifteen_percent():
    model = derive_loss_model(0.15)
    assert (model.p_data, model.p_tcp_ack, model.p_ll_ack) == (0.15, 0.075, 0.0375)


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
def test_out_of_range_probability_rejected(bad):
    with pytest.raises(ValueError):
        derive_loss_model(bad)


def test_link_latency_must_be_positive():
    with pytest.raises(ValueError, match="hop_latency"):
        Scenario(hops=3, p_data=0.1, dtc_enabled=True, hop_latency=0)


# -- transmit ---------------------------------------------------------------------

def test_lossless_transmit_arrives_after_latency():
    q = EventQueue()
    rng = RandomSource(1)
    assert send_data(q, rng, 0.0, fid=4, latency=10_000)
    assert q.pop_next() == (10_000, 0, 1, FRAME_ARRIVAL, (4, DataSegment(1)))


def test_threshold_semantics_survive_iff_draw_at_least_threshold():
    # with a near-one threshold, delivery needs a draw >= threshold
    q = EventQueue()
    threshold = derive_loss_model(0.999).p_data
    assert send_data(q, Fixed(0.9991), threshold)
    assert not send_data(q, Fixed(0.9989), threshold)


def test_exactly_one_draw_per_transmission():
    q = EventQueue()
    rng = RandomSource(3)
    for k in range(50):
        send_data(q, rng, 0.10, fid=k)
    ack = AckSegment(1)
    for k in range(50, 70):
        transmit(q, 1, 0, k, ack, 0.05, 10, rng)
    assert rng.draws == 70


def test_ack_frames_use_the_halved_threshold():
    # the engine sends data against p_data and TCP acks against p_tcp_ack
    sim = Simulation(Scenario(hops=3, p_data=0.8, dtc_enabled=False))
    sim.rng = Fixed(0.5)                            # p_data 0.8 > 0.5 >= p_tcp_ack 0.4
    sim.send_ack(1, AckSegment(1))
    assert sim.send_data(0, DataSegment(1)) == 1    # frame ids count every send
    assert sim.rng.draws == 2
    assert sim.queue.pop_next() == (10_000, 0, 0, FRAME_ARRIVAL, (0, AckSegment(1)))  # ack survived
    assert sim.queue.pop_next() is None                                    # data lost
    sim.rng = Fixed(0.3)
    sim.send_ack(1, AckSegment(1))
    assert len(sim.queue) == 0


def test_frame_must_match_link_endpoints():
    # the override sees the frame on the link it was sent over, and a
    # delivered frame arrives at that link's far end
    q = EventQueue()
    seen = []

    def spy(frame_id, segment, src, dst):
        seen.append((frame_id, segment, src, dst))
        return False

    assert send_data(q, RandomSource(0), 0.5, fid=9, seq=3, src=4, dst=5, drop_override=spy)
    assert seen == [(9, DataSegment(3), 4, 5)]
    assert q.pop_next()[2] == 5


def test_drop_override_forces_loss_without_a_draw():
    q = EventQueue()
    rng = RandomSource(9)
    assert not send_data(q, rng, 0.0, drop_override=lambda *frame: True)
    assert rng.draws == 0
    assert len(q) == 0


def test_drop_override_takes_precedence_over_the_draw():
    q = EventQueue()
    rng = Fixed(0.0)                                # would lose at any threshold > 0
    assert send_data(q, rng, 0.5, drop_override=lambda *frame: False)
    assert rng.draws == 0
    assert len(q) == 1
    assert not send_data(q, rng, 0.5, drop_override=lambda *frame: None)
    assert rng.draws == 1                           # None falls through to the draw


def test_delivered_fraction_monte_carlo():
    # 1e5 data transmissions at 10% loss: delivered fraction in [0.894, 0.906]
    q = EventQueue()
    rng = RandomSource(555)
    threshold = derive_loss_model(0.10).p_data
    n = 100_000
    delivered = sum(send_data(q, rng, threshold, fid=k) for k in range(n))
    assert 0.894 <= delivered / n <= 0.906


# -- link-layer acks, drawn by the engine at each arrival -------------------------------

def lone_node_run(p_data, rng=None):
    """One caching node between the endpoints relaying one segment.

    The node caches segment 1 and forwards it as frame 1 at 10 ms; it
    reaches the receiver at 20 ms.  Returns the simulation, its pushes as
    (draws so far, fire_at, target, kind, arg), the ll-acks node 0 read as
    (t, frame id, entry state after), and the trace lines.
    """
    lines = []
    sim = Simulation(Scenario(hops=2, p_data=p_data, dtc_enabled=True, total_segments=1),
                     trace=lines.append)
    if rng is not None:
        sim.rng = rng
    pushes = []
    watch_pushes(sim, lambda *push: pushes.append((sim.rng.draws,) + push))
    node = sim.nodes[0]
    read = []
    on_ll_ack = node.on_ll_ack

    def spy(frame_id):
        on_ll_ack(frame_id)
        read.append((sim.queue.now, frame_id, node.cache.state))

    node.on_ll_ack = spy
    assert sim.run().delivered_segments == 1
    return sim, pushes, read, lines


def test_lossless_delivery_is_always_ll_acknowledged():
    sim, pushes, read, _ = lone_node_run(0.0)
    # the frame's own send draw, then exactly one ll-ack draw on arrival
    assert (3, 20_000, 1, FRAME_ARRIVAL, (1, DataSegment(1))) in pushes
    assert [p for p in pushes if p[3] == LL_ACK_ARRIVAL] == [(4, 30_000, 0, LL_ACK_ARRIVAL, 1)]
    # back to the transmitter, carrying the frame id it awaits
    assert read == [(30_000, 1, REPLACEABLE)]
    # four frames: one draw to send each and one ll-ack draw per arrival
    assert sim.rng.draws == 8


def test_lost_ll_ack_never_arrives():
    # p_data 0.4: frames survive a 0.5 draw, and the ll ack (p_ll_ack 0.1)
    # of frame 1 at the receiver, the fourth draw, is lost
    sim, pushes, read, lines = lone_node_run(0.4, Fixed(0.5, first=[0.5, 0.5, 0.5, 0.05]))
    assert "HOP from=R to=0 kind=llack result=lost t=20000" in lines
    assert [p for p in pushes if p[3] == LL_ACK_ARRIVAL] == []
    assert read == []
    assert sim.rng.draws == 8                       # the lost ack was still drawn


def test_ll_ack_fraction_monte_carlo(monkeypatch):
    # every arrival draws its ll ack against p_ll_ack = 0.025 (p_data 0.10):
    # about 1e5 draws over five runs, survivors in [0.971, 0.979]
    outcomes = []
    monkeypatch.setattr(Simulation, "_trace_hop",
                        lambda self, src, dst, payload, kind, delivered:
                        kind == "llack" and outcomes.append(delivered))
    for seed in range(1, 6):
        Simulation(Scenario(hops=11, p_data=0.10, dtc_enabled=False, seed=seed),
                   trace=lambda line: None).run()
    assert len(outcomes) >= 100_000
    assert 0.971 <= sum(outcomes) / len(outcomes) <= 0.979
