import pytest

from dtcsim.engine import Simulation
from dtcsim.events import FRAME_ARRIVAL, LL_ACK_ARRIVAL, EventQueue, RandomSource
from dtcsim.harness import Scenario
from dtcsim.linklayer import derive_loss_model, ll_acknowledge, transmit
from dtcsim.packets import AckSegment, DataSegment


class Fixed:
    """Random source stub returning one value and counting draws."""

    def __init__(self, value):
        self.value = value
        self.draws = 0

    def uniform_draw(self):
        self.draws += 1
        return self.value


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


# -- link-layer acks -----------------------------------------------------------------

def test_lossless_delivery_is_always_ll_acknowledged():
    q = EventQueue()
    rng = RandomSource(2)
    assert ll_acknowledge(q, 3, 77, 0.0, 10_000, rng)
    assert rng.draws == 1
    # back to the transmitter, carrying the acknowledged frame id
    assert q.pop_next() == (10_000, 0, 3, LL_ACK_ARRIVAL, 77)


def test_lost_ll_ack_never_arrives():
    q = EventQueue()
    p_ll_ack = derive_loss_model(0.10).p_ll_ack
    assert not ll_acknowledge(q, 0, 0, p_ll_ack, 10, Fixed(0.0))
    assert len(q) == 0


def test_ll_ack_fraction_monte_carlo():
    # deliveries at p_data=0.10 (p_ll_ack=0.025): arrivals in [0.971, 0.979]
    q = EventQueue()
    rng = RandomSource(31337)
    p_ll_ack = derive_loss_model(0.10).p_ll_ack
    n = 100_000
    acked = sum(ll_acknowledge(q, 0, k, p_ll_ack, 10, rng) for k in range(n))
    assert 0.971 <= acked / n <= 0.979
