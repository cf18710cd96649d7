"""The link layer, which the engine carries out: one loss draw per send
against the 4:2:1 per-kind thresholds, the drop override, the arrival one
hop latency later, and the link-layer ack drawn at every arrival."""

import functools

import pytest

from dtcsim.engine import HOP, Simulation
from dtcsim.harness import Scenario
from dtcsim.node import REPLACEABLE
from dtcsim.packets import AckSegment, DataSegment

from conftest import ScriptedDrops, watch_pushes


class Fixed:
    """Stand-in for a simulation's generator: returns the values in `first`
    in turn, then `value` for good."""

    def __init__(self, value, first=()):
        self.value = value
        self.first = list(first)

    def __call__(self):
        return self.first.pop(0) if self.first else self.value


def make_sim(p_data, hops=8, latency=10, draw=None, drop_override=None):
    sim = Simulation(Scenario(hops=hops, p_data=p_data, dtc_enabled=False, hop_latency=latency),
                     drop_override=drop_override)
    if draw is not None:
        sim._random = draw
    return sim


def send_data(sim, seq=1, src=0):
    """One data send; True when its arrival was pushed."""
    pushed = len(sim._heap)
    sim.send(src, DataSegment(seq))
    return len(sim._heap) > pushed


def thresholds(p_data):
    sim = make_sim(p_data)
    return sim.p_data, sim.p_tcp_ack, sim.p_ll_ack


# -- loss model ----------------------------------------------------------------

def test_ratio_at_ten_percent():
    assert thresholds(0.10) == (0.10, 0.05, 0.025)


def test_zero_loss_model():
    assert thresholds(0.0) == (0.0, 0.0, 0.0)


def test_ratio_at_fifteen_percent():
    assert thresholds(0.15) == (0.15, 0.075, 0.0375)


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
def test_out_of_range_probability_rejected(bad):
    with pytest.raises(ValueError, match="p_data"):
        Scenario(hops=3, p_data=bad, dtc_enabled=True)


def test_link_latency_must_be_positive():
    with pytest.raises(ValueError, match="hop_latency"):
        Scenario(hops=3, p_data=0.1, dtc_enabled=True, hop_latency=0)


# -- one send ---------------------------------------------------------------------

def test_lossless_transmit_arrives_after_latency():
    sim = make_sim(0.0, latency=10_000)
    assert sim.send(0, DataSegment(1)) == 0
    assert sim._heap == [(10_000, 0, None, (1, 0, DataSegment(1)))]


def test_threshold_semantics_survive_iff_draw_at_least_threshold():
    # with a near-one threshold, delivery needs a draw >= threshold
    assert send_data(make_sim(0.999, draw=Fixed(0.999)))
    assert send_data(make_sim(0.999, draw=Fixed(0.9991)))
    assert not send_data(make_sim(0.999, draw=Fixed(0.9989)))


def test_exactly_one_draw_per_transmission():
    sim = make_sim(0.10)
    for seq in range(50):
        sim.send(0, DataSegment(seq))
    for _ in range(20):
        sim.send(1, AckSegment(1))
    assert sim.draws == 70


def test_ack_frames_use_the_halved_threshold():
    # the engine sends data against p_data and TCP acks against p_tcp_ack
    sim = make_sim(0.8, hops=3, latency=10_000, draw=Fixed(0.5))  # p_data 0.8 > 0.5 >= 0.4
    sim.send(1, AckSegment(1))
    assert sim.send(0, DataSegment(1)) == 1    # frame ids count every send
    assert sim.draws == 2
    assert sim._heap == [(10_000, 0, None, (0, 0, AckSegment(1)))]  # ack survived, data lost
    sim._random = Fixed(0.3)
    sim.send(1, AckSegment(1))
    assert len(sim._heap) == 1


def test_frame_must_match_link_endpoints():
    # the override sees the frame on the link it was sent over, and a
    # delivered frame arrives at that link's far end
    seen = []

    def spy(frame_id, segment, src, dst):
        seen.append((frame_id, segment, src, dst))
        return False

    sim = make_sim(0.5, drop_override=spy)
    sim.send(3, AckSegment(2))
    assert send_data(sim, seq=3, src=4)
    assert seen == [(0, AckSegment(2), 3, 2), (1, DataSegment(3), 4, 5)]
    assert sorted(arg[0] for _, _, _, arg in sim._heap) == [2, 5]


def test_drop_override_forces_loss_without_a_draw():
    sim = make_sim(0.0, drop_override=lambda *frame: True)
    assert not send_data(sim)
    sim.send(1, AckSegment(1))
    assert sim.draws == 0
    assert sim._heap == []


def test_drop_override_takes_precedence_over_the_draw():
    verdict = [False]
    sim = make_sim(0.5, draw=Fixed(0.0), drop_override=lambda *frame: verdict[0])  # 0.0 loses
    assert send_data(sim)
    assert sim.draws == 0
    assert len(sim._heap) == 1
    verdict[0] = None
    assert not send_data(sim)
    assert sim.draws == 1                           # None falls through to the draw


def test_delivered_fraction_monte_carlo():
    # 1e5 data transmissions at 10% loss: delivered fraction in [0.894, 0.906]
    sim = make_sim(0.10)
    n = 100_000
    for seq in range(n):
        sim.send(0, DataSegment(seq))
    assert 0.894 <= len(sim._heap) / n <= 0.906


# -- link-layer acks, drawn by the engine at each arrival -------------------------------

def lone_node_run(p_data, draw=None):
    """One caching node between the endpoints relaying one segment.

    The node caches segment 1 and forwards it as frame 1 at 10 ms; it
    reaches the receiver at 20 ms.  Returns the simulation, its pushes as
    (draws so far, fire_at, call, arg), the ll-acks node 0 read as
    (t, frame id, entry state after), and the trace records.
    """
    records = []
    sim = Simulation(Scenario(hops=2, p_data=p_data, dtc_enabled=True, total_segments=1),
                     trace=records.append)
    if draw is not None:
        sim._random = draw
    pushes = []
    node = sim.nodes[0]
    read = []
    on_ll_ack = node.on_ll_ack

    @functools.wraps(on_ll_ack)
    def spy(frame_id, now):
        on_ll_ack(frame_id, now)
        read.append((sim.now, frame_id, node.cache.state))

    node.on_ll_ack = spy
    with watch_pushes(lambda *push: pushes.append((sim.draws,) + push)):
        assert sim.run().delivered_segments == 1
    return sim, pushes, read, records


def ll_ack_pushes(pushes):
    return [p for p in pushes if getattr(p[2], "__name__", None) == "on_ll_ack"]


def test_lossless_delivery_is_always_ll_acknowledged():
    sim, pushes, read, _ = lone_node_run(0.0)
    # the frame's own send draw, then exactly one ll-ack draw on arrival
    assert (3, 20_000, None, (1, 1, DataSegment(1))) in pushes
    assert ll_ack_pushes(pushes) == [(4, 30_000, sim.nodes[0].on_ll_ack, 1)]
    # back to the transmitter, carrying the frame id it awaits
    assert read == [(30_000, 1, REPLACEABLE)]
    # four frames: one draw to send each and one ll-ack draw per arrival
    assert sim.draws == 8


def test_lost_ll_ack_never_arrives():
    # p_data 0.4: frames survive a 0.5 draw, and the ll ack (p_ll_ack 0.1)
    # of frame 1 at the receiver, the fourth draw, is lost
    sim, pushes, read, records = lone_node_run(0.4, Fixed(0.5, first=[0.5, 0.5, 0.5, 0.05]))
    assert (20_000, HOP, 1, 0, "llack", False, DataSegment(1)) in records
    assert ll_ack_pushes(pushes) == []
    assert read == []
    assert sim.draws == 8                           # the lost ack was still drawn


def ll_timeout_pushes(p_data, draw=None, drop_override=None, ll_wait_multiplier=3):
    """(time of the push, fire_at, generation) of each ll timeout pushed in a
    lone-node run (see lone_node_run): node 0 forwards frame 1 at 10 ms
    and, at the default ll wait of three hop latencies, awaits its ll ack
    until 40 ms."""
    sim = Simulation(Scenario(hops=2, p_data=p_data, dtc_enabled=True, total_segments=1,
                              ll_wait_multiplier=ll_wait_multiplier),
                     drop_override=drop_override)
    if draw is not None:
        sim._random = draw
    pushes = []

    def on_push(fire_at, call, arg):
        if getattr(call, "__name__", None) == "on_ll_timeout":
            pushes.append((sim.now, fire_at, arg))

    with watch_pushes(on_push):
        assert sim.run().delivered_segments == 1
    return pushes


def test_ll_timeout_of_a_lost_frame_is_pushed_at_its_send():
    pushes = ll_timeout_pushes(0.0, drop_override=ScriptedDrops({(1, 0): 1}))
    assert pushes[0] == (10_000, 40_000, 1)


def test_ll_timeout_of_a_lost_ll_ack_is_pushed_at_the_frame_arrival():
    # the draws of test_lost_ll_ack_never_arrives: frame 1 arrives at 20 ms
    # and its ll ack is lost
    pushes = ll_timeout_pushes(0.4, Fixed(0.5, first=[0.5, 0.5, 0.5, 0.05]))
    assert pushes[0] == (20_000, 40_000, 1)


def test_ll_timeout_answered_by_its_ll_ack_is_never_pushed():
    # the ll ack lands at 30 ms, before the timer's 40 ms
    assert ll_timeout_pushes(0.0) == []


def test_ll_timeout_tied_with_its_ll_ack_is_pushed_at_the_frame_arrival():
    # at two hop latencies the timer fires at 30 ms, as the ll ack lands; it
    # was armed at the send, before the ll ack was pushed, so it pops first
    assert ll_timeout_pushes(0.0, ll_wait_multiplier=2) == [(20_000, 30_000, 1)]


def test_ll_ack_fraction_monte_carlo():
    # every arrival draws its ll ack against p_ll_ack = 0.025 (p_data 0.10):
    # about 1e5 draws over five runs, survivors in [0.971, 0.979]
    outcomes = []

    def sink(record):
        if record[1] == HOP and record[4] == "llack":
            outcomes.append(record[5])

    for seed in range(1, 6):
        Simulation(Scenario(hops=11, p_data=0.10, dtc_enabled=False, seed=seed),
                   trace=sink).run()
    assert len(outcomes) >= 100_000
    assert 0.971 <= sum(outcomes) / len(outcomes) <= 0.979
