"""The link layer, which the engine carries out: one loss draw per send
against the 4:2:1 per-kind thresholds, the drop override, the arrival one
hop latency later, and the link-layer ack drawn at every arrival."""

import functools

import pytest

from dtcsim.engine import HOP, Simulation
from dtcsim.harness import Scenario
from dtcsim.node import AWAITING, LOCKED, REPLACEABLE
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


def make_sim(p_data, hops=8, latency=10, draw=None, drop_override=None, total_segments=500):
    sim = Simulation(Scenario(hops=hops, p_data=p_data, dtc_enabled=False, hop_latency=latency,
                              total_segments=total_segments),
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
    assert sim.send(0, DataSegment(1)) == 0     # the arrival's insertion number
    assert sim._heap == [(10_000, 0, None, (1, DataSegment(1)))]


def test_threshold_semantics_survive_iff_draw_at_least_threshold():
    # with a near-one threshold, delivery needs a draw >= threshold; one
    # segment over two hops keeps the event budget at this loss under its cap
    def near_one(draw):
        return make_sim(0.999, hops=2, total_segments=1, draw=Fixed(draw))

    assert send_data(near_one(0.999))
    assert send_data(near_one(0.9991))
    assert not send_data(near_one(0.9989))


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
    assert sim.send(1, AckSegment(1)) == 0      # the arrival's insertion number
    assert sim.send(0, DataSegment(1)) == -1    # lost: no arrival
    assert sim.draws == 2
    assert sim._heap == [(10_000, 0, None, (0, AckSegment(1)))]  # ack survived, data lost
    sim._random = Fixed(0.3)
    assert sim.send(1, AckSegment(1)) == -1
    assert len(sim._heap) == 1


def test_frame_must_match_link_endpoints():
    # the override sees the frame on the link it was sent over, and a
    # delivered frame arrives at that link's far end
    seen = []

    def spy(segment, src, dst):
        seen.append((segment, src, dst))
        return False

    sim = make_sim(0.5, drop_override=spy)
    sim.send(3, AckSegment(2))
    assert send_data(sim, seq=3, src=4)
    assert seen == [(AckSegment(2), 3, 2), (DataSegment(3), 4, 5)]
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

def log_node_calls(sim, log):
    """Append (node id, handler, t, slot state before, slot state after) to
    log at each call of a node handler of sim; None stands for an empty
    slot."""
    for node in sim.nodes:
        for name in ("on_data", "on_ack", "on_ll_ack", "on_ll_timeout", "on_local_rto"):
            handler = getattr(node, name)

            @functools.wraps(handler)
            def spy(arg, now, handler=handler, node=node):
                before = node.state
                handler(arg, now)
                log.append((node.node_id, handler.__name__, sim.now, before, node.state))

            setattr(node, name, spy)


def lone_node_run(p_data, draw=None, **knobs):
    """One caching node between the endpoints relaying one segment.

    The node caches segment 1 and forwards it as frame 1 at 10 ms; it
    reaches the receiver at 20 ms, and the receiver's ack reaches the node
    at 30 ms.  Returns the simulation, its pushes as (draws so far,
    fire_at, call, arg), node 0's handler calls (see log_node_calls) and
    the trace records.
    """
    records = []
    sim = Simulation(Scenario(hops=2, p_data=p_data, dtc_enabled=True, total_segments=1, **knobs),
                     trace=records.append)
    if draw is not None:
        sim._random = draw
    pushes = []
    calls = []
    log_node_calls(sim, calls)
    with watch_pushes(lambda *push: pushes.append((sim.draws,) + push)):
        assert sim.run().delivered_segments == 1
    return sim, pushes, calls, records


def ll_ack_pushes(pushes):
    return [p for p in pushes if getattr(p[2], "__name__", None) == "on_ll_ack"]


def test_lossless_delivery_is_always_ll_acknowledged():
    sim, pushes, calls, records = lone_node_run(0.0)
    # frame 1's ll ack, drawn as the frame reaches the receiver at 20 ms,
    # is kept as node 0's state and never pushed
    assert (20_000, HOP, 1, 0, "llack", True, DataSegment(1)) in records
    assert ll_ack_pushes(pushes) == []
    # it lands at 30 ms, as the receiver's ack arrives.  That ack was pushed
    # later, when the receiver sent it after the ll-ack draw, so the tie
    # goes to the ll ack: node 0 applies it just before on_ack reads the
    # entry, which is REPLACEABLE by then
    assert calls == [(0, "on_data", 10_000, None, AWAITING),
                     (0, "on_ll_ack", 30_000, AWAITING, REPLACEABLE),
                     (0, "on_ack", 30_000, REPLACEABLE, None)]
    # four frames: one draw to send each and one ll-ack draw per arrival
    assert sim.draws == 8


def test_lost_ll_ack_never_arrives():
    # p_data 0.4: frames survive a 0.5 draw, and the ll ack (p_ll_ack 0.1)
    # of frame 1 at the receiver, the fourth draw, is lost
    sim, pushes, calls, records = lone_node_run(0.4, Fixed(0.5, first=[0.5, 0.5, 0.5, 0.05]))
    assert (20_000, HOP, 1, 0, "llack", False, DataSegment(1)) in records
    assert ll_ack_pushes(pushes) == []
    assert [call for call in calls if call[1] == "on_ll_ack"] == []
    assert sim.draws == 8                           # the lost ack was still drawn


def test_an_ll_ack_tied_with_an_earlier_pushed_arrival_at_its_node_is_applied_after_it():
    # 3 hops, segments 20 ms apart: the sender's slot at 20 ms sends segment
    # 2 before node 0's frame 1 reaches node 1 and draws its ll ack, so both
    # reach node 0 at 30 ms, segment 2 first.  Node 0 still awaits the ll
    # ack then and relays segment 2 uncached; the ll ack is applied at the
    # node's next arrival
    sim = Simulation(Scenario(hops=3, p_data=0.0, dtc_enabled=True, total_segments=2, window=2,
                              send_spacing=20_000))
    calls = []
    log_node_calls(sim, calls)
    assert sim.run().delivered_segments == 2
    assert [call for call in calls if call[0] == 0] == [
        (0, "on_data", 10_000, None, AWAITING),
        (0, "on_data", 30_000, AWAITING, AWAITING),
        (0, "on_ll_ack", 50_000, AWAITING, REPLACEABLE),
        (0, "on_ack", 50_000, REPLACEABLE, None),
        (0, "on_ack", 70_000, None, None),
    ]


@pytest.mark.parametrize("ll_wait_multiplier, fires_at", [(1, 20_000), (2, 30_000)],
                         ids=["wait1", "wait2"])
def test_an_ll_timeout_at_or_before_the_landing_locks_and_no_ll_ack_is_kept(
        ll_wait_multiplier, fires_at):
    # the lone node's ll timeout fires at or before its ll ack would land at
    # 30 ms: the engine pushes the timer and keeps no ll ack, so the wait
    # ends in the timer alone, which finds the entry AWAITING and locks it
    sim, _, calls, _ = lone_node_run(0.0, ll_wait_multiplier=ll_wait_multiplier)
    assert calls == [(0, "on_data", 10_000, None, AWAITING),
                     (0, "on_ll_timeout", fires_at, AWAITING, LOCKED),
                     (0, "on_ack", 30_000, LOCKED, None)]
    # one generation each for the cache, the lock and the clear
    assert sim.nodes[0].timer_generation == 3


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


def test_ll_timeout_of_a_lost_forward_is_pushed_at_its_send():
    pushes = ll_timeout_pushes(0.0, drop_override=ScriptedDrops({(1, 0): 1}))
    assert pushes[0] == (10_000, 40_000, 1)


def always_lost(segment, src, dst):
    return True


@pytest.mark.parametrize("src, payload, dtc_enabled", [
    (-1, DataSegment(1), True),
    (3, AckSegment(2), True),
    (1, DataSegment(1), False),
], ids=["sender", "receiver", "relay"])
def test_a_lost_send_that_awaits_no_ll_ack_pushes_nothing(src, payload, dtc_enabled):
    # only the forward that fills a node's slot awaits its ll ack; any other
    # lost send is simply gone, here on a traced 4-hop chain
    records = []
    sim = Simulation(Scenario(hops=4, p_data=0.1, dtc_enabled=dtc_enabled),
                     trace=records.append, drop_override=always_lost)
    pushes = []
    with watch_pushes(lambda *event: pushes.append(event)):
        sim.send(src, payload)
    assert pushes == [] and sim._heap == []
    assert [record[5] for record in records] == [False]


def test_a_node_forwarding_past_its_busy_slot_pushes_nothing_for_a_lost_send():
    # the first forward fills the slot and its loss pushes its ll timeout;
    # the second passes the AWAITING slot and awaits nothing
    sim = Simulation(Scenario(hops=4, p_data=0.1, dtc_enabled=True), drop_override=always_lost)
    node = sim.nodes[1]
    pushes = []
    with watch_pushes(lambda *event: pushes.append(event)):
        node.on_data(DataSegment(1), 0)
        node.on_data(DataSegment(2), 0)
    assert (node.state, node.cached) == (AWAITING, DataSegment(1))
    assert pushes == [(node.ll_wait, node.on_ll_timeout, node.timer_generation)]


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


# -- the caching-off carry, which runs on into the endpoints ---------------------------

def arrival_pushes(hops=3, **knobs):
    """A lossless caching-off run: (time of the push, fire_at, target) of
    each frame arrival pushed, and the run's metrics."""
    sim = Simulation(Scenario(hops=hops, p_data=0.0, dtc_enabled=False, **knobs))
    pushes = []

    def on_push(fire_at, call, arg):
        if call is None:
            pushes.append((sim.now, fire_at, arg[0]))

    with watch_pushes(on_push):
        metrics = sim.run()
    return pushes, metrics


def endpoint_pushes(**knobs):
    """As arrival_pushes over 3 hops, for the frames pushed toward the
    sender or the receiver."""
    pushes, metrics = arrival_pushes(**knobs)
    return [push for push in pushes if push[2] in (-1, 2)], metrics


def test_a_carried_frame_enters_the_endpoint_when_nothing_queued_fires_first():
    # the data reaches R at 30 ms and its ack reaches S at 60 ms, each as the
    # next event the heap would pop, so neither is pushed
    pushes, metrics = endpoint_pushes(total_segments=1)
    assert pushes == []
    assert (metrics.rng_draws, metrics.completion_time) == (12, 60_000)


def test_a_frame_toward_an_endpoint_is_pushed_when_a_queued_frame_fires_first():
    # segment 2 leaves S at 15 ms, so each of the first three arrivals at an
    # endpoint finds a frame queued before it; only the last ack is carried
    pushes, metrics = endpoint_pushes(total_segments=2, window=2, send_spacing=15_000)
    assert pushes == [(20_000, 30_000, 2), (35_000, 45_000, 2), (50_000, 60_000, -1)]
    assert (metrics.rng_draws, metrics.completion_time) == (24, 75_000)


@pytest.mark.parametrize("spacing, push", [
    # segment 2 is queued for node 0 at 10 ms, when segment 1 arrives there:
    # segment 1 is pushed at once, no hop carried
    (0, (10_000, 20_000, 1)),
    # the sender's slot for segment 2 at 20 ms ties the first hop's arrival
    (20_000, (10_000, 20_000, 1)),
    # ... or the second hop's: pushed at node 1, the last carried hop
    (30_000, (20_000, 30_000, 2)),
    # the slot at 35 ms fires before the third hop's arrival at 40 ms:
    # pushed at node 2, two hops carried
    (35_000, (30_000, 40_000, 3)),
], ids=["queued-at-now", "tie-first-hop", "tie-second-hop", "before-third-hop"])
def test_a_carry_stops_where_a_queued_event_fires_first(spacing, push):
    # the first frame pushed past node 0, which only a relay sends there
    pushes, metrics = arrival_pushes(hops=5, total_segments=2, window=2, send_spacing=spacing)
    assert next(p for p in pushes if p[2] > 0) == push
    assert metrics.rng_draws == 40


# -- the held slot: the first frame a handler sends, taken as the next event -------

def frame_pushes(drop_override=None, **knobs):
    """A lossless caching run: (time of the push, fire_at, arg) of each frame
    arrival that went into the heap, and the trace records."""
    records = []
    sim = Simulation(Scenario(p_data=0.0, dtc_enabled=True, **knobs), trace=records.append,
                     drop_override=drop_override)
    pushes = []

    def on_push(fire_at, call, arg):
        if call is None:
            pushes.append((sim.now, fire_at, arg))

    with watch_pushes(on_push):
        assert sim.run().delivered_segments == knobs["total_segments"]
    return pushes, records


def test_send_holds_only_the_first_frame_of_a_run_step():
    sim = make_sim(0.0, latency=10)
    sim.send(0, DataSegment(1))                 # outside a run, every frame is pushed
    sim._next = None                            # as run() starts, and after it takes an event
    sim.send(0, DataSegment(2))
    sim.send(0, DataSegment(3))
    assert sim._next == (10, 1, None, (1, DataSegment(2)))
    assert sim._heap == [(10, 0, None, (1, DataSegment(1))), (10, 2, None, (1, DataSegment(3)))]


def test_a_frame_a_node_sends_is_carried_when_nothing_queued_comes_first():
    # the lone node forwards frame 1 at 10 ms; only the sender's rto is
    # queued, so the frame is taken from the slot and reaches the receiver
    # at 20 ms without a push.  No frame of this run is ever pushed
    pushes, records = frame_pushes(hops=2, total_segments=1)
    assert pushes == []
    assert (20_000, HOP, 1, 0, "llack", True, DataSegment(1)) in records


@pytest.mark.parametrize("spacing, push", [
    # node 0 forwards segment 1 at 10 ms to arrive at 20 ms, when the
    # sender's slot, queued at 0 ms with a lower number, also fires
    (20_000, (10_000, 20_000, (1, DataSegment(1)))),
    # segment 2 reaches node 0 at 15 ms, before that frame arrives
    (5_000, (10_000, 20_000, (1, DataSegment(1)))),
])
def test_a_frame_a_node_sends_is_pushed_when_a_queued_event_comes_first(spacing, push):
    pushes, _ = frame_pushes(hops=3, total_segments=2, window=2, send_spacing=spacing)
    assert push in pushes


def test_a_handlers_second_send_is_pushed():
    # window 2, no spacing, and the ack for segment 1 lost on its last hop:
    # the ack for segment 2 reaches the sender at 40 ms and opens the whole
    # window, so that one on_ack sends segments 3 and 4.  Segment 3 is held
    # and carried; segment 4 is pushed
    def lose_ack_2(segment, src, dst):
        return True if type(segment) is AckSegment and segment.ack_no == 2 and src == 0 else None

    pushes, records = frame_pushes(lose_ack_2, hops=2, total_segments=4, window=2, send_spacing=0)
    sent_at_40ms = [record[6] for record in records
                    if record[0] == 40_000 and record[2] == -1 and record[4] == "data"]
    assert sent_at_40ms == [DataSegment(3), DataSegment(4)]
    assert [push for push in pushes if push[0] == 40_000] == [(40_000, 50_000, (0, DataSegment(4)))]


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
