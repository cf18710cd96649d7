import functools

import pytest
from hypothesis import given, note, settings, strategies as st

from conftest import Recorder, emitted, watch_pushes
from dtcsim.endpoints import TcpReceiver, TcpSender, update_rto
from dtcsim.engine import Simulation
from dtcsim.events import SENDER, US_PER_MS
from dtcsim.harness import Scenario
from dtcsim.packets import ORIGIN_E2E, AckSegment, DataSegment
from scenario_space import DEADLINE_MS, any_scenario, finish


def make_sender(total=500, window=3, spacing=0, **overrides):
    knobs = dict(
        hops=2,
        p_data=0.0,
        dtc_enabled=False,
        total_segments=total,
        window=window,
        rto_min=100_000,
        rto_max=60_000_000,
        rto_initial=300_000,
        send_spacing=spacing,
    )
    knobs.update(overrides)
    return TcpSender(Scenario(**knobs), Recorder())


def sent_seqs(calls):
    return [c[2].seq for c in calls if c[0] == "send"]


def rto_arms(sender, calls):
    return [c for c in calls if c[0] == "schedule" and c[2] == sender.on_rto]


# -- update_rto ------------------------------------------------------------------

def test_first_sample_seeds_estimator():
    srtt, rttvar, rto = update_rto(None, 0, 100 * US_PER_MS)
    assert srtt == 100 * US_PER_MS
    assert rttvar == 50 * US_PER_MS
    assert rto == 300 * US_PER_MS


def test_steady_state_sample():
    srtt, rttvar, rto = update_rto(100 * US_PER_MS, 0, 100 * US_PER_MS)
    assert (srtt, rttvar) == (100 * US_PER_MS, 0)
    assert rto == 100 * US_PER_MS
    assert update_rto(100 * US_PER_MS, 0, 100 * US_PER_MS, rto_min=250_000)[2] == 250_000


def test_blended_sample():
    srtt, rttvar, rto = update_rto(100 * US_PER_MS, 10 * US_PER_MS, 180 * US_PER_MS)
    assert srtt == 110 * US_PER_MS
    assert rttvar == 27_500
    assert rto == 220 * US_PER_MS


# -- sender start ------------------------------------------------------------------

def test_start_emits_initial_window():
    sender = make_sender(total=500, window=3)
    assert emitted(sender.start, 0) == [     # the window first, then the timer
        ("send", SENDER, DataSegment(1), 0),
        ("send", SENDER, DataSegment(2), 1),
        ("send", SENDER, DataSegment(3), 2),
        ("schedule", 300_000, sender.on_rto, sender.rto_generation),
    ]


def test_start_stop_and_wait():
    sender = make_sender(window=1)
    assert sent_seqs(emitted(sender.start, 0)) == [1]


def test_start_clamped_by_total():
    sender = make_sender(total=2, window=3)
    assert sent_seqs(emitted(sender.start, 0)) == [1, 2]


def test_paced_start_spreads_transmissions():
    sender = make_sender(window=3, spacing=21_000)
    calls = emitted(sender.start, 0)
    assert sent_seqs(calls) == [1]
    slots = [c for c in calls if c[0] == "schedule" and c[2] == sender.on_send_slot]
    assert slots == [("schedule", 21_000, sender.on_send_slot, None)]
    calls = emitted(sender.on_send_slot, None, 21_000)
    assert sent_seqs(calls) == [2]
    calls = emitted(sender.on_send_slot, None, 42_000)
    assert calls == [("send", SENDER, DataSegment(3), 2)]     # no slot re-armed


# -- sender ack handling ---------------------------------------------------------------

def test_cumulative_ack_clears_window_and_refills():
    sender = make_sender()
    sender.start(0)
    calls = emitted(sender.on_ack, AckSegment(4), 200_000)
    assert sent_seqs(calls) == [4, 5, 6]
    assert sorted(sender.in_flight) == [4, 5, 6]
    assert sender.cumulative == 4
    assert rto_arms(sender, calls) == [calls[-1]]           # armed after the new data


def test_duplicate_ack_with_sack_changes_nothing_visible():
    sender = make_sender()
    sender.start(0)
    calls = emitted(sender.on_ack, AckSegment(1, {3}), 150_000)
    assert calls == []                          # no data, no retransmission
    assert sorted(sender.in_flight) == [1, 2, 3]
    assert sender.e2e_retransmissions == 0


def test_completion_recorded_on_final_ack():
    sender = make_sender(total=3)
    sender.start(0)
    calls = emitted(sender.on_ack, AckSegment(4), 500_000)
    assert sender.completed_at == 500_000
    assert calls == []                          # the final ack arms no timer
    assert sender.in_flight == {}


def test_stale_ack_below_cumulative_ignored():
    sender = make_sender()
    sender.start(0)
    sender.on_ack(AckSegment(3), 100_000)
    before = sender.cumulative
    assert emitted(sender.on_ack, AckSegment(2), 120_000) == []
    assert sender.cumulative == before


def test_sack_marked_segments_stay_retransmittable():
    sender = make_sender()
    sender.start(0)
    sender.on_ack(AckSegment(1, {2, 3}), 100_000)
    assert sorted(sender.in_flight) == [1, 2, 3]
    # cumulative coverage finally removes them
    sender.on_ack(AckSegment(4), 200_000)
    assert all(seq >= 4 for seq in sender.in_flight)


def test_rtt_sampled_only_from_unretransmitted():
    sender = make_sender()
    sender.start(0)
    sender.on_rto(sender.rto_generation, 300_000)       # retransmits seq 1
    assert sender.e2e_retransmissions == 1
    srtt_before = sender.srtt
    sender.on_ack(AckSegment(2), 400_000)               # covers the retransmitted 1
    assert sender.srtt == srtt_before                   # Karn: no sample taken
    sender.on_ack(AckSegment(3), 450_000)               # seq 2 was sent once
    assert sender.srtt is not None


# -- sender timeout ----------------------------------------------------------------------

def test_rto_retransmits_oldest_and_backs_off():
    sender = make_sender()
    sender.start(0)
    gen = sender.rto_generation
    calls = emitted(sender.on_rto, gen, 300_000)
    assert sent_seqs(calls) == [1]
    assert sender.e2e_retransmissions == 1
    assert sender.in_flight[1][1] == 2
    (arm,) = rto_arms(sender, calls)
    assert arm[1] - 300_000 == 2 * sender.rto           # doubled timeout
    assert arm[3] == sender.rto_generation == gen + 1

    calls = emitted(sender.on_rto, sender.rto_generation, 900_000)
    (arm,) = rto_arms(sender, calls)
    assert arm[1] - 900_000 == 4 * sender.rto


def rto_arm(sender, now):
    """The schedule of the timer that sender armed at now, read after it
    backed off."""
    timeout = min(sender.rto << sender.backoff, sender.rto_max)
    return ("schedule", now + timeout, sender.on_rto, sender.rto_generation)


def counters(sender, seq):
    return (sender.e2e_retransmissions, sender.in_flight[seq][1], sender.backoff,
            sender.rto_generation)


@pytest.mark.parametrize("spacing", [0, 21_000])
def test_rto_through_an_open_empty_gate_resends_the_oldest_then_arms(spacing):
    sender = make_sender(window=3, spacing=spacing)
    sender.start(0)
    for k in (1, 2):
        sender.on_send_slot(None, k * spacing)          # empties a paced gate
    assert not sender._tx_queue
    before = counters(sender, 1)
    calls = emitted(sender.on_rto, sender.rto_generation, 300_000)
    assert calls == [("send", SENDER, DataSegment(1), 3), rto_arm(sender, 300_000)]
    assert counters(sender, 1) == tuple(n + 1 for n in before)
    assert sender._next_free_at == 300_000 + spacing
    assert not sender._tx_queue


def test_rto_at_a_closed_gate_queues_the_oldest_for_the_next_slot():
    sender = make_sender(window=1, spacing=500_000)     # the gate opens after the timeout
    sender.start(0)
    before = counters(sender, 1)
    calls = emitted(sender.on_rto, sender.rto_generation, 300_000)
    assert calls == [("schedule", 500_000, sender.on_send_slot, None), rto_arm(sender, 300_000)]
    assert counters(sender, 1) == (*before[:2], before[2] + 1, before[3] + 1)
    assert list(sender._tx_queue) == [1]
    calls = emitted(sender.on_send_slot, None, 500_000)
    assert calls == [("send", SENDER, DataSegment(1), 1)]
    assert sender.e2e_retransmissions == 1


@pytest.mark.parametrize("now, sends", [(15_000, []), (21_000, [2])])
def test_rto_leaves_an_oldest_still_in_the_gate_queued_once(now, sends):
    # seq 1 is acked before seqs 2 and 3 leave the paced gate: the oldest,
    # seq 2, is never sent, so a timeout neither queues it again nor
    # counts a retransmission; a gate open by then sends it as new data
    sender = make_sender(window=3, spacing=21_000)
    assert sent_seqs(emitted(sender.start, 0)) == [1]
    sender.on_ack(AckSegment(2), 10_000)
    assert list(sender._tx_queue) == [2, 3, 4]
    calls = emitted(sender.on_rto, sender.rto_generation, now)
    assert sent_seqs(calls) == sends
    assert calls[-1] == rto_arm(sender, now)
    assert list(sender._tx_queue) == [2, 3, 4][len(sends):]
    assert sender.e2e_retransmissions == 0


def test_backoff_resets_on_progress():
    sender = make_sender()
    sender.start(0)
    sender.on_rto(sender.rto_generation, 300_000)
    assert sender.backoff == 1
    sender.on_ack(AckSegment(2), 400_000)
    assert sender.backoff == 0


def test_backoff_stops_once_the_timeout_reaches_rto_max():
    # a transfer that never gets an ack: 64 timeouts in a row, each fired
    # at the deadline the one before armed
    sender = make_sender()
    rto, rto_max = sender.rto, sender.rto_max
    (arm,) = rto_arms(sender, emitted(sender.start, 0))
    for k in range(1, 65):
        now = arm[1]
        (arm,) = rto_arms(sender, emitted(sender.on_rto, sender.rto_generation, now))
        assert arm[1] == now + min(rto << k, rto_max)
        assert sender.backoff <= (rto_max // rto).bit_length()


def test_stale_rto_generation_ignored():
    sender = make_sender()
    sender.start(0)
    stale = sender.rto_generation
    sender.on_ack(AckSegment(2), 100_000)               # re-arms, bumps generation
    assert emitted(sender.on_rto, stale, 300_000) == []
    assert sender.e2e_retransmissions == 0


def test_fast_retransmit_behind_flag():
    sender = make_sender(fast_retransmit=True)
    sender.start(0)
    for k in range(2):
        assert sent_seqs(emitted(sender.on_ack, AckSegment(1, {3}), 100_000 + k)) == []
    calls = emitted(sender.on_ack, AckSegment(1, {3}), 100_002)
    assert sent_seqs(calls) == [1]                      # third duplicate triggers
    assert sender.e2e_retransmissions == 1


def test_counter_identity_tx_equals_total_plus_retx():
    sender = make_sender(total=10, window=3)
    sender.start(0)
    now = 0
    for ack_no in (2, 3, 4):
        now += 100_000
        sender.on_ack(AckSegment(ack_no), now)
    sender.on_rto(sender.rto_generation, now + 400_000)
    # the data sends on the sink: segments 1-6 once each, and the timeout's
    # resend of the oldest, the one retransmission
    sends = sent_seqs(sender.out.calls)
    assert sorted(sends) == [1, 2, 3, 4, 4, 5, 6]
    assert sender.e2e_retransmissions == 1
    assert len(sends) == 6 + sender.e2e_retransmissions


# -- sender bookkeeping under any interleaving ---------------------------------------

@pytest.mark.parametrize("fast_retransmit", [False, True])
@settings(max_examples=100, deadline=None)
@given(window=st.integers(1, 4), total=st.integers(1, 12),
       spacing=st.sampled_from([0, 21_000]), data=st.data())
def test_each_send_is_counted_once_and_retransmissions_after_the_first(
        fast_retransmit, window, total, spacing, data):
    # acks (never beyond the highest seq sent + 1), live and stale timeouts and
    # gate wake-ups in any order, up to the completing ack; every data send
    # lands in the recorder
    sender = make_sender(total=total, window=window, spacing=spacing,
                         fast_retransmit=fast_retransmit)
    sent = []
    now = 0
    for step in range(data.draw(st.integers(1, 40))):
        if step == 0:
            calls = emitted(sender.start, now)
        elif sender.completed_at is not None:
            break                       # a run ends at the completing ack
        else:
            now += data.draw(st.integers(0, 50_000))
            action = data.draw(st.sampled_from(["ack", "rto", "slot"]))
            if action == "ack":
                highest = max(sent, default=0)
                ack = AckSegment(data.draw(st.integers(1, highest + 1)),
                                 data.draw(st.frozensets(st.integers(1, highest + 1), max_size=3)))
                calls = emitted(sender.on_ack, ack, now)
            elif action == "rto":
                live = sender.rto_generation
                generation = data.draw(st.one_of(st.just(live), st.integers(0, live)))
                calls = emitted(sender.on_rto, generation, now)
            else:
                calls = emitted(sender.on_send_slot, None, now)
        seqs = sent_seqs(calls)
        assert all(sender.cumulative <= seq < sender.next_new for seq in seqs)
        sent += seqs
        # a seq's first send is new data; each later one is a retransmission
        assert sender.e2e_retransmissions == len(sent) - len(set(sent))
        # a never-sent segment in flight waits in the pacing gate, so a
        # timeout that picks it queues nothing new
        assert set(sender.in_flight) - set(sent) <= set(sender._tx_queue)


SENDER_HANDLERS = ("start", "on_ack", "on_rto", "on_send_slot")


def checked(sender, handler):
    """handler, then a check that the keys of in_flight run from the
    cumulative point up to next_new, each holding its own segment."""
    @functools.wraps(handler)
    def call(*args):
        handler(*args)
        assert sorted(sender.in_flight) == list(range(sender.cumulative, sender.next_new)), (
            f"in_flight after {handler.__name__}{args}")
        for seq, entry in sender.in_flight.items():
            assert entry[2] == DataSegment(seq, ORIGIN_E2E), f"entry {seq} holds {entry[2]!r}"
    return call


@settings(max_examples=50, deadline=DEADLINE_MS)
@given(any_scenario)
def test_in_flight_runs_from_the_cumulative_point_over_whole_runs(s):
    # the timeout resends in_flight[cumulative] as the oldest segment
    note(s)
    sim = Simulation(s)
    for name in SENDER_HANDLERS:
        setattr(sim.sender, name, checked(sim.sender, getattr(sim.sender, name)))
    metrics = finish(sim)
    assert metrics is None or metrics.delivered_segments == s.total_segments


# -- the sender's timeout in the run loop ---------------------------------------------
#
# The run loop handles a live timeout at an open gate itself, and calls the
# handler for any other: these runs check that a handler put in front of it
# still sees every timeout, and that the loop's own path is the handler's

TIMEOUT_SCENARIOS = {
    "off": Scenario(hops=6, p_data=0.2, dtc_enabled=False, total_segments=40, seed=3),
    "on": Scenario(hops=6, p_data=0.2, dtc_enabled=True, total_segments=40, seed=3),
    # over 1 us hops a 50 us spacing holds the gate busy at some timeouts
    "busy-gate": Scenario(hops=3, p_data=0.2, dtc_enabled=False, total_segments=40, seed=1,
                          hop_latency=1, send_spacing=50, window=8),
    # the initial timeout is over rto_max: every timeout is at the ceiling
    "at-ceiling": Scenario(hops=4, p_data=0.3, dtc_enabled=False, total_segments=40, seed=2,
                           rto_max=200_000),
}


def counting(handler, calls):
    """A plain function that records each call's arguments, then calls handler."""
    def call(*args):
        calls.append(args)
        handler(*args)
    return call


@pytest.mark.parametrize("where", ["class", "instance"])
@pytest.mark.parametrize("name", list(TIMEOUT_SCENARIOS))
def test_a_handler_in_front_of_the_senders_timeout_sees_every_timeout_popped(
        monkeypatch, name, where):
    # a class-level wrapper, as perfbench's tracer installs, or a plain
    # function in the sender's own attribute, as a test may: either is
    # called once per timeout the run pops, and the run is the one the
    # loop's own path gives
    s = TIMEOUT_SCENARIOS[name]
    expected_records = []
    expected = Simulation(s, trace=expected_records.append).run()
    assert expected.e2e_retransmissions > 0
    calls, records, pushed = [], [], []
    sim = Simulation(s, trace=records.append)
    if where == "class":
        monkeypatch.setattr(TcpSender, "on_rto", counting(TcpSender.on_rto, calls))
    else:
        sim.sender.on_rto = counting(sim.sender.on_rto, calls)
    with watch_pushes(lambda fire_at, call, arg: pushed.append(call)):
        assert sim.run() == expected
    assert records == expected_records
    # a timeout popped is one pushed and no longer queued
    queued = [call for _, _, call, _ in sim._heap]
    timeouts = sum(call == sim.sender.on_rto for call in pushed)
    assert len(calls) == timeouts - sum(call == sim.sender.on_rto for call in queued)


@pytest.mark.parametrize("traced", [False, True])
def test_a_stale_sender_timeout_popped_by_the_run_changes_nothing(traced):
    # a timeout of a generation the sender has since re-armed past pops
    # between two markers at its own time: between them the sender keeps
    # every field, and the run draws and pushes nothing (a frame it held
    # would go into the heap as the second marker pops first)
    sim = Simulation(TIMEOUT_SCENARIOS["off"], trace=[].append if traced else None)
    seen = []

    def fields():
        return {name: repr(value) for name, value in vars(sim.sender).items()}

    def marker(arg, now):
        seen.append((fields(), sim.draws, len(pushed)))

    pushed = []
    at = 400 * US_PER_MS
    sim.schedule(at, marker)
    sim.schedule(at, sim.sender.on_rto, 0)         # start() arms generation 1
    sim.schedule(at, marker)
    with watch_pushes(lambda *push: pushed.append(push)):
        sim.run()
    before, after = seen
    assert before == after
    assert sim.sender.rto_generation > 1


# -- receiver ---------------------------------------------------------------------------

def make_receiver(total=500):
    return TcpReceiver(Scenario(hops=4, p_data=0.0, dtc_enabled=False, total_segments=total),
                       Recorder())


def ack_for(receiver, seq):
    """Hand the receiver one segment; the one ack it sends, from id hops - 1."""
    calls = emitted(receiver.on_data, DataSegment(seq), 0)
    assert len(calls) == 1
    kind, src, ack, _ = calls[0]
    assert (kind, src) == ("send", 3)
    return ack


def test_out_of_order_arrival_selectively_acked():
    receiver = make_receiver()
    assert ack_for(receiver, 3) == AckSegment(1, {3})
    assert receiver.next_expected == 1


def test_gap_fill_advances_past_buffered_segments():
    receiver = make_receiver()
    ack_for(receiver, 2)
    ack_for(receiver, 3)
    assert ack_for(receiver, 1) == AckSegment(4)
    assert receiver.delivered_in_order == 3


def test_duplicate_data_reacked_without_state_change():
    receiver = make_receiver()
    for seq in (1, 2, 3, 4):
        ack_for(receiver, seq)
    assert ack_for(receiver, 2) == AckSegment(5)
    assert receiver.next_expected == 5
    assert receiver.out_of_order == set()


def test_receiver_delivers_each_segment_exactly_once():
    receiver = make_receiver(total=10)
    import random

    order = list(range(1, 11)) * 2
    random.Random(4).shuffle(order)
    for seq in order:
        ack_for(receiver, seq)
    assert receiver.delivered_in_order == 10
    assert receiver.out_of_order == set()
