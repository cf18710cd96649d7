import pytest
from hypothesis import given, settings, strategies as st

from conftest import Recorder, emitted
from dtcsim.endpoints import TcpReceiver, TcpSender, update_rto
from dtcsim.events import SEND_SLOT, SENDER, SENDER_RTO, US_PER_MS
from dtcsim.packets import AckSegment, DataSegment


def make_sender(total=500, window=3, spacing=0, **overrides):
    kwargs = dict(
        rto_min=100_000,
        rto_max=60_000_000,
        rto_initial=300_000,
        send_spacing=spacing,
        fast_retransmit=False,
    )
    kwargs.update(overrides)
    return TcpSender(total, window, Recorder(), **kwargs)


def sent_seqs(calls):
    return [c[2].seq for c in calls if c[0] == "send"]


def rto_arms(calls):
    return [c for c in calls if c[0] == "schedule" and c[3] == SENDER_RTO]


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
        ("schedule", 300_000, SENDER, SENDER_RTO, sender.rto_generation),
    ]
    assert sender.total_data_tx == 3


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
    slots = [c for c in calls if c[0] == "schedule" and c[3] == SEND_SLOT]
    assert slots == [("schedule", 21_000, SENDER, SEND_SLOT, None)]
    calls = emitted(sender.on_send_slot, 21_000)
    assert sent_seqs(calls) == [2]
    calls = emitted(sender.on_send_slot, 42_000)
    assert calls == [("send", SENDER, DataSegment(3), 2)]     # no slot re-armed


# -- sender ack handling ---------------------------------------------------------------

def test_cumulative_ack_clears_window_and_refills():
    sender = make_sender()
    sender.start(0)
    calls = emitted(sender.on_ack, AckSegment(4), 200_000)
    assert sent_seqs(calls) == [4, 5, 6]
    assert sorted(sender.in_flight) == [4, 5, 6]
    assert sender.cumulative == 4
    assert rto_arms(calls) == [calls[-1]]           # armed after the new data


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
    (arm,) = rto_arms(calls)
    assert arm[1] - 300_000 == 2 * sender.rto           # doubled timeout
    assert arm[4] == sender.rto_generation == gen + 1

    calls = emitted(sender.on_rto, sender.rto_generation, 900_000)
    (arm,) = rto_arms(calls)
    assert arm[1] - 900_000 == 4 * sender.rto


def test_backoff_resets_on_progress():
    sender = make_sender()
    sender.start(0)
    sender.on_rto(sender.rto_generation, 300_000)
    assert sender.backoff == 1
    sender.on_ack(AckSegment(2), 400_000)
    assert sender.backoff == 0


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
    assert sender.total_data_tx == 6 + 1
    assert sender.e2e_retransmissions == 1
    assert sender.total_data_tx - sender.e2e_retransmissions == 6


# -- sender bookkeeping under any interleaving ---------------------------------------

@pytest.mark.parametrize("fast_retransmit", [False, True])
@settings(max_examples=100, deadline=None)
@given(window=st.integers(1, 4), total=st.integers(1, 12),
       spacing=st.sampled_from([0, 21_000]), data=st.data())
def test_each_send_is_counted_once_and_retransmissions_after_the_first(
        fast_retransmit, window, total, spacing, data):
    # acks (never beyond the highest seq sent + 1), live and stale timeouts and
    # gate wake-ups in any order; every data send lands in the recorder
    sender = make_sender(total=total, window=window, spacing=spacing,
                         fast_retransmit=fast_retransmit)
    sent = []
    now = 0
    for step in range(data.draw(st.integers(1, 40))):
        if step == 0:
            calls = emitted(sender.start, now)
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
                calls = emitted(sender.on_send_slot, now)
        seqs = sent_seqs(calls)
        assert all(sender.cumulative <= seq < sender.next_new for seq in seqs)
        sent += seqs
        assert sender.total_data_tx == len(sent)
        # a seq's first send is new data; each later one is a retransmission
        assert sender.e2e_retransmissions == len(sent) - len(set(sent))
        # a never-sent segment in flight waits in the pacing gate, so a
        # timeout that picks it queues nothing new
        assert set(sender.in_flight) - set(sent) <= set(sender._tx_queue)


# -- receiver ---------------------------------------------------------------------------

def test_out_of_order_arrival_selectively_acked():
    receiver = TcpReceiver(500)
    ack = receiver.on_data(DataSegment(3))
    assert ack == AckSegment(1, {3})
    assert receiver.next_expected == 1


def test_gap_fill_advances_past_buffered_segments():
    receiver = TcpReceiver(500)
    receiver.on_data(DataSegment(2))
    receiver.on_data(DataSegment(3))
    ack = receiver.on_data(DataSegment(1))
    assert ack == AckSegment(4)
    assert receiver.delivered_in_order == 3


def test_duplicate_data_reacked_without_state_change():
    receiver = TcpReceiver(500)
    for seq in (1, 2, 3, 4):
        receiver.on_data(DataSegment(seq))
    ack = receiver.on_data(DataSegment(2))
    assert ack == AckSegment(5)
    assert receiver.next_expected == 5
    assert receiver.out_of_order == set()


def test_receiver_delivers_each_segment_exactly_once():
    receiver = TcpReceiver(10)
    import random

    order = list(range(1, 11)) * 2
    random.Random(4).shuffle(order)
    for seq in order:
        receiver.on_data(DataSegment(seq))
    assert receiver.delivered_in_order == 10
    assert receiver.out_of_order == set()
