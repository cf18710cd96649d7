import dataclasses
import functools
from collections import Counter

import pytest
from hypothesis import given, note, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import Recorder, emitted, watch_pushes
from dtcsim.engine import DTC, HOP, Simulation
from dtcsim.events import MAX_TIME_US
from dtcsim.harness import Scenario
from dtcsim.node import AWAITING, LOCKED, REPLACEABLE, CachingNode, initial_rtt
from dtcsim.packets import ORIGIN_LOCAL, AckSegment, DataSegment, sack_covers
from scenario_space import DEADLINE_MS, any_scenario, finish

MS = 1000


def make_node(node_id=5, hops_to_receiver=5):
    # a chain just long enough to leave hops_to_receiver hops past the node;
    # its default knobs give 10 ms hops, a 30 ms ll wait and 3 local retries
    scenario = Scenario(hops=node_id + 1 + hops_to_receiver, p_data=0.0, dtc_enabled=True)
    return CachingNode(node_id, scenario, Recorder())


# each helper picks one kind of emission out of a handler's recorded calls

def data_sent(calls):
    """(segment, frame_id) of each data transmission."""
    return [(c[2], c[3]) for c in calls if c[0] == "send" and type(c[2]) is DataSegment]


def local_tx(calls):
    return [segment for segment, _ in data_sent(calls)]


def acks_up(calls):
    return [c[2] for c in calls if c[0] == "send" and type(c[2]) is AckSegment]


def notes(calls):
    return [(c[2], c[3]) for c in calls if c[0] == "note"]


def timers(calls, handler):
    """Fire times of the timers that call one handler."""
    return [c[1] for c in calls if c[0] == "schedule" and c[2] == handler]


def lock_cached(node, seq, now=0):
    """Drive the node through cache -> missing ll ack -> locked for seq."""
    node.on_data(DataSegment(seq), now)
    gen = node.timer_generation
    node.on_ll_timeout(gen, now + node.ll_wait)
    assert node.state == LOCKED


# -- rtt seed -------------------------------------------------------------------

def test_initial_rtt_formula():
    assert initial_rtt(4, 10 * MS) == 80 * MS
    assert initial_rtt(1, 10 * MS) == 20 * MS


def test_initial_rtt_shrinks_toward_receiver():
    latency = 10 * MS
    estimates = [initial_rtt(d, latency) for d in range(5, 0, -1)]
    assert estimates == sorted(estimates, reverse=True)


def test_initial_rtt_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        initial_rtt(0, 10 * MS)


# -- data path -------------------------------------------------------------------

def test_first_segment_cached_tentative_and_forwarded():
    node = make_node()
    calls = emitted(node.on_data, DataSegment(1), 0)
    # note, transmit, then arm the wait: the order the engine draws and pushes in
    assert calls == [
        ("note", 5, "cache", 1),
        ("send", 5, DataSegment(1), 0),
        ("schedule", 30 * MS, node.on_ll_timeout, node.timer_generation),
    ]
    assert node.cached_frame_id == 0                # the id send returned
    assert node.state == AWAITING
    assert node.data_tx_count == 1


def test_awaiting_entry_not_displaced():
    node = make_node()
    node.on_data(DataSegment(1), 0)
    calls = emitted(node.on_data, DataSegment(2), 0)
    assert calls == [("send", 5, DataSegment(2), 1)]        # forwarded but not cached
    assert node.cached.seq == 1 and node.cached_frame_id == 0


def test_ll_acked_entry_replaceable_by_newer_segment():
    node = make_node()
    node.on_data(DataSegment(2), 0)
    node.on_ll_ack(node.cached_frame_id, 20 * MS)
    assert node.state == REPLACEABLE
    calls = emitted(node.on_data, DataSegment(3), 21 * MS)
    assert node.cached.seq == 3
    assert ("cache", 3) in notes(calls)
    assert data_sent(calls) == [(DataSegment(3), node.cached_frame_id)]


def test_locked_entry_never_displaced():
    node = make_node()
    lock_cached(node, 1)
    calls = emitted(node.on_data, DataSegment(3), 50 * MS)
    assert node.cached.seq == 1 and node.cached_frame_id == 0
    assert node.state == LOCKED
    assert calls == [("send", 5, DataSegment(3), 1)]


def test_data_below_forwarded_ack_regenerates_ack():
    node = make_node()
    node.last_ack_forwarded = 4
    calls = emitted(node.on_data, DataSegment(2), 0)
    assert data_sent(calls) == []                # data swallowed
    assert calls == [("note", 5, "regen_ack", 4), ("send", 5, AckSegment(4), 0)]
    assert node.data_tx_count == 0


def test_disabled_node_is_a_pure_relay():
    # with caching off each node forwards every frame it receives unchanged,
    # at the instant it arrives, and no cache machine is built
    records = []
    sim = Simulation(Scenario(hops=4, p_data=0.0, dtc_enabled=False, total_segments=5),
                     trace=records.append)
    metrics = sim.run()
    assert [record for record in records if record[1] == DTC] == []
    frames = [(t, src, dst, payload)
              for t, tag, src, dst, kind, _, payload in records if tag == HOP and kind != "llack"]
    relayed = [frame for frame in frames if 0 <= frame[1] < sim.receiver_id]
    expected = [(t + sim.latency, dst, dst + 1 if type(payload) is DataSegment else dst - 1, payload)
                for t, _, dst, payload in frames if 0 <= dst < sim.receiver_id]
    assert len(relayed) == 3 * (5 + 5)          # 5 data and 5 acks through each node
    assert Counter(relayed) == Counter(expected)
    assert sim.nodes == [] and sim.stations[:3] == [None] * 3
    assert tuple(sim.relay_data_tx) == metrics.per_node_data_tx == (5, 5, 5)
    assert metrics.local_retransmissions_total == 0


# -- link-layer ack handling ---------------------------------------------------------

def test_matching_ll_ack_makes_entry_replaceable_and_stales_timer():
    node = make_node()
    node.on_data(DataSegment(2), 0)
    gen = node.timer_generation
    node.on_ll_ack(node.cached_frame_id, 20 * MS)
    assert node.state == REPLACEABLE
    assert emitted(node.on_ll_timeout, gen, 30 * MS) == []  # timer went stale


def test_ll_ack_for_unknown_frame_is_noop():
    node = make_node()
    node.on_data(DataSegment(2), 0)
    node.on_ll_ack(12345, 20 * MS)
    assert node.state == AWAITING


def test_ll_ack_on_locked_cache_is_noop():
    node = make_node()
    lock_cached(node, 1)
    node.on_ll_ack(node.cached_frame_id, 40 * MS)
    assert node.state == LOCKED


# -- locking --------------------------------------------------------------------------

def test_missing_ll_ack_locks_and_arms_local_timer():
    node = make_node(hops_to_receiver=5)
    node.on_data(DataSegment(1), 0)
    gen = node.timer_generation
    calls = emitted(node.on_ll_timeout, gen, 30 * MS)
    assert node.state == LOCKED
    # 1.5x the topology-seeded 100 ms round trip
    assert calls == [
        ("note", 5, "lock", 1),
        ("schedule", 30 * MS + 150 * MS, node.on_local_rto, node.timer_generation),
    ]


def test_timer_scale_follows_rtt_estimate():
    node = make_node(hops_to_receiver=2)
    node.rtt_est = 40 * MS
    node.on_data(DataSegment(1), 0)
    calls = emitted(node.on_ll_timeout, node.timer_generation, 30 * MS)
    assert timers(calls, node.on_local_rto) == [30 * MS + 60 * MS]


# -- local retransmission timer ----------------------------------------------------------

def test_local_timer_retransmits_with_backoff():
    node = make_node()
    node.rtt_est = 100 * MS
    lock_cached(node, 2)
    calls = emitted(node.on_local_rto, node.timer_generation, 180 * MS)
    assert calls == [
        ("note", 5, "local_retx", 2),
        ("send", 5, DataSegment(2, ORIGIN_LOCAL), 1),
        # 1.5 * rtt doubled once
        ("schedule", 180 * MS + 300 * MS, node.on_local_rto, node.timer_generation),
    ]
    assert node.local_retries == 1
    assert node.local_retx_count == 1


def test_exhausted_retries_clear_the_cache():
    node = make_node()
    lock_cached(node, 2)
    node.local_retries = 3
    calls = emitted(node.on_local_rto, node.timer_generation, 10_000 * MS)
    assert calls == [                            # no timer armed
        ("note", 5, "local_retx", 2),
        ("send", 5, DataSegment(2, ORIGIN_LOCAL), 1),
        ("note", 5, "clear", 2),
    ]
    assert node.state is None


def test_stale_local_timer_ignored():
    node = make_node()
    lock_cached(node, 2)
    stale = node.timer_generation
    node.on_ack(AckSegment(4), 200 * MS)         # covers 2, clears the cache
    assert node.state is None
    assert emitted(node.on_local_rto, stale, 400 * MS) == []


# -- ack processing -----------------------------------------------------------------------

def test_uncovered_locked_segment_retransmitted_and_vouched():
    # an ack arrives that fails to vouch for locked 2: retransmit it, add it
    # to the selective set, and forward the augmented ack
    node = make_node(node_id=7, hops_to_receiver=3)
    lock_cached(node, 2)
    calls = emitted(node.on_ack, AckSegment(1, {3}), 200 * MS)
    assert calls == [
        ("note", 7, "local_retx", 2),
        ("send", 7, DataSegment(2, ORIGIN_LOCAL), 1),
        ("schedule", 200 * MS + 90 * MS, node.on_local_rto, node.timer_generation),
        ("send", 7, AckSegment(1, {2, 3}), 2),
    ]
    assert node.state == LOCKED                  # kept until covered


def test_gap_filling_retransmission_drops_the_ack():
    node = make_node(node_id=5, hops_to_receiver=5)
    lock_cached(node, 1)
    calls = emitted(node.on_ack, AckSegment(1, {2, 3}), 200 * MS)
    assert local_tx(calls) == [DataSegment(1, ORIGIN_LOCAL)]
    assert acks_up(calls) == []                  # ack swallowed
    assert notes(calls) == [("local_retx", 1), ("drop_ack", 1)]


def test_covering_ack_clears_cache_and_forwards_unchanged():
    node = make_node()
    lock_cached(node, 3)
    calls = emitted(node.on_ack, AckSegment(4), 200 * MS)
    assert node.state is None
    assert calls == [("note", 5, "clear", 3), ("send", 5, AckSegment(4), 1)]
    assert node.last_ack_forwarded == 4


def test_selectively_covered_cache_clears_too():
    node = make_node()
    lock_cached(node, 3)
    calls = emitted(node.on_ack, AckSegment(1, {3}), 200 * MS)
    assert node.state is None
    assert acks_up(calls) == [AckSegment(1, {3})]


def test_replaceable_entry_locks_on_uncovering_ack_without_retransmitting():
    # the next hop link-acked 2, yet the ack stream says it is missing
    # downstream: the node locks the entry and vouches, but the timer (or a
    # later ack) does the retransmitting
    node = make_node()
    node.on_data(DataSegment(2), 0)
    node.on_ll_ack(node.cached_frame_id, 20 * MS)
    calls = emitted(node.on_ack, AckSegment(1, {3}), 100 * MS)
    assert node.state == LOCKED
    assert calls == [                            # nothing retransmitted
        ("note", 5, "lock", 2),
        ("schedule", 100 * MS + 150 * MS, node.on_local_rto, node.timer_generation),
        ("send", 5, AckSegment(1, {2, 3}), 1),
    ]


def test_awaiting_entry_left_alone_by_uncovering_ack():
    node = make_node()
    node.on_data(DataSegment(2), 0)
    calls = emitted(node.on_ack, AckSegment(1, {3}), 5 * MS)
    assert node.state == AWAITING
    assert calls == [("send", 5, AckSegment(1, {3}), 1)]


def test_tentative_cache_does_not_eat_acks_when_uncovered():
    # zero-loss smoke: uncovering acks pass an awaiting entry untouched
    node = make_node()
    node.on_data(DataSegment(3), 0)
    calls = emitted(node.on_ack, AckSegment(3), 10 * MS)
    assert local_tx(calls) == []
    assert acks_up(calls) == [AckSegment(3)]
    assert node.data_tx_count == 1               # the original forward only


def test_ack_triggered_retransmit_rearms_timer():
    node = make_node()
    lock_cached(node, 2)
    before_gen = node.timer_generation
    calls = emitted(node.on_ack, AckSegment(1, {3}), 200 * MS)
    assert node.timer_generation > before_gen
    assert timers(calls, node.on_local_rto) == [200 * MS + (3 * node.rtt_est) // 2]


def test_local_retransmission_discards_pending_rtt_sample():
    node = make_node()
    node.on_data(DataSegment(2), 0)
    assert 2 in node.pending_rtt
    node.on_ll_timeout(node.timer_generation, 30 * MS)
    node.on_local_rto(node.timer_generation, 200 * MS)
    assert 2 not in node.pending_rtt


def test_repeat_sighting_discards_pending_rtt_sample():
    node = make_node()
    node.on_data(DataSegment(2), 0)
    node.on_data(DataSegment(2), 50 * MS)   # someone retransmitted it
    assert 2 not in node.pending_rtt


def test_rtt_samples_from_covered_pending_segments():
    node = make_node(hops_to_receiver=5)
    node.on_data(DataSegment(1), 0)
    node.on_ll_ack(node.cached_frame_id, 20 * MS)
    node.on_data(DataSegment(2), 21 * MS)
    node.on_ll_ack(node.cached_frame_id, 41 * MS)
    node.on_ack(AckSegment(3), 100 * MS)         # covers 1 and 2
    assert node.pending_rtt == {}
    # two EWMA steps from the 100 ms seed toward the two samples
    est = (7 * 100 * MS + 100 * MS) // 8
    est = (7 * est + (100 - 21) * MS) // 8
    assert node.rtt_est == est


def test_forwarded_ack_never_loses_information():
    node = make_node()
    lock_cached(node, 2)
    ack = AckSegment(1, {3, 5})
    (forwarded_ack,) = acks_up(emitted(node.on_ack, ack, 200 * MS))
    assert forwarded_ack.ack_no == ack.ack_no
    assert ack.sack <= forwarded_ack.sack


def test_one_cache_slot_at_all_times():
    node = make_node()
    for seq in range(1, 8):
        node.on_data(DataSegment(seq), seq * 30 * MS)
        assert node.state is None or isinstance(node.cached.seq, int)
        node.on_ll_ack(node.cached_frame_id, seq * 30 * MS + 20 * MS)
    assert node.cached.seq == 7


def test_only_a_traced_run_notes_cache_transitions(monkeypatch):
    # one note per DTC record when traced, and no call at all otherwise
    s = Scenario(hops=6, p_data=0.15, dtc_enabled=True, total_segments=40, seed=5)
    notes = []
    note = Simulation.note

    def counted(self, *args):
        notes.append(args)
        note(self, *args)

    monkeypatch.setattr(Simulation, "note", counted)
    Simulation(s).run()
    assert notes == []
    records = []
    Simulation(s, trace=records.append).run()
    assert notes == [record[2:] for record in records if record[1] == DTC]
    assert len(notes) > 0


# -- whole-run invariant: an entry's state matches its live timer -----------------

HANDLERS = ("on_data", "on_ack", "on_ll_ack", "on_ll_timeout", "on_local_rto")
TIMER_BY_STATE = {None: [], AWAITING: ["on_ll_timeout"], REPLACEABLE: [], LOCKED: ["on_local_rto"]}
TIMERS = ("on_ll_timeout", "on_local_rto")


def checked(sim, node, handler, armed):
    """handler, then a check that the node's live armed timers are its entry
    state's.  armed counts the run's armed node timers by (call,
    generation): arming adds one and a firing takes one off, so the check
    costs no scan of the heap.  A local rto is armed when it is
    scheduled, an ll timeout when the node sends the frame whose ll ack it
    awaits, whether the engine pushes it then, later or never."""
    @functools.wraps(handler)
    def call(*args):
        if call.__name__ in TIMERS:
            armed[call, args[0]] -= 1           # this timer left the heap to fire
        handler(*args)
        live = [name for name in TIMERS
                for _ in range(armed[getattr(node, name), node.timer_generation])]
        assert live == TIMER_BY_STATE[node.state], (
            f"node {node.node_id} after {handler.__name__}{args} at t={sim.now}")
    return call


@settings(max_examples=50, deadline=DEADLINE_MS)
@given(any_scenario)
def test_every_entry_state_has_exactly_its_timer_over_whole_runs(s):
    # AWAITING holds one live ll timeout, LOCKED one live local rto, and a
    # REPLACEABLE entry or an empty slot none, after every handler call
    s = dataclasses.replace(s, dtc_enabled=True)
    note(s)
    sim = Simulation(s)
    armed = Counter()
    for node in sim.nodes:
        for name in HANDLERS:
            setattr(node, name, checked(sim, node, getattr(node, name), armed))
    unpushed = Counter()                # node timers armed and not yet pushed
    send, schedule = sim.send, sim.schedule

    def sending(src, payload, awaits_ll_ack=False):
        if awaits_ll_ack:
            node = sim.nodes[src]
            timer = node.on_ll_timeout, node.timer_generation
            armed[timer] += 1
            unpushed[timer] += 1
        return send(src, payload, awaits_ll_ack)

    def scheduling(fire_at, call, arg=None):
        if call.__name__ == "on_local_rto":
            armed[call, arg] += 1
            unpushed[call, arg] += 1
        schedule(fire_at, call, arg)

    sim.send, sim.schedule = sending, scheduling

    def on_push(fire_at, call, arg):
        # a node timer is pushed at most once, and only after it was armed
        if call is not None and call.__name__ in TIMERS:
            assert unpushed[call, arg] == 1, f"{call!r} pushed with generation {arg} at t={sim.now}"
            unpushed[call, arg] -= 1

    with watch_pushes(on_push):
        metrics = finish(sim)
    assert metrics is None or metrics.delivered_segments == s.total_segments


# the handlers a station schedules; an ll ack is node state, never an event
PUSHED_HANDLERS = {"on_ll_timeout", "on_local_rto", "on_rto", "on_send_slot"}


@settings(max_examples=50, deadline=DEADLINE_MS)
@given(any_scenario)
def test_ll_acks_are_applied_only_to_a_node_awaiting_them(s):
    # the engine pushes no ll ack: it keeps one for its one reader, a node
    # whose slot holds that frame, and applies it at most once, so a
    # caching-off run applies none.  A frame's wait ends in one outcome: no
    # frame has both a pushed ll timeout and an applied ll ack.  Every push
    # is the run's horizon, a frame toward a station or a station's own timer
    note(s)
    sim = Simulation(s)
    applied = []
    awaited = {}                        # (node id, generation) -> the frame awaited
    timed_out = []                      # (node id, generation) of each ll timeout pushed
    send = sim.send

    def sending(src, payload, awaits_ll_ack=False):
        frame_id = send(src, payload, awaits_ll_ack)
        if awaits_ll_ack:
            awaited[src, sim.nodes[src].timer_generation] = frame_id
        return frame_id

    sim.send = sending
    for node in sim.nodes:
        cached = set()                  # the frame ids the node cached
        on_data, on_ll_ack = node.on_data, node.on_ll_ack

        def entered(segment, now, node=node, on_data=on_data, cached=cached):
            on_data(segment, now)
            if node.state is not None:
                cached.add(node.cached_frame_id)

        def landed(frame_id, now, node=node, on_ll_ack=on_ll_ack, cached=cached):
            assert frame_id in cached, f"ll ack of frame {frame_id} applied to node {node.node_id}"
            applied.append(frame_id)
            on_ll_ack(frame_id, now)

        node.on_data, node.on_ll_ack = entered, landed

    def on_push(fire_at, call, arg):
        if call is None:
            target = arg[0]
            assert -1 <= target <= s.hops - 1, f"frame pushed to {target} at t={sim.now}"
            return
        if call == sim._horizon:
            assert fire_at == MAX_TIME_US + 1, f"horizon pushed at t={fire_at}"
            return
        assert call.__name__ in PUSHED_HANDLERS, f"{call!r} pushed at t={sim.now}"
        assert any(call.__self__ is station for station in sim.stations), (
            f"{call!r} of no station pushed at t={sim.now}")
        if call.__name__ == "on_ll_timeout":
            # a lost frame's, pushed inside the send that awaits it
            timed_out.append((call.__self__.node_id, arg))

    with watch_pushes(on_push):
        metrics = finish(sim)
    assert metrics is None or metrics.delivered_segments == s.total_segments
    assert len(set(applied)) == len(applied)        # at most one ll ack per frame
    assert set(applied).isdisjoint(awaited[wait] for wait in timed_out), (
        "a frame's wait ended in both outcomes")
    if not s.dtc_enabled:
        assert applied == []


# -- one node as a state machine: its handlers in any order -----------------------

# the moves of the module docstring: handler -> state before -> states after,
# with None for an empty slot
MOVES = {
    "on_data": {None: {None, AWAITING}, AWAITING: {AWAITING},
                REPLACEABLE: {REPLACEABLE, AWAITING}, LOCKED: {LOCKED}},
    "on_ll_ack": {None: {None}, AWAITING: {AWAITING, REPLACEABLE},
                  REPLACEABLE: {REPLACEABLE}, LOCKED: {LOCKED}},
    "on_ll_timeout": {None: {None}, AWAITING: {AWAITING, LOCKED},
                      REPLACEABLE: {REPLACEABLE}, LOCKED: {LOCKED}},
    "on_local_rto": {None: {None}, AWAITING: {AWAITING},
                     REPLACEABLE: {REPLACEABLE}, LOCKED: {LOCKED, None}},
    "on_ack": {None: {None}, AWAITING: {AWAITING, None},
               REPLACEABLE: {REPLACEABLE, LOCKED, None}, LOCKED: {LOCKED, None}},
}

STEP = st.integers(0, 100 * MS)


class CacheNodeMachine(RuleBasedStateMachine):
    """One caching node over the Recorder.  Data, acks and ll acks come in any
    order, including orders no chain produces; a timer fires only once armed,
    but at any time and any number of times, so with a live or a stale
    generation."""

    def __init__(self):
        super().__init__()
        self.node = make_node()
        self.now = 0
        self.sent = []                  # every payload the node sent
        self.armed = []                 # (handler name, generation) of every timer armed

    def call(self, name, *args):
        """Call one handler and check its move; the slot's state, segment
        and frame id before the call."""
        node = self.node
        before = node.state, node.cached, node.cached_frame_id
        calls = emitted(getattr(node, name), *args)
        self.sent += [c[2] for c in calls if c[0] == "send"]
        self.armed += [(c[2].__name__, c[3]) for c in calls if c[0] == "schedule"]
        before_state, _, before_frame_id = before
        assert node.state in MOVES[name][before_state], (
            f"{name}{args}: {before_state} -> {node.state}")
        if node.state is not None and node.cached_frame_id != before_frame_id:
            # only data takes the slot, an empty or replaceable one: the
            # segment just sent, as its frame
            assert name == "on_data" and before_state in (None, REPLACEABLE)
            assert node.state == AWAITING
            assert data_sent(calls) == [(node.cached, node.cached_frame_id)]
        return before

    # seqs and ack points are drawn near the node's forwarded ack point, so
    # data is not all swallowed as long since acknowledged

    @rule(offset=st.integers(-2, 4), dt=STEP)
    def data(self, offset, dt):
        self.now += dt
        seq = max(1, self.node.last_ack_forwarded + offset)
        self.call("on_data", DataSegment(seq), self.now)

    @rule(offset=st.integers(-1, 3), above=st.frozensets(st.integers(1, 5), max_size=3),
          dt=STEP)
    def ack(self, offset, above, dt):
        self.now += dt
        ack_no = max(1, self.node.last_ack_forwarded + offset)
        ack = AckSegment(ack_no, {ack_no + k for k in above})
        before_state, cached, frame_id = self.call("on_ack", ack, self.now)
        if before_state is None:
            return
        if sack_covers(ack, cached.seq):
            assert self.node.state is None      # an ack that vouches for it empties the slot
        elif before_state != AWAITING:
            # one that shows it missing downstream locks it (or keeps it locked)
            assert self.node.state == LOCKED and self.node.cached_frame_id == frame_id

    @rule(frame_id=st.integers(0, 20))
    def ll_ack(self, frame_id):
        self.call("on_ll_ack", frame_id, self.now)

    @precondition(lambda self: self.node.state is not None)
    @rule()
    def ll_ack_of_the_cached_frame(self):
        frame_id = self.node.cached_frame_id
        before_state, _, _ = self.call("on_ll_ack", frame_id, self.now)
        if before_state == AWAITING:
            assert self.node.state == REPLACEABLE and self.node.cached_frame_id == frame_id

    @precondition(lambda self: self.armed)
    @rule(data=st.data(), live=st.booleans(), dt=STEP)
    def fire(self, data, live, dt):
        live_ones = [t for t in self.armed if t[1] == self.node.timer_generation]
        name, generation = data.draw(st.sampled_from(live_ones if live and live_ones else self.armed))
        self.now += dt
        self.call(name, generation, self.now)

    @invariant()
    def only_its_own_timer_is_live(self):
        # AWAITING holds one live ll timeout, LOCKED one live local rto; each
        # live firing bumps the generation, so a fired timer is never live
        live = [name for name, generation in self.armed
                if generation == self.node.timer_generation]
        assert live == TIMER_BY_STATE[self.node.state]

    @invariant()
    def counters_match_the_sends(self):
        data = [p for p in self.sent if type(p) is DataSegment]
        assert self.node.data_tx_count == len(data)
        assert self.node.local_retx_count == sum(p.origin == ORIGIN_LOCAL for p in data)


TestCacheNodeMachine = CacheNodeMachine.TestCase
TestCacheNodeMachine.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)
