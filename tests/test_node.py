import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import Recorder, emitted, watch_pushes
from dtcsim.engine import Simulation
from dtcsim.events import LL_ACK_ARRIVAL, LL_TIMEOUT, LOCAL_RTO
from dtcsim.harness import Scenario
from dtcsim.node import AWAITING, LOCKED, REPLACEABLE, CachingNode, initial_rtt
from dtcsim.packets import ORIGIN_LOCAL, AckSegment, DataSegment, sack_covers

MS = 1000


def make_node(node_id=5, hops_to_receiver=5, *, enabled=True):
    return CachingNode(
        node_id,
        hops_to_receiver,
        10 * MS,
        Recorder(),
        enabled=enabled,
        ll_wait=30 * MS,
        max_local_retries=3,
    )


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


def timers(calls, kind):
    """Fire times of the timers of one kind."""
    return [c[1] for c in calls if c[0] == "schedule" and c[3] == kind]


def lock_cached(node, seq, now=0):
    """Drive the node through cache -> missing ll ack -> locked for seq."""
    node.on_data(DataSegment(seq), now)
    gen = node.timer_generation
    node.on_ll_timeout(gen, now + node.ll_wait)
    assert node.cache is not None and node.cache.state == LOCKED


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
        ("schedule", 30 * MS, 5, LL_TIMEOUT, node.timer_generation),
    ]
    assert node.cache.frame_id == 0                 # the id send returned
    assert node.cache.state == AWAITING
    assert node.data_tx_count == 1


def test_awaiting_entry_not_displaced():
    node = make_node()
    node.on_data(DataSegment(1), 0)
    calls = emitted(node.on_data, DataSegment(2), 0)
    assert calls == [("send", 5, DataSegment(2), 1)]        # forwarded but not cached
    assert node.cache.segment.seq == 1 and node.cache.frame_id == 0


def test_ll_acked_entry_replaceable_by_newer_segment():
    node = make_node()
    node.on_data(DataSegment(2), 0)
    node.on_ll_ack(node.cache.frame_id)
    assert node.cache.state == REPLACEABLE
    calls = emitted(node.on_data, DataSegment(3), 21 * MS)
    assert node.cache.segment.seq == 3
    assert ("cache", 3) in notes(calls)
    assert data_sent(calls) == [(DataSegment(3), node.cache.frame_id)]


def test_locked_entry_never_displaced():
    node = make_node()
    lock_cached(node, 1)
    calls = emitted(node.on_data, DataSegment(3), 50 * MS)
    assert node.cache.segment.seq == 1 and node.cache.frame_id == 0
    assert node.cache.state == LOCKED
    assert calls == [("send", 5, DataSegment(3), 1)]


def test_data_below_forwarded_ack_regenerates_ack():
    node = make_node()
    node.last_ack_forwarded = 4
    calls = emitted(node.on_data, DataSegment(2), 0)
    assert data_sent(calls) == []                # data swallowed
    assert calls == [("note", 5, "regen_ack", 4), ("send", 5, AckSegment(4), 0)]
    assert node.data_tx_count == 0


def test_disabled_node_is_a_pure_relay():
    node = make_node(enabled=False)
    node.last_ack_forwarded = 9
    assert emitted(node.on_data, DataSegment(2), 0) == [("send", 5, DataSegment(2), 0)]
    assert node.cache is None
    ack = AckSegment(1, {3})
    assert emitted(node.on_ack, ack, 0) == [("send", 5, ack, 1)]


# -- link-layer ack handling ---------------------------------------------------------

def test_matching_ll_ack_makes_entry_replaceable_and_stales_timer():
    node = make_node()
    node.on_data(DataSegment(2), 0)
    gen = node.timer_generation
    node.on_ll_ack(node.cache.frame_id)
    assert node.cache.state == REPLACEABLE
    assert emitted(node.on_ll_timeout, gen, 30 * MS) == []  # timer went stale


def test_ll_ack_for_unknown_frame_is_noop():
    node = make_node()
    node.on_data(DataSegment(2), 0)
    node.on_ll_ack(12345)
    assert node.cache.state == AWAITING


def test_ll_ack_on_locked_cache_is_noop():
    node = make_node()
    lock_cached(node, 1)
    node.on_ll_ack(node.cache.frame_id)
    assert node.cache.state == LOCKED


# -- locking --------------------------------------------------------------------------

def test_missing_ll_ack_locks_and_arms_local_timer():
    node = make_node(hops_to_receiver=5)
    node.on_data(DataSegment(1), 0)
    gen = node.timer_generation
    calls = emitted(node.on_ll_timeout, gen, 30 * MS)
    assert node.cache.state == LOCKED
    # 1.5x the topology-seeded 100 ms round trip
    assert calls == [
        ("note", 5, "lock", 1),
        ("schedule", 30 * MS + 150 * MS, 5, LOCAL_RTO, node.timer_generation),
    ]


def test_timer_scale_follows_rtt_estimate():
    node = make_node(hops_to_receiver=2)
    node.rtt_est = 40 * MS
    node.on_data(DataSegment(1), 0)
    calls = emitted(node.on_ll_timeout, node.timer_generation, 30 * MS)
    assert timers(calls, LOCAL_RTO) == [30 * MS + 60 * MS]


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
        ("schedule", 180 * MS + 300 * MS, 5, LOCAL_RTO, node.timer_generation),
    ]
    assert node.cache.local_retries == 1
    assert node.local_retx_count == 1


def test_exhausted_retries_clear_the_cache():
    node = make_node()
    lock_cached(node, 2)
    node.cache.local_retries = 3
    calls = emitted(node.on_local_rto, node.timer_generation, 10_000 * MS)
    assert calls == [                            # no timer armed
        ("note", 5, "local_retx", 2),
        ("send", 5, DataSegment(2, ORIGIN_LOCAL), 1),
        ("note", 5, "clear", 2),
    ]
    assert node.cache is None


def test_stale_local_timer_ignored():
    node = make_node()
    lock_cached(node, 2)
    stale = node.timer_generation
    node.on_ack(AckSegment(4), 200 * MS)         # covers 2, clears the cache
    assert node.cache is None
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
        ("schedule", 200 * MS + 90 * MS, 7, LOCAL_RTO, node.timer_generation),
        ("send", 7, AckSegment(1, {2, 3}), 2),
    ]
    assert node.cache.state == LOCKED            # kept until covered


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
    assert node.cache is None
    assert calls == [("note", 5, "clear", 3), ("send", 5, AckSegment(4), 1)]
    assert node.last_ack_forwarded == 4


def test_selectively_covered_cache_clears_too():
    node = make_node()
    lock_cached(node, 3)
    calls = emitted(node.on_ack, AckSegment(1, {3}), 200 * MS)
    assert node.cache is None
    assert acks_up(calls) == [AckSegment(1, {3})]


def test_replaceable_entry_locks_on_uncovering_ack_without_retransmitting():
    # the next hop link-acked 2, yet the ack stream says it is missing
    # downstream: the node locks the entry and vouches, but the timer (or a
    # later ack) does the retransmitting
    node = make_node()
    node.on_data(DataSegment(2), 0)
    node.on_ll_ack(node.cache.frame_id)
    calls = emitted(node.on_ack, AckSegment(1, {3}), 100 * MS)
    assert node.cache.state == LOCKED
    assert calls == [                            # nothing retransmitted
        ("note", 5, "lock", 2),
        ("schedule", 100 * MS + 150 * MS, 5, LOCAL_RTO, node.timer_generation),
        ("send", 5, AckSegment(1, {2, 3}), 1),
    ]


def test_awaiting_entry_left_alone_by_uncovering_ack():
    node = make_node()
    node.on_data(DataSegment(2), 0)
    calls = emitted(node.on_ack, AckSegment(1, {3}), 5 * MS)
    assert node.cache.state == AWAITING
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
    assert timers(calls, LOCAL_RTO) == [200 * MS + (3 * node.rtt_est) // 2]


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
    node.on_ll_ack(node.cache.frame_id)
    node.on_data(DataSegment(2), 21 * MS)
    node.on_ll_ack(node.cache.frame_id)
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
        assert node.cache is None or isinstance(node.cache.segment.seq, int)
        node.on_ll_ack(node.cache.frame_id)
    assert node.cache.segment.seq == 7


# -- whole-run invariant: an entry's state matches its live timer -----------------

HANDLERS = ("on_data", "on_ack", "on_ll_ack", "on_ll_timeout", "on_local_rto")
TIMER_BY_STATE = {None: [], AWAITING: [LL_TIMEOUT], REPLACEABLE: [], LOCKED: [LOCAL_RTO]}


def state_of(node):
    return None if node.cache is None else node.cache.state


def live_timers(sim, node):
    """Kinds of the node's queued timers that still match its generation."""
    return [kind for _, _, target, kind, arg in sim._heap
            if target == node.node_id and kind in (LL_TIMEOUT, LOCAL_RTO)
            and arg == node.timer_generation]


def checked(sim, node, handler):
    def call(*args):
        handler(*args)
        assert live_timers(sim, node) == TIMER_BY_STATE[state_of(node)], (
            f"node {node.node_id} after {handler.__name__}{args} at t={sim.now}")
    return call


caching_runs = st.fixed_dictionaries({
    "hops": st.integers(2, 8),
    "total_segments": st.integers(1, 60),
    "window": st.integers(1, 5),
    "p_data": st.one_of(st.just(0.0), st.floats(0.0, 0.35)),
    "max_local_retries": st.integers(0, 4),
    "ll_wait_multiplier": st.integers(1, 4),
    "fast_retransmit": st.booleans(),
    "seed": st.integers(0, 2**63 - 1),
})


@settings(max_examples=50, deadline=None)
@given(caching_runs)
def test_every_entry_state_has_exactly_its_timer_over_whole_runs(knobs):
    # AWAITING holds one live ll timeout, LOCKED one live local rto, and a
    # REPLACEABLE entry or an empty slot none, after every handler call
    sim = Simulation(Scenario(dtc_enabled=True, **knobs))
    for node in sim.nodes:
        for name in HANDLERS:
            setattr(node, name, checked(sim, node, getattr(node, name)))
    assert sim.run().delivered_segments == knobs["total_segments"]


@settings(max_examples=50, deadline=None)
@given(caching_runs, st.booleans())
def test_ll_acks_are_pushed_only_to_a_node_awaiting_them(knobs, dtc):
    # an ll ack has one reader, a node whose entry awaits that frame: the
    # engine pushes it to no one else, so a caching-off run pushes none
    sim = Simulation(Scenario(dtc_enabled=dtc, **knobs))
    pushed = []

    def on_push(fire_at, target, kind, arg):
        if kind == LL_ACK_ARRIVAL:
            entry = sim.nodes[target].cache if 0 <= target < sim.receiver_id else None
            assert entry is not None and entry.state == AWAITING and entry.frame_id == arg, (
                f"ll ack of frame {arg} pushed to {target} at t={sim.now}")
            pushed.append(arg)

    with watch_pushes(on_push):
        assert sim.run().delivered_segments == knobs["total_segments"]
    assert len(set(pushed)) == len(pushed)          # at most one ll ack per frame
    if not dtc:
        assert pushed == []


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
        self.armed = []                 # (kind, generation) of every timer armed

    def call(self, name, *args):
        node = self.node
        before, before_state = node.cache, state_of(node)
        calls = emitted(getattr(node, name), *args)
        self.sent += [c[2] for c in calls if c[0] == "send"]
        self.armed += [(c[3], c[4]) for c in calls if c[0] == "schedule"]
        after = node.cache
        assert state_of(node) in MOVES[name][before_state], (
            f"{name}{args}: {before_state} -> {state_of(node)}")
        if after is not None and after is not before:
            # only data takes the slot, an empty or replaceable one: the
            # segment just sent, as its frame
            assert name == "on_data" and before_state in (None, REPLACEABLE)
            assert after.state == AWAITING
            assert data_sent(calls) == [(after.segment, after.frame_id)]
        return before, before_state

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
        before, before_state = self.call("on_ack", ack, self.now)
        if before is None:
            return
        if sack_covers(ack, before.segment.seq):
            assert self.node.cache is None      # an ack that vouches for it empties the slot
        elif before_state != AWAITING:
            # one that shows it missing downstream locks it (or keeps it locked)
            assert self.node.cache is before and before.state == LOCKED

    @rule(frame_id=st.integers(0, 20))
    def ll_ack(self, frame_id):
        self.call("on_ll_ack", frame_id)

    @precondition(lambda self: self.node.cache is not None)
    @rule()
    def ll_ack_of_the_cached_frame(self):
        before, before_state = self.call("on_ll_ack", self.node.cache.frame_id)
        if before_state == AWAITING:
            assert self.node.cache is before and before.state == REPLACEABLE

    @precondition(lambda self: self.armed)
    @rule(data=st.data(), live=st.booleans(), dt=STEP)
    def fire(self, data, live, dt):
        live_ones = [t for t in self.armed if t[1] == self.node.timer_generation]
        kind, generation = data.draw(st.sampled_from(live_ones if live and live_ones else self.armed))
        self.now += dt
        self.call("on_ll_timeout" if kind == LL_TIMEOUT else "on_local_rto", generation, self.now)

    @invariant()
    def only_its_own_timer_is_live(self):
        # AWAITING holds one live ll timeout, LOCKED one live local rto; each
        # live firing bumps the generation, so a fired timer is never live
        live = [kind for kind, generation in self.armed
                if generation == self.node.timer_generation]
        assert live == TIMER_BY_STATE[state_of(self.node)]

    @invariant()
    def counters_match_the_sends(self):
        data = [p for p in self.sent if type(p) is DataSegment]
        assert self.node.data_tx_count == len(data)
        assert self.node.local_retx_count == sum(p.origin == ORIGIN_LOCAL for p in data)


TestCacheNodeMachine = CacheNodeMachine.TestCase
TestCacheNodeMachine.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)
