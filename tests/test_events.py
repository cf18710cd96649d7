"""The event queue, clock and random source that a Simulation holds.

Events are pushed with ``Simulation.schedule`` and popped by ``run()``.
A stub sender stands in for the TCP sender: it records every timer call
the loop makes on it, and it never completes, so each run ends at its
horizon, past ``MAX_TIME_US``: drained if nothing else is queued there.
"""

import pytest
from hypothesis import given, strategies as st

from dtcsim.engine import LivenessError, Simulation, TimeBoundExceeded
from dtcsim.events import MAX_TIME_US, SENDER, SchedulingError
from dtcsim.harness import Scenario
from dtcsim.packets import DataSegment


class StubSender:
    """Records (now, call, arg) of each of its handlers the run loop calls,
    in ``seen`` (which two stubs may share)."""

    completed_at = None

    def __init__(self, sim, seen=None):
        self.sim = sim
        self.seen = [] if seen is None else seen
        self.on_pop = None

    def start(self, now):
        pass

    def on_rto(self, arg, now):
        assert self.sim.now == now
        self.seen.append((now, self.on_rto, arg))
        if self.on_pop is not None:
            self.on_pop()

    def on_send_slot(self, arg, now):
        assert self.sim.now == now
        self.seen.append((now, self.on_send_slot, arg))
        if self.on_pop is not None:
            self.on_pop()


def make_sim(seed=0, **knobs):
    sim = Simulation(Scenario(hops=2, p_data=0.0, dtc_enabled=False, seed=seed, **knobs))
    sim.sender = StubSender(sim)
    return sim


def drain(sim):
    """Run the loop until its horizon finds nothing else queued; what the
    stub sender saw."""
    with pytest.raises(LivenessError, match="drained"):
        sim.run()
    return sim.sender.seen


def args(seen):
    return [arg for _, _, arg in seen]


def test_single_event_pops():
    sim = make_sim()
    sim.schedule(5, sim.sender.on_rto, arg="a")
    assert drain(sim) == [(5, sim.sender.on_rto, "a")]


def test_event_tuple_layout():
    sim = make_sim()
    sim.schedule(4, sim.sender.on_rto, arg=7)
    sim.schedule(4, sim.sender.on_send_slot)
    sim.send(SENDER, DataSegment(1))
    assert sim._heap == [(4, 0, sim.sender.on_rto, 7), (4, 1, sim.sender.on_send_slot, None),
                         (10_000, 2, None, (0, DataSegment(1)))]


def test_pop_orders_by_fire_time():
    sim = make_sim()
    sim.schedule(5, sim.sender.on_rto, arg="late")
    sim.schedule(3, sim.sender.on_rto, arg="early")
    assert args(drain(sim)) == ["early", "late"]


def test_equal_time_events_stay_fifo():
    sim = make_sim()
    sim.schedule(7, sim.sender.on_rto, arg="A")
    sim.schedule(7, sim.sender.on_rto, arg="B")
    assert args(drain(sim)) == ["A", "B"]


def test_equal_time_ties_never_compare_call_or_arg():
    # two stations' handlers (which do not order) and unorderable args must
    # not reorder equal times
    sim = make_sim()
    a = sim.sender
    b = StubSender(sim, seen=a.seen)
    sim.schedule(7, b.on_send_slot)
    sim.schedule(7, a.on_rto, arg=object())
    sim.schedule(7, b.on_rto, arg=object())
    sim.schedule(7, a.on_send_slot)
    assert [call for _, call, _ in drain(sim)] == [b.on_send_slot, a.on_rto, b.on_rto,
                                                   a.on_send_slot]


def test_pop_advances_clock():
    sim = make_sim()
    sim.schedule(1, sim.sender.on_rto, arg="x")
    sim.schedule(9, sim.sender.on_rto, arg="y")
    clock = []
    sim.sender.on_pop = lambda: clock.append(sim.now)
    drain(sim)
    assert clock == [1, 9]
    assert sim.now == MAX_TIME_US + 1               # the horizon's time


def test_empty_queue_returns_none():
    # a heap that drains before the transfer completes is a liveness failure
    sim = make_sim()
    assert drain(sim) == []
    assert sim.now == MAX_TIME_US + 1


def test_scheduling_at_current_time_is_legal():
    sim = make_sim()
    sim.schedule(9, sim.sender.on_rto, arg="x")

    def again():
        if len(sim.sender.seen) == 1:
            sim.schedule(9, sim.sender.on_rto, arg="same-instant")

    sim.sender.on_pop = again
    assert args(drain(sim)) == ["x", "same-instant"]


def test_scheduling_in_the_past_aborts():
    sim = make_sim()
    sim.schedule(10, sim.sender.on_rto, arg="x")

    def too_late():
        if len(sim.sender.seen) == 1:
            sim.schedule(9, sim.sender.on_rto, arg="too-late")

    sim.sender.on_pop = too_late
    with pytest.raises(SchedulingError,
                       match="StubSender.on_rto scheduled at t=9us behind the clock t=10us"):
        sim.run()
    assert sim._heap == [(MAX_TIME_US + 1, -1, sim._horizon, None)]


def test_a_timer_past_the_time_bound_stops_the_run_naming_it():
    # a timer may be armed past the bound; the run stops at its horizon,
    # after every event at or below the bound and first on a tie past it,
    # naming the earliest event queued there
    sim = make_sim(seed=3)
    sim.schedule(MAX_TIME_US + 2, sim.sender.on_send_slot)
    sim.schedule(MAX_TIME_US + 1, sim.sender.on_rto, arg="past it")
    sim.schedule(MAX_TIME_US, sim.sender.on_rto, arg="at the bound")
    with pytest.raises(TimeBoundExceeded, match=(
            f"^h2-p0.0-off seed=3: StubSender.on_rto scheduled at t={MAX_TIME_US + 1}us, "
            f"past the {MAX_TIME_US} us bound on virtual time$")):
        sim.run()
    assert issubclass(TimeBoundExceeded, LivenessError)
    assert args(sim.sender.seen) == ["at the bound"]
    assert sim.now == MAX_TIME_US + 1


def test_a_frame_past_the_time_bound_stops_the_run_naming_a_frame_arrival():
    # the frame sent at the bound arrives one hop latency past it, before
    # the timer armed with it
    sim = make_sim(seed=3)
    sim.schedule(MAX_TIME_US, sim.sender.on_rto, arg="at the bound")

    def send_and_arm():
        sim.send(SENDER, DataSegment(1))
        sim.schedule(MAX_TIME_US + 2 * sim.latency, sim.sender.on_rto, arg="past it")

    sim.sender.on_pop = send_and_arm
    with pytest.raises(TimeBoundExceeded, match=(
            f"^h2-p0.0-off seed=3: a frame arrival scheduled at t={MAX_TIME_US + sim.latency}us, "
            f"past the {MAX_TIME_US} us bound on virtual time$")):
        sim.run()
    assert args(sim.sender.seen) == ["at the bound"]


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_pop_times_never_decrease(times):
    sim = make_sim()
    for t in times:
        sim.schedule(t, sim.sender.on_send_slot)
    popped = [fire_at for fire_at, _, _ in drain(sim)]
    assert popped == sorted(times)


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=30))
def test_tiebreaks_unique_and_insertion_ordered(times):
    sim = make_sim()
    for i, t in enumerate(times):
        sim.schedule(t, sim.sender.on_rto, arg=i)
    assert len({seq for _, seq, _, _ in sim._heap}) == len(times)
    seen = drain(sim)
    for t in set(times):
        same_time = [arg for fire_at, _, arg in seen if fire_at == t]
        assert same_time == sorted(same_time)


def test_same_seed_same_draws():
    a = make_sim(seed=1234)
    b = make_sim(seed=1234)
    assert [a._random() for _ in range(10)] == [b._random() for _ in range(10)]
    for sim in (a, b):
        for _ in range(10):
            sim.send(SENDER, DataSegment(1))
    assert a.draws == b.draws == 10
    assert a._heap == b._heap


def test_draws_in_unit_interval():
    draw = make_sim(seed=7)._random
    assert all(0.0 <= draw() < 1.0 for _ in range(1000))


def test_uniform_mean_monte_carlo():
    # mean of 1e5 uniforms is within [0.49, 0.51] (far beyond 3 sigma)
    draw = make_sim(seed=20240811)._random
    n = 100_000
    mean = sum(draw() for _ in range(n)) / n
    assert 0.49 <= mean <= 0.51


def test_uniform_quartile_monte_carlo():
    draw = make_sim(seed=987654)._random
    n = 100_000
    below = sum(draw() < 0.25 for _ in range(n)) / n
    assert 0.24 <= below <= 0.26
