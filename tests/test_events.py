"""The event queue, clock and random source that a Simulation holds.

Events are pushed with ``Simulation.schedule`` and popped by ``run()``.
A stub sender stands in for the TCP sender: it records every timer event
the loop hands it, and it never completes, so each run ends when the heap
drains.
"""

import pytest
from hypothesis import given, strategies as st

from dtcsim.engine import LivenessError, Simulation
from dtcsim.events import SEND_SLOT, SENDER, SENDER_RTO, SchedulingError
from dtcsim.harness import Scenario
from dtcsim.packets import DataSegment


class StubSender:
    """Records (now, kind, arg) of each event the run loop dispatches to it."""

    completed_at = None

    def __init__(self, sim):
        self.sim = sim
        self.seen = []
        self.on_pop = None

    def start(self, now):
        pass

    def on_rto(self, arg, now):
        assert self.sim.now == now
        self.seen.append((now, SENDER_RTO, arg))
        if self.on_pop is not None:
            self.on_pop()

    def on_send_slot(self, now):
        assert self.sim.now == now
        self.seen.append((now, SEND_SLOT, None))
        if self.on_pop is not None:
            self.on_pop()


def make_sim(seed=0, **knobs):
    sim = Simulation(Scenario(hops=2, p_data=0.0, dtc_enabled=False, seed=seed, **knobs))
    sim.sender = StubSender(sim)
    return sim


def drain(sim):
    """Run the loop until the heap is empty; what the stub sender saw."""
    with pytest.raises(LivenessError, match="drained"):
        sim.run()
    return sim.sender.seen


def args(seen):
    return [arg for _, _, arg in seen]


def test_single_event_pops():
    sim = make_sim()
    sim.schedule(5, SENDER, SENDER_RTO, arg="a")
    assert drain(sim) == [(5, SENDER_RTO, "a")]


def test_event_tuple_layout():
    sim = make_sim()
    sim.schedule(4, 2, SENDER_RTO, arg=7)
    sim.schedule(4, -1, SEND_SLOT)
    assert sim._heap == [(4, 0, 2, SENDER_RTO, 7), (4, 1, -1, SEND_SLOT, None)]


def test_pop_orders_by_fire_time():
    sim = make_sim()
    sim.schedule(5, SENDER, SENDER_RTO, arg="late")
    sim.schedule(3, SENDER, SENDER_RTO, arg="early")
    assert args(drain(sim)) == ["early", "late"]


def test_equal_time_events_stay_fifo():
    sim = make_sim()
    sim.schedule(7, SENDER, SENDER_RTO, arg="A")
    sim.schedule(7, SENDER, SENDER_RTO, arg="B")
    assert args(drain(sim)) == ["A", "B"]


def test_equal_time_ties_never_compare_kind_or_arg():
    # a later kind code or an unorderable arg must not reorder equal times
    sim = make_sim()
    sim.schedule(7, SENDER, SEND_SLOT)
    sim.schedule(7, SENDER, SENDER_RTO, arg=object())
    sim.schedule(7, SENDER, SENDER_RTO, arg=object())
    assert [kind for _, kind, _ in drain(sim)] == [SEND_SLOT, SENDER_RTO, SENDER_RTO]


def test_pop_advances_clock():
    sim = make_sim()
    sim.schedule(1, SENDER, SENDER_RTO, arg="x")
    sim.schedule(9, SENDER, SENDER_RTO, arg="y")
    clock = []
    sim.sender.on_pop = lambda: clock.append(sim.now)
    drain(sim)
    assert clock == [1, 9]
    assert sim.now == 9


def test_empty_queue_returns_none():
    # a heap that drains before the transfer completes is a liveness failure
    sim = make_sim()
    assert drain(sim) == []
    assert sim.now == 0


def test_scheduling_at_current_time_is_legal():
    sim = make_sim()
    sim.schedule(9, SENDER, SENDER_RTO, arg="x")

    def again():
        if len(sim.sender.seen) == 1:
            sim.schedule(9, SENDER, SENDER_RTO, arg="same-instant")

    sim.sender.on_pop = again
    assert args(drain(sim)) == ["x", "same-instant"]


def test_scheduling_in_the_past_aborts():
    sim = make_sim()
    sim.schedule(10, SENDER, SENDER_RTO, arg="x")

    def too_late():
        if len(sim.sender.seen) == 1:
            sim.schedule(9, SENDER, SENDER_RTO, arg="too-late")

    sim.sender.on_pop = too_late
    with pytest.raises(SchedulingError, match="behind the clock"):
        sim.run()
    assert sim._heap == []


@pytest.mark.parametrize("latency", [0, -5])
def test_hop_latency_below_one_rejected_at_construction(latency):
    # the engine's own pushes at now + latency rely on this check
    scenario = Scenario(hops=3, p_data=0.1, dtc_enabled=True)
    object.__setattr__(scenario, "hop_latency", latency)    # past Scenario's own check
    with pytest.raises(ValueError, match="hop_latency"):
        Simulation(scenario)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_pop_times_never_decrease(times):
    sim = make_sim()
    for t in times:
        sim.schedule(t, SENDER, SEND_SLOT)
    popped = [fire_at for fire_at, _, _ in drain(sim)]
    assert popped == sorted(times)


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=30))
def test_tiebreaks_unique_and_insertion_ordered(times):
    sim = make_sim()
    for i, t in enumerate(times):
        sim.schedule(t, SENDER, SENDER_RTO, arg=i)
    assert len({seq for _, seq, _, _, _ in sim._heap}) == len(times)
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
