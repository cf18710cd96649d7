import pytest
from hypothesis import given, strategies as st

from dtcsim.events import (
    FRAME_ARRIVAL,
    LL_TIMEOUT,
    SEND_SLOT,
    EventQueue,
    RandomSource,
    SchedulingError,
)


def drain(queue):
    out = []
    while (event := queue.pop_next()) is not None:
        out.append(event)
    return out


def args(events):
    return [arg for _, _, _, _, arg in events]


def test_single_event_pops():
    q = EventQueue()
    q.schedule(5, 3, SEND_SLOT, arg="a")
    assert drain(q) == [(5, 0, 3, SEND_SLOT, "a")]


def test_event_tuple_layout():
    q = EventQueue()
    q.schedule(4, 2, LL_TIMEOUT, arg=7)
    q.schedule(4, -1, SEND_SLOT)
    assert drain(q) == [(4, 0, 2, LL_TIMEOUT, 7), (4, 1, -1, SEND_SLOT, None)]


def test_pop_orders_by_fire_time():
    q = EventQueue()
    q.schedule(5, 0, SEND_SLOT, arg="late")
    q.schedule(3, 0, SEND_SLOT, arg="early")
    assert args(drain(q)) == ["early", "late"]


def test_equal_time_events_stay_fifo():
    q = EventQueue()
    q.schedule(7, 0, SEND_SLOT, arg="A")
    q.schedule(7, 0, SEND_SLOT, arg="B")
    assert args(drain(q)) == ["A", "B"]


def test_equal_time_ties_never_compare_kind_or_arg():
    # a later kind code or an unorderable arg must not reorder equal times
    q = EventQueue()
    q.schedule(7, 0, SEND_SLOT, arg=object())
    q.schedule(7, 0, FRAME_ARRIVAL, arg=object())
    assert [kind for _, _, _, kind, _ in drain(q)] == [SEND_SLOT, FRAME_ARRIVAL]


def test_pop_advances_clock():
    q = EventQueue()
    q.schedule(1, 0, SEND_SLOT, arg="x")
    q.schedule(9, 0, SEND_SLOT, arg="y")
    q.pop_next()
    assert q.now == 1
    q.pop_next()
    assert q.now == 9


def test_empty_queue_returns_none():
    q = EventQueue()
    assert q.pop_next() is None


def test_scheduling_at_current_time_is_legal():
    q = EventQueue()
    q.schedule(9, 0, SEND_SLOT, arg="x")
    q.pop_next()
    q.schedule(9, 0, SEND_SLOT, arg="same-instant")
    assert q.pop_next()[4] == "same-instant"


def test_scheduling_in_the_past_aborts():
    q = EventQueue()
    q.schedule(10, 0, SEND_SLOT, arg="x")
    q.pop_next()
    with pytest.raises(SchedulingError):
        q.schedule(9, 0, SEND_SLOT, arg="too-late")
    assert len(q) == 0


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_pop_times_never_decrease(times):
    q = EventQueue()
    for t in times:
        q.schedule(t, 0, SEND_SLOT)
    popped = [fire_at for fire_at, _, _, _, _ in drain(q)]
    assert popped == sorted(popped)


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=30))
def test_tiebreaks_unique_and_insertion_ordered(times):
    q = EventQueue()
    for i, t in enumerate(times):
        q.schedule(t, 0, SEND_SLOT, arg=i)
    events = drain(q)
    assert len({seq for _, seq, _, _, _ in events}) == len(events)
    for t in set(times):
        same_time = [arg for fire_at, _, _, _, arg in events if fire_at == t]
        assert same_time == sorted(same_time)


def test_same_seed_same_draws():
    a = RandomSource(1234)
    b = RandomSource(1234)
    assert [a.uniform_draw() for _ in range(10)] == [b.uniform_draw() for _ in range(10)]
    assert a.draws == b.draws == 10


def test_draws_in_unit_interval():
    rng = RandomSource(7)
    assert all(0.0 <= rng.uniform_draw() < 1.0 for _ in range(1000))


def test_uniform_mean_monte_carlo():
    # mean of 1e5 uniforms is within [0.49, 0.51] (far beyond 3 sigma)
    rng = RandomSource(20240811)
    n = 100_000
    mean = sum(rng.uniform_draw() for _ in range(n)) / n
    assert 0.49 <= mean <= 0.51


def test_uniform_quartile_monte_carlo():
    rng = RandomSource(987654)
    n = 100_000
    below = sum(rng.uniform_draw() < 0.25 for _ in range(n)) / n
    assert 0.24 <= below <= 0.26
