"""The scenario generator that the knob-space pin and the whole-run
properties share.

``draw_scenario`` draws every ``Scenario`` field from a random source.
The knob-space pin (``test_knob_space_pin.py``) calls it with seeded
``random.Random`` objects and pins the RunMetrics of what it draws, so
the scenarios it draws for a given sequence of random numbers must not
change.  ``any_scenario`` calls the same function with a random source
that Hypothesis controls, so the whole-run properties search the knob
space the pin covers, and a failing example still shrinks.
"""

import random

from hypothesis import strategies as st

from dtcsim.engine import EventBudgetExceeded, RunMetrics, Simulation
from dtcsim.harness import Scenario

P_DATA = [0.0, 0.01, 0.05, 0.1, 0.15, 0.2, 0.3]
HOP_LATENCY_US = [1, 2, 37, 1_000, 10_000, 25_000]

# host-time limit, in ms, on one example of a whole-run property: 25x the
# slowest example measured over any_scenario, 0.8 s on 2 vCPUs under
# Python 3.11, a lossless caching storm that its event budget cut
DEADLINE_MS = 20_000


def _maybe(rng: random.Random, value):
    """value or None (the automatic default), evenly."""
    return value if rng.random() < 0.5 else None


def _log_uniform(rng: random.Random, high: int) -> int:
    """An int in [1, high] whose logarithm is uniform."""
    return round(high ** rng.random())


def draw_scenario(rng: random.Random, wide_rto: bool) -> Scenario:
    """One scenario over every knob.

    An explicit ``rto_min`` is at or above one round trip of the path
    (``2 * hops * hop_latency``), or, with ``wide_rto``, it and
    ``rto_initial`` are log-uniform from 1 us, so the sender's backoff
    starts far below the round trip.  ``rto_max`` is at or above one
    round trip, the lowest ceiling Scenario accepts.
    """
    hops = rng.randint(2, 12)
    hop_latency = rng.choice(HOP_LATENCY_US)
    round_trip = 2 * hops * hop_latency
    spacing = rng.choice(["auto", "zero", "small", "large"])
    send_spacing = {
        "auto": None,
        "zero": 0,
        "small": rng.randint(1, 2 * hop_latency),
        "large": rng.randint(10 * hop_latency, 50 * hop_latency),
    }[spacing]
    if wide_rto:
        rto_min = _maybe(rng, _log_uniform(rng, 6 * round_trip))
    else:
        rto_min = _maybe(rng, rng.randint(round_trip, 6 * round_trip))
    floor = rto_min if rto_min is not None else 4 * hops * hop_latency
    ceiling = max(floor, round_trip)        # without wide_rto the floor is never below it
    rto_max = _maybe(rng, rng.randint(ceiling, 64 * ceiling))
    initial = _log_uniform(rng, 4 * floor) if wide_rto else rng.randint(1, 4 * floor)
    rto_initial = _maybe(rng, initial)
    fields = dict(
        hops=hops,
        p_data=rng.choice(P_DATA),
        dtc_enabled=rng.random() < 0.5,
        total_segments=rng.randint(1, 60),
        window=rng.randint(1, 6),
        hop_latency=hop_latency,
        seed=rng.randint(1, 1_000_000),
        max_local_retries=rng.randint(0, 4),
        ll_wait_multiplier=rng.randint(1, 4),
        send_spacing=send_spacing,
        rto_min=rto_min,
        rto_initial=rto_initial,
        fast_retransmit=rng.random() < 0.5,
    )
    if rto_max is not None:
        fields["rto_max"] = rto_max
    return Scenario(**fields)


# Hypothesis feeds draw_scenario's randint, choice and random calls from
# its own data.  A failing example prints only as
# draw_scenario(HypothesisRandom(generated data), ...), so a property
# notes the Scenario it drew.
any_scenario = st.builds(draw_scenario, st.randoms(), st.booleans())


def finish(sim: Simulation) -> RunMetrics | None:
    """Run sim: its RunMetrics, or None where its event budget cut a
    caching run with p_data 0 short.

    A few such draws use up their budget in ROADMAP direction 1's lock
    storm, at most 160 x 60 x 12 events, well within DEADLINE_MS.  The
    conservation property skips a cut run, the draw property checks only
    its draw count, and the timer and ll-ack properties their asserts on
    each event before the cut.  A budget cut of a lossy or a caching-off
    run, and a queue that drains before the transfer completes, are
    defects: their LivenessError propagates.
    """
    try:
        return sim.run()
    except EventBudgetExceeded:
        s = sim.scenario
        if s.p_data == 0.0 and s.dtc_enabled:
            return None
        raise
