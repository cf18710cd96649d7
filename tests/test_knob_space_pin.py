"""Pinned RunMetrics for 600 scenarios drawn over the whole knob space.

The determinism pins and the results goldens run default knobs only
(window 3, 10 ms hops, ll-wait multiplier 3, automatic spacing and RTOs,
fast retransmit off), so a change that alters results only away from the
defaults passes them.  This pin draws every Scenario field from a fixed
generator and stores each run's RunMetrics values under
``tests/data/knob_space.jsonl``, one scenario per line.  A failure names
the first scenario that differs and the fields that changed.

The generator makes two passes.  The first 400 scenarios keep an
explicit ``rto_min`` at or above one round trip of the path
(``2 * hops * hop_latency``).  The next 200, seeded ``GENERATOR_SEED + 1``,
draw ``rto_min`` and ``rto_initial`` log-uniformly from 1 us, so the
sender's backoff starts far below the round trip.  Both passes keep
``rto_max`` at or above one round trip, the lowest ceiling Scenario
accepts.  No drawn scenario is ever dropped, whatever its outcome.

``RunMetrics`` holds only ints, so the values agree on Python 3.10 and
3.11.  Rewrite the data (only for a change meant to alter results) with

    PYTHONPATH=src python tests/test_knob_space_pin.py
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

from dtcsim.harness import Scenario, run

PINNED = Path(__file__).parent / "data" / "knob_space.jsonl"

GENERATOR_SEED = 20_100_412
COUNT = 400                 # explicit rto_min at or above one round trip
WIDE_COUNT = 200            # rto_min and rto_initial from 1 us

P_DATA = [0.0, 0.01, 0.05, 0.1, 0.15, 0.2, 0.3]
HOP_LATENCY_US = [1, 2, 37, 1_000, 10_000, 25_000]


def _maybe(rng: random.Random, value):
    """value or None (the automatic default), evenly."""
    return value if rng.random() < 0.5 else None


def _log_uniform(rng: random.Random, high: int) -> int:
    """An int in [1, high] whose logarithm is uniform."""
    return round(high ** rng.random())


def _draw(seed: int, count: int, wide_rto: bool) -> list:
    """count scenarios from one seeded pass of the generator."""
    rng = random.Random(seed)
    drawn = []
    for _ in range(count):
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
        ceiling = max(floor, round_trip)        # the first pass's floor is never below it
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
        drawn.append(Scenario(**fields))
    return drawn


def scenarios() -> list:
    """The pinned scenarios; every one the generator draws, in order."""
    return _draw(GENERATOR_SEED, COUNT, False) + _draw(GENERATOR_SEED + 1, WIDE_COUNT, True)


def _entry(scenario: Scenario) -> dict:
    metrics = run(scenario)._asdict()
    metrics["per_node_data_tx"] = list(metrics["per_node_data_tx"])
    return {"scenario": dataclasses.asdict(scenario), "metrics": metrics}


def test_generator_covers_every_knob():
    drawn = scenarios()

    def seen(field):
        return {getattr(s, field) for s in drawn}

    assert seen("hops") == set(range(2, 13))
    assert {0.0, 0.3} <= seen("p_data")
    assert min(seen("total_segments")) == 1 and max(seen("total_segments")) == 60
    assert seen("window") == set(range(1, 7))
    assert 1 in seen("hop_latency")
    assert seen("ll_wait_multiplier") == set(range(1, 5))
    assert {None, 0} <= seen("send_spacing")
    assert any(s.send_spacing and s.send_spacing <= s.hop_latency for s in drawn)
    assert any(s.send_spacing and s.send_spacing >= 10 * s.hop_latency for s in drawn)
    assert seen("max_local_retries") == set(range(0, 5))
    assert seen("fast_retransmit") == seen("dtc_enabled") == {False, True}
    for field in ("rto_min", "rto_initial"):
        assert None in seen(field) and len(seen(field)) > 100
    assert len(seen("rto_max")) > 100
    first, wide = drawn[:COUNT], drawn[COUNT:]
    assert all(s.rto_min is None or s.rto_min >= 2 * s.hops * s.hop_latency for s in first)
    assert 1 in seen("rto_min") and 1 in seen("rto_initial")
    assert any(s.rto_min is not None and s.rto_min < 2 * s.hops * s.hop_latency for s in wide)
    assert all(s.rto_max >= 2 * s.hops * s.hop_latency for s in drawn)


def test_results_match_the_pin_over_the_knob_space():
    pinned = [json.loads(line) for line in PINNED.read_text().splitlines()]
    drawn = scenarios()
    assert [dataclasses.asdict(s) for s in drawn] == [p["scenario"] for p in pinned], \
        "the generator drew other scenarios than the pinned ones"
    for index, (scenario, expected) in enumerate(zip(drawn, pinned)):
        got = _entry(scenario)["metrics"]
        if got != expected["metrics"]:
            changed = {name: f"{expected['metrics'][name]} -> {value}"
                       for name, value in got.items() if value != expected["metrics"][name]}
            raise AssertionError(f"scenario {index} differs: {scenario}; changed: {changed}")


if __name__ == "__main__":
    PINNED.parent.mkdir(parents=True, exist_ok=True)
    with PINNED.open("w") as handle:
        for scenario in scenarios():
            handle.write(json.dumps(_entry(scenario), sort_keys=True) + "\n")
    print(f"wrote {COUNT + WIDE_COUNT} scenarios to {PINNED}", file=sys.stderr)
