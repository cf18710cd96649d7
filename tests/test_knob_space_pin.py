"""Pinned RunMetrics for 600 scenarios drawn over the whole knob space.

The determinism pins and the results goldens run default knobs only
(window 3, 10 ms hops, ll-wait multiplier 3, automatic spacing and RTOs,
fast retransmit off), so a change that alters results only away from the
defaults passes them.  This pin draws every Scenario field with
``scenario_space.draw_scenario`` and stores each run's RunMetrics values
under ``tests/data/knob_space.jsonl``, one scenario per line.  A failure
names the first scenario that differs and the fields that changed.

The same function is the whole-run properties' Hypothesis strategy, so
an edit to it must leave the scenarios this pin draws unchanged;
``test_results_match_the_pin_over_the_knob_space`` checks them before
it runs them.  The generator makes two seeded passes: 400 scenarios
whose explicit ``rto_min`` is at or above one round trip of the path,
then 200, seeded ``GENERATOR_SEED + 1``, with ``wide_rto``, whose
``rto_min`` and ``rto_initial`` start at 1 us.  No drawn scenario is
ever dropped, whatever its outcome.

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

from scenario_space import draw_scenario

PINNED = Path(__file__).parent / "data" / "knob_space.jsonl"

GENERATOR_SEED = 20_100_412
COUNT = 400                 # explicit rto_min at or above one round trip
WIDE_COUNT = 200            # rto_min and rto_initial from 1 us


def _draw(seed: int, count: int, wide_rto: bool) -> list:
    """count scenarios from one seeded pass of the generator."""
    rng = random.Random(seed)
    return [draw_scenario(rng, wide_rto) for _ in range(count)]


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
