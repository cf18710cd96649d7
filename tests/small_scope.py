"""Small-scope enumeration: the engine against the naive reference loop
over every knob combination of a grid of tiny chains.

Each traced run of the grid must give the reference loop's ``RunMetrics``
and trace records, or, where the engine cuts the run at its event
budget, a prefix of the reference's records.  The engine also runs each
scenario untraced, where a caching-off run carries frames across its
relays instead of sending them, and must end as its traced run does: in
the same ``RunMetrics``, or cut at the same time with the same segments
delivered.  Small instances are cheap
to enumerate, and most defects show on some small instance (the
small-scope hypothesis).  The grid:

  * hops 2-6 (``--max-hops`` widens it) and 12 segments (``--segments``);
  * windows 1, 2, 3, 5 and 8, and hop latency 1 us or 10 ms, with
    automatic RTOs;
  * automatic send spacing, and 20 us: over 1 us hops that spacing still
    holds the sender's pacing gate busy at some of its timeouts, and over
    10 ms hops it all but opens the gate;
  * lossless at seed 1, and 20 % loss at seeds 1 and 2;
  * caching on at ``ll_wait_multiplier`` 1-4, and caching off, where no
    ll wait is read.

Tier-1 runs the default grid of 1,500 scenarios.  At wider bounds, as

    python tests/small_scope.py --segments 14,15,16 --max-hops 8

it prints one line per mismatching scenario, then the counts, and exits
1 on any mismatch, and 2 on bounds that leave the grid empty.
``dtcsim`` must be importable, from an install or ``PYTHONPATH=src``.
"""

import argparse
import itertools
import sys

from dtcsim.engine import EventBudgetExceeded, RunMetrics, Simulation
from dtcsim.harness import Scenario
from reference_loop import Reference

WINDOWS = (1, 2, 3, 5, 8)
HOP_LATENCIES_US = (1, 10_000)
LL_WAIT_MULTIPLIERS = (1, 2, 3, 4)
# (p_data, seed): lossless at one seed, 20 % loss at two
LOSSES = ((0.0, 1), (0.2, 1), (0.2, 2))
# None: the automatic spacing, which never finds the gate busy at a timeout
SEND_SPACINGS_US = (None, 20)


def grid(segments=(12,), max_hops=6):
    """Every scenario of the grid, at these segment counts and hops 2 to
    max_hops: each chain with caching off, then on at each ll-wait
    multiplier."""
    for total, hops, window, latency, (p_data, seed), spacing in itertools.product(
            segments, range(2, max_hops + 1), WINDOWS, HOP_LATENCIES_US, LOSSES,
            SEND_SPACINGS_US):
        knobs = dict(hops=hops, p_data=p_data, total_segments=total, window=window,
                     hop_latency=latency, seed=seed, send_spacing=spacing)
        yield Scenario(dtc_enabled=False, **knobs)
        for multiplier in LL_WAIT_MULTIPLIERS:
            yield Scenario(dtc_enabled=True, ll_wait_multiplier=multiplier, **knobs)


def outcome(sim):
    """A run's RunMetrics, or where its event budget cuts it, the time and
    the segments delivered in order at the cut."""
    try:
        return sim.run()
    except EventBudgetExceeded:
        return sim.now, sim.receiver.delivered_in_order


def traced(loop, s, drop_override=None):
    """(outcome of one run, trace records)."""
    records = []
    return outcome(loop(s, trace=records.append, drop_override=drop_override)), records


def matches(s, make_override=lambda: None) -> bool:
    """Whether the engine's run of s is the reference loop's, or a prefix of
    it where the engine cuts the run at its budget.  make_override() gives
    each run its own drop override; where it gives None, the engine also
    runs untraced, where it carries frames across relays, and must end as
    the traced run does."""
    drop_override = make_override()
    engine_outcome, engine_records = traced(Simulation, s, drop_override)
    reference_outcome, reference_records = traced(Reference, s, make_override())
    if drop_override is None and outcome(Simulation(s)) != engine_outcome:
        return False
    if not isinstance(engine_outcome, RunMetrics):
        return engine_records == reference_records[:len(engine_records)]
    return engine_outcome == reference_outcome and engine_records == reference_records


def mismatches(scenarios) -> list:
    return [s for s in scenarios if not matches(s)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--segments", default="12",
                        type=lambda text: [int(n) for n in text.split(",")],
                        help="comma-separated segment counts (default 12)")
    parser.add_argument("--max-hops", type=int, default=6)
    args = parser.parse_args(argv)
    scenarios = list(grid(args.segments, args.max_hops))
    if not scenarios:
        parser.error(f"--max-hops {args.max_hops} leaves the grid empty: it starts at 2 hops")
    bad = mismatches(scenarios)
    for s in bad:
        print(f"mismatch: {s}")
    print(f"{len(scenarios)} scenarios, {len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
