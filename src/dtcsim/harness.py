"""Scenario definition, runs, sweeps, and aggregation.

A Scenario pins every knob of one run, including the seed, so a run is a
pure function of its Scenario.  A cell is a Scenario with seed 0: every
knob a group of runs shares.  Sweeps execute independent runs of each cell
(seeds base_seed + run index), and aggregation folds one cell's metrics
into an Aggregate that keeps the cell.
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .engine import RunMetrics, Simulation      # RunMetrics re-exported
from .events import MAX_TIME_US, US_PER_MS, US_PER_S


# the event budget per segment-hop per expected end-to-end attempt: see
# Scenario.event_budget
EVENTS_PER_SEGMENT_HOP = 160

# the largest event budget a Scenario may have: it bounds what an accepted
# run may cost, its chain's nodes among it (the largest pinned budget is
# 5,687,333)
MAX_EVENT_BUDGET = 10**9

# the sender's timeout ceiling unless a run sets its own
DEFAULT_RTO_MAX = 60 * US_PER_S


# the most digits of an int, or characters of a text, a refusal line shows;
# a longer one is shown by this many leading digits or characters and its
# length
SHOWN_DIGITS = 20


def shown(value) -> str:
    """A knob's value as a refusal line shows it: as ``str`` gives it, but
    a text of more than ``SHOWN_DIGITS`` characters shortened to
    ``<leading characters>... (<n> characters)``, and an int of more than
    ``SHOWN_DIGITS`` digits to ``<leading digits>... (<n> digits)``, so no
    line grows with the value.  The digits are counted without converting
    the whole int to text."""
    if type(value) is str and len(value) > SHOWN_DIGITS:
        return f"{value[:SHOWN_DIGITS]}... ({len(value)} characters)"
    magnitude = abs(value) if type(value) is int else 0
    if magnitude < 10**SHOWN_DIGITS:
        return str(value)
    # log10 is within one of the count; the powers of ten settle it
    digits = int(math.log10(magnitude)) + 1
    if 10 ** (digits - 1) > magnitude:
        digits -= 1
    elif 10**digits <= magnitude:
        digits += 1
    lead = magnitude // 10 ** (digits - SHOWN_DIGITS)
    return f"{'-' if value < 0 else ''}{lead}... ({digits} digits)"


def check_count(knob: str, value, least: Optional[int], unit: str = "") -> None:
    """Refuse a count or a time that is not an int (a bool is not one) or,
    unless least is None, is below least; the message starts with the knob
    and names the unit after the bound."""
    if type(value) is not int:
        raise ValueError(f"{knob} must be an int, got {shown(repr(value))}")
    if least is not None and value < least:
        bound = f"{least} {unit}" if unit else least
        raise ValueError(f"{knob} must be >= {bound}, got {shown(value)}")


def _count(least: Optional[int], unit: str = "", default=dataclasses.MISSING):
    """A Scenario count or time field: its least value (None: any int) and
    the unit its refusal names, as check_count takes them."""
    return dataclasses.field(default=default, metadata={"least": least, "unit": unit})


def dtc_label(enabled: bool) -> str:
    """A caching mode as written in results files, run names and the dtc key."""
    return "on" if enabled else "off"


@dataclass(frozen=True)
class Scenario:
    """Parameters of one run; everything an experiment can turn."""

    hops: int = _count(2, "(a chain of two links)")     # links, both endpoint hops included
    p_data: float                       # per-hop data-frame loss probability
    dtc_enabled: bool
    total_segments: int = _count(1, default=500)
    window: int = _count(1, default=3)
    # the engine pushes frames and ll acks at now + hop_latency unchecked;
    # a latency of at least 1 us keeps those pushes ahead of the clock
    hop_latency: int = _count(1, "us", default=10 * US_PER_MS)    # microseconds per hop
    # random.Random(-s) seeds exactly like random.Random(s)
    seed: int = _count(0, default=0)
    max_local_retries: int = _count(0, default=3)
    ll_wait_multiplier: int = _count(1, default=3)             # ll-ack wait, in hop latencies
    # None: just over one ll-ack round trip
    send_spacing: Optional[int] = _count(0, "us", default=None)
    rto_min: Optional[int] = _count(1, "us", default=None)     # None: 4x the one-way path delay
    rto_max: int = _count(None, default=DEFAULT_RTO_MAX)       # at least its floor, below
    rto_initial: Optional[int] = _count(1, "us", default=None)  # None: 3x the effective rto_min
    fast_retransmit: bool = False

    def __post_init__(self) -> None:
        """Reject knob values no run can use; each message starts with the field.

        Each count and time is an int at or above its field's least value,
        None only where None is its default; each flag is a bool, and
        p_data a number in [0, 1).  The one cost rule, ``MAX_EVENT_BUDGET``
        on ``event_budget()``, comes after every range and type check, and
        names hops when no value of the other knobs could meet it, else
        p_data when no segment count could, else total_segments.  Last,
        every time a run reads, set or derived, is at most ``MAX_TIME_US``,
        and max_local_retries is below the doubling that alone passes it.
        """
        for knob in dataclasses.fields(self):
            value = getattr(self, knob.name)
            if knob.metadata and (value is not None or knob.default is not None):
                check_count(knob.name, value, **knob.metadata)
            elif knob.name == "p_data":
                if type(value) not in (int, float) or not 0.0 <= value < 1.0:
                    raise ValueError(f"p_data (per-hop data loss) must be in [0, 1), got {value!r}")
            elif not knob.metadata and type(value) is not bool:     # a flag
                raise ValueError(f"{knob.name} must be a bool, got {shown(repr(value))}")
        # the event budget cap, on the three knobs it reads: hops when one
        # lossless segment is over it, p_data when one segment at this loss
        # is, else total_segments.  The ints are compared first, so no knob
        # too large for a float is converted; a division that overflows is inf
        rule = f"keep the event budget within {MAX_EVENT_BUDGET}"
        one_segment = EVENTS_PER_SEGMENT_HOP * self.hops
        if one_segment > MAX_EVENT_BUDGET:
            raise ValueError(f"hops must be <= {MAX_EVENT_BUDGET // EVENTS_PER_SEGMENT_HOP} "
                             f"to {rule}")
        survival = (1 - self.p_data) ** self.hops
        if survival == 0 or one_segment / survival > MAX_EVENT_BUDGET:
            raise ValueError(f"p_data must {rule} for one segment over {self.hops} hops, "
                             f"got {self.p_data!r}")
        if self.total_segments > MAX_EVENT_BUDGET or self.event_budget() > MAX_EVENT_BUDGET:
            raise ValueError(f"total_segments must {rule} over {self.hops} hops at p_data "
                             f"{self.p_data!r}")
        if self.rto_min is not None and self.rto_min > self.rto_max:
            raise ValueError(f"rto_min must be <= rto_max ({shown(self.rto_max)} us), "
                             f"got {shown(self.rto_min)}")
        # a ceiling below one round trip fires the sender's timer many times
        # per round trip, so a run's events grow with it, not with the transfer
        floor = max(self.effective_rto_min(), 2 * self.path_delay())
        if self.rto_max < floor:
            if self.rto_max == DEFAULT_RTO_MAX:
                # the ceiling was left alone: the hops are too slow for it; the
                # floor spans this many path delays, and the cap's hops fit
                # it at 1 us a hop
                per_hop = 4 if self.rto_min is None else 2
                raise ValueError(f"hop_latency must be <= {self.rto_max // (per_hop * self.hops)} us "
                                 f"over {self.hops} hops: the default rto_max ({self.rto_max} us) "
                                 f"must cover the effective rto_min and one path round trip")
            raise ValueError(f"rto_max must be >= the effective rto_min and one path "
                             f"round trip ({shown(floor)} us), got {shown(self.rto_max)}")
        # every time a run reads within MAX_TIME_US.  rto_max is at or above
        # the effective rto_min and the path round trip, so within it they
        # and the hop latency are too
        for knob, what, time in (
                ("rto_max", "the timeout ceiling", self.rto_max),
                ("rto_initial", "the initial timeout", self.effective_rto_initial()),
                ("send_spacing", "the spacing of sends", self.effective_send_spacing()),
                ("ll_wait_multiplier", "the ll wait", self.ll_wait())):
            if time > MAX_TIME_US:
                raise ValueError(f"{knob} must keep {what} <= {MAX_TIME_US} us, "
                                 f"got {shown(time)} us")
        # a local rto doubles per retry: past this many the doubling alone
        # passes the bound
        if self.max_local_retries >= MAX_TIME_US.bit_length():
            raise ValueError(f"max_local_retries must be <= {MAX_TIME_US.bit_length() - 1} to "
                             f"keep a local rto's doubling within {MAX_TIME_US} us, "
                             f"got {shown(self.max_local_retries)}")

    @property
    def cell_id(self) -> str:
        """The run's name without its seed, ``h<hops>-p<p_data>-<on|off>``.

        It is the ``scenario_id`` column of runs.csv, the ``scenario:`` line
        of ``dtcsim run``, and the start of every LivenessError message,
        followed there by ``seed=<seed>``.
        """
        return f"h{self.hops}-p{self.p_data}-{dtc_label(self.dtc_enabled)}"

    def path_delay(self) -> int:
        """One-way sender-to-receiver delay over the whole chain."""
        return self.hops * self.hop_latency

    def ll_wait(self) -> int:
        return self.ll_wait_multiplier * self.hop_latency

    def effective_send_spacing(self) -> int:
        # just over the 2-hop ll-ack round trip, so a node learns the fate
        # of one forwarded segment before the next one reaches it
        if self.send_spacing is not None:
            return self.send_spacing
        return 2 * self.hop_latency + self.hop_latency // 10

    def effective_rto_min(self) -> int:
        if self.rto_min is not None:
            return self.rto_min
        return 4 * self.path_delay()

    def effective_rto_initial(self) -> int:
        if self.rto_initial is not None:
            return self.rto_initial
        return 3 * self.effective_rto_min()

    def event_budget(self) -> int:
        """Processed events after which a run stops with EventBudgetExceeded.

        ``ceil(160 * total_segments * hops / (1 - p_data) ** hops)``: 160
        events per segment-hop per expected end-to-end attempt.  An ll ack
        is never an event: the one a node awaits is kept as that node's
        state.  Nor is an ll timeout whose ll ack lands first.  Measured as
        events / (segments * hops * (1 - p_data) ** -hops) while those ll
        acks and ll timeouts were still pushed (leaving them out only
        lowers these figures), the highest ratios were 2.9 over the acceptance grid
        (540 runs), 12.7 over the 600 knob-space pin scenarios, and 39.7
        over all but one of 14,000 scenarios with rto_min and rto_initial
        drawn log-uniformly from 1 us; 160 is 4x the highest.  The one
        left, at 93.7, caches over 2 us hops, where local retransmissions
        cascade and the ratio grows with the transfer (168 at 50 segments,
        859 at 60): a storm that the budget is there to stop.
        """
        return math.ceil(EVENTS_PER_SEGMENT_HOP * self.total_segments * self.hops
                         / (1 - self.p_data) ** self.hops)


class RunRecord(NamedTuple):
    scenario: Scenario
    metrics: RunMetrics


def run(scenario: Scenario, trace=None, drop_override=None) -> RunMetrics:
    """Execute one run to completion; deterministic in the scenario."""
    return Simulation(scenario, trace=trace, drop_override=drop_override).run()


def _run_record(scenario: Scenario) -> RunRecord:
    """One sweep task."""
    return RunRecord(scenario, run(scenario))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set (which taskset or
    a cpuset narrows) where the platform has one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep(
    cells: Sequence[Scenario],
    runs: int,
    base_seed: int,
    jobs: int = 1,
) -> list[RunRecord]:
    """runs x len(cells) independent runs, seeds base_seed + run index.

    Every cell reuses the same seed list, so paired comparisons across
    cells (with/without caching) see identical loss processes per seed
    index.  Rows come back grouped by cell, in run-index order,
    regardless of job count.  At most min(jobs, runs x cells, usable CPUs)
    worker processes run them.  multiprocessing is imported only when that
    is more than one, so a run or a one-worker sweep never loads it.
    """
    check_count("runs", runs, 1)
    tasks = [
        dataclasses.replace(cell, seed=base_seed + k)
        for cell in cells
        for k in range(runs)
    ]
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers > 1:
        from multiprocessing import Pool
        with Pool(processes=workers) as pool:
            return pool.map(_run_record, tasks, chunksize=4)
    return [_run_record(task) for task in tasks]


@dataclass(frozen=True)
class Aggregate:
    """Means and sample standard deviations over the runs of one cell.

    The cell is the Scenario the runs share, with seed 0, so it equals the
    matching entry of the cell list the sweep ran.
    """

    cell: Scenario
    runs: int
    mean: RunMetrics                    # each field averaged; tuples elementwise
    stddev: RunMetrics

    def mean_throughput(self) -> float:
        """Delivered segments per second of virtual time."""
        seconds = self.mean.completion_time / US_PER_S
        return 0.0 if seconds == 0 else self.cell.total_segments / seconds


def _mean_std(values: tuple) -> tuple:
    """(mean, sample stddev) of one field over the runs; a tuple field elementwise."""
    if isinstance(values[0], tuple):
        means, stddevs = zip(*(_mean_std(column) for column in zip(*values)))
        return means, stddevs
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def aggregate(records: Sequence[RunRecord]) -> Aggregate:
    """Mean and sample stddev of every RunMetrics field over the cell's runs.

    The records must share one cell: their scenarios may differ in the seed only.
    """
    if not records:
        raise ValueError("cannot aggregate zero runs")
    cell = dataclasses.replace(records[0].scenario, seed=0)
    for record in records:
        if dataclasses.replace(record.scenario, seed=0) != cell:
            raise ValueError(f"mixed cells in aggregate: {cell} vs {record.scenario}")
    means, stddevs = zip(*(_mean_std(values) for values in zip(*(r.metrics for r in records))))
    return Aggregate(
        cell=cell,
        runs=len(records),
        mean=RunMetrics(*means),
        stddev=RunMetrics(*stddevs),
    )


def reduction_factor(base: Aggregate, dtc: Aggregate) -> float:
    """How many end-to-end retransmissions the caches save, as a ratio.

    The two cells may differ in dtc_enabled only, the baseline first.  The
    denominator is floored at one retransmission so a cache layer that
    eliminates them entirely still yields a finite factor.
    """
    if base.cell.dtc_enabled or not dtc.cell.dtc_enabled:
        raise ValueError("pass (baseline aggregate, caching aggregate) in that order")
    if dataclasses.replace(base.cell, dtc_enabled=True) != dtc.cell:
        raise ValueError(f"reduction factor needs cells that differ in dtc_enabled only: "
                         f"{base.cell} vs {dtc.cell}")
    return base.mean.e2e_retransmissions / max(dtc.mean.e2e_retransmissions, 1.0)
