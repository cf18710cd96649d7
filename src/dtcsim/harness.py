"""Scenario definition, runs, sweeps, and aggregation.

A Scenario pins every knob of one run, including the seed, so a run is a
pure function of its Scenario.  Sweeps execute independent runs (seeds
base_seed + run index) and aggregation is a fold over collected metrics.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
from dataclasses import dataclass
from multiprocessing import Pool
from typing import NamedTuple, Optional, Sequence

from .engine import LivenessError, RunMetrics, Simulation      # RunMetrics re-exported
from .events import US_PER_MS, US_PER_S

DEFAULT_SEGMENTS = 500
DEFAULT_WINDOW = 3
DEFAULT_HOP_LATENCY = 10 * US_PER_MS
DEFAULT_RUNS = 30


@dataclass(frozen=True)
class Scenario:
    """Parameters of one run; everything an experiment can turn."""

    hops: int                           # links, including both endpoint hops
    p_data: float                       # per-hop data-frame loss probability
    dtc_enabled: bool
    total_segments: int = DEFAULT_SEGMENTS
    window: int = DEFAULT_WINDOW
    hop_latency: int = DEFAULT_HOP_LATENCY      # microseconds per hop
    seed: int = 0
    max_local_retries: int = 3
    ll_wait_multiplier: int = 3                 # ll-ack wait, in hop latencies
    send_spacing: Optional[int] = None          # None: just over one ll-ack round trip
    rto_min: Optional[int] = None               # None: 4x the one-way path delay
    rto_max: int = 60 * US_PER_S
    rto_initial: Optional[int] = None           # None: 3x the effective rto_min
    fast_retransmit: bool = False
    # the budget counts processed events, and an ll ack that no node awaits
    # is never pushed, so it is not one; no default run comes near the budget
    # (an 11-hop, 15 % loss run processes about 48,500 with caching off)
    max_events: int = 100_000_000

    def __post_init__(self) -> None:
        """Reject knob values no run can use; each message starts with the field."""
        if self.hops < 2:
            raise ValueError(f"hops must be >= 2 (a chain of two links), got {self.hops}")
        if not 0.0 <= self.p_data < 1.0:
            raise ValueError(f"p_data (per-hop data loss) must be in [0, 1), got {self.p_data!r}")
        if self.total_segments < 1:
            raise ValueError(f"total_segments must be >= 1, got {self.total_segments}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.hop_latency < 1:
            raise ValueError(f"hop_latency must be >= 1 us, got {self.hop_latency}")
        if self.max_local_retries < 0:
            raise ValueError(f"max_local_retries must be >= 0, got {self.max_local_retries}")
        if self.ll_wait_multiplier < 1:
            raise ValueError(f"ll_wait_multiplier must be >= 1, got {self.ll_wait_multiplier}")
        if self.send_spacing is not None and self.send_spacing < 0:
            raise ValueError(f"send_spacing must be >= 0 us, got {self.send_spacing}")
        for knob in ("rto_min", "rto_initial"):
            value = getattr(self, knob)
            if value is not None and value < 1:
                raise ValueError(f"{knob} must be >= 1 us, got {value}")
        if self.rto_max < self.effective_rto_min():
            raise ValueError(f"rto_max must be >= the effective rto_min "
                             f"({self.effective_rto_min()} us), got {self.rto_max}")
        if self.max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {self.max_events}")

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


class RunRecord(NamedTuple):
    scenario: Scenario
    metrics: RunMetrics


def run(scenario: Scenario, trace=None, drop_override=None) -> RunMetrics:
    """Execute one run to completion; deterministic in the scenario."""
    return Simulation(scenario, trace=trace, drop_override=drop_override).run()


def _run_record(scenario: Scenario) -> RunRecord:
    """One sweep task; a run that fails says which one it was."""
    try:
        return RunRecord(scenario, run(scenario))
    except LivenessError as exc:
        mode = "dtc" if scenario.dtc_enabled else "baseline"
        raise LivenessError(f"hops={scenario.hops} p_data={scenario.p_data} mode={mode} "
                            f"seed={scenario.seed}: {exc}") from exc


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
    regardless of job count.  At most min(jobs, runs x cells, CPU count)
    worker processes run them.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    tasks = [
        dataclasses.replace(cell, seed=base_seed + k)
        for cell in cells
        for k in range(runs)
    ]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with Pool(processes=workers) as pool:
            return pool.map(_run_record, tasks, chunksize=4)
    return [_run_record(task) for task in tasks]


@dataclass(frozen=True)
class Aggregate:
    """Per-(hops, p_data, dtc) means and sample standard deviations."""

    hops: int
    p_data: float
    dtc_enabled: bool
    runs: int
    total_segments: int
    mean: RunMetrics                    # each field averaged; tuples elementwise
    stddev: RunMetrics

    def mean_throughput(self) -> float:
        """Delivered segments per second of virtual time."""
        seconds = self.mean.completion_time / US_PER_S
        return 0.0 if seconds == 0 else self.total_segments / seconds


def _mean_std(values: tuple) -> tuple:
    """(mean, sample stddev) of one field over the runs; a tuple field elementwise."""
    if isinstance(values[0], tuple):
        means, stddevs = zip(*(_mean_std(column) for column in zip(*values)))
        return means, stddevs
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def aggregate(records: Sequence[RunRecord]) -> Aggregate:
    """Mean and sample stddev of every RunMetrics field over the cell's runs."""
    if not records:
        raise ValueError("cannot aggregate zero runs")
    first = records[0].scenario
    key = (first.hops, first.p_data, first.dtc_enabled)
    for record in records:
        s = record.scenario
        if (s.hops, s.p_data, s.dtc_enabled) != key:
            raise ValueError(f"mixed scenario keys in aggregate: {key} vs "
                             f"{(s.hops, s.p_data, s.dtc_enabled)}")
    means, stddevs = zip(*(_mean_std(values) for values in zip(*(r.metrics for r in records))))
    return Aggregate(
        hops=first.hops,
        p_data=first.p_data,
        dtc_enabled=first.dtc_enabled,
        runs=len(records),
        total_segments=first.total_segments,
        mean=RunMetrics(*means),
        stddev=RunMetrics(*stddevs),
    )


def reduction_factor(base: Aggregate, dtc: Aggregate) -> float:
    """How many end-to-end retransmissions the caches save, as a ratio.

    The denominator is floored at one retransmission so a cache layer
    that eliminates them entirely still yields a finite factor.
    """
    if (base.hops, base.p_data) != (dtc.hops, dtc.p_data):
        raise ValueError("reduction factor needs matching (hops, p_data) cells")
    if base.dtc_enabled or not dtc.dtc_enabled:
        raise ValueError("pass (baseline aggregate, caching aggregate) in that order")
    return base.mean.e2e_retransmissions / max(dtc.mean.e2e_retransmissions, 1.0)
