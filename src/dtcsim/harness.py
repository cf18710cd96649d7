"""Scenario definition, chain topology, runs, sweeps, and aggregation.

A Scenario pins every knob of one run, including the seed, so a run is a
pure function of its Scenario.  Sweeps execute independent runs (seeds
base_seed + run index) and aggregation is a fold over collected metrics.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass
from multiprocessing import Pool
from typing import NamedTuple, Optional, Sequence

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
    max_events: int = 100_000_000

    def __post_init__(self) -> None:
        """Reject knob values no run can use; each message names the knob."""
        if self.hops < 2:
            raise ValueError(f"hops: a chain needs at least 2, got {self.hops}")
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


class RunMetrics(NamedTuple):
    """Counters collected from one completed run."""

    e2e_retransmissions: int
    per_node_data_tx: tuple             # indexed by intermediate node 0..hops-2
    sender_data_tx: int
    completion_time: int                # microseconds from transfer start
    delivered_segments: int
    local_retransmissions_total: int
    rng_draws: int                      # replay check: must match per (scenario, seed)


class RunRecord(NamedTuple):
    scenario: Scenario
    metrics: RunMetrics


class ChainTopology(NamedTuple):
    sender_id: int
    receiver_id: int
    node_ids: tuple                     # intermediate nodes, 0 nearest the sender
    hops_to_receiver: tuple             # per intermediate node


def build_chain(scenario: Scenario) -> ChainTopology:
    """Sender -- node 0 -- ... -- node hops-2 -- receiver, uniform latency."""
    receiver = scenario.hops - 1
    node_ids = tuple(range(scenario.hops - 1))
    return ChainTopology(
        sender_id=-1,
        receiver_id=receiver,
        node_ids=node_ids,
        hops_to_receiver=tuple(scenario.hops - 1 - i for i in node_ids),
    )


def run(scenario: Scenario, trace=None, drop_override=None) -> RunMetrics:
    """Execute one run to completion; deterministic in the scenario."""
    from .engine import Simulation

    return Simulation(scenario, trace=trace, drop_override=drop_override).run()


def _run_record(scenario: Scenario) -> RunRecord:
    return RunRecord(scenario, run(scenario))


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
    regardless of job count.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    tasks = [
        dataclasses.replace(cell, seed=base_seed + k)
        for cell in cells
        for k in range(runs)
    ]
    if jobs > 1 and len(tasks) > 1:
        with Pool(processes=jobs) as pool:
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
    mean_e2e_retx: float
    stddev_e2e_retx: float
    mean_sender_data_tx: float
    stddev_sender_data_tx: float
    mean_local_retx: float
    stddev_local_retx: float
    mean_completion_time: float
    stddev_completion_time: float
    mean_per_node_tx: tuple
    stddev_per_node_tx: tuple

    def mean_throughput(self) -> float:
        """Delivered segments per second of virtual time."""
        seconds = self.mean_completion_time / US_PER_S
        return 0.0 if seconds == 0 else self.total_segments / seconds


def _mean_std(values) -> tuple[float, float]:
    values = list(values)
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def aggregate(records: Sequence[RunRecord]) -> Aggregate:
    """Mean and sample stddev per metric; per-node vector averaged elementwise."""
    if not records:
        raise ValueError("cannot aggregate zero runs")
    first = records[0].scenario
    key = (first.hops, first.p_data, first.dtc_enabled)
    for record in records:
        s = record.scenario
        if (s.hops, s.p_data, s.dtc_enabled) != key:
            raise ValueError(f"mixed scenario keys in aggregate: {key} vs "
                             f"{(s.hops, s.p_data, s.dtc_enabled)}")
    metrics = [r.metrics for r in records]
    e2e = _mean_std(m.e2e_retransmissions for m in metrics)
    tx = _mean_std(m.sender_data_tx for m in metrics)
    local = _mean_std(m.local_retransmissions_total for m in metrics)
    done = _mean_std(m.completion_time for m in metrics)
    per_node = list(zip(*(m.per_node_data_tx for m in metrics)))
    node_stats = [_mean_std(column) for column in per_node]
    return Aggregate(
        hops=first.hops,
        p_data=first.p_data,
        dtc_enabled=first.dtc_enabled,
        runs=len(records),
        total_segments=first.total_segments,
        mean_e2e_retx=e2e[0],
        stddev_e2e_retx=e2e[1],
        mean_sender_data_tx=tx[0],
        stddev_sender_data_tx=tx[1],
        mean_local_retx=local[0],
        stddev_local_retx=local[1],
        mean_completion_time=done[0],
        stddev_completion_time=done[1],
        mean_per_node_tx=tuple(s[0] for s in node_stats),
        stddev_per_node_tx=tuple(s[1] for s in node_stats),
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
    return base.mean_e2e_retx / max(dtc.mean_e2e_retx, 1.0)
