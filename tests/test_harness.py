import dataclasses
import math
import re
from heapq import heappop
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dtcsim import engine, harness
from dtcsim.engine import LivenessError, Simulation
from dtcsim.events import FRAME_ARRIVAL
from dtcsim.harness import (
    RunMetrics,
    RunRecord,
    Scenario,
    aggregate,
    reduction_factor,
    run,
    sweep,
)

from conftest import ScriptedDrops, watch_pushes


HOP_LINE = re.compile(r"HOP from=(\S+) to=(\S+) kind=(\S+) result=delivered t=(\d+)")


def scenario(**overrides):
    base = dict(hops=6, p_data=0.0, dtc_enabled=True, total_segments=30, seed=1)
    base.update(overrides)
    return Scenario(**base)


# -- scenario validation -----------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(hops=1),
    dict(p_data=1.0),
    dict(p_data=-0.1),
    dict(total_segments=0),
    dict(window=0),
    dict(hop_latency=0),
    dict(max_local_retries=-1),
    dict(ll_wait_multiplier=0),
    dict(send_spacing=-1),
    dict(rto_min=0),
    dict(rto_initial=0),
    dict(rto_max=1),
    dict(max_events=0),
])
def test_invalid_scenarios_rejected(bad):
    knob = next(iter(bad))
    with pytest.raises(ValueError, match=knob):
        scenario(**bad)


def test_boundary_knob_values_accepted():
    s = scenario(max_local_retries=0, ll_wait_multiplier=1, send_spacing=0,
                 rto_min=1, rto_initial=1, rto_max=1, max_events=1)
    assert s.effective_rto_min() == s.rto_max == 1
    assert scenario(hops=11, rto_max=440_000).rto_max == 440_000    # the derived rto_min


def test_derived_timing_defaults():
    s = scenario(hops=11, hop_latency=10_000)
    assert s.path_delay() == 110_000
    assert s.ll_wait() == 30_000
    assert s.effective_rto_min() == 440_000
    assert s.effective_rto_initial() == 3 * 440_000
    assert s.effective_send_spacing() == 21_000


def test_explicit_rto_overrides_derivation():
    s = scenario(rto_min=5_000_000)
    assert s.effective_rto_min() == 5_000_000
    assert s.effective_rto_initial() == 15_000_000


# -- topology ------------------------------------------------------------------------

def test_eleven_hop_chain_has_ten_nodes():
    sim = Simulation(scenario(hops=11))
    assert [node.node_id for node in sim.nodes] == list(range(10))
    assert sim.receiver_id == 10
    assert sim.nodes[9].hops_to_receiver == 1     # node 9 borders the receiver


def test_minimal_chain():
    sim = Simulation(scenario(hops=2))
    assert [node.node_id for node in sim.nodes] == [0]
    assert [node.hops_to_receiver for node in sim.nodes] == [1]


def test_hops_to_receiver_arithmetic():
    sim = Simulation(scenario(hops=6))
    assert [node.hops_to_receiver for node in sim.nodes] == [5, 4, 3, 2, 1]
    # lossless 3-hop run of one segment: every frame moves one node per hop
    # latency, and each link-layer ack goes back to the frame's transmitter
    lines = []
    run(scenario(hops=3, total_segments=1, dtc_enabled=False), trace=lines.append)
    hops = [HOP_LINE.match(line).groups() for line in lines if line.startswith("HOP ")]
    hops = [(src, dst, kind, int(t)) for src, dst, kind, t in hops]
    frames = [hop for hop in hops if hop[2] != "llack"]
    assert frames == [
        ("S", "0", "data", 0), ("0", "1", "data", 10_000), ("1", "R", "data", 20_000),
        ("R", "1", "ack", 30_000), ("1", "0", "ack", 40_000), ("0", "S", "ack", 50_000),
    ]
    llacks = [(src, dst, t) for src, dst, kind, t in hops if kind == "llack"]
    assert llacks == [(dst, src, t + 10_000) for src, dst, _, t in frames]


# -- single runs ------------------------------------------------------------------------

def test_zero_loss_identity():
    for dtc in (False, True):
        metrics = run(scenario(hops=11, dtc_enabled=dtc, total_segments=50))
        assert metrics.e2e_retransmissions == 0
        assert metrics.sender_data_tx == 50
        assert set(metrics.per_node_data_tx) == {50}
        assert metrics.delivered_segments == 50
        assert metrics.local_retransmissions_total == 0


def test_zero_loss_completion_identical_across_modes():
    base = run(scenario(hops=7, dtc_enabled=False, total_segments=40))
    dtc = run(scenario(hops=7, dtc_enabled=True, total_segments=40))
    assert base.completion_time == dtc.completion_time


def test_same_seed_reproduces_metrics_exactly():
    s = scenario(p_data=0.12, total_segments=120, seed=99, dtc_enabled=True)
    assert run(s) == run(s)


def test_same_seed_reproduces_event_trace_exactly():
    s = scenario(p_data=0.15, total_segments=40, seed=21)
    traces = []
    for _ in range(2):
        lines = []
        run(s, trace=lines.append)
        traces.append(lines)
    assert traces[0] == traces[1]


def test_event_budget_aborts_with_liveness_diagnostic():
    with pytest.raises(LivenessError, match="budget"):
        run(scenario(p_data=0.2, total_segments=200, max_events=500))


def test_rng_draw_count_is_replayable():
    s = scenario(p_data=0.10, total_segments=80, seed=5)
    assert run(s).rng_draws == run(s).rng_draws


def test_counter_consistency_under_loss():
    metrics = run(scenario(p_data=0.12, total_segments=100, seed=7))
    assert metrics.sender_data_tx == 100 + metrics.e2e_retransmissions
    assert metrics.delivered_segments == 100


def test_per_node_counts_at_least_one_per_delivered_segment():
    metrics = run(scenario(p_data=0.10, total_segments=60, seed=3))
    assert all(count >= 60 for count in metrics.per_node_data_tx)


def test_all_segments_delivered_under_heavy_loss():
    metrics = run(scenario(hops=4, p_data=0.3, total_segments=40, seed=11))
    assert metrics.delivered_segments == 40


# -- sweep ------------------------------------------------------------------------------

def test_sweep_row_count_and_grouping():
    cells = [scenario(dtc_enabled=False), scenario(dtc_enabled=True)]
    records = sweep(cells, runs=3, base_seed=50)
    assert len(records) == 6
    assert [r.scenario.seed for r in records] == [50, 51, 52, 50, 51, 52]
    assert [r.scenario.dtc_enabled for r in records] == [False] * 3 + [True] * 3


def test_sweep_is_deterministic():
    cells = [scenario(p_data=0.1, total_segments=40)]
    assert sweep(cells, 2, 7) == sweep(cells, 2, 7)


def test_parallel_sweep_matches_serial():
    cells = [scenario(p_data=0.1, total_segments=40, dtc_enabled=False),
             scenario(p_data=0.1, total_segments=40, dtc_enabled=True)]
    assert sweep(cells, 2, 3, jobs=2) == sweep(cells, 2, 3, jobs=1)


@pytest.mark.parametrize("cpus, workers", [(64, [4]), (3, [3]), (1, []), (None, [])])
def test_sweep_pool_is_capped_by_tasks_and_cpus(monkeypatch, cpus, workers):
    # --jobs 100000 must not ask for 100,000 processes: 4 tasks, `cpus` cores
    sizes = []

    class SerialPool:
        """Stands in for multiprocessing.Pool: notes its size, maps in process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(task) for task in tasks]

    monkeypatch.setattr(harness, "Pool", SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    cells = [scenario(p_data=0.1, total_segments=10, dtc_enabled=False),
             scenario(p_data=0.1, total_segments=10, dtc_enabled=True)]
    rows = sweep(cells, 2, 3, jobs=100_000)
    assert sizes == workers
    assert rows == sweep(cells, 2, 3, jobs=1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_sweep_run_names_its_scenario_and_seed(jobs):
    cell = Scenario(hops=6, p_data=0.2, dtc_enabled=True, total_segments=50, max_events=100)
    with pytest.raises(LivenessError) as failure:
        sweep([cell], runs=2, base_seed=7, jobs=jobs)
    message = str(failure.value)
    for part in ("hops=6", "p_data=0.2", "mode=dtc", "seed=7", "event budget"):
        assert part in message


def test_sweep_rejects_zero_runs():
    with pytest.raises(ValueError):
        sweep([scenario()], 0, 1)


# -- aggregation ---------------------------------------------------------------------------

def record(e2e, per_node=(500, 500), time=1_000_000, s=None):
    s = s or scenario(total_segments=500)
    metrics = RunMetrics(
        e2e_retransmissions=e2e,
        per_node_data_tx=tuple(per_node),
        sender_data_tx=500 + e2e,
        completion_time=time,
        delivered_segments=500,
        local_retransmissions_total=0,
        rng_draws=0,
    )
    return RunRecord(s, metrics)


def test_aggregate_mean_and_stddev():
    agg = aggregate([record(10), record(20)])
    assert agg.mean.e2e_retransmissions == 15
    assert math.isclose(agg.stddev.e2e_retransmissions, 7.0710678, rel_tol=1e-6)
    assert agg.runs == 2


def test_single_run_aggregate_has_zero_stddev():
    agg = aggregate([record(10)])
    assert agg.mean.e2e_retransmissions == 10
    assert agg.stddev.e2e_retransmissions == 0.0


def test_per_node_vector_averaged_elementwise():
    agg = aggregate([record(0, per_node=(500, 520)), record(0, per_node=(500, 480))])
    assert agg.mean.per_node_data_tx == (500.0, 500.0)


def test_aggregate_rejects_mixed_cells():
    with pytest.raises(ValueError):
        aggregate([record(1), record(1, s=scenario(hops=7))])


def test_aggregate_rejects_empty_input():
    with pytest.raises(ValueError):
        aggregate([])


# -- reduction factor -------------------------------------------------------------------------

def agg_with_mean(mean, dtc):
    agg = aggregate([record(0, s=scenario(dtc_enabled=dtc))])
    return dataclasses.replace(agg, mean=agg.mean._replace(e2e_retransmissions=mean))


def test_reduction_factor_plain_ratio():
    assert reduction_factor(agg_with_mean(200, False), agg_with_mean(20, True)) == 10.0


def test_reduction_factor_zero_over_zero():
    assert reduction_factor(agg_with_mean(0, False), agg_with_mean(0, True)) == 0.0


def test_reduction_factor_floor_prevents_division_by_zero():
    assert reduction_factor(agg_with_mean(50, False), agg_with_mean(0, True)) == 50.0


def test_reduction_factor_rejects_mismatched_cells():
    base = aggregate([record(1, s=scenario(hops=6, dtc_enabled=False))])
    dtc = aggregate([record(1, s=scenario(hops=8, dtc_enabled=True))])
    with pytest.raises(ValueError):
        reduction_factor(base, dtc)


def test_reduction_factor_rejects_swapped_modes():
    with pytest.raises(ValueError):
        reduction_factor(agg_with_mean(1, True), agg_with_mean(1, False))


# -- whole-run properties -----------------------------------------------------------

small_runs = st.fixed_dictionaries({
    "hops": st.integers(2, 6),
    "total_segments": st.integers(1, 40),
    "window": st.integers(1, 5),
    "p_data": st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
    "seed": st.integers(0, 2**63 - 1),
})


@settings(max_examples=50, deadline=None)
@given(small_runs, st.booleans())
def test_whole_runs_conserve_segments_and_transmissions(knobs, dtc):
    total = knobs["total_segments"]
    metrics = run(Scenario(dtc_enabled=dtc, **knobs))
    assert metrics.delivered_segments == total
    assert metrics.sender_data_tx == total + metrics.e2e_retransmissions
    assert all(tx >= total for tx in metrics.per_node_data_tx)     # every node relays all
    if knobs["p_data"] == 0.0:
        # with nothing lost a cache never acts: both modes run alike
        assert metrics == run(Scenario(dtc_enabled=not dtc, **knobs))


scripted_drops = st.dictionaries(st.tuples(st.integers(1, 10), st.integers(-1, 4)),
                                 st.integers(1, 3), max_size=6)


@settings(max_examples=50, deadline=None)
@given(small_runs, st.booleans(), st.one_of(st.none(), scripted_drops))
def test_every_draw_is_a_send_or_an_arrival(knobs, dtc, rules):
    # rng_draws = one loss draw per send the override leaves to chance + one
    # ll-ack draw per frame arrival processed; each popped arrival is the
    # frame of exactly one send that survived
    verdicts = []
    override = None
    if rules is not None:
        scripted = ScriptedDrops(rules)

        def override(*frame):
            verdicts.append(scripted(*frame))
            return verdicts[-1]

    sim = Simulation(Scenario(dtc_enabled=dtc, **knobs), drop_override=override)
    sends = []

    def counted(send):
        def call(*args):
            sends.append(args)
            return send(*args)
        return call

    sim.send = counted(sim.send)
    pushed = {}
    popped = []

    def on_push(fire_at, target, kind, arg):
        if kind == FRAME_ARRIVAL:
            assert arg[0] not in pushed
            pushed[arg[0]] = arg

    def pop(heap):
        event = heappop(heap)
        if event[3] == FRAME_ARRIVAL:
            popped.append(event[4])
        return event

    with watch_pushes(on_push), mock.patch.object(engine, "heappop", pop):
        metrics = sim.run()
    assert metrics.delivered_segments == knobs["total_segments"]
    decided = sum(verdict is not None for verdict in verdicts)
    assert metrics.rng_draws == len(sends) - decided + len(popped)
    assert len(pushed) <= len(sends)
    assert len({arg[0] for arg in popped}) == len(popped)
    assert all(pushed[arg[0]] is arg for arg in popped)
