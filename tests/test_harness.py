import dataclasses
import math
import re

import pytest

from dtcsim.harness import (
    RunMetrics,
    RunRecord,
    Scenario,
    aggregate,
    build_chain,
    reduction_factor,
    run,
    sweep,
)


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
    topo = build_chain(scenario(hops=11))
    assert topo.node_ids == tuple(range(10))
    assert topo.receiver_id == 10
    assert topo.hops_to_receiver[9] == 1          # node 9 borders the receiver


def test_minimal_chain():
    topo = build_chain(scenario(hops=2))
    assert topo.node_ids == (0,)
    assert topo.hops_to_receiver == (1,)


def test_hops_to_receiver_arithmetic():
    topo = build_chain(scenario(hops=6))
    assert topo.hops_to_receiver[0] == 5
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
    from dtcsim.engine import LivenessError

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
    assert agg.mean_e2e_retx == 15
    assert math.isclose(agg.stddev_e2e_retx, 7.0710678, rel_tol=1e-6)
    assert agg.runs == 2


def test_single_run_aggregate_has_zero_stddev():
    agg = aggregate([record(10)])
    assert agg.mean_e2e_retx == 10
    assert agg.stddev_e2e_retx == 0.0


def test_per_node_vector_averaged_elementwise():
    agg = aggregate([record(0, per_node=(500, 520)), record(0, per_node=(500, 480))])
    assert agg.mean_per_node_tx == (500.0, 500.0)


def test_aggregate_rejects_mixed_cells():
    with pytest.raises(ValueError):
        aggregate([record(1), record(1, s=scenario(hops=7))])


def test_aggregate_rejects_empty_input():
    with pytest.raises(ValueError):
        aggregate([])


# -- reduction factor -------------------------------------------------------------------------

def agg_with_mean(mean, dtc):
    return dataclasses.replace(
        aggregate([record(0, s=scenario(dtc_enabled=dtc))]), mean_e2e_retx=mean
    )


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
