import dataclasses
import gc
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, note, settings, strategies as st

from dtcsim import harness
from dtcsim.endpoints import TcpSender
from dtcsim.engine import DTC, HOP, EventBudgetExceeded, LivenessError, Simulation
from dtcsim.events import MAX_TIME_US, SENDER
from dtcsim.harness import (
    MAX_EVENT_BUDGET,
    RunMetrics,
    RunRecord,
    Scenario,
    aggregate,
    reduction_factor,
    run,
    shown,
    sweep,
)
from dtcsim.packets import DataSegment

from conftest import ScriptedDrops
import reference_loop
import small_scope
from reference_loop import Reference
from scenario_space import DEADLINE_MS, any_scenario, finish


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
    dict(rto_max=119_999, rto_min=1),       # one round trip of the 6-hop path is 120,000
    dict(p_data=0.99, hops=200),            # (1 - p) ** hops underflows to 0
    dict(p_data=0.99, hops=160),            # the budget overflows to inf
    dict(total_segments=10**307, hops=3),   # each fits a float, 160 x their product does not
    dict(seed=-1),                          # random.Random(-1) seeds like random.Random(1)
    # an event budget over MAX_EVENT_BUDGET, named by the knob that alone
    # breaks it: a lossless segment over these hops would need 2.4e9 events
    dict(hops=15_000_000, hop_latency=1, total_segments=1),
    dict(hops=6_250_001, hop_latency=1, total_segments=1),
    # one segment at this loss over 200 hops would need 5e12
    dict(p_data=0.09, hops=200, total_segments=1),
    # 2e10 over the trace-run chain, whose one segment needs 1e4
    dict(total_segments=2_000_000, hops=11, p_data=0.15),
    # a count or a time is an int, never a float, a bool or None (None is
    # taken only where it is the default); each flag is a bool, and p_data
    # a number that is not a bool
    dict(hops=3.0),
    dict(total_segments=2.5),
    dict(hop_latency=1.5),
    dict(window=None),
    dict(window=True),
    dict(seed=1.5),
    dict(max_local_retries=0.5),
    dict(rto_max=10**7 + 0.5),
    dict(dtc_enabled="off"),
    dict(fast_retransmit=1),
    dict(p_data=False),
])
def test_invalid_scenarios_rejected(bad):
    knob = next(iter(bad))
    with pytest.raises(ValueError, match=f"^{knob} "):
        scenario(**bad)


@pytest.mark.parametrize("knobs", [
    pytest.param(dict(total_segments=10**400), id="total_segments"),
    pytest.param(dict(hops=10**400), id="hops"),
    # each fits a float, 160 x total_segments x hops does not
    pytest.param(dict(total_segments=10**307), id="total_segments-1e307"),
    # one segment's budget divides by 0.01 ** 160 = 1e-320 to inf, and by
    # 0.01 ** 200, which underflows to 0
    pytest.param(dict(p_data=0.99, hops=160), id="p_data-hops160"),
    pytest.param(dict(p_data=0.99, hops=200), id="p_data-hops200"),
])
def test_int_knob_too_large_for_a_float_is_named_first(knobs):
    # the event budget would overflow converting a knob to a float, or
    # dividing by the chance a frame crosses the chain: the knob at fault
    # is named, on a short line that does not echo the knob's digits
    knob = next(iter(knobs))
    with pytest.raises(ValueError, match=f"^{knob} ") as excinfo:
        scenario(**knobs)
    assert len(str(excinfo.value)) < 200


@pytest.mark.parametrize("value, text", [
    (-(10**20 - 1), "-99999999999999999999"),
    (10**20, "10000000000000000000... (21 digits)"),
    (10**400 - 1, "99999999999999999999... (400 digits)"),
    (-(10**400), "-10000000000000000000... (401 digits)"),
    # past the ints str() converts at all, from Python 3.11
    (10**5000 + 7, "10000000000000000000... (5001 digits)"),
], ids=["20-digits", "21-digits", "400-digits", "401-digits", "5001-digits"])
def test_a_refusal_shows_a_long_int_by_its_leading_digits_and_count(value, text):
    assert shown(value) == text


def test_boundary_knob_values_accepted():
    s = scenario(max_local_retries=0, ll_wait_multiplier=1, send_spacing=0,
                 rto_min=1, rto_initial=1, rto_max=120_000)
    assert s.effective_rto_min() == 1 and s.rto_max == 2 * s.path_delay()
    # None is taken where it is the default: the value is derived
    assert scenario(send_spacing=None, rto_min=None, rto_initial=None) == scenario()
    assert scenario(p_data=0).p_data == 0           # an int loss is a number too
    assert scenario(hops=11, rto_max=440_000).rto_max == 440_000    # the derived rto_min
    # the most hops the event budget cap takes: one lossless segment, 160 x hops
    assert scenario(hops=6_250_000, hop_latency=1, total_segments=1).event_budget() \
        == MAX_EVENT_BUDGET
    # every time a run reads, and a local rto's doubling, at the time bound
    s = scenario(hop_latency=1, ll_wait_multiplier=MAX_TIME_US, send_spacing=MAX_TIME_US,
                 rto_max=MAX_TIME_US, rto_initial=MAX_TIME_US, max_local_retries=53)
    assert s.ll_wait() == MAX_TIME_US == 2**53 == 1 << s.max_local_retries


BOUND = f"<= {MAX_TIME_US} us, got "


@pytest.mark.parametrize("knobs, message", [
    (dict(rto_max=MAX_TIME_US + 1),
     f"rto_max must keep the timeout ceiling {BOUND}{MAX_TIME_US + 1} us"),
    (dict(rto_max=10**400), f"rto_max must keep the timeout ceiling {BOUND}10000000000000000000... "
                            f"(401 digits) us"),
    (dict(rto_initial=MAX_TIME_US + 1), f"rto_initial must keep the initial timeout {BOUND}"),
    # the automatic rto_initial, 3x the effective rto_min
    (dict(rto_min=2**52, rto_max=MAX_TIME_US), f"rto_initial must keep the initial timeout "
                                               f"{BOUND}{3 * 2**52} us"),
    (dict(send_spacing=MAX_TIME_US + 1), f"send_spacing must keep the spacing of sends {BOUND}"),
    # ll_wait_multiplier hop latencies of 10 ms
    (dict(ll_wait_multiplier=MAX_TIME_US // 10_000 + 1), f"ll_wait_multiplier must keep the ll "
                                                        f"wait {BOUND}"),
    (dict(max_local_retries=54), "max_local_retries must be <= 53 "),
    (dict(max_local_retries=10**400), "max_local_retries must be <= 53 "),
], ids=["rto_max", "rto_max-1e400", "rto_initial", "rto_initial-derived", "send_spacing",
        "ll_wait_multiplier", "max_local_retries", "max_local_retries-1e400"])
def test_a_time_past_the_bound_is_refused_naming_its_knob(knobs, message):
    # every time a run reads, set or derived, and each local rto's doubling,
    # within MAX_TIME_US, so no clock, timer or mean outgrows an exact float
    with pytest.raises(ValueError, match="^" + re.escape(message)) as excinfo:
        scenario(**knobs)
    assert len(str(excinfo.value)) < 200


@pytest.mark.parametrize("knobs, message", [
    # one lossless segment over these hops is over the event budget cap,
    # whatever the latency: the hop count is at fault
    (dict(hops=20_000_000, hop_latency=1), "hops must be <= 6250000 "),
    (dict(hops=6_250_001, hop_latency=1), "hops must be <= 6250000 "),
    (dict(hops=30_000_001, hop_latency=1, rto_min=5), "hops must be <= 6250000 "),
    # the cap's largest chain: a 1 us hop would fit, so the latency is at fault
    (dict(hops=6_250_000, hop_latency=3), "hop_latency must be <= 2 us over 6250000 hops"),
    # the cap is checked first, where a smaller latency would fit the rto_max
    (dict(hops=10_000_000, hop_latency=10_000), "hops must be <= 6250000 "),
    (dict(hops=15_000_000, hop_latency=2), "hops must be <= 6250000 "),
])
def test_default_rto_max_blames_hops_only_when_no_latency_fits(knobs, message):
    with pytest.raises(ValueError) as excinfo:
        scenario(total_segments=1, **knobs)
    assert str(excinfo.value).startswith(message)


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


def test_stations_are_indexed_by_node_id():
    sim = Simulation(scenario(hops=5))
    assert len(sim.stations) == 6
    for i in range(4):
        assert sim.stations[i] is sim.nodes[i]
    assert sim.stations[sim.receiver_id] is sim.receiver
    assert sim.receiver.node_id == sim.receiver_id == 4
    assert sim.stations[-1] is sim.sender
    # with caching off no node is built, and a relay's entry is None
    sim = Simulation(scenario(hops=5, dtc_enabled=False))
    assert sim.nodes == [] and sim.stations[:4] == [None] * 4
    assert sim.stations[4:] == [sim.receiver, sim.sender]


def test_a_relay_costs_a_few_list_entries():
    # a caching-off chain builds no node per hop, so its build is a few
    # list entries per hop (a CachingNode took over 600 B)
    hops = 10_000
    s = Scenario(hops=hops, p_data=0.0, dtc_enabled=False, total_segments=1, hop_latency=1)
    tracemalloc.start()
    try:
        sim = Simulation(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sim.nodes == []
    assert peak / hops < 20


def test_finished_run_is_freed_without_the_cycle_collector():
    # the stations hold the simulation as their sink; a run cuts that cycle
    # when it ends, so a sweep frees each run at once.  Caching off, the run
    # loop resends at the sender's timeouts itself
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for dtc in (True, False):
            sim = Simulation(scenario(hops=4, p_data=0.1, dtc_enabled=dtc, total_segments=10))
            metrics = sim.run()
            assert dtc or metrics.e2e_retransmissions > 0
            finished = weakref.ref(sim)
            del sim
            assert finished() is None, dtc
    finally:
        if was_enabled:
            gc.enable()


def test_every_knob_reaches_its_state_machine():
    # each knob away from its default, so a knob wired to the wrong field,
    # or left at a constructor default, shows here and not only in results
    s = Scenario(hops=5, p_data=0.05, dtc_enabled=False, total_segments=17, window=4,
                 hop_latency=7_000, seed=3, max_local_retries=5, ll_wait_multiplier=2,
                 send_spacing=12_345, rto_min=200_000, rto_max=5_000_000,
                 rto_initial=700_000, fast_retransmit=True)
    records = []
    sim = Simulation(s, trace=records.append)
    sender = sim.sender
    assert (sender.total, sender.window, sender.fast_retransmit) == (17, 4, True)
    assert (sender.rto, sender.rto_min, sender.rto_max) == (700_000, 200_000, 5_000_000)
    assert sender.rto == s.effective_rto_initial() and sender.rto_min == s.effective_rto_min()
    assert sender.spacing == s.effective_send_spacing() == 12_345
    assert sim.receiver.total == 17
    assert sim.nodes == []                                              # caching off: relays only
    sim.run()
    assert [record for record in records if record[1] == DTC] == []
    nodes = Simulation(dataclasses.replace(s, dtc_enabled=True)).nodes
    assert len(nodes) == 4
    for node in nodes:
        assert node.ll_wait == s.ll_wait() == 14_000
        assert node.max_local_retries == 5
        assert node.hops_to_receiver == 4 - node.node_id
        assert node.rtt_est == 2 * node.hops_to_receiver * 7_000


def test_hops_to_receiver_arithmetic():
    sim = Simulation(scenario(hops=6))
    assert [node.hops_to_receiver for node in sim.nodes] == [5, 4, 3, 2, 1]
    # lossless 3-hop run of one segment: every frame moves one node per hop
    # latency, and each link-layer ack goes back to the frame's transmitter
    records = []
    run(scenario(hops=3, total_segments=1, dtc_enabled=False), trace=records.append)
    assert all(r[5] for r in records if r[1] == HOP)
    hops = [(src, dst, kind, t) for t, tag, src, dst, kind, *_ in records if tag == HOP]
    frames = [hop for hop in hops if hop[2] != "llack"]
    assert frames == [
        (-1, 0, "data", 0), (0, 1, "data", 10_000), (1, 2, "data", 20_000),
        (2, 1, "ack", 30_000), (1, 0, "ack", 40_000), (0, -1, "ack", 50_000),
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


def never_delivered(*frame):
    return True


def test_event_budget_aborts_with_liveness_diagnostic():
    s = scenario(p_data=0.2, total_segments=10)
    with pytest.raises(EventBudgetExceeded) as budget:
        run(s, drop_override=never_delivered)
    assert isinstance(budget.value, LivenessError)
    assert f"exceeded the {s.event_budget()} event budget at t=" in str(budget.value)


def test_liveness_errors_start_with_the_run_name():
    s = scenario(p_data=0.2, total_segments=10, seed=3)
    with pytest.raises(LivenessError) as budget:
        run(s, drop_override=never_delivered)
    assert str(budget.value).startswith(
        f"h6-p0.2-on seed=3: run exceeded the {s.event_budget()} event budget")
    sim = Simulation(scenario(hops=2, dtc_enabled=False, seed=4))
    sim.sender.start = lambda now: None     # nothing is ever sent, so the queue drains
    with pytest.raises(LivenessError) as drained:
        sim.run()
    assert str(drained.value).startswith("h2-p0.0-off seed=4: event queue drained")
    assert not isinstance(drained.value, EventBudgetExceeded)


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


@pytest.mark.parametrize("cpus, workers", [
    (64, [4]), (3, [3]), (1, []), (None, []),
    # (count, affinity): taskset or a cpuset leaves this process fewer cores
    pytest.param((64, {0, 1}), [2], id="64-affinity2"),
    pytest.param((64, {5}), [], id="64-affinity1"),
])
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

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    if isinstance(cpus, tuple):
        cpus, affinity = cpus
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    else:
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    cells = [scenario(p_data=0.1, total_segments=10, dtc_enabled=False),
             scenario(p_data=0.1, total_segments=10, dtc_enabled=True)]
    rows = sweep(cells, 2, 3, jobs=100_000)
    assert sizes == workers
    assert rows == sweep(cells, 2, 3, jobs=1)


def test_a_run_never_loads_multiprocessing():
    # only a sweep that starts workers needs the pool; a fresh interpreter
    # shows what importing the package and one run load
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys\n"
            "from dtcsim.cli import main\n"
            "main(['run', '--hops', '3', '--loss', '0.1', '--dtc', 'on', '--segments', '5'])\n"
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing loaded'\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "delivered_segments: 5" in done.stdout


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_sweep_run_names_its_scenario_and_seed(jobs, monkeypatch):
    monkeypatch.setattr(Scenario, "event_budget", lambda self: 100)     # forked workers too
    cell = Scenario(hops=6, p_data=0.2, dtc_enabled=True, total_segments=50)
    with pytest.raises(EventBudgetExceeded) as failure:   # its type survives a pool worker
        sweep([cell], runs=2, base_seed=7, jobs=jobs)
    message = str(failure.value)
    for part in ("h6-p0.2-on seed=7", "event budget"):
        assert part in message


@pytest.mark.parametrize("budget, cut_at", [
    (1, "t=20000us (0/30 delivered)"),          # data reaching node 1
    (2, "t=21000us (0/30 delivered)"),          # the sender's send slot
    (3, "t=30000us (0/30 delivered)"),          # data reaching node 2
    (8, "t=60000us (0/30 delivered)"),          # data reaching the receiver
    (13, "t=82000us (1/30 delivered)"),         # data reaching node 3
    (50, "t=5520000us (4/30 delivered)"),       # the sender's rto
    (200, "t=1472290000us (6/30 delivered)"),   # data reaching node 0
    (777, "t=7533750000us (25/30 delivered)"),  # data reaching node 2
])
def test_budget_cut_on_a_caching_off_chain(monkeypatch, budget, cut_at):
    # the messages were recorded before relays forwarded frames inside the
    # run loop; a cut among relay hops must still name the same event, both
    # where the relays carry frames (untraced) and where they send them
    monkeypatch.setattr(Scenario, "event_budget", lambda self: budget)
    for trace in (None, [].append):
        with pytest.raises(LivenessError) as cut:
            run(Scenario(hops=6, p_data=0.2, dtc_enabled=False, total_segments=30, seed=3), trace)
        assert str(cut.value) == f"h6-p0.2-off seed=3: run exceeded the {budget} event budget at {cut_at}"


def budget_cuts(loop, table):
    """One case per (budget, cut_at) row, run in loop, with the id that the
    row alone would get."""
    return [pytest.param(loop, budget, cut_at, id=f"{budget}-{cut_at}") for budget, cut_at in table]


@pytest.mark.parametrize("loop, budget, cut_at", budget_cuts(Simulation, [
    (1, "t=20000us (0/30 delivered)"),          # data reaching node 1
    (2, "t=21000us (0/30 delivered)"),          # the sender's send slot
    (3, "t=30000us (0/30 delivered)"),          # data reaching node 2
    (5, "t=42000us (0/30 delivered)"),          # the sender's send slot
    (8, "t=52000us (0/30 delivered)"),          # data reaching node 0
    (14, "t=82000us (1/30 delivered)"),         # data reaching node 3
    (35, "t=190000us (1/30 delivered)"),        # an ack reaching node 4
    (39, "t=480000us (1/30 delivered)"),        # the sender's rto
    (42, "t=670000us (1/30 delivered)"),        # a live local rto
    (45, "t=720000us (1/30 delivered)"),        # the sender's stale rto
    (47, "t=840000us (1/30 delivered)"),        # data reaching node 2
    (50, "t=870000us (1/30 delivered)"),        # node 2's live ll timeout
    (53, "t=880000us (4/30 delivered)"),        # an ack reaching node 4
    (56, "t=910000us (4/30 delivered)"),        # an ack reaching node 1
    (61, "t=960000us (4/30 delivered)"),        # a stale local rto
    (64, "t=971000us (4/30 delivered)"),        # data reaching node 1
    (67, "t=982000us (4/30 delivered)"),        # data reaching node 0
    (484, "t=505350378us (29/30 delivered)"),   # the sender's stale rto
]) + budget_cuts(Reference, [
    (5, "t=40000us (0/30 delivered)"),          # node 0's answered ll timeout
    (8, "t=50000us (0/30 delivered)"),          # node 1's answered ll timeout
]))
def test_budget_cut_on_a_caching_chain(monkeypatch, loop, budget, cut_at):
    # a stale node timer that is pushed counts toward the budget like any
    # event, so a change to which events are pushed moves these cuts.  In
    # the engine no ll ack is an event, nor is an ll timeout whose ll ack
    # lands first, so this run completes in 506 events.  The reference loop
    # pushes both (node 0's ll ack is its fourth event), so at the same
    # budget it is cut earlier
    monkeypatch.setattr(Scenario, "event_budget", lambda self: budget)
    monkeypatch.setattr(reference_loop, "BUDGET_FACTOR", 1)
    sim = loop(Scenario(hops=6, p_data=0.2, dtc_enabled=True, total_segments=30, seed=3))
    with pytest.raises(EventBudgetExceeded) as cut:
        sim.run()
    assert f"t={sim.now}us ({sim.receiver.delivered_in_order}/{sim.receiver.total} delivered)" == cut_at
    if loop is Simulation:
        assert str(cut.value) == f"h6-p0.2-on seed=3: run exceeded the {budget} event budget at {cut_at}"


def test_sweep_rejects_zero_runs():
    with pytest.raises(ValueError, match="runs must be >= 1"):
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
    # the cell is the runs' shared Scenario with seed 0, as a sweep's cell list holds it
    assert agg.cell == scenario(total_segments=500, seed=0)
    assert [f.name for f in dataclasses.fields(agg)] == ["cell", "runs", "mean", "stddev"]


def test_single_run_aggregate_has_zero_stddev():
    agg = aggregate([record(10)])
    assert agg.mean.e2e_retransmissions == 10
    assert agg.stddev.e2e_retransmissions == 0.0


def test_per_node_vector_averaged_elementwise():
    agg = aggregate([record(0, per_node=(500, 520)), record(0, per_node=(500, 480))])
    assert agg.mean.per_node_data_tx == (500.0, 500.0)


def test_aggregate_rejects_mixed_cells():
    # record() runs 500 segments; after hops, each second run differs in one knob
    for other in (scenario(hops=7), scenario(total_segments=20),
                  scenario(total_segments=500, window=8),
                  scenario(total_segments=500, hop_latency=1_000)):
        with pytest.raises(ValueError):
            aggregate([record(1), record(1, s=other)])


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
    # the two cells may differ in dtc_enabled only
    for knob, base_value, dtc_value in (("hops", 6, 8), ("window", 3, 8),
                                        ("hop_latency", 10_000, 1_000)):
        base = aggregate([record(1, s=scenario(dtc_enabled=False, **{knob: base_value}))])
        dtc = aggregate([record(1, s=scenario(dtc_enabled=True, **{knob: dtc_value}))])
        with pytest.raises(ValueError):
            reduction_factor(base, dtc)


def test_reduction_factor_rejects_swapped_modes():
    with pytest.raises(ValueError):
        reduction_factor(agg_with_mean(1, True), agg_with_mean(1, False))


# -- whole-run properties -----------------------------------------------------------

@settings(max_examples=50, deadline=DEADLINE_MS)
@given(any_scenario)
def test_whole_runs_conserve_segments_and_transmissions(s):
    # the transmissions counted on the wire, from a traced run's data
    # records; a traced caching-off run relays through send, so its relays'
    # frames are traced too
    note(s)
    records = []
    metrics = finish(Simulation(s, trace=records.append))
    if metrics is None:
        return
    assert metrics.delivered_segments == s.total_segments
    data = [(record[2], record[6].seq) for record in records
            if record[1] == HOP and record[4] == "data"]
    by_node = Counter(src for src, _ in data)
    assert metrics.per_node_data_tx == tuple(by_node[node] for node in range(s.hops - 1))
    sender_seqs = [seq for src, seq in data if src == SENDER]
    assert metrics.sender_data_tx == len(sender_seqs)
    assert metrics.e2e_retransmissions == len(sender_seqs) - len(set(sender_seqs))
    assert all(tx >= s.total_segments for tx in metrics.per_node_data_tx)  # every node relays all


# With nothing lost a cache never acts, so both modes run alike.  This holds
# at default timers only: over any_scenario an rto_min down to 1 us times
# out spuriously, an ll-wait multiplier of 1 locks entries, and a wide
# window over short hops or long spacing meets ROADMAP direction 1's
# defect (the xfail test below)
@settings(max_examples=50, deadline=DEADLINE_MS)
@given(st.fixed_dictionaries({
    "hops": st.integers(2, 6),
    "total_segments": st.integers(1, 40),
    "window": st.integers(1, 5),
    "seed": st.integers(0, 2**63 - 1),
}))
def test_lossless_runs_alike_in_both_modes(knobs):
    s = Scenario(p_data=0.0, dtc_enabled=False, **knobs)
    assert run(s) == run(dataclasses.replace(s, dtc_enabled=True))


@pytest.mark.xfail(strict=True, reason="ROADMAP direction 1: an ack for an earlier seq locks "
                   "a replaceable entry whose segment is still in flight downstream")
def test_lossless_caching_chain_never_retransmits_locally():
    s = Scenario(hops=6, p_data=0.0, dtc_enabled=True, total_segments=50, window=8,
                 hop_latency=1, seed=1)
    assert run(s).local_retransmissions_total == 0


scripted_drops = st.dictionaries(st.tuples(st.integers(1, 10), st.integers(-1, 4)),
                                 st.integers(1, 3), max_size=6)


@settings(max_examples=50, deadline=DEADLINE_MS)
@given(any_scenario, st.one_of(st.none(), scripted_drops))
def test_every_draw_is_a_send_or_an_arrival(s, rules):
    # read from the trace, which sees frames the run loop carries past the
    # heap: a data or ack record is a send, an llack record a frame arrival.
    # rng_draws = one loss draw per send the override leaves to chance + one
    # ll-ack draw per arrival; each delivered send either arrived on its
    # link one hop latency later or is still in flight in the heap
    note(s)
    verdicts = []
    override = None
    if rules is not None:
        scripted = ScriptedDrops(rules)

        def override(*frame):
            verdicts.append(scripted(*frame))
            return verdicts[-1]

    records = []
    sim = Simulation(s, trace=records.append, drop_override=override)
    metrics = finish(sim)
    hops = [record for record in records if record[1] == HOP]
    sends = [record for record in hops if record[4] != "llack"]
    # (arrival time, receiving node, transmitter, frame) of each frame
    arrivals = Counter((t, src, dst, payload)
                       for t, _, src, dst, kind, _, payload in hops if kind == "llack")
    decided = sum(verdict is not None for verdict in verdicts)
    draws = sim.draws if metrics is None else metrics.rng_draws
    assert draws == len(sends) - decided + sum(arrivals.values())
    if metrics is None:
        return      # a budget cut drops the event it popped, so frames need not add up
    assert metrics.delivered_segments == s.total_segments
    frames = [(t, *arg) for t, _, call, arg in sim._heap if call is None]
    in_flight = Counter((t, node, node - 1 if type(segment) is DataSegment else node + 1, segment)
                        for t, node, segment in frames)
    delivered = Counter((t + sim.latency, dst, src, payload)
                        for t, _, src, dst, _, ok, payload in sends if ok)
    assert delivered == arrivals + in_flight


@settings(max_examples=100, deadline=DEADLINE_MS)
@given(any_scenario, st.one_of(st.none(), scripted_drops))
def test_the_engine_matches_the_naive_reference_loop(s, rules):
    # the engine carries relayed frames past the heap and pushes no event
    # that cannot change the run; the reference pushes and pops them all
    note(s)
    for dtc in (False, True):
        s = dataclasses.replace(s, dtc_enabled=dtc)
        assert small_scope.matches(s, lambda: None if rules is None else ScriptedDrops(rules)), s


def test_the_reference_loop_has_its_own_transmit_and_counters():
    # an engine shortcut in send, schedule, its trace records or _collect
    # would otherwise be shared by the oracle that is to check it
    for name in ("send", "schedule", "_trace_hop", "_collect"):
        assert getattr(Reference, name) is not getattr(Simulation, name), name
        assert name in vars(Reference), name
    # and it counts transmissions on the wire: no station counter it could
    # share with the engine changes them
    for dtc in (False, True):
        sim = Reference(scenario(p_data=0.2, dtc_enabled=dtc))
        metrics = sim.run()
        assert metrics.e2e_retransmissions > 0
        for node in sim.nodes:
            node.data_tx_count = -1
        sim.relay_data_tx[:] = [-1] * len(sim.relay_data_tx)
        sim.sender.e2e_retransmissions = -1
        again = sim._collect()
        for name in ("per_node_data_tx", "sender_data_tx", "e2e_retransmissions"):
            assert getattr(again, name) == getattr(metrics, name), (dtc, name)


def test_the_engine_matches_the_reference_loop_on_every_small_caching_chain():
    # the grid of tests/small_scope.py: every knob combination of tiny
    # chains, caching off and on, where the engine's carried and held
    # frames and deferred ll acks meet every tie of an ll ack, an ll
    # timeout and an arrival
    scenarios = list(small_scope.grid())
    assert len(scenarios) == 1500
    assert sum(not s.dtc_enabled for s in scenarios) == 300
    assert small_scope.mismatches(scenarios) == []


def test_the_small_scope_grid_meets_the_senders_timeout_at_a_busy_and_an_open_gate(monkeypatch):
    # the run loop handles a live sender timeout at an open gate itself and
    # calls the handler at a busy one, so the grid checks both against the
    # reference loop only if its runs reach both
    gates = Counter()
    on_rto = TcpSender.on_rto

    def counted(sender, generation, now):
        if generation == sender.rto_generation:
            gates[bool(sender._tx_queue) or now < sender._next_free_at] += 1
        on_rto(sender, generation, now)

    monkeypatch.setattr(TcpSender, "on_rto", counted)
    for s in small_scope.grid():
        small_scope.outcome(Simulation(s))
    assert gates[True] > 0 and gates[False] > 0, gates


def test_small_scope_rejects_an_empty_grid(capsys):
    # a grid with no scenario checks nothing, so it must not pass as a gate
    with pytest.raises(SystemExit) as exit_info:
        small_scope.main(["--max-hops", "1"])
    assert exit_info.value.code == 2
    assert "--max-hops 1 leaves the grid empty" in capsys.readouterr().err
