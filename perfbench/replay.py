"""Replay of recorded argument streams, and a cProfile split by module.

A wrapper costs more than a SACK-algebra call or a heap push, so the
traced pass only records the arguments these calls received; the pure
functions are then called again with the same arguments in a tight loop,
with the loop's own cost subtracted.  The event-queue replay repeats one
run's schedule/pop sequence on a fresh queue, timing each stretch of
consecutive schedules or pops.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
import statistics
import time
from collections import defaultdict
from pathlib import Path

CLOCK = time.perf_counter_ns
REPEATS = 5


def _loop_ns(fn, stream) -> float:
    """Median ns per call of fn over the stream, loop cost subtracted."""
    per_call = []
    for _ in range(REPEATS):
        t0 = CLOCK()
        for a, b in stream:
            pass
        t1 = CLOCK()
        for a, b in stream:
            fn(a, b)
        t2 = CLOCK()
        per_call.append((t2 - t1 - (t1 - t0)) / len(stream))
    return max(0.0, statistics.median(per_call))


def _queue_ns(queue_type, ops) -> tuple[float, float]:
    """(schedule ns/call, pop_next ns/call) replaying ops on fresh queues."""
    stretches = []
    for op in ops:
        if stretches and stretches[-1][0] == op[0]:
            stretches[-1][1].append(op[1:])
        else:
            stretches.append((op[0], [op[1:]]))
    n_sched = sum(len(batch) for kind, batch in stretches if kind == "s")
    n_pop = sum(len(batch) for kind, batch in stretches if kind == "p")
    sched_runs, pop_runs = [], []
    for _ in range(REPEATS):
        timed = {"s": 0, "p": 0}
        empty = {"s": 0, "p": 0}
        queue = queue_type()
        schedule, pop_next = queue.schedule, queue.pop_next
        for kind, batch in stretches:
            t0 = CLOCK()
            if kind == "s":
                for fire_at, target, payload in batch:
                    schedule(fire_at, target, payload)
            else:
                for _ in batch:
                    pop_next()
            timed[kind] += CLOCK() - t0
        for kind, batch in stretches:       # same stretches, no calls
            t0 = CLOCK()
            if kind == "s":
                for fire_at, target, payload in batch:
                    pass
            else:
                for _ in batch:
                    pass
            empty[kind] += CLOCK() - t0
        sched_runs.append((timed["s"] - empty["s"]) / max(n_sched, 1))
        pop_runs.append((timed["p"] - empty["p"]) / max(n_pop, 1))
    return max(0.0, statistics.median(sched_runs)), max(0.0, statistics.median(pop_runs))


def replay_metrics(streams: dict, queue_ops: list) -> dict:
    """replay.* ns_per_call metrics; 0 where nothing was recorded."""
    packets = importlib.import_module("dtcsim.packets")
    events = importlib.import_module("dtcsim.events")
    functions = {
        "packets.sack_covers": getattr(packets, "sack_covers", None),
        "packets.sack_add": getattr(packets, "sack_add", None),
        "packets.gaps_filled_with": getattr(packets, "gaps_filled_with", None),
        "packets.ack_new": getattr(packets, "AckSegment", None),
    }
    out = {}
    for key, fn in functions.items():
        stream = streams.get(key)
        out[f"replay.{key}.ns_per_call"] = _loop_ns(fn, stream) if fn and stream else 0.0
    queue_type = getattr(events, "EventQueue", None)
    if queue_type is not None and queue_ops:
        sched, pop = _queue_ns(queue_type, queue_ops)
    else:
        sched = pop = 0.0
    out["replay.events.schedule.ns_per_call"] = sched
    out["replay.events.pop_next.ns_per_call"] = pop
    return out


def cprofile_split(fn, package_dir: Path) -> dict:
    """Share of cProfile tottime per dtcsim module for one call of fn.

    Built-in and library functions (heapq, tuple.__new__ behind every
    NamedTuple) belong to no dtcsim module; their time is charged to their
    callers in the proportions cProfile recorded per caller, up the call
    graph until a dtcsim module is reached.
    """
    profile = cProfile.Profile()
    profile.enable()
    fn()
    profile.disable()
    stats = pstats.Stats(profile).stats
    package = str(package_dir.resolve())
    owners_of: dict = {}

    def owners(func, seen=()) -> dict:
        """module -> share of func's time that module's code caused."""
        if func[0].startswith(package):
            return {Path(func[0]).stem: 1.0}
        if func in owners_of:
            return owners_of[func]
        callers = stats.get(func, (0, 0, 0, 0, {}))[4]
        whole = sum(c[2] for c in callers.values())
        shares = defaultdict(float)
        for caller, caller_stats in callers.items():
            if not whole or caller in seen:
                continue
            for module, share in owners(caller, seen + (func,)).items():
                shares[module] += share * caller_stats[2] / whole
        result = dict(shares) or {"other": 1.0}
        owners_of[func] = result
        return result

    totals = defaultdict(float)
    for func, (_, _, tottime, _, _) in stats.items():
        for module, share in owners(func).items():
            totals[module] += tottime * share
    whole = sum(totals.values()) or 1.0
    return {module: t / whole for module, t in sorted(totals.items())}
