"""Host-speed reference: a fixed pure-Python loop timed next to every item.

Shared hosts change speed by tens of percent over seconds (other tenants on
the same cores).  Each timed item is therefore scaled by
REFERENCE_NS / (time of this loop around the item), which reports host
times as they would read on a host that runs the loop in REFERENCE_NS.  The
loop does what the simulator does most (heap pushes and pops of tuples,
named-tuple construction, dict updates, method calls on a slotted object,
Python's random), and it never touches dtcsim, so every commit is scaled
by the same yardstick.
"""

from __future__ import annotations

import heapq
import os
import random
import statistics
import time
from collections import namedtuple

REFERENCE_NS = 3_000_000        # the loop's time on the nominal reference host
ROUNDS = 2000

_Point = namedtuple("_Point", "a b")


class _Counter:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def bump(self, k: int) -> int:
        self.n += k
        return self.n


def _work() -> int:
    heap, counts, counter = [], {}, _Counter()
    rng = random.Random(7)
    for i in range(ROUNDS):
        heapq.heappush(heap, (rng.random(), i, _Point(i, -i)))
        counts[i % 61] = counts.get(i % 61, 0) + 1
        counter.bump(i & 3)
        if len(heap) > 24:
            _, _, point = heapq.heappop(heap)
            counter.bump(point.a & 1)
    return counter.n + len(counts)


def measure() -> int:
    """ns for one pass of the reference loop."""
    t0 = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - t0


class Cores:
    """`jobs` resident processes that run the loop at once, one per core.

    The processes are forked once and warmed up, so a measurement pays no
    fork or copy-on-write faults.  Use as a context manager: leaving it
    stops and reaps every process.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.children = []

    def __enter__(self) -> "Cores":
        for _ in range(self.jobs):
            command_read, command_write = os.pipe()
            result_read, result_write = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(command_write)
                    os.close(result_read)
                    measure()
                    while os.read(command_read, 1) == b"m":
                        best = statistics.median(measure() for _ in range(3))
                        os.write(result_write, f"{best}\n".encode())
                    code = 0
                finally:
                    os._exit(code)
            os.close(command_read)
            os.close(result_write)
            self.children.append((pid, command_write, os.fdopen(result_read)))
        return self

    def measure(self) -> float:
        """Mean ns of the loop over all processes, run at the same time."""
        for _, command, _ in self.children:
            os.write(command, b"m")
        return sum(float(result.readline()) for _, _, result in self.children) / self.jobs

    def __exit__(self, *exc) -> None:
        for pid, command, result in self.children:
            os.write(command, b"q")
            os.close(command)
            result.close()
            os.waitpid(pid, 0)
        self.children = []


class Scaler:
    """Scales timed intervals by the reference loop measured between them.

    The loop runs before the first interval and after each one; an
    interval's scale is REFERENCE_NS over the median of the WINDOW loop
    times on each side of it, which follows the host's speed over seconds
    without adding one loop's jitter to every interval.  With `cores`
    it measures every core at once, for work that runs on a process pool.
    """

    WINDOW = 5

    def __init__(self, cores: Cores = None) -> None:
        self.measure = measure if cores is None else cores.measure
        self.refs = [self.measure()]
        self.raw: list = []

    def add(self, ns) -> None:
        """Record one interval (None for an item that failed)."""
        self.raw.append(ns)
        self.refs.append(self.measure())

    def scaled(self) -> list:
        out = []
        for i, ns in enumerate(self.raw):
            if ns is None:
                continue
            window = self.refs[max(0, i + 1 - self.WINDOW): i + 1 + self.WINDOW]
            out.append(ns * REFERENCE_NS / statistics.median(window))
        return out

    def host_factor(self) -> float:
        """Raw over scaled time: above 1 when this host ran slower than the reference."""
        scaled = sum(self.scaled())
        return sum(ns for ns in self.raw if ns is not None) / scaled if scaled else 1.0
