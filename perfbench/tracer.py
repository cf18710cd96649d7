"""Outside-in tracing of dtcsim: wrappers installed at the names callers look up.

A traced pass replaces module attributes and class methods of dtcsim with
wrappers, runs the workload, and restores the originals.  Nothing inside
dtcsim is edited, so the end-to-end passes (no wrappers) measure the
program exactly as users run it.

Three kinds of wrapper exist, one kind per pass:

* timed wrappers keep, per span key, the call count, the inclusive time
  and the self time (inclusive minus the inclusive time of wrapped
  children).  Each wrapper's own cost is calibrated on a no-op function
  and subtracted, so parents are not charged for their children's
  wrappers;
* probe wrappers take no time; they count outcomes (frames delivered,
  stale timers, actions emitted) and record argument streams for replay;
* the light pass uses timed wrappers on the outer layers only (harness,
  cli and the engine's set-up/run split), so sweep-level ratios are not
  inflated by inner wrappers.

Spans are aggregated per key in memory.  Pool workers are forked with the
wrappers installed; each worker resets its copy of the state on its first
run and dumps its aggregates to a file after every run, which the parent
merges once the sweep returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from pathlib import Path

CLOCK = time.perf_counter_ns        # CLOCK_MONOTONIC on Linux: comparable across processes
STREAM_CAP = 100_000                # recorded calls per replay stream
QUEUE_OPS_CAP = 60_000              # recorded event-queue operations (one queue)

# (module, attribute path, span key).  Each entry is the name a caller looks
# up at call time: engine imports transmit into its own namespace, the node
# module imports the SACK algebra, cli imports harness.run as run_scenario.
OUTER_TARGETS = [
    ("dtcsim.cli", "main", "cli.main"),
    ("dtcsim.cli", "load_config", "cli.load_config"),
    ("dtcsim.cli", "cmd_run", "cli.cmd_run"),
    ("dtcsim.cli", "cmd_sweep", "cli.cmd_sweep"),
    ("dtcsim.cli", "_write_runs_csv", "cli.write_runs"),
    ("dtcsim.cli", "_write_summary_csv", "cli.write_summary"),
    ("dtcsim.cli", "run_scenario", "harness.run"),
    ("dtcsim.cli", "sweep", "harness.sweep"),
    ("dtcsim.cli", "aggregate", "harness.aggregate"),
    ("dtcsim.harness", "run", "harness.run"),
    ("dtcsim.harness", "sweep", "harness.sweep"),
    ("dtcsim.harness", "aggregate", "harness.aggregate"),
    ("dtcsim.harness", "_run_record", "harness.run_record"),
    ("dtcsim.engine", "Simulation.__init__", "engine.setup"),
    ("dtcsim.engine", "Simulation.run", "engine.run"),
]

INNER_TARGETS = [
    ("dtcsim.events", "EventQueue.schedule", "events.schedule"),
    ("dtcsim.events", "EventQueue.pop_next", "events.pop_next"),
    ("dtcsim.events", "RandomSource.uniform_draw", "events.uniform_draw"),
    ("dtcsim.engine", "transmit", "linklayer.transmit"),
    ("dtcsim.engine", "ll_acknowledge", "linklayer.ll_acknowledge"),
    ("dtcsim.engine", "derive_loss_model", "linklayer.derive_loss_model"),
    ("dtcsim.engine", "render_payload", "packets.render_payload"),
    ("dtcsim.engine", "Simulation._trace_hop", "engine.trace_hop"),
    ("dtcsim.node", "sack_covers", "packets.sack_covers"),
    ("dtcsim.node", "sack_add", "packets.sack_add"),
    ("dtcsim.node", "gaps_filled_with", "packets.gaps_filled_with"),
    ("dtcsim.node", "AckSegment", "packets.ack_new"),
    ("dtcsim.endpoints", "AckSegment", "packets.ack_new"),
    ("dtcsim.packets", "AckSegment", "packets.ack_new"),
    ("dtcsim.node", "CachingNode.on_data", "node.on_data"),
    ("dtcsim.node", "CachingNode.on_ack", "node.on_ack"),
    ("dtcsim.node", "CachingNode.on_ll_ack", "node.on_ll_ack"),
    ("dtcsim.node", "CachingNode.on_ll_timeout", "node.on_ll_timeout"),
    ("dtcsim.node", "CachingNode.on_local_rto", "node.on_local_rto"),
    ("dtcsim.endpoints", "TcpSender.start", "endpoints.sender_start"),
    ("dtcsim.endpoints", "TcpSender.on_ack", "endpoints.sender_on_ack"),
    ("dtcsim.endpoints", "TcpSender.on_rto", "endpoints.sender_on_rto"),
    ("dtcsim.endpoints", "TcpSender.on_send_slot", "endpoints.sender_on_send_slot"),
    ("dtcsim.endpoints", "TcpReceiver.on_data", "endpoints.receiver_on_data"),
]

FULL_TARGETS = OUTER_TARGETS + INNER_TARGETS

LAYERS = ("events", "linklayer", "packets", "node", "endpoints", "engine", "harness", "cli")

# spans whose self time is trace production (the note lines built inline in
# engine._apply are not separable from the outside)
TRACE_KEYS = ("engine.trace_hop", "packets.render_payload", "cli.trace_sink")

MARK = "__perfbench_wrapper__"


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value), or None when the name no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):                 # the function itself, not a bound method
        value = owner.__dict__.get(name)
    else:
        value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


def assert_unwrapped() -> None:
    """End-to-end numbers are only valid with every original in place."""
    found = [f"{module_name}.{path}" for module_name, path, _ in FULL_TARGETS
             if getattr((_resolve(module_name, path) or (None, None, None))[2], MARK, False)]
    if found:
        raise RuntimeError(f"benchmark wrappers installed during an untraced pass: {found}")


class Tracer:
    """Span aggregates for one process; see the module docstring."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}        # key -> [calls, incl_ns, self_ns]
        self.stack = [0]                        # per open span: corrected child time
        self.ovh = [0]                          # wrapper cost charged so far
        self.o_in = 0                           # calibrated cost inside [t0, t1]
        self.o_total = 0                        # calibrated cost of one wrapped call
        self.counters: dict[str, float] = {}
        self.streams: dict[str, list] = {}
        self.queue_ops: list = []
        self._queue = None
        self.run_spans: list = []               # (start_ns, end_ns) of harness.run_record
        self.worker_dir = None
        self.pid = self.parent_pid = os.getpid()
        self.missing: list = []
        self._installed: list = []

    # -- calibration ------------------------------------------------------------

    def calibrate(self, calls: int = 100_000, trials: int = 7) -> None:
        """Measure the wrapper's own cost on a no-op method.

        Most wrapped names are methods called with a few positional
        arguments (EventQueue.schedule, CachingNode.on_ack), so the no-op
        is called the same way.
        """
        class Direct:
            def noop(self, a, b, c):
                return None

        ins, totals = [], []
        for _ in range(trials):
            self.o_in = self.o_total = 0
            scratch = [0, 0, 0]
            wrapped = type("Wrapped", (), {"noop": self._timed(Direct.noop, scratch)})()
            direct = Direct()
            rng = range(calls)
            t0 = CLOCK()
            for _ in rng:
                pass
            t1 = CLOCK()
            for _ in rng:
                direct.noop(1, 2, 3)
            t2 = CLOCK()
            for _ in rng:
                wrapped.noop(1, 2, 3)
            t3 = CLOCK()
            loop = t1 - t0
            call = (t2 - t1 - loop) / calls
            ins.append(scratch[1] / calls - call)
            totals.append((t3 - t2 - loop) / calls - call)
        self.o_in = max(0.0, statistics.median(ins))
        self.o_total = max(self.o_in, statistics.median(totals))
        self.reset()

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[0] = stat[1] = stat[2] = 0
        self.stack[:] = [0]
        self.ovh[0] = 0
        self.counters.clear()
        self.streams.clear()
        self.queue_ops = []
        self._queue = None
        self.run_spans = []

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, fn, stat):
        stack, ovh, clock = self.stack, self.ovh, CLOCK
        o_in, o_total = self.o_in, self.o_total

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            o0 = ovh[0]
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                raw = clock() - t0
                incl = raw - o_in - (ovh[0] - o0)
                child = stack.pop()
                stat[0] += 1
                stat[1] += incl
                stat[2] += incl - child
                stack[-1] += incl
                ovh[0] += o_total

        setattr(wrapper, MARK, True)
        return wrapper

    def _timed_run_record(self, fn, stat):
        """harness._run_record: the unit of work a pool worker receives."""
        inner = self._timed(fn, stat)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:       # first task in a forked worker
                tracer.pid = os.getpid()
                tracer.reset()
            start = CLOCK()
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.run_spans.append((start, CLOCK()))
                if tracer.worker_dir is not None and tracer.pid != tracer.parent_pid:
                    tracer.dump(Path(tracer.worker_dir) / f"worker-{tracer.pid}.json")

        setattr(wrapper, MARK, True)
        return wrapper

    def _timed_harness_run(self, fn, stat):
        """harness.run: also time the trace callback the caller passes in."""
        inner = self._timed(fn, stat)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if len(args) > 1 and args[1] is not None:
                args = (args[0], tracer.wrap_callable(args[1], "cli.trace_sink")) + args[2:]
            elif kwargs.get("trace") is not None:
                kwargs = dict(kwargs, trace=tracer.wrap_callable(kwargs["trace"], "cli.trace_sink"))
            return inner(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def wrap_callable(self, fn, key: str):
        """Timed wrapper for a callable that has no module-level name."""
        return self._timed(fn, self.stats.setdefault(key, [0, 0, 0]))

    def _make(self, fn, key: str, probes: bool):
        if probes:
            return self._probe(fn, key)
        stat = self.stats.setdefault(key, [0, 0, 0])
        if key == "harness.run_record":
            return self._timed_run_record(fn, stat)
        if key == "harness.run":
            return self._timed_harness_run(fn, stat)
        return self._timed(fn, stat)

    def install(self, targets, probes: bool = False) -> None:
        for module_name, path, key in targets:
            where = _resolve(module_name, path)
            if where is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, name, original = where
            setattr(owner, name, self._make(original, key, probes))
            self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    # -- probes (untimed counting pass) -------------------------------------------

    def _count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _record(self, key: str, args) -> None:
        stream = self.streams.setdefault(key, [])
        if len(stream) < STREAM_CAP:
            stream.append(args)

    def _queue_op(self, queue, op) -> None:
        if self._queue is None:
            self._queue = queue
        if queue is self._queue and len(self.queue_ops) < QUEUE_OPS_CAP:
            self.queue_ops.append(op)

    def _probe(self, fn, key: str):
        """Count calls and outcomes for key; record replay arguments."""
        tracer = self

        def before(args, kwargs):
            tracer._count(key + ".calls")
            if key == "events.schedule":
                tracer._queue_op(args[0], ("s",) + tuple(args[1:]))
            elif key == "events.pop_next":
                tracer._queue_op(args[0], ("p",))
            elif key in ("packets.sack_covers", "packets.sack_add", "packets.gaps_filled_with"):
                tracer._record(key, args)
            elif key == "packets.ack_new":
                sack = args[1] if len(args) > 1 else kwargs.get("sack", frozenset())
                tracer._record(key, (args[0], sack))
            elif key in ("node.on_ll_timeout", "node.on_local_rto"):
                tracer._count("node.timer_fires")
                if args[1] != args[0].timer_generation:
                    tracer._count("node.stale_timers")
            elif key == "endpoints.sender_on_rto":
                sender = args[0]
                if args[1] != sender.rto_generation or sender.completed_at is not None:
                    tracer._count("endpoints.stale_rtos")

        def after(args, result):
            if key == "events.schedule":
                depth = len(args[0])
                if depth > tracer.counters.get("events.queue_depth_max", 0):
                    tracer.counters["events.queue_depth_max"] = depth
            elif key in ("linklayer.transmit", "linklayer.ll_acknowledge"):
                tracer._count("linklayer.attempts")
                if result:
                    tracer._count("linklayer.delivered")
            elif key.startswith("node.on_") and isinstance(result, list):
                tracer._count("node.handler_calls")
                tracer._count("node.actions", len(result))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                before(args, kwargs)
            except (AttributeError, IndexError, TypeError):
                tracer._count("probe_errors")
            result = fn(*args, **kwargs)
            try:
                after(args, result)
            except (AttributeError, IndexError, TypeError):
                tracer._count("probe_errors")
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- worker exchange ----------------------------------------------------------

    def dump(self, path: Path) -> None:
        data = {"stats": self.stats, "ovh": self.ovh[0], "run_spans": self.run_spans}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data))
        tmp.replace(path)

    @staticmethod
    def load_workers(directory: Path) -> list:
        """Aggregates dumped by pool workers; the files are removed."""
        dumps = []
        for path in sorted(Path(directory).glob("worker-*.json")):
            dumps.append(json.loads(path.read_text()))
            path.unlink()
        return dumps
