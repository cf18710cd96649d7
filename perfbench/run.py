#!/usr/bin/env python3
"""dtcsim benchmark: measure one workload, check its results, print its metrics.

    python3 perfbench/run.py --workload chain-baseline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload, both modes

Run from anywhere; the simulator is imported from the checkout's src/.
``--trace 0`` measures the end-to-end metrics with no wrapper installed;
``--trace 1`` runs the separate traced passes and prints the per-layer
metrics.  Metric names and units are those of BENCHMARK.json.  The last
line of stdout is one JSON object; the exit status is 1 when any run failed
(LivenessError or other exception, broken invariant, result that differs
between repetitions or from the digest recorded for the base seed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

import reference
import replay
import tracer as tracing
import workloads
from workloads import Context, runs_digest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE = BENCH_DIR / "baseline.json"
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
DEADLINE_S = 170            # a run that hangs is stopped before the 180 s limit


class Deadline(BaseException):
    """Raised by the alarm; not an Exception, so no run handler swallows it."""


def _deadline(signum, frame):
    raise Deadline(f"no result after {DEADLINE_S} s")


def load_dtcsim():
    """Import dtcsim from ROOT/src, and nowhere else."""
    src = ROOT / "src"
    if not (src / "dtcsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no dtcsim sources under {src}")
    sys.path.insert(0, str(src))
    import dtcsim.cli
    import dtcsim.harness

    if not Path(dtcsim.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: dtcsim imported from {dtcsim.__file__}, not {src}")
    return types.SimpleNamespace(harness=dtcsim.harness, cli=dtcsim.cli)


def pool_jobs() -> int:
    return max(1, min(len(os.sched_getaffinity(0)), workloads.MAX_JOBS))


# -- result checking ---------------------------------------------------------------


class Checker:
    """Counts runs attempted and failed; names each failure."""

    def __init__(self, name: str, expected) -> None:
        self.name = name
        self.expected = expected            # run key -> digest at the base seed, else None
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, key: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(f"{self.name}: {key}: {detail}")

    def crashed(self, item, exc: BaseException) -> None:
        for key in item.keys:
            self.attempted += 1
            self._fail(key, f"{type(exc).__name__}: {exc}")

    def check(self, item, runs) -> bool:
        got = {run.key: run for run in runs}
        ok = True
        for key in item.keys:
            self.attempted += 1
            run = got.pop(key, None)
            if run is None:
                self._fail(key, "missing from the results")
                ok = False
                continue
            errors = run.invariant_errors()
            digest = run.digest()
            if self.first.setdefault(key, digest) != digest:
                errors.append("result differs from an earlier repetition")
            if self.expected is not None:
                want = self.expected.get(key)
                if want is None:
                    errors.append("no digest recorded for this run")
                elif want != digest:
                    errors.append("result differs from the recorded base-seed digest")
            if errors:
                self._fail(key, "; ".join(errors))
                ok = False
        for key in got:
            self._fail(key, "unexpected run in the results")
            ok = False
        return ok

    def check_digest(self, want, runs) -> None:
        """Whole-workload digest; counts as a failed run only when no run failed yet."""
        if want is not None and runs_digest(runs) != want:
            self.failures.append(f"{self.name}: all runs: workload digest differs "
                                 "from the recorded base-seed digest")
            self.failed = max(self.failed, 1)


def run_item(workload, dt, item, ctx: Context, checker: Checker):
    """Execute one item; host ns when every run in it passed, else None."""
    try:
        ns, runs = workload.execute(dt, item, ctx)
    except Exception as exc:        # a failing run is counted, the benchmark goes on
        traceback.print_exc(file=sys.stderr)
        checker.crashed(item, exc)
        return None, []
    return (ns if checker.check(item, runs) else None), runs


# -- end-to-end --------------------------------------------------------------------


def measure_setup(name: str, seed: int) -> float:
    """Median scaled wall time of a fresh interpreter importing dtcsim and building inputs."""
    scaler = reference.Scaler()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        scaler.add(time.perf_counter_ns() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return statistics.median(scaler.scaled()) / 1e9


def tail(samples: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples above it.

    Below 20 samples that percentile would sit under the median, so the
    maximum is reported instead, as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, dt, seed: int, seconds: float, ctx: Context, checker: Checker, want):
    setup_s = measure_setup(workload.name, seed)
    items = workload.setup(dt, seed, ctx)
    tracing.assert_unwrapped()
    run_item(workload, dt, items[0], ctx, checker)      # warm-up, checked too
    segments, first_rep = 0, []
    with contextlib.ExitStack() as stack:
        cores = None if workload.single_process else stack.enter_context(reference.Cores(ctx.jobs))
        scaler = reference.Scaler(cores)
        start = time.perf_counter()
        i = 0
        while i < len(items) or time.perf_counter() - start < seconds:
            item = items[i % len(items)]
            ns, runs = run_item(workload, dt, item, ctx, checker)
            scaler.add(ns)
            if i < len(items):
                first_rep.extend(runs)
            if ns is not None:
                segments += item.segments
            i += 1
    samples = scaler.scaled()
    tracing.assert_unwrapped()
    checker.check_digest(want, first_rep)
    if not samples:
        return None, []
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not workload.single_process:
        usage += ctx.jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    tail_ns, tail_pct = tail(samples)
    notes = [
        f"samples: {len(samples)} timed items of {items[0].segments} segments each",
        f"run_ms_tail is percentile {tail_pct:.1f} of {len(samples)} samples",
        f"host times scaled to the reference host: this host took {scaler.host_factor():.3f}x "
        f"as long, unscaled segments_per_s {segments / (sum(samples) * scaler.host_factor() / 1e9):.1f}",
    ]
    if not workload.single_process:
        notes.append(f"one sample is one whole sweep; pool jobs: {ctx.jobs}")
    metrics = {
        "segments_per_s": segments / (sum(samples) / 1e9),
        "run_ms_p50": statistics.median(samples) / 1e6,
        "run_ms_tail": tail_ns / 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": usage,
    }
    return metrics, notes


# -- traced run --------------------------------------------------------------------


class Pass:
    """Totals of one pass over some items."""

    def __init__(self) -> None:
        self.wall = 0               # host ns inside the program calls
        self.scaled = 0.0           # the same, scaled to the reference host
        self.executions = 0
        self.segments = 0
        self.stats: dict = {}       # parent's span aggregates
        self.ovh = 0                # parent's wrapper cost
        self.top = 0                # parent's corrected top-level span time
        self.counters: dict = {}
        self.workers: list = []     # dumps of pool workers
        self.stragglers: list = []  # seconds, per pooled execution

    def merged(self) -> dict:
        total = {key: list(v) for key, v in self.stats.items()}
        for dump in self.workers:
            for key, v in dump["stats"].items():
                t = total.setdefault(key, [0, 0, 0])
                for k in range(3):
                    t[k] += v[k]
        return total


def run_pass(workload, dt, items, ctx, checker, cores, tracer=None, seconds=0.0) -> Pass:
    """Whole passes over items until `seconds` have elapsed (at least one)."""
    result = Pass()
    scaler = reference.Scaler(cores)
    start = time.perf_counter()
    while True:
        for item in items:
            ns, _ = run_item(workload, dt, item, ctx, checker)
            scaler.add(ns)
            if tracer is not None and tracer.worker_dir is not None:
                dumps = tracing.Tracer.load_workers(tracer.worker_dir)
                result.workers.extend(dumps)
                ends = [max(end for _, end in d["run_spans"]) for d in dumps if d["run_spans"]]
                if len(ends) > 1:
                    result.stragglers.append((max(ends) - min(ends)) / 1e9)
            if ns is not None:
                result.wall += ns
                result.executions += 1
                result.segments += item.segments
        if time.perf_counter() - start >= seconds:
            break
    result.scaled = sum(scaler.scaled())
    if tracer is not None:
        result.stats = {key: list(v) for key, v in tracer.stats.items()}
        result.ovh, result.top = tracer.ovh[0], tracer.stack[0]
        result.counters = dict(tracer.counters)
    return result


def traced_pass(tracer, targets, ctx, body, probes=False) -> Pass:
    tracer.reset()
    tracer.install(targets, probes=probes)
    ctx.tracer = None if probes else tracer
    try:
        return body()
    finally:
        ctx.tracer = None
        tracer.uninstall()


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(full: Pass, light: Pass, probe: Pass, ref: Pass, jobs: int) -> dict:
    stats, outer = full.merged(), light.merged()

    def calls(key):
        return stats.get(key, [0, 0, 0])[0]

    def ns_per_call(key):
        s = stats.get(key, [0, 0, 0])
        return _ratio(s[1], s[0])

    def incl(table, *keys):
        return sum(table.get(key, [0, 0, 0])[1] for key in keys)

    layer_self = {layer: 0 for layer in tracing.LAYERS}
    for key, (_, _, self_ns) in stats.items():
        layer = key.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0) + self_ns
    if full.workers:
        # the parent blocked in the pool is waiting, not working
        layer_self["harness"] -= full.stats.get("harness.sweep", [0, 0, 0])[2]
    layer_self = {layer: max(0, v) for layer, v in layer_self.items()}
    unattributed = max(0, full.wall - full.ovh - full.top)
    whole = sum(layer_self.values()) + unattributed
    segs = full.segments
    c = probe.counters
    m = {}
    m["events.schedule.calls_per_seg"] = _ratio(calls("events.schedule"), segs)
    m["events.schedule.ns_per_call"] = ns_per_call("events.schedule")
    m["events.pop_next.ns_per_call"] = ns_per_call("events.pop_next")
    m["events.uniform_draw.calls_per_seg"] = _ratio(calls("events.uniform_draw"), segs)
    m["events.queue_depth_max"] = c.get("events.queue_depth_max", 0)
    m["linklayer.transmit.calls_per_seg"] = _ratio(calls("linklayer.transmit"), segs)
    m["linklayer.transmit.ns_per_call"] = ns_per_call("linklayer.transmit")
    m["linklayer.ll_acknowledge.ns_per_call"] = ns_per_call("linklayer.ll_acknowledge")
    m["linklayer.delivered_frac"] = _ratio(c.get("linklayer.delivered", 0), c.get("linklayer.attempts", 0))
    m["engine.self_ns_per_event"] = _ratio(layer_self["engine"], calls("events.pop_next"))
    m["engine.trace_frac"] = _ratio(sum(max(0, stats.get(k, [0, 0, 0])[2]) for k in tracing.TRACE_KEYS), whole)
    m["node.on_data.calls_per_seg"] = _ratio(calls("node.on_data"), segs)
    m["node.on_data.ns_per_call"] = ns_per_call("node.on_data")
    m["node.on_ack.ns_per_call"] = ns_per_call("node.on_ack")
    m["node.timer_fires_per_seg"] = _ratio(c.get("node.timer_fires", 0), probe.segments)
    m["node.stale_timer_frac"] = _ratio(c.get("node.stale_timers", 0), c.get("node.timer_fires", 0))
    m["node.actions_per_call"] = _ratio(c.get("node.actions", 0), c.get("node.handler_calls", 0))
    m["packets.sack_covers.calls_per_seg"] = _ratio(calls("packets.sack_covers"), segs)
    m["packets.ack_new.calls_per_seg"] = _ratio(calls("packets.ack_new"), segs)
    m["packets.render_payload.ns_per_call"] = ns_per_call("packets.render_payload")
    m["endpoints.sender_on_ack.ns_per_call"] = ns_per_call("endpoints.sender_on_ack")
    m["endpoints.sender_on_rto.calls_per_seg"] = _ratio(calls("endpoints.sender_on_rto"), segs)
    m["endpoints.stale_rto_frac"] = _ratio(c.get("endpoints.stale_rtos", 0),
                                           c.get("endpoints.sender_on_rto.calls", 0))
    m["endpoints.receiver_on_data.ns_per_call"] = ns_per_call("endpoints.receiver_on_data")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_frac"] = _ratio(layer_self[layer], whole)
    worker_busy = sum(d["stats"].get("harness.run_record", [0, 0, 0])[1] for d in light.workers)
    m["harness.sweep.parallel_efficiency"] = _ratio(worker_busy, jobs * incl(light.stats, "harness.sweep"))
    m["harness.sweep.straggler_s"] = statistics.median(light.stragglers) if light.stragglers else 0.0
    m["harness.run.setup_frac"] = _ratio(incl(outer, "engine.setup"), incl(outer, "harness.run"))
    m["harness.aggregate.ms"] = _ratio(incl(outer, "harness.aggregate") / 1e6, light.executions)
    m["cli.write_frac"] = _ratio(incl(outer, "cli.write_runs", "cli.write_summary", "cli.stdout"),
                                 incl(outer, "cli.main"))
    m["trace_overhead_frac"] = _ratio(full.scaled / max(full.executions, 1),
                                      ref.scaled / max(ref.executions, 1)) - 1
    return m


def traced(workload, dt, seed: int, seconds: float, ctx: Context, checker: Checker):
    items = workload.setup(dt, seed, ctx)
    subset = workload.trace_items(items)
    tracer = tracing.Tracer()
    tracer.calibrate()
    tracer.worker_dir = ctx.tmp
    tracing.assert_unwrapped()
    run_item(workload, dt, subset[0], ctx, checker)     # warm-up
    probe_items = workload.probe_items(items)
    probe_checker = Checker(workload.name, None)        # its seed set differs on sweep-grid
    with contextlib.ExitStack() as stack:
        cores = None if workload.single_process else stack.enter_context(reference.Cores(ctx.jobs))
        ref = run_pass(workload, dt, subset, ctx, checker, cores)
        light = traced_pass(tracer, tracing.OUTER_TARGETS, ctx,
                            lambda: run_pass(workload, dt, subset, ctx, checker, cores, tracer))
        full = traced_pass(tracer, tracing.FULL_TARGETS, ctx,
                           lambda: run_pass(workload, dt, subset, ctx, checker, cores, tracer,
                                            seconds / 2))
        probe = traced_pass(tracer, tracing.FULL_TARGETS, ctx,
                            lambda: run_pass(workload, dt, probe_items, ctx, probe_checker, cores,
                                             tracer),
                            probes=True)
    tracing.assert_unwrapped()
    checker.attempted += probe_checker.attempted
    checker.failed += probe_checker.failed
    checker.failures += probe_checker.failures

    metrics = layer_metrics(full, light, probe, ref, ctx.jobs)
    metrics.update(replay.replay_metrics(tracer.streams, tracer.queue_ops))
    notes = [
        f"wrapper cost: {tracer.o_in:.0f} ns inside a span, {tracer.o_total:.0f} ns per call, subtracted",
        f"traced items: {full.executions} (full), {light.executions} (light), {ref.executions} (untraced)",
    ]
    if tracer.missing:
        notes.append(f"names not found, not traced: {sorted(set(tracer.missing))}")
    if probe.counters.get("probe_errors"):
        notes.append(f"probe errors: {probe.counters['probe_errors']}")
    if isinstance(workload, workloads.Chain):
        split = replay.cprofile_split(lambda: dt.harness.run(subset[0].arg), ROOT / "src" / "dtcsim")
        notes.append("cProfile tottime share vs traced self_frac, one run:")
        for module in sorted(set(split) | set(tracing.LAYERS)):
            traced_frac = metrics.get(f"{module}.self_frac")
            shown = "-" if traced_frac is None else f"{traced_frac:.3f}"
            notes.append(f"  {module:<10} cprofile {split.get(module, 0.0):.3f}  traced {shown}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spans-{workload.name}-seed{seed}.json").write_text(json.dumps({
        "full": full.merged(), "light": light.merged(), "probe_counters": probe.counters,
        "wrapper_ns": {"inside": tracer.o_in, "total": tracer.o_total},
    }, indent=1, sort_keys=True))
    return metrics, notes


# -- entry points ------------------------------------------------------------------


def _units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def run_one(args) -> int:
    dt = load_dtcsim()
    workload = workloads.WORKLOADS[args.workload]
    TMP_DIR.mkdir(exist_ok=True)
    ctx = Context(Path(tempfile.mkdtemp(dir=TMP_DIR)), pool_jobs())
    if args.setup_probe:
        workload.setup(dt, args.seed, ctx)
        shutil.rmtree(ctx.tmp)
        return 0
    baseline = json.loads(BASELINE.read_text())
    recorded = baseline["workloads"].get(workload.name, {})
    at_base = args.seed == baseline["base_seed"]
    checker = Checker(workload.name, recorded.get("runs", {}) if at_base else None)
    want = recorded.get("digest", "") if at_base else None
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        if args.trace:
            metrics, notes = traced(workload, dt, args.seed, args.seconds, ctx, checker)
        else:
            metrics, notes = end_to_end(workload, dt, args.seed, args.seconds, ctx, checker, want)
    finally:
        signal.alarm(0)
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    units = _units("per_layer" if args.trace else "end_to_end")
    if metrics is not None and set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for line in checker.failures:
        print(f"FAILED {line}")
    print(f"failed_frac: {checker.failed / max(checker.attempted, 1):.6f} "
          f"({checker.failed} of {checker.attempted} runs)")
    if metrics is None:
        units = {}                  # no run passed, so nothing was measured
    for name in units:
        print(f"{name:<42} {metrics[name]:>16.6f} {units[name]}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak memory is per workload."""
    modes = [args.trace] if args.trace is not None else [0, 1]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        for mode in modes:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(mode)],
                stdout=subprocess.PIPE, text=True,
            )
            print(proc.stdout, end="", flush=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
            if not lines:
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    args.trace = args.trace or 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
