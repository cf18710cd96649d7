#!/usr/bin/env python3
"""Write perfbench/baseline.json: base-seed digests, environment, first numbers.

    python3 perfbench/record.py digests              # run each workload once at the base seed
    python3 perfbench/record.py numbers RESULTS...   # medians of saved run.py result lines

The digests are the reference every later run at the base seed is checked
against, so re-record them only for a change that is meant to alter
simulation results.  Each RESULTS file holds the stdout of run.py calls
for one workload and trace mode, named <workload>.trace<0|1>.txt.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path

import run
import workloads
from workloads import Context, runs_digest


def environment() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "pool_jobs": run.pool_jobs(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mp_start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
        "cpu": cpu,
    }


def record_digests(baseline: dict) -> None:
    dt = run.load_dtcsim()
    seed = baseline["base_seed"]
    run.TMP_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TMP_DIR) as tmp:
        ctx = Context(Path(tmp), run.pool_jobs())
        for name, workload in workloads.WORKLOADS.items():
            runs = []
            for item in workload.setup(dt, seed, ctx):
                runs.extend(workload.execute(dt, item, ctx)[1])
            bad = [f"{r.key}: {e}" for r in runs for e in r.invariant_errors()]
            if bad:
                raise SystemExit(f"{name}: invariants broken, not recording: {bad}")
            baseline["workloads"][name] = {
                "digest": runs_digest(runs),
                "runs": {r.key: r.digest() for r in runs},
            }
            print(f"{name}: {len(runs)} runs, digest {baseline['workloads'][name]['digest']}")
    baseline["environment"] = environment()


def record_numbers(baseline: dict, paths: list) -> None:
    numbers = baseline.setdefault("first_numbers", {})
    for path in map(Path, paths):
        name, mode = path.stem.rsplit(".trace", 1)
        results = [json.loads(line) for line in path.read_text().splitlines()
                   if line.startswith('{"correct"')]
        section = numbers.setdefault(name, {}).setdefault("trace" + mode, {})
        section["runs"] = len(results)
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            section[metric] = {"median": statistics.median(values),
                               "unit": results[0]["metrics"][metric]["unit"]}


def main() -> int:
    baseline = json.loads(run.BASELINE.read_text())
    if sys.argv[1:2] == ["digests"]:
        record_digests(baseline)
    elif sys.argv[1:2] == ["numbers"] and len(sys.argv) > 2:
        record_numbers(baseline, sys.argv[2:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    run.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
